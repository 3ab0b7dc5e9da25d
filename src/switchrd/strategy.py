"""Memoryless conditional switch rules and their synthesis.

A rule assigns to every offered symbol subset V a distribution f(.|V)
supported on V; the long-run output distribution is the beta-weighted mixture
of those conditionals. Synthesis of a rule for a target distribution is a
transportation feasibility problem (supplies beta(V), demands target(i), an
edge V -> i whenever i is in V) solved by exact augmenting-path max-flow; by
max-flow/min-cut the infeasible case always yields a violated-subset
certificate, which is exactly a failed region constraint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InfeasibleError, ValidationError
from .probcore import Distribution, SourceList, choice_cdf
from .region import (
    beta_table,
    format_subset,
    q_of_subset,
    realizable_subsets,
    subset_members,
)

#: Residual separating "flow value 1" from an infeasible transportation plan.
FLOW_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SwitchRule:
    """Conditional output distributions keyed by offered-subset bitmask."""

    rules: Mapping[int, Distribution]

    def __post_init__(self):
        rules = dict(self.rules)
        if not rules:
            raise ValidationError("a switch rule needs at least one subset entry")
        sizes = {f.size for f in rules.values()}
        if len(sizes) != 1:
            raise ValidationError("all rule entries must share one alphabet")
        k = sizes.pop()
        for mask, f in rules.items():
            if mask <= 0 or mask >= (1 << k):
                raise ValidationError(f"subset mask {mask} out of range")
            if (f.probs < 0).any():
                raise ValidationError(f"rule for {format_subset(mask)} has a negative entry")
            off = [i for i in range(k) if not (mask >> i) & 1]
            if any(f.probs[i] > 1e-12 for i in off):
                raise ValidationError(
                    f"rule for {format_subset(mask)} puts mass outside the subset"
                )
        object.__setattr__(self, "rules", rules)

    @property
    def alphabet_size(self) -> int:
        return next(iter(self.rules.values())).size

    def serialize(self) -> str:
        """Canonical text map, one ``mask: p0 p1 ...`` line per subset."""
        lines = [
            f"{mask}: " + " ".join(f"{x:.12g}" for x in self.rules[mask].probs)
            for mask in sorted(self.rules)
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SwitchRule":
        rules = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(":")
            try:
                mask = int(head)
                probs = [float(tok) for tok in tail.split()]
            except ValueError as exc:
                raise ValidationError(f"bad rule line {line!r}") from exc
            rules[mask] = Distribution(probs)
        return cls(rules)


def induced_distribution(rule: SwitchRule, sources: SourceList) -> Distribution:
    """Overall output distribution: sum of beta(V) * f(.|V) over offered sets."""
    if rule.alphabet_size != sources.alphabet_size:
        raise ValidationError("rule and sources use different alphabets")
    betas = beta_table(sources)
    out = np.zeros(sources.alphabet_size)
    for mask in realizable_subsets(sources):
        f = rule.rules.get(mask)
        if f is None:
            raise ValidationError(
                f"rule has no entry for offered subset {format_subset(mask)}"
            )
        out += float(betas[mask]) * f.probs
    return Distribution(out)


def greedy_max_rule(sources: SourceList) -> SwitchRule:
    """Deterministic rule that always emits the largest offered symbol."""
    k = sources.alphabet_size
    rules = {}
    for mask in realizable_subsets(sources):
        rules[mask] = Distribution.point_mass(max(subset_members(mask)), k)
    return SwitchRule(rules)


def _max_flow(num_nodes: int, edges, source: int, sink: int):
    """Edmonds-Karp max flow with real capacities.

    ``edges`` is a list of (u, v, capacity) processed in order, which fixes the
    adjacency layout and hence breaks augmenting-path ties canonically.
    Returns (value, per-edge flow list, residual-reachability mask).
    """
    heads = []
    caps = []
    adj = [[] for _ in range(num_nodes)]
    for u, v, cap in edges:
        adj[u].append(len(heads))
        heads.append(v)
        caps.append(float(cap))
        adj[v].append(len(heads))
        heads.append(u)
        caps.append(0.0)

    def bfs_path():
        parent_edge = [-1] * num_nodes
        parent_edge[source] = -2
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in adj[u]:
                v = heads[eid]
                if parent_edge[v] == -1 and caps[eid] > FLOW_RESIDUAL_TOL:
                    parent_edge[v] = eid
                    if v == sink:
                        return parent_edge
                    queue.append(v)
        return None

    value = 0.0
    while True:
        parents = bfs_path()
        if parents is None:
            break
        bottleneck = np.inf
        v = sink
        while v != source:
            eid = parents[v]
            bottleneck = min(bottleneck, caps[eid])
            v = heads[eid ^ 1]
        v = sink
        while v != source:
            eid = parents[v]
            caps[eid] -= bottleneck
            caps[eid ^ 1] += bottleneck
            v = heads[eid ^ 1]
        value += bottleneck

    reachable = [False] * num_nodes
    reachable[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for eid in adj[u]:
            v = heads[eid]
            if not reachable[v] and caps[eid] > FLOW_RESIDUAL_TOL:
                reachable[v] = True
                queue.append(v)
    flows = [caps[2 * i + 1] for i in range(len(edges))]
    return value, flows, reachable


def synthesize_rule(
    target: Distribution, sources: SourceList, tol: float = 1e-8
) -> SwitchRule:
    """Build a rule whose induced distribution matches ``target``.

    Raises InfeasibleError with a certificate subset (a violated region
    constraint) when no rule exists. On success the induced distribution is
    within L1 distance ``tol`` of the target.
    """
    k = sources.alphabet_size
    if target.size != k:
        raise ValidationError("target and sources use different alphabets")
    masks = realizable_subsets(sources)
    betas = beta_table(sources)
    # node ids: 0 = supply, 1..len(masks) = offered subsets, then symbols, sink
    sym_base = 1 + len(masks)
    sink = sym_base + k
    edges = []
    for pos, mask in enumerate(masks):
        edges.append((0, 1 + pos, float(betas[mask])))
    middle_index = {}
    for pos, mask in enumerate(masks):
        for i in subset_members(mask):
            middle_index[(mask, i)] = len(edges)
            # capacity 2 > total supply, i.e. effectively unbounded: min cuts
            # never cross these edges, which is what makes the certificate a
            # subset of symbols
            edges.append((1 + pos, sym_base + i, 2.0))
    for i in range(k):
        edges.append((sym_base + i, sink, float(target.probs[i])))
    value, flows, reachable = _max_flow(sink + 1, edges, 0, sink)

    if 1.0 - value > FLOW_RESIDUAL_TOL:
        cert = 0
        for i in range(k):
            if reachable[sym_base + i]:
                cert |= 1 << i
        if cert == 0:
            raise InfeasibleError(
                "transportation infeasible but no certificate subset found"
            )
        lhs = float(sum(target.probs[i] for i in subset_members(cert)))
        rhs = float(q_of_subset(sources, cert))
        raise InfeasibleError(
            f"target unattainable: mass {lhs:.12g} on {format_subset(cert)} "
            f"is below the required {rhs:.12g}",
            certificate=cert,
            lhs=lhs,
            rhs=rhs,
        )

    rules = {}
    for pos, mask in enumerate(masks):
        beta = float(betas[mask])
        f = np.zeros(k)
        for i in subset_members(mask):
            f[i] = max(flows[middle_index[(mask, i)]], 0.0) / beta
        rules[mask] = Distribution(f)
    rule = SwitchRule(rules)
    gap = float(np.abs(induced_distribution(rule, sources).probs - target.probs).sum())
    if gap > tol:
        raise InfeasibleError(
            f"synthesized rule misses the target by L1 {gap:.3g} (tol {tol:.3g})"
        )
    return rule


def apply_rule(
    rule: SwitchRule, realizations: np.ndarray, seed: int
) -> np.ndarray:
    """Run the switch over a block of source realizations.

    ``realizations`` has one row per source and one column per time step; at
    each step the offered set is the set of symbols in that column and the
    output is drawn from the rule's conditional for it. Deterministic given
    ``seed``; the output symbol always comes from the offered set.
    """
    realizations = np.asarray(realizations)
    if realizations.ndim != 2:
        raise ValidationError("realizations must be a sources-by-time matrix")
    if realizations.min() < 0 or realizations.max() >= rule.alphabet_size:
        raise ValidationError("realization symbols out of alphabet range")
    uniforms = np.random.default_rng(seed).random((1, realizations.shape[1]))
    return _apply_rule(rule, realizations[None], uniforms)[0]


def _apply_rule(
    rule: SwitchRule, realizations: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Run the switch over a batch of blocks, given one uniform per step.

    ``realizations`` is blocks x sources x time with symbols in range, and
    ``uniforms`` is blocks x time. Each block reproduces one
    ``Generator.choice`` call per offered mask, in ascending mask order, each
    drawing for that mask's columns in ascending time: the block's uniforms
    are consumed in that order, a stable sort of its columns by mask, and each
    becomes the count of entries of its mask's CDF (``choice_cdf``) that are
    <= it. A mask the rule lacks is an error, named for the first block that
    offers one.
    """
    masks = np.bitwise_or.reduce(np.left_shift(1, realizations, dtype=np.int64), axis=1)
    # each block's columns in the order its uniforms are consumed, as flat
    # positions; a dtype of at most 16 bits makes the stable sort a radix sort
    order = np.argsort(masks.astype(np.min_scalar_type(masks.max())), axis=-1, kind="stable")
    order += np.arange(0, masks.size, masks.shape[1])[:, None]
    offered = masks.take(order)
    keys = np.array(sorted(rule.rules), dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, offered), keys.size - 1)
    missing = keys[pos] != offered
    if missing.any():
        # masks ascend within each block: this is the first block's smallest
        mask = int(offered[missing][0])
        raise ValidationError(f"rule has no entry for offered subset {format_subset(mask)}")
    cdfs = choice_cdf(np.array([rule.rules[key].probs for key in keys.tolist()]))
    drawn = np.zeros(masks.shape, dtype=np.int64)
    # every CDF ends at exactly 1, above every uniform
    for column in cdfs.T[:-1]:
        drawn += column[pos] <= uniforms
    out = np.empty_like(drawn)
    out.put(order, drawn)
    return out
