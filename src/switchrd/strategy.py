"""Memoryless conditional switch rules and their synthesis.

A rule assigns to every offered symbol subset V a distribution f(.|V)
supported on V; the long-run output distribution is the beta-weighted mixture
of those conditionals. The attainable region is the core of the supermodular
set function Q, and its vertices are the laws of priority rules: "emit the
first offered symbol in order sigma" (Shapley 1971). Synthesis decides
attainability by the region's subset test, the comparison behind
``is_member``: an unattainable target is refused with its most violated
subset as the certificate. An attainable one goes to Wolfe's min-norm point
over the region shifted by the target, with the priority rules as its
linear-minimization oracle, and comes out as a mixture of at most k priority
rules, which is the rule returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, InfeasibleError, ValidationError
from .probcore import Distribution, SourceList, _check_symbols, choice_cdf
from .region import (
    RegionSpec,
    _check_alphabet_guard,
    _greedy_oracle,
    _min_norm_point,
    _shortfalls,
    beta_table,
    format_subset,
    realizable_subsets,
)

#: Largest L1 distance between a synthesized rule's induced law and its
#: target, the bound ``bench/checks.py`` holds every synthesized rule to.
_INDUCED_L1_TOL = 1e-8


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
            if mask in rules:
                raise ValidationError(f"rule lists subset mask {mask} twice")
            rules[mask] = Distribution(probs)
        return cls(rules)


def _check_rule_covers(rule: SwitchRule, sources: SourceList) -> None:
    """Raise ValidationError unless ``rule`` is over the sources' alphabet and
    has an entry for every subset they offer with positive probability; the
    message names the smallest offered subset the rule lacks."""
    if rule.alphabet_size != sources.alphabet_size:
        raise ValidationError("rule and sources use different alphabets")
    for mask in realizable_subsets(sources):
        if mask not in rule.rules:
            raise ValidationError(
                f"rule has no entry for offered subset {format_subset(mask)}"
            )


def induced_distribution(rule: SwitchRule, sources: SourceList) -> Distribution:
    """Overall output distribution: sum of beta(V) * f(.|V) over offered sets."""
    _check_rule_covers(rule, sources)
    betas = beta_table(sources)
    out = np.zeros(sources.alphabet_size)
    for mask in realizable_subsets(sources):
        out += float(betas[mask]) * rule.rules[mask].probs
    return Distribution(out)


def _priority_rule(orders, weights, sources: SourceList) -> SwitchRule:
    """The rule that, on every offered set V, emits the first symbol of V in
    order ``orders[i]`` with probability ``weights[i]``."""
    masks = np.array(realizable_subsets(sources))
    f = np.zeros((masks.size, sources.alphabet_size))
    first = np.empty(masks.size, dtype=np.int64)
    for order, weight in zip(orders, weights):
        # the last write for each set is its earliest symbol in the order
        for symbol in reversed(order):
            first[(masks >> symbol) & 1 == 1] = symbol
        f[np.arange(masks.size), first] += weight
    return SwitchRule({mask: Distribution(row) for mask, row in zip(masks.tolist(), f)})


def greedy_max_rule(sources: SourceList) -> SwitchRule:
    """Deterministic rule that always emits the largest offered symbol."""
    return _priority_rule([range(sources.alphabet_size - 1, -1, -1)], [1.0], sources)


def synthesize_rule(target: Distribution, sources: SourceList) -> SwitchRule:
    """Build a rule whose induced distribution matches ``target``.

    Attainability is decided by the region's subset test, the comparison
    behind ``is_member``: a target short of Q(V) on some subset V raises
    InfeasibleError naming a most violated one (largest Q(V) - target(V),
    the smallest mask on ties) with the mass present (lhs) and required
    (rhs). For an attainable target, Wolfe's min-norm point over the region
    less the target, with the priority-rule oracle, writes the target as a
    mixture of at most k priority rules; that mixture is the rule, defined on
    every offered set. Raises ConvergenceError if the search runs out of
    major cycles, or if the rule's induced distribution is farther than L1
    ``_INDUCED_L1_TOL`` from the target.
    """
    if target.size != sources.alphabet_size:
        raise ValidationError("target and sources use different alphabets")
    lhs, rhs, short = _shortfalls(target.probs, RegionSpec(sources, 0))
    if short.any():
        cert = int(np.argmax(rhs - lhs))
        raise InfeasibleError(
            f"target unattainable: mass {lhs[cert]:.12g} on {format_subset(cert)} "
            f"is below the required {rhs[cert]:.12g}",
            certificate=cert,
            lhs=float(lhs[cert]),
            rhs=float(rhs[cert]),
        )
    oracle = _greedy_oracle(sources, target.probs)
    # start from the priority rule that ranks symbols by descending target mass
    _, orders, weights = _min_norm_point(oracle, oracle(-target.probs))
    rule = _priority_rule(orders, weights, sources)
    gap = float(np.abs(induced_distribution(rule, sources).probs - target.probs).sum())
    if gap > _INDUCED_L1_TOL:
        raise ConvergenceError(
            f"synthesized rule misses the attainable target by L1 {gap:.3g} "
            f"(tol {_INDUCED_L1_TOL:.3g})"
        )
    return rule


def apply_rule(
    rule: SwitchRule, realizations: np.ndarray, seed: int
) -> np.ndarray:
    """Run the switch over a block of source realizations.

    ``realizations`` has one row per source and one column per time step; at
    each step the offered set is the set of symbols in that column and the
    output is drawn from the rule's conditional for it. Step t reads the t-th
    uniform of ``np.random.default_rng(seed)``, so the output equals one
    ``Generator.choice(k, p=f(.|V_t))`` call per step, in time order, on that
    generator. The output symbol always comes from the offered set.
    """
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    realizations = np.asarray(realizations)
    if realizations.ndim != 2:
        raise ValidationError("realizations must be a sources-by-time matrix")
    if realizations.size == 0:
        raise ValidationError("a block needs at least one source and one time step")
    _check_symbols(realizations, rule.alphabet_size, "realization")
    # refused before the int64 masks below could overflow
    _check_alphabet_guard(rule.alphabet_size)
    offered = np.bitwise_or.reduce(np.left_shift(1, realizations.astype(np.int64)), axis=0)
    missing = np.setdiff1d(offered, list(rule.rules))
    if missing.size:
        raise ValidationError(
            f"rule has no entry for offered subset {format_subset(int(missing[0]))}"
        )
    uniforms = np.random.default_rng(seed).random((1, realizations.shape[1]))
    out = _apply_rule(rule, realizations[None].astype(np.uint8), uniforms)
    return out[0].astype(np.int64)


def _apply_rule(
    rule: SwitchRule, realizations: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Run the switch over a batch of blocks, given one uniform per step.

    ``realizations`` is blocks x sources x time, uint8 symbols in range, and
    ``uniforms`` is blocks x time; the output is blocks x time uint8. Every
    mask the blocks offer must have an entry in the rule, which the callers
    check: ``apply_rule`` on its block, ``simulate_game`` through
    ``_check_rule_covers`` (a drawn block only offers realizable subsets).
    Each step's offered mask is OR-ed from per-source shifts in the smallest
    unsigned dtype that holds every mask, then widened to ``intp`` once.
    Column j of the rule's CDFs (``choice_cdf``) is laid out in a table of
    2^k entries indexed by mask, and the output is the count of columns whose
    entry at the step's mask is <= the step's uniform, which is how
    ``Generator.choice`` maps the one double it draws for a scalar choice.
    The table is refused past ``ALPHABET_GUARD`` symbols.
    """
    k = rule.alphabet_size
    _check_alphabet_guard(k)
    one = np.min_scalar_type((1 << k) - 1).type(1)
    sources = realizations.swapaxes(0, 1)
    masks = np.left_shift(one, sources[0])
    for row in sources[1:]:
        masks |= np.left_shift(one, row)
    # a gather through a narrow index is slow in numpy 2.4: on 52,000 steps,
    # take on uint8 masks measured about 400 us, against 16 us to widen them
    # once and 80 us per gather through intp
    masks = masks.astype(np.intp)
    entries = list(rule.rules)
    cdfs = choice_cdf(np.array([f.probs for f in rule.rules.values()]))
    table = np.zeros(1 << k)
    drawn = np.zeros(masks.shape, dtype=np.uint8)
    # every CDF ends at exactly 1, above every uniform
    for column in cdfs.T[:-1]:
        table[entries] = column
        drawn += table[masks] <= uniforms
    return drawn
