"""Seeded input generator for the switchrd benchmark.

``build(workload, seed, workdir)`` writes YAML problem files under
``workdir`` and returns the workload's fixed op list. The same (workload,
seed) always yields byte-identical files and the same ops; the program under
test only ever sees those files and the argv of each op (plus, for the
library ops, arrays built here).

Two random streams feed each workload. The values of the generated
instances (source rows, distortion matrices, and the targets and membership
points asked of them) come from ``BASE_SEED``, fixed per workload. The run's
``seed`` relabels the symbols of every generated instance, and draws the
simulation targets and seeds and the best-response blocks on the shipped
files. A relabelled instance is the same problem under new names, so runs
with different seeds do the same amount of solver work. The
solver's failures depend chaotically on the exact source values, and fresh
values per run would make one run's wall time differ from the next by the
cost of a few failed solves (1-7 s each).

Every probability is written exactly: decimal rows are integer compositions
of 10**6 printed as six-decimal numbers, and the exact-rational file uses
``a/b`` entries with one common denominator, so every row sums to 1 exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import yaml

WORKLOADS = ("worst_case", "region_scale", "game_desk")

#: Seed of the instance values; see the module docstring.
BASE_SEED = 0

#: Shipped problem files, relative to the checkout root.
SHIPPED = ("problems/binary_pair.yaml", "problems/ternary_demo.yaml")

#: worst_case: generated instances as (k, m, Hamming?). k <= 3 takes the
#: optimizer's grid path and k = 4 its multistart ascent.
WORST_CASE_CLASSES = ((2, 3, False), (3, 2, True), (4, 3, True))
#: Interior distortion grid, as fractions of the way from an instance's floor
#: to its ceiling. 0.4 of the ternary demo's span is D = 0.2, a target at
#: which the rate solver is known to fail. Two targets keep a pass near 10 s,
#: so a 30-s run fits two or three passes.
D_FRACTIONS = (0.4, 0.85)
#: Points of each ``rd --curve`` op.
RD_CURVE_POINTS = 11

#: region_scale: generated decimal instances as (k, m).
REGION_CLASSES = ((8, 3), (9, 2), (10, 2))
#: The exact-rational instance: k, m, common denominator, delta.
RATIONAL = (8, 3, 997, Fraction(1, 50))
#: The joint-mode instance: k, m.
JOINT = (8, 2)

#: game_desk: blocklength of the long simulation ops and, per shipped file,
#: how many seeds its run is split into and the trials of each. Sorted by
#: latency a pass is 6 best-response ops, 6 ternary simulations, 4 binary ones
#: and 2 codebook ops, so the median op falls mid-way through the ternary
#: group and the fifth slowest inside the binary one: each statistic reads a
#: group of like ops of half a second or more, not the edge between two kinds.
SIM_LONG_N = 1000
SIM_LONG = {"problems/binary_pair.yaml": (4, 2000), "problems/ternary_demo.yaml": (6, 1000)}
#: Blocklength of the covering-codebook op per shipped file, with its target
#: distortion and trials.
SIM_CODEBOOK_N = {"problems/binary_pair.yaml": 12, "problems/ternary_demo.yaml": 8}
SIM_CODEBOOK_D = "0.25"
SIM_CODEBOOK_TRIALS = 50
#: Best response on the ternary demo: blocklength, blocks per codebook, and
#: codebook sizes on either side of the library's switch from memoized search
#: (at most 8 words) to exhaustive enumeration.
BR_N = 14
BR_BLOCKS = 3
#: Membership points per instance on each side of the region.
REGION_CHECKS = 2
BR_CODEBOOK_SIZES = (6, 24)

_DECIMAL_SCALE = 10**6


@dataclass
class Op:
    """One benchmark operation.

    ``kind`` is "cli" (``argv`` is passed to ``switchrd.cli.main``) or
    "best_response" (``args`` names a problem file, a block and a codebook).
    ``check`` names the reference check in ``checks.py``; ``ctx`` holds what
    that check needs to know about the inputs.
    """

    name: str
    kind: str
    check: str
    expect_exit: int = 0
    argv: list = field(default_factory=list)
    args: dict = field(default_factory=dict)
    ctx: dict = field(default_factory=dict)


@dataclass
class Instance:
    """A problem file and the numbers in it, as floats."""

    path: str
    k: int
    rows: list  # one row per source; in joint mode, the source marginals
    distortion: list
    hamming: bool
    delta: float = 0.0
    joint: bool = False
    perm: list | None = None  # new label -> base label, for generated files

    def ctx(self, **extra) -> dict:
        return dict(self.__dict__, **extra)


# ---------------------------------------------------------------- numbers


def _composition(rng, k: int, total: int, floor_share: float = 0.2) -> np.ndarray:
    """k positive integers summing to ``total``: a Dirichlet draw mixed with
    the uniform vector (weight ``floor_share``), rounded by largest
    remainder so the sum is exact."""
    w = (1.0 - floor_share) * rng.dirichlet(np.ones(k)) + floor_share / k
    raw = w * total
    ints = np.floor(raw).astype(np.int64)
    short = total - int(ints.sum())
    ints[np.argsort(-(raw - ints), kind="stable")[:short]] += 1
    return ints


def _fmt_vec(vec) -> str:
    """A probability vector as argv text; repr keeps every float bit."""
    return ",".join(repr(float(x)) for x in vec)


def _hamming(k: int) -> np.ndarray:
    return 1 - np.eye(k, dtype=np.int64)


def _random_integer_distortion(rng, k: int) -> np.ndarray:
    """Zero diagonal (floor 0 for every source) and entries 1..3 elsewhere."""
    d = rng.integers(1, 4, size=(k, k))
    np.fill_diagonal(d, 0)
    return d


def _yaml_text(k, rows, distortion, *, delta="0", num_sources=None) -> str:
    """A problem file; ``rows`` are lists of number strings, and a given
    ``num_sources`` means joint mode with ``rows`` holding one flat PMF."""
    mode = "independent" if num_sources is None else "joint"
    lines = [f"alphabet_x: {k}", f"alphabet_y: {len(distortion[0])}", f"mode: {mode}",
             f"delta: {delta}"]
    if num_sources is None:
        lines.append("sources:")
        lines += ["  - [" + ", ".join(row) + "]" for row in rows]
    else:
        lines.append(f"num_sources: {num_sources}")
        lines.append("sources: [" + ", ".join(rows[0]) + "]")
    lines.append("distortion:")
    lines += ["  - [" + ", ".join(str(int(x)) for x in row) + "]" for row in distortion]
    return "\n".join(lines) + "\n"


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _independent_instance(base, rng, workdir, name, k, m, hamming) -> Instance:
    counts = np.array([_composition(base, k, _DECIMAL_SCALE) for _ in range(m)])
    dist = _hamming(k) if hamming else _random_integer_distortion(base, k)
    perm = rng.permutation(k)
    counts, dist = counts[:, perm], dist[np.ix_(perm, perm)]
    rows = [[f"{c / _DECIMAL_SCALE:.6f}" for c in row] for row in counts]
    path = _write(workdir, name, _yaml_text(k, rows, dist))
    return Instance(path, k, (counts / _DECIMAL_SCALE).tolist(), dist.tolist(), hamming,
                    perm=perm.tolist())


def _rational_instance(base, rng, workdir) -> Instance:
    k, m, denom, delta = RATIONAL
    counts = np.array([_composition(base, k, denom) for _ in range(m)])
    perm = rng.permutation(k)
    counts = counts[:, perm]
    rows = [[f"{c}/{denom}" for c in row] for row in counts]
    path = _write(workdir, f"rs_k{k}_m{m}_rational.yaml",
                  _yaml_text(k, rows, _hamming(k), delta=str(delta)))
    return Instance(path, k, (counts / denom).tolist(), _hamming(k).tolist(), True,
                    float(delta), perm=perm.tolist())


def _joint_instance(base, rng, workdir) -> Instance:
    """One PMF over source pairs, row-major with source 0 varying slowest."""
    k, m = JOINT
    joint = _composition(base, k**m, _DECIMAL_SCALE).reshape(k, k)
    perm = rng.permutation(k)
    joint = joint[np.ix_(perm, perm)]
    flat = [f"{c / _DECIMAL_SCALE:.6f}" for c in joint.ravel()]
    path = _write(workdir, f"rs_k{k}_m{m}_joint.yaml",
                  _yaml_text(k, [flat], _hamming(k), num_sources=m))
    marginals = [joint.sum(axis=1) / _DECIMAL_SCALE, joint.sum(axis=0) / _DECIMAL_SCALE]
    return Instance(path, k, [r.tolist() for r in marginals], _hamming(k).tolist(), True,
                    joint=True, perm=perm.tolist())


def _shipped_instance(path: str) -> Instance:
    """One of the repository's own problem files (independent mode, every
    entry a number or an ``a/b`` string)."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)

    def num(x) -> float:
        return float(Fraction(str(x)))

    rows = [[num(x) for x in row] for row in raw["sources"]]
    dist = [[num(x) for x in row] for row in raw["distortion"]]
    k = int(raw["alphabet_x"])
    return Instance(path, k, rows, dist, dist == _hamming(k).tolist(),
                    num(raw.get("delta", 0)))


def _mixture(rng, rows) -> np.ndarray:
    lam = rng.dirichlet(np.ones(len(rows)))
    return lam @ np.array(rows, dtype=float)


# ---------------------------------------------------------------- workloads


def _floor_and_ceiling(inst: Instance) -> tuple[float, float]:
    """Largest floor and largest zero-rate ceiling among the source rows (the
    hull's vertices), both of which the region contains."""
    rows = np.array(inst.rows)
    d = np.array(inst.distortion, dtype=float)
    return float((rows @ d.min(axis=1)).max()), float((rows @ d).min(axis=1).max())


def _worst_case(base, rng, workdir) -> list[Op]:
    instances = [_shipped_instance(p) for p in SHIPPED]
    for k, m, hamming in WORST_CASE_CLASSES:
        instances.append(_independent_instance(
            base, rng, workdir, f"wc_k{k}_m{m}.yaml", k, m, hamming))
    ops = []
    for inst in instances:
        floor, ceil = _floor_and_ceiling(inst)
        tag = os.path.basename(inst.path)
        for frac in D_FRACTIONS:
            dval = f"{floor + frac * (ceil - floor):.6g}"
            ops.append(Op(f"optimize {tag} D={dval}", "cli", "optimize",
                          argv=["optimize", inst.path, "--distortion", dval],
                          ctx=inst.ctx()))
        # R(D) has a closed form for the uniform source under k-ary Hamming
        # distortion and for any source under binary Hamming distortion
        p = [1.0 / inst.k] * inst.k if inst.hamming and inst.k > 2 else inst.rows[0]
        ops.append(Op(f"rd {tag}", "cli", "rd",
                      argv=["rd", inst.path, "--p", _fmt_vec(p), "--curve",
                            str(RD_CURVE_POINTS)],
                      ctx=inst.ctx(p=list(p))))
    return ops


def _region_ops(base, inst: Instance) -> list[Op]:
    """Mixtures of the sources are members; point masses are not. Both are
    drawn in the base labels, so a relabelled run asks the same questions."""
    tag = os.path.basename(inst.path)
    relabelled = np.argsort(inst.perm)  # base label -> new label

    def point():
        return np.eye(inst.k)[relabelled[base.integers(0, inst.k)]]

    ops = [Op(f"region --list {tag}", "cli", "region_list",
              argv=["region", inst.path, "--list"], ctx=inst.ctx())]
    for i in range(REGION_CHECKS):
        for side, p in (("member", _mixture(base, inst.rows)), ("outside", point())):
            ops.append(Op(f"region --check {side} {i} {tag}", "cli", "region_check",
                          argv=["region", inst.path, "--check", _fmt_vec(p)],
                          ctx=inst.ctx(p=p.tolist(), member=side == "member")))
    target, mass = _mixture(base, inst.rows), point()
    return ops + [
        Op(f"synthesize mixture {tag}", "cli", "synthesize",
           argv=["synthesize", inst.path, "--target", _fmt_vec(target)],
           ctx=inst.ctx(target=target.tolist())),
        Op(f"synthesize point {tag}", "cli", "synthesize", expect_exit=2,
           argv=["synthesize", inst.path, "--target", _fmt_vec(mass)],
           ctx=inst.ctx(target=mass.tolist())),
    ]


def _region_scale(base, rng, workdir) -> list[Op]:
    instances = [
        _independent_instance(base, rng, workdir, f"rs_k{k}_m{m}.yaml", k, m, True)
        for k, m in REGION_CLASSES
    ]
    instances.append(_rational_instance(base, rng, workdir))
    instances.append(_joint_instance(base, rng, workdir))
    ops = []
    for inst in instances:
        ops += _region_ops(base, inst)
    return ops


def _game_desk(base, rng, workdir) -> list[Op]:
    shipped = [_shipped_instance(p) for p in SHIPPED]
    ops = []
    for inst in shipped:
        tag = os.path.basename(inst.path)
        target = _fmt_vec(_mixture(rng, inst.rows))
        n, (splits, trials) = SIM_LONG_N, SIM_LONG[inst.path]
        for _ in range(splits):
            sim_seed = str(rng.integers(0, 2**31))
            ops.append(Op(f"simulate {tag} n={n} seed={sim_seed}", "cli", "simulate",
                          argv=["simulate", inst.path, "--target", target, "--n", str(n),
                                "--trials", str(trials), "--seed", sim_seed],
                          ctx=inst.ctx(n=n, trials=trials)))
    for inst in shipped:
        tag = os.path.basename(inst.path)
        n, trials = SIM_CODEBOOK_N[inst.path], SIM_CODEBOOK_TRIALS
        ops.append(Op(f"simulate --codebook-D {tag} n={n}", "cli", "simulate",
                      argv=["simulate", inst.path, "--target",
                            _fmt_vec(_mixture(rng, inst.rows)), "--n", str(n),
                            "--trials", str(trials), "--seed", str(rng.integers(0, 2**31)),
                            "--codebook-D", SIM_CODEBOOK_D],
                      ctx=inst.ctx(n=n, trials=trials)))
    # blocks drawn from the ternary demo's sources; codebooks are random
    # distinct words over its reproduction alphabet
    inst = shipped[1]
    for size in BR_CODEBOOK_SIZES:
        words = set()
        while len(words) < size:
            words.add(tuple(rng.integers(0, inst.k, size=BR_N).tolist()))
        words = sorted(words)
        for b in range(BR_BLOCKS):
            block = [rng.choice(inst.k, size=BR_N, p=row).tolist() for row in inst.rows]
            ops.append(Op(f"best_response words={size} block={b}", "best_response",
                          "best_response",
                          args={"problem": inst.path, "block": block, "words": words},
                          ctx=inst.ctx()))
    return ops


_GENERATORS = {"worst_case": _worst_case, "region_scale": _region_scale,
             "game_desk": _game_desk}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's problem files into ``workdir`` and return its ops."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    index = WORKLOADS.index(workload)
    base = np.random.default_rng([BASE_SEED, index])
    rng = np.random.default_rng([seed, index])
    return _GENERATORS[workload](base, rng, workdir)
