"""Worst-case rate search: the largest rate-distortion value over the
attainable region, plus the no-lookahead baseline over the convex hull of the
sources. Both are one search over parameters mapped linearly to a source: the
identity for the region, the mixture of the sources for the hull.

R_p(D) is not concave in p, so the search is a dense simplex grid (small
dimension) or multistart projected ascent (larger ones); either way the
result is a certified feasible lower bound on the true maximum, exact only up
to the grid/ascent resolution. Results are deterministic for a fixed config
and seed, and merging uses value-then-lexicographic order so the outcome does
not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probcore import Distribution, DistortionMatrix, SourceList
from .rate_distortion import rates_at_distortion_batch
from .region import MEMBER_ATOL, RegionSpec, enumerate_constraints, is_member
from .strategy import greedy_max_rule, induced_distribution

_GRID_STEPS = {2: 0.005, 3: 0.02}
_HULL_STEPS = {1: 1.0, 2: 0.005, 3: 0.02, 4: 0.05}
#: Step of the central finite differences in the ascent.
_FD_STEP = 1e-5


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the one search behind both maximizers.

    ``method`` "auto" picks a dense grid for small parameter dimension (at
    most 3 symbols for the region, 4 sources for the hull) and multistart
    ascent otherwise; "grid"/"multistart" force one. ``grid_step``, in
    (0, 1], overrides the per-dimension lattice step; None uses the defaults.
    Tolerances are passed through to the rate solver.
    """

    method: str = "auto"
    grid_step: float | None = None
    starts: int = 16
    seed: int = 0
    ascent_iters: int = 40
    distortion_tol: float = 1e-6
    ba_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in ("auto", "grid", "multistart"):
            raise ValidationError(f"unknown search method {self.method!r}")
        if self.starts < 1:
            raise ValidationError("need at least one start")
        if self.grid_step is not None and not 0 < self.grid_step <= 1:
            raise ValidationError("grid step must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    """Best point found: ``value`` = R_argmax(D) in bits. ``method`` is
    "grid" (dense enumeration plus one refinement) or "multistart" (heuristic
    lower bound). ``evaluations`` counts rate solves."""

    value: float
    argmax: Distribution
    method: str
    evaluations: int
    starts: int


def _simplex_grid(dim: int, step: float) -> np.ndarray:
    """Lattice points with coordinates that are multiples of ``step`` and sum
    to 1, in lexicographic order."""
    ticks = round(1.0 / step)
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for head in range(remaining + 1):
            rec(prefix + [head], remaining - head, slots - 1)

    rec([], ticks, dim)
    return np.array(points, dtype=float) / ticks


def _subset_matrix(k: int) -> np.ndarray:
    masks = np.arange(1, 1 << k)
    return ((masks[:, None] >> np.arange(k)[None, :]) & 1).astype(float)


def _better(value, vec, best_value, best_vec) -> bool:
    if value > best_value:
        return True
    return value == best_value and tuple(vec) < tuple(best_vec)


def _pick_best(values, vecs):
    best_value, best_vec = -np.inf, None
    for value, vec in zip(values, vecs):
        if best_vec is None or _better(value, vec, best_value, best_vec):
            best_value, best_vec = float(value), np.array(vec)
    return best_value, best_vec


def _ascend(seeds, batch_value, repair, config: SearchConfig):
    """Projected coordinate ascent with central finite differences, run from
    every ``(value, point)`` seed in lockstep; returns ``(point, value)`` per
    seed.

    Each step solves one batch of probes and one batch of line-search
    candidates over every start that is still moving. The rate solver treats
    the rows of a batch independently, so each start follows the same path
    as it would alone. Probe and candidate points are repaired back into the
    feasible set, so the effective motion is along the feasible boundary when
    constraints bind.
    """
    xs = [np.array(x0, dtype=float) for _, x0 in seeds]
    vs = [float(v0) for v0, _ in seeds]
    base_steps = [0.05] * len(xs)
    k = xs[0].size
    units = np.eye(k) - 1.0 / k
    moving = list(range(len(xs)))
    for _ in range(config.ascent_iters):
        if not moving:
            break
        probes = [
            repair(xs[j] + sign * _FD_STEP * u)
            for j in moving
            for u in units
            for sign in (1.0, -1.0)
        ]
        vals = batch_value(np.array(probes)).reshape(len(moving), 2 * k)
        searching = []
        for r, j in enumerate(moving):
            if np.isinf(vals[r]).any():
                xs[j] = probes[2 * k * r + int(np.argmax(np.isinf(vals[r])))]
                vs[j] = np.inf
                continue
            slopes = (vals[r, 0::2] - vals[r, 1::2]) / (2.0 * _FD_STEP)
            direction = slopes - slopes.mean()
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                continue
            direction /= norm
            steps = base_steps[j] * 0.5 ** np.arange(10)
            group = [repair(xs[j] + s * direction) for s in steps]
            searching.append((j, steps, group))
        if not searching:
            break
        cands = np.array([c for _, _, group in searching for c in group])
        cvals = batch_value(cands).reshape(len(searching), -1)
        moving = []
        for (j, steps, group), cv in zip(searching, cvals):
            best = int(np.argmax(cv))
            if cv[best] > vs[j] + 1e-12:
                xs[j] = group[best]
                vs[j] = float(cv[best])
                base_steps[j] = min(float(steps[best]) * 2.0, 0.25)
                moving.append(j)
    return list(zip(xs, vs))


def _candidates(
    dim: int, steps: dict, config: SearchConfig, inside=None, repair=None, anchor=None
):
    """Starting points in a polytope within the ``dim``-simplex, and their
    method. ``steps`` maps dimensions to grid steps ("auto" uses the grid up
    to its largest key, whose step is also the default). If the polytope cuts
    the simplex, the lattice keeps the points ``inside`` accepts and random
    starts go through ``repair``. A known feasible ``anchor`` comes last."""
    method = config.method
    if method == "auto":
        method = "grid" if dim <= max(steps) else "multistart"
    if method == "grid":
        step = config.grid_step or steps.get(dim, steps[max(steps)])
        points = _simplex_grid(dim, step)
        if inside is not None:
            points = points[inside(points)]
    else:
        rng = np.random.default_rng(config.seed)
        points = rng.dirichlet(np.ones(dim), size=config.starts)
        if repair is not None:
            points = np.array([repair(x) for x in points])
    if anchor is not None:
        points = np.vstack([points, anchor[None, :]])
    return points, method


def _region_candidates(spec: RegionSpec, config: SearchConfig):
    """Deterministic candidate set inside the region, the guaranteed feasible
    anchor (the greedy largest-symbol rule's output distribution) included."""
    k = spec.sources.alphabet_size
    anchor = induced_distribution(greedy_max_rule(spec.sources), spec.sources).probs
    subset_mat = _subset_matrix(k)
    rhs = np.array([float(r) for _, r in enumerate_constraints(spec)])

    def inside(points):
        return np.all(points @ subset_mat.T >= rhs - MEMBER_ATOL, axis=1)

    def ok(x):
        return bool(np.all(subset_mat @ x >= rhs - MEMBER_ATOL))

    def repair(y):
        """Back onto the simplex, then toward the anchor by bisection until
        every constraint holds."""
        y = np.clip(y, 0.0, None)
        total = y.sum()
        y = y / total if total > 0 else anchor.copy()
        if ok(y):
            return y
        lo, hi = 0.0, 1.0
        if not ok(anchor):
            return anchor.copy()
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ok((1.0 - mid) * y + mid * anchor):
                hi = mid
            else:
                lo = mid
        return (1.0 - hi) * y + hi * anchor

    candidates, method = _candidates(k, _GRID_STEPS, config, inside, repair, anchor)
    return candidates, method, repair


def _maximize(candidates, method, repair, to_source, d, target, config):
    """Largest R_p(D) over parameters ``x`` with source ``p = to_source(x)``:
    one batch over the candidates, then ascent from the best (grid) or from
    all (multistart); ties go to the lexicographically smallest ``x``. +inf
    means a candidate's distortion floor lies above the target."""
    if target < 0:
        raise ValidationError("distortion target must be nonnegative")
    evaluations = 0

    def batch_value(xs):
        nonlocal evaluations
        evaluations += len(xs)
        return rates_at_distortion_batch(
            to_source(xs), d, target, tol=config.distortion_tol, ba_tol=config.ba_tol
        )

    values = batch_value(candidates)
    if np.isinf(values).any():
        x = np.array(min(map(tuple, candidates[np.isinf(values)])))
        return MaximizerResult(np.inf, Distribution(to_source(x)), method, evaluations, 0)
    best_value, best_x = _pick_best(values, candidates)
    if method == "grid":
        seeds = [(best_value, best_x)]
    else:
        seeds = list(zip(values.tolist(), candidates))
    for x, v in _ascend(seeds, batch_value, repair, config):
        if _better(v, x, best_value, best_x):
            best_value, best_x = v, x
    return MaximizerResult(
        best_value, Distribution(to_source(best_x)), method, evaluations, len(seeds)
    )


def _region_maximizer(spec: RegionSpec, d: DistortionMatrix, config: SearchConfig):
    """The region's candidates, built once, and its maximization at one target,
    with the argmax checked against the region."""
    if d.num_inputs != spec.sources.alphabet_size:
        raise ValidationError("distortion and sources use different alphabets")
    candidates, method, repair = _region_candidates(spec, config)

    def at(target: float) -> MaximizerResult:
        result = _maximize(candidates, method, repair, lambda p: p, d, target, config)
        if np.isfinite(result.value) and not is_member(result.argmax, spec).satisfied:
            raise AssertionError("maximizer left the feasible region")
        return result

    return candidates, at


def maximize_over_region(
    spec: RegionSpec,
    d: DistortionMatrix,
    target: float,
    config: SearchConfig | None = None,
) -> MaximizerResult:
    """Largest R_p(D) over attainable p, with the achieving distribution.

    Grid mode enumerates the feasible simplex lattice and refines the best
    cell by ascent; multistart mode ascends from every repaired random start.
    A +inf value means some attainable distribution has a distortion floor
    above the target, so no finite rate suffices.
    """
    _, at = _region_maximizer(spec, d, config or SearchConfig())
    return at(target)


def maximize_over_hull(
    sources: SourceList,
    d: DistortionMatrix,
    target: float,
    config: SearchConfig | None = None,
) -> MaximizerResult:
    """Largest R_p(D) over convex mixtures of the sources (the baseline
    attainable without lookahead). Searches mixture weights directly."""
    config = config or SearchConfig()
    if sources.is_joint:
        raise ValidationError("the hull baseline is defined for independent sources")
    rows = sources.as_array()
    m = rows.shape[0]

    def repair(lam):
        lam = np.clip(lam, 0.0, None)
        total = lam.sum()
        return lam / total if total > 0 else np.full(m, 1.0 / m)

    lams, method = _candidates(m, _HULL_STEPS, config)
    return _maximize(lams, method, repair, lambda lam: lam @ rows, d, target, config)


def rd_tilde_curve(
    spec: RegionSpec,
    d: DistortionMatrix,
    num_points: int,
    config: SearchConfig | None = None,
) -> list[tuple[float, MaximizerResult]]:
    """Worst-case rate over a distortion grid spanning the smallest floor and
    the largest ceiling seen across the candidate set, which every target
    reuses."""
    config = config or SearchConfig()
    if num_points < 2:
        raise ValidationError("need at least two curve points")
    candidates, at = _region_maximizer(spec, d, config)
    floors = candidates @ d.values.min(axis=1)
    ceilings = (candidates @ d.values).min(axis=1)
    targets = np.linspace(float(floors.min()), float(ceilings.max()), num_points)
    return [(float(t), at(float(t))) for t in targets]
