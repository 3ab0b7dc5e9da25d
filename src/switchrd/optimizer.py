"""Worst-case rate search: the largest rate-distortion value over the
attainable region, plus the no-lookahead baseline over the convex hull of the
sources. Both are one search over parameters mapped linearly to a source: the
identity for the region, the mixture of the sources for the hull.

R_p(D) is not concave in p, so the search depends only on the parameter
dimension (symbols for the region, sources for the hull): up to 4 it is a
dense simplex lattice refined by ascent, above that projected ascent from
fixed draws and from the points the polytope's linear oracle gives. Either
way the result is a feasible lower bound on the true maximum, exact only up
to the lattice/ascent resolution. One input always gives one result, and
merging uses value-then-lexicographic order so the outcome does not depend
on evaluation order.

The ascent takes its slopes from the rate solver's certificate: every rate
comes with the envelope gradient of R_p(D) in p at the dual pair of its
Blahut line (``rates_at_distortion_batch`` with ``gradients``), so only the
starting batch and the line searches reach the solver. That line's dual pair
(slope, output law) rides along with each point, and a line search passes
its seed's pair as ``start``: its candidates lie a short step from the seed,
so their slope searches begin next to their answers.

A candidate whose distortion floor lies above the target has rate +inf, and
then so does the maximum. The lattice's batch asks the rate solver for its
best row only, and a row the solver drops as certainly below that row comes
back as -inf, so it is never picked.

Each result carries its argmax's dual pair. The region search and the hull
search run at the same target under the same distortion, and the hull lies
inside the region, so the hull's first batch can start every row's slope
search at the region result's pair (``maximize_over_hull(..., start=)``)
rather than cold at slope -64; a row whose probe at that pair crawls yields
to the rest of the batch, which then need not wait on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .probcore import Distribution, DistortionMatrix, SourceList, compositions
from .rate_distortion import RATE_TOL, rates_at_distortion_batch
from .region import RegionSpec, _greedy_oracle, _min_norm_point, _shortfalls, in_region, is_member

#: Lattice step per parameter dimension, for the region and the hull alike;
#: larger dimensions take multistart ascent.
_GRID_STEPS = {1: 1.0, 2: 0.005, 3: 0.02, 4: 0.05}
#: Dirichlet(1) draws, from numpy seed 0, among the multistart seeds.
_DRAWS = 16
#: Rounds of the ascent.
_ASCENT_ITERS = 40
#: Step of the ascent's probes, whose central differences are read off the
#: first-order model of R_p(D).
_FD_STEP = 1e-5


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    """Best point found: ``value`` = R_argmax(D) in bits. ``method`` is
    "grid" (dense enumeration, then ascent from its best rows) or
    "multistart" (heuristic lower bound). ``evaluations`` counts the rows
    submitted to the rate solver, those its early exit dropped included: the
    starting batch and 10 line-search candidates per ascent step (the
    ascent's probes are read off the gradient, not solved); ``starts``
    counts the ascents. ``slope`` and ``law`` are the argmax's dual pair: the
    slope and the output law of the Blahut line that certifies ``value``
    (slope 0 and the uniform law where the value is 0, NaN where it is
    +inf), in the form ``maximize_over_hull``'s ``start`` takes."""

    value: float
    argmax: Distribution
    method: str
    evaluations: int
    starts: int
    slope: float
    law: np.ndarray


def _to_simplex(points: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Each row clipped at 0 and rescaled to sum 1; an all-zero row becomes
    ``fallback``."""
    points = np.clip(points, 0.0, None)
    totals = points.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, points / totals, fallback)


def _pick_best(values, vecs) -> int:
    """Index of the largest value, the lexicographically smallest vector
    among ties; ``values`` hold no NaN."""
    values = np.asarray(values)
    ties = np.nonzero(values == values.max())[0]
    # lexsort's last key is its first
    return int(ties[np.lexsort(np.asarray(vecs)[ties].T[::-1])[0]])


def _ascend(seeds, batch_value, repair, to_source):
    """Projected coordinate ascent on the envelope gradient, run from every
    ``(value, point, gradient, dual)`` seed in lockstep; returns
    ``(point, value, dual)`` per seed.

    ``gradient`` is the derivative of R_p(D) in the source p at
    ``to_source(point)`` and ``dual`` its certificate's ``(slope, law)``
    pair; ``batch_value(points, start)`` maps a batch of points to their
    values, gradients and dual pairs (``rates_at_distortion_batch``). Each
    step puts the 2k probes x +- ``_FD_STEP`` u, u a unit direction
    projected onto the simplex's plane, through ``repair`` and reads their
    central differences off the first-order model
    gradient . (to_source(probe) - to_source(x)), so no probe reaches the
    rate solver and the repair still bends the direction along the feasible
    boundary when constraints bind. Each step then solves one batch: 10
    line-search candidates per start that is still moving, each repaired
    back into the feasible set and searched from its start's dual pair; a
    start that moves takes its winner's gradient and pair from that batch. A
    start that moves to a candidate of value +inf (a distortion floor above
    the target) stops there. The rate solver treats the rows of a batch
    independently, so each start follows the same path as it would alone.
    """
    xs = [np.array(x0, dtype=float) for _, x0, _, _ in seeds]
    vs = [float(v0) for v0, _, _, _ in seeds]
    grads = [np.asarray(c0, dtype=float) for _, _, c0, _ in seeds]
    duals = [dual for _, _, _, dual in seeds]
    base_steps = [0.05] * len(xs)
    k = xs[0].size
    units = np.eye(k) - 1.0 / k
    # +u, -u for each unit direction u, in that order
    offsets = (_FD_STEP * units[:, None, :] * np.array([[1.0], [-1.0]])).reshape(2 * k, k)
    moving = list(range(len(xs)))
    for _ in range(_ASCENT_ITERS):
        if not moving:
            break
        probes = repair(np.concatenate([xs[j] + offsets for j in moving]))
        searching = []
        for j, near in zip(moving, probes.reshape(len(moving), 2 * k, k)):
            model = (to_source(near) - to_source(xs[j])) @ grads[j]
            slopes = (model[0::2] - model[1::2]) / (2.0 * _FD_STEP)
            direction = slopes - slopes.mean()
            norm = float(np.linalg.norm(direction))
            if norm < 1e-12:
                continue
            direction /= norm
            steps = base_steps[j] * 0.5 ** np.arange(10)
            searching.append((j, steps, repair(xs[j] + steps[:, None] * direction)))
        if not searching:
            break
        start = (
            np.repeat([duals[j][0] for j, _, _ in searching], 10),
            np.repeat([duals[j][1] for j, _, _ in searching], 10, axis=0),
        )
        cvals, cgrads, (cslopes, claws) = batch_value(
            np.concatenate([group for _, _, group in searching]), start
        )
        moving = []
        for i, (j, steps, group) in enumerate(searching):
            cv = cvals[10 * i:10 * i + 10]
            best = int(np.argmax(cv))
            if cv[best] > vs[j] + 1e-12:
                xs[j] = group[best]
                vs[j] = float(cv[best])
                grads[j] = cgrads[10 * i + best]
                duals[j] = (cslopes[10 * i + best], claws[10 * i + best])
                base_steps[j] = min(float(steps[best]) * 2.0, 0.25)
                if np.isfinite(vs[j]):
                    moving.append(j)
    return list(zip(xs, vs, duals))


def _simplex_vertex(c: np.ndarray):
    """The hull's oracle over mixture weights, as ``_min_norm_point`` reads
    it: the unit vector at the smallest entry of ``c``, keyed by its index."""
    j = int(np.argmin(c))
    return j, np.eye(c.size)[j]


def _candidates(dim: int, oracle, inside=None, repair=None, anchor=None):
    """Starting points in a polytope within the ``dim``-simplex, and their
    method: the ``_GRID_STEPS`` lattice ("grid") for the dimensions it lists;
    above them ("multistart") ``_DRAWS`` fixed draws, then the polytope's
    min-norm point and ``oracle``'s vertices for the cyclic shifts of
    (0, ..., dim - 1), without repeats. The lattice keeps the points
    ``inside`` accepts and multistart points go through ``repair``. A known
    feasible ``anchor`` comes last."""
    if dim in _GRID_STEPS:
        ticks = round(1.0 / _GRID_STEPS[dim])
        points, method = compositions(ticks, dim) / ticks, "grid"
        if inside is not None:
            points = points[inside(points)]
    else:
        draws = np.random.default_rng(0).dirichlet(np.ones(dim), size=_DRAWS)
        vertices = [oracle(np.roll(np.arange(dim), shift)) for shift in range(dim)]
        centre = _min_norm_point(oracle, vertices[0])[0]
        own = np.unique(np.vstack([centre] + [y for _, y in vertices]), axis=0)
        points, method = np.vstack([draws, own]), "multistart"
        if repair is not None:
            points = repair(points)
    if anchor is not None:
        points = np.vstack([points, anchor[None, :]])
    return points, method


def _region_candidates(spec: RegionSpec):
    """Candidate set inside the region, the guaranteed feasible anchor (the
    law of the rule that emits the largest offered symbol: the vertex of the
    region at delta 0 for the order k - 1, ..., 0) included, and the region's
    repair."""
    k = spec.sources.alphabet_size
    anchor = _greedy_oracle(spec.sources, np.zeros(k))(-np.arange(k))[1]
    anchor_mass = _shortfalls(anchor, spec)[0]

    def repair(ys):
        """Each row back onto the simplex, then the shortest step toward the
        anchor after which every subset holds its required mass: each mass is
        linear along that segment, so the step is exact."""
        ys = _to_simplex(ys, anchor)
        mass, rhs, short = _shortfalls(ys, spec)
        steps = np.divide(rhs - mass, anchor_mass - mass, out=np.zeros_like(mass), where=short)
        t = np.minimum(steps.max(axis=1), 1.0)[:, None]
        return (1.0 - t) * ys + t * anchor

    oracle = _greedy_oracle(spec.sources, np.zeros(k), spec.delta)
    candidates, method = _candidates(
        k, oracle, lambda points: in_region(points, spec), repair, anchor
    )
    return candidates, method, repair


def _maximize(candidates, method, repair, to_source, d, target, tol, start=None):
    """Largest R_p(D) over parameters ``x`` with source ``p = to_source(x)``:
    one batch over the candidates, then ascent in lockstep from every row
    within ``tol`` of the best (grid) or from all (multistart); ties go to
    the lexicographically smallest ``x``. +inf means a candidate's
    distortion floor lies above the target.

    The grid's batch feeds only its best row, so it stops early on rows that
    are certified to fall below it, which come back as -inf and are never
    picked; the multistart seeds and the line searches need every value.
    Each batch also returns every kept row's gradient and dual pair, which
    seed the ascent. ``start``, a ``(slope, law)`` pair, is every row's start
    in the first batch (see ``rates_at_distortion_batch``). The first batch
    rejects a negative or NaN target."""
    evaluations = 0

    def batch_value(xs, start=None, best_only=False):
        nonlocal evaluations
        evaluations += len(xs)
        return rates_at_distortion_batch(
            to_source(xs), d, target, tol=tol, best_only=best_only, gradients=True, start=start
        )

    if start is not None:
        n = len(candidates)
        start = np.full(n, start[0], dtype=float), np.tile(np.asarray(start[1], float), (n, 1))
    values, grads, (slopes, laws) = batch_value(candidates, start, best_only=method == "grid")
    if np.isposinf(values).any():
        x = np.array(min(map(tuple, candidates[np.isposinf(values)])))
        return MaximizerResult(
            np.inf, Distribution(to_source(x)), method, evaluations, 0,
            np.nan, np.full(d.num_outputs, np.nan),
        )
    rows = range(len(values))
    if method == "grid":
        # every row within tol of the best, since rounding alone may rank
        # mirror images of one point
        rows = np.nonzero(values >= values.max() - tol)[0]
    seeds = [(values[j], candidates[j], grads[j], (slopes[j], laws[j])) for j in rows]
    xs, vs, duals = zip(*_ascend(seeds, batch_value, repair, to_source))
    i = _pick_best(vs, xs)
    slope, law = duals[i]
    return MaximizerResult(
        vs[i], Distribution(to_source(xs[i])), method, evaluations, len(seeds), float(slope), law
    )


def _region_maximizer(spec: RegionSpec, d: DistortionMatrix, tol: float):
    """The region's candidates, built once, and its maximization at one target,
    with the argmax checked against the region."""
    if d.num_inputs != spec.sources.alphabet_size:
        raise ValidationError("distortion and sources use different alphabets")
    candidates, method, repair = _region_candidates(spec)

    def at(target: float) -> MaximizerResult:
        result = _maximize(candidates, method, repair, lambda p: p, d, target, tol)
        if np.isfinite(result.value) and not is_member(result.argmax, spec).satisfied:
            raise AssertionError("maximizer left the feasible region")
        return result

    return candidates, at


def maximize_over_region(
    spec: RegionSpec,
    d: DistortionMatrix,
    target: float,
    tol: float = RATE_TOL,
) -> MaximizerResult:
    """Largest R_p(D) over attainable p, with the achieving distribution;
    each rate stops on a certified bracket ``tol`` bits wide.

    Up to 4 symbols the search enumerates the feasible simplex lattice and
    refines the best points by ascent ("grid"); above that it ascends from
    fixed draws, the most uniform attainable law and the region's vertices
    ("multistart"). A +inf value means some attainable distribution has a
    distortion floor above the target, so no finite rate suffices.
    """
    _, at = _region_maximizer(spec, d, tol)
    return at(target)


def maximize_over_hull(
    sources: SourceList,
    d: DistortionMatrix,
    target: float,
    tol: float = RATE_TOL,
    start=None,
) -> MaximizerResult:
    """Largest R_p(D) over convex mixtures of the sources (the baseline
    attainable without lookahead). Searches mixture weights directly.

    ``start`` is an optional ``(slope, law)`` dual pair, the ``slope`` and
    ``law`` of a ``MaximizerResult`` at the same target and distortion, say
    the region's. Every row of the first batch, lattice or multistart seeds,
    starts its slope search from it (see ``rates_at_distortion_batch``).
    Every rate still lies in its ``tol`` bracket; only its place in the
    bracket may move. A pair with slope 0 or NaN gives the cold search's
    result."""
    if sources.is_joint:
        raise ValidationError("the hull baseline is defined for independent sources")
    rows = sources.as_array()
    m = rows.shape[0]

    def repair(lams):
        return _to_simplex(lams, np.full(m, 1.0 / m))

    lams, method = _candidates(m, _simplex_vertex)
    return _maximize(lams, method, repair, lambda lam: lam @ rows, d, target, tol, start)


def rd_tilde_curve(
    spec: RegionSpec,
    d: DistortionMatrix,
    num_points: int,
    tol: float = RATE_TOL,
) -> list[tuple[float, MaximizerResult]]:
    """Worst-case rate over a distortion grid spanning the smallest floor and
    the largest ceiling seen across the region's candidate set (its feasible
    lattice up to 4 symbols, its multistart seeds above), which every target
    reuses."""
    if num_points < 2:
        raise ValidationError("need at least two curve points")
    candidates, at = _region_maximizer(spec, d, tol)
    floors = candidates @ d.values.min(axis=1)
    ceilings = (candidates @ d.values).min(axis=1)
    targets = np.linspace(float(floors.min()), float(ceilings.max()), num_points)
    return [(float(t), at(float(t))) for t in targets]
