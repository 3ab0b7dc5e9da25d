"""Worst-case rate search: the largest rate-distortion value over the
attainable region, plus the no-lookahead baseline over the convex hull of the
sources. Both are one search over parameters x in a polytope, mapped linearly
to a source p = x @ basis: the region with the identity, the simplex of
mixture weights with the rows of the hull's extreme sources. A source within
1e-12 of the hull of the others adds no point to the hull, only a dimension
to the weights, so it is dropped first.

Each polytope enters through its linear oracle, whose points minimizing c.x
are its vertices: the laws of priority rules for the region (the paper's
simple conditional switching rules), the sources for the hull. R_p(D) is not
concave in p, so the search starts from many points: up to 4 parameter
dimensions a dense simplex lattice (built once per dimension), above that
the oracle's vertices for fixed symbol orders; both take the polytope's
min-norm point p* too. One best-only rate batch over them seeds every row
within ``tol`` of the best, and pairwise Frank-Wolfe refines all seeds in
lockstep. Its iterates are mixtures of vertices, so they stay feasible with
no repair. The result is a feasible lower bound on the true maximum. One
input always gives one result, and merging uses value-then-lexicographic
order so the outcome does not depend on evaluation order.

The region search has one certified early exit. Under a distortion that
every relabelling of the inputs keeps, given a matching relabelling of the
outputs (Hamming distortion, with or without erasure outputs), R_p(D) is
Schur-concave in p, and every attainable law majorizes p*; so R~(D) =
R_p*(D), and one rate solve at p* replaces the lattice, the first batch and
Frank-Wolfe. Its bracket is then at most ``tol`` wide. The hull has no such
point, but the same Schur-concavity thins its starting batch: a law that
majorizes another law of the batch cannot beat it, so the hull search starts
only from the laws that majorize no other (up to a fixed number of pivots;
see ``_least_majorized``).

Frank-Wolfe takes its slopes from the rate solver's certificate: every rate
comes with the envelope gradient of R_p(D) in p at the dual pair of its
Blahut line (``rates_at_distortion_batch`` with ``gradients``), so each step
solves only its line search. That line's dual pair (slope, output law) rides
along with each iterate, and a line search passes it as ``start``: its
candidates lie a short step from the iterate, so their slope searches begin
next to their answers.

A candidate whose distortion floor lies above the target has rate +inf, and
then so does the maximum. The first batch asks the rate solver for its best
row only, and a row the solver drops as certainly below that row comes back
as -inf, so it is never picked.

Each result carries its argmax's dual pair. The region search and the hull
search run at the same target under the same distortion, and the hull lies
inside the region, so the hull's first batch can start every row's slope
search at the region result's pair (``maximize_over_hull(..., start=)``)
rather than cold at slope -64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ValidationError
from .probcore import Distribution, DistortionMatrix, SourceList, compositions
from .rate_distortion import RATE_TOL, rates_at_distortion_batch
from .region import (
    RegionSpec,
    _greedy_oracle,
    _hull_distance,
    _min_norm_point,
    in_region,
    is_member,
)

#: Lattice step per parameter dimension, for the region and the hull alike;
#: larger dimensions start from the oracle's vertices.
_GRID_STEPS = {1: 1.0, 2: 0.005, 3: 0.02, 4: 0.05}
#: Random symbol orders, from numpy seed 0, whose vertices start a search
#: above the lattice's dimensions.
_DRAWS = 16
#: Pivots the majorization filter of the hull's starting batch compares
#: against; the laws none of them reaches stay in the batch.
_PIVOTS = 32
#: Frank-Wolfe steps allowed to one start. On a face the iterates zig-zag
#: and gain little per step, so the cap is generous.
_FW_STEPS = 200


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    """Best point found: ``value`` = R_argmax(D) in bits. ``method`` names
    the starting points by dimension: "grid" (a dense lattice, up to 4) or
    "multistart" (the polytope's vertices). ``evaluations`` counts the rows
    submitted to the rate solver, those its early exit dropped included: the
    starting batch and 10 line-search candidates per Frank-Wolfe step of
    each start; ``starts`` counts the Frank-Wolfe starts, the rows of the
    starting batch within ``tol`` of its best. A hull search under a
    symmetric distortion counts its starting batch after the majorization
    filter (see ``maximize_over_hull``). A region search under a
    symmetric distortion ends at p* instead (see ``maximize_over_region``):
    one evaluation and no start. ``slope`` and ``law`` are the argmax's dual
    pair: the slope and the output law of the Blahut line that certifies
    ``value`` (slope 0 and the uniform law where the value is 0, NaN where
    it is +inf), in the form ``maximize_over_hull``'s ``start`` takes.

    ``lower`` and ``upper`` bracket the true maximum. ``lower`` is that
    Blahut line read at the target, a certified lower end on R_argmax(D);
    ``upper`` is +inf, except where the search ends at p*: there it is
    ``value``, a rate achieved at p*, so the bracket is at most ``tol``
    wide. Both are +inf where the value is."""

    value: float
    argmax: Distribution
    method: str
    evaluations: int
    starts: int
    slope: float
    law: np.ndarray
    lower: float
    upper: float


def _pick_best(values, vecs) -> int:
    """Index of the largest value, the lexicographically smallest vector
    among ties; ``values`` hold no NaN."""
    values = np.asarray(values)
    ties = np.nonzero(values == values.max())[0]
    # lexsort's last key is its first
    return int(ties[np.lexsort(np.asarray(vecs)[ties].T[::-1])[0]])


def _frank_wolfe(seeds, oracle, batch_value, basis, tol):
    """Pairwise Frank-Wolfe (S. Lacoste-Julien and M. Jaggi, "On the global
    linear convergence of Frank-Wolfe optimization variants", NeurIPS 2015)
    over the polytope of the linear ``oracle``, run from every
    ``(value, point, gradient, dual, lower)`` seed in lockstep; returns
    ``(point, value, dual, lower)`` per seed.

    ``gradient`` is the derivative of R_p(D) in the source p = point @ basis,
    ``dual`` its certificate's ``(slope, law)`` pair and ``lower`` that
    certificate's lower end; ``batch_value(points, start)`` maps a batch of
    points to their values, gradients, dual pairs and lower ends
    (``rates_at_distortion_batch``). At its first step a start writes its
    point as a mixture of the oracle's vertices, by Wolfe's min-norm point
    over the polytope less the point, as rule synthesis does. Each step reads
    g = basis @ gradient; the Frank-Wolfe vertex s maximizes g.s, the away
    vertex a is the active vertex of least g.a, and the step moves weight
    gamma <= w_a from a to s, so every iterate is a mixture of vertices. A
    start stops once the Frank-Wolfe gap g.(s - x) is at most ``tol``. The
    others share one batch: 10 candidates each, gamma = min(w_a,
    reach / |s - a|) 2^-j for j = 0..9, each searched from its start's dual
    pair. The best is kept if it beats the value by 1e-12, and the reach,
    0.05 at first, becomes twice the kept step's length. A start also stops
    when no candidate gains, at a value of +inf (a distortion floor above
    the target) and after ``_FW_STEPS`` steps. The rate solver treats the
    rows of a batch independently, so each start follows the same path as
    it would alone.
    """
    vertices = {}

    def vertex(c, offset=0.0):
        key, y = oracle(c)
        vertices[key] = y
        return key, y - offset

    xs = [np.array(x, dtype=float) for _, x, *_ in seeds]
    vs = [float(v) for v, *_ in seeds]
    grads = [c for _, _, c, *_ in seeds]
    duals = [dual for _, _, _, dual, _ in seeds]
    lowers = [float(lower) for *_, lower in seeds]
    mixes = [None] * len(seeds)  # vertex key -> weight, from the first step on
    reach = [0.05] * len(seeds)
    moving = range(len(seeds))
    for _ in range(_FW_STEPS):
        searching = []
        for j in moving:
            g = basis @ grads[j]
            s, y = vertex(-g)
            if g @ y - g @ xs[j] <= tol:
                continue
            if mixes[j] is None:
                x = xs[j]
                _, keys, weights = _min_norm_point(lambda c: vertex(c, x), vertex(-x, x))
                mixes[j] = dict(zip(keys, weights))
            a = min(mixes[j], key=lambda key: g @ vertices[key])
            keys = list(mixes[j]) + [s] * (s not in mixes[j])
            weights = np.tile([mixes[j].get(key, 0.0) for key in keys], (10, 1))
            length = float(np.linalg.norm(y - vertices[a]))
            steps = min(weights[0, keys.index(a)], reach[j] / length) * 0.5 ** np.arange(10)
            weights[:, keys.index(a)] -= steps
            weights[:, keys.index(s)] += steps
            points = weights @ np.array([vertices[key] for key in keys])
            searching.append((j, keys, weights, points, steps * length))
        if not searching:
            break
        start = (
            np.repeat([duals[j][0] for j, *_ in searching], 10),
            np.repeat([duals[j][1] for j, *_ in searching], 10, axis=0),
        )
        cvals, cgrads, (cslopes, claws), clowers = batch_value(
            np.concatenate([points for *_, points, _ in searching]), start
        )
        moving = []
        for i, (j, keys, weights, points, lengths) in enumerate(searching):
            best = int(np.argmax(cvals[10 * i:10 * i + 10]))
            if cvals[10 * i + best] > vs[j] + 1e-12:
                xs[j], vs[j] = points[best], float(cvals[10 * i + best])
                grads[j] = cgrads[10 * i + best]
                duals[j] = (cslopes[10 * i + best], claws[10 * i + best])
                lowers[j] = float(clowers[10 * i + best])
                mixes[j] = {key: w for key, w in zip(keys, weights[best]) if w > 0}
                reach[j] = 2.0 * lengths[best]
                if np.isfinite(vs[j]):
                    moving.append(j)
    return list(zip(xs, vs, duals, lowers))


def _simplex_vertex(c: np.ndarray):
    """The hull's oracle over mixture weights, as ``_min_norm_point`` reads
    it: the unit vector at the smallest entry of ``c``, keyed by its index."""
    j = int(np.argmin(c))
    return j, np.eye(c.size)[j]


@cache
def _lattice(dim: int) -> np.ndarray:
    """The ``_GRID_STEPS`` lattice of the ``dim``-simplex, built once per
    dimension and read-only; its rows are unique and in lexicographic order,
    as ``np.unique`` sorts them."""
    ticks = round(1.0 / _GRID_STEPS[dim])
    points = compositions(ticks, dim) / ticks
    points.flags.writeable = False
    return points


def _with_row(points: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``np.unique(np.vstack([points, row]), axis=0)`` for ``points`` that
    are already sorted and unique: ``row`` goes in at its place unless some
    row equals it."""
    differs = points != row
    if not differs.any(axis=1).all():
        return points
    # a row sorts below ``row`` where its first differing entry is smaller;
    # those rows are a prefix of the sorted points
    first = np.argmax(differs, axis=1)
    below = points[np.arange(len(points)), first] < row[first]
    return np.insert(points, np.count_nonzero(below), row, axis=0)


def _centre(dim: int, oracle) -> np.ndarray:
    """The min-norm point p* of the polytope of ``oracle`` within the
    ``dim``-simplex, by Wolfe's method from the vertex of the order
    (0, ..., dim - 1)."""
    return _min_norm_point(oracle, oracle(np.arange(dim)))[0]


def _candidates(dim: int, oracle, inside=None):
    """Starting points in the polytope of ``oracle`` within the
    ``dim``-simplex, and their method: the ``_GRID_STEPS`` lattice ("grid")
    for the dimensions it lists, keeping the points ``inside`` accepts;
    above them ("multistart") the oracle's vertices for ``_DRAWS`` random
    symbol orders (numpy seed 0) and for the cyclic shifts of
    (0, ..., dim - 1). Both sets take the polytope's min-norm point p*, so
    neither is empty; the rows are sorted and repeats are dropped."""
    centre = _centre(dim, oracle)
    if dim in _GRID_STEPS:
        points = _lattice(dim)
        if inside is not None:
            points = points[inside(points)]
        return _with_row(points, centre), "grid"
    rng = np.random.default_rng(0)
    orders = [rng.permutation(dim) for _ in range(_DRAWS)]
    orders += [np.roll(np.arange(dim), shift) for shift in range(dim)]
    points = np.array([oracle(order)[1] for order in orders])
    return np.unique(np.vstack([points, centre]), axis=0), "multistart"


def _maximize(candidates, method, oracle, basis, d, target, tol, start=None):
    """Largest R_p(D) over parameters ``x`` in the polytope of ``oracle``,
    with source ``p = x @ basis``: one batch over the candidates, then
    Frank-Wolfe in lockstep from every row within ``tol`` of the best, since
    rounding alone may rank mirror images of one point; ties go to the
    lexicographically smallest ``x``. +inf means a candidate's distortion
    floor lies above the target.

    The first batch feeds only its best row, so it stops early on rows that
    are certified to fall below it, which come back as -inf and are never
    picked. It also returns every kept row's gradient and dual pair, which
    seed Frank-Wolfe. ``start``, a ``(slope, law)`` pair, is every row's
    start in the first batch (see ``rates_at_distortion_batch``). The first
    batch rejects a negative or NaN target."""
    evaluations = 0

    def batch_value(xs, start=None, best_only=False):
        nonlocal evaluations
        evaluations += len(xs)
        return rates_at_distortion_batch(
            xs @ basis, d, target, tol=tol, best_only=best_only, gradients=True, start=start
        )

    if start is not None:
        n = len(candidates)
        start = np.full(n, start[0], dtype=float), np.tile(np.asarray(start[1], float), (n, 1))
    values, grads, (slopes, laws), lowers = batch_value(candidates, start, best_only=True)
    if np.isposinf(values).any():
        x = np.array(min(map(tuple, candidates[np.isposinf(values)])))
        return MaximizerResult(
            np.inf, Distribution(x @ basis), method, evaluations, 0,
            np.nan, np.full(d.num_outputs, np.nan), np.inf, np.inf,
        )
    rows = np.nonzero(values >= values.max() - tol)[0]
    seeds = [
        (values[j], candidates[j], grads[j], (slopes[j], laws[j]), lowers[j]) for j in rows
    ]
    xs, vs, duals, lows = zip(*_frank_wolfe(seeds, oracle, batch_value, basis, tol))
    i = _pick_best(vs, xs)
    slope, law = duals[i]
    return MaximizerResult(
        vs[i], Distribution(xs[i] @ basis), method, evaluations, len(seeds), float(slope), law,
        lows[i], np.inf,
    )


def _symmetric(d: DistortionMatrix) -> bool:
    """True iff every relabelling of the inputs, with a matching relabelling
    of the outputs, leaves ``d`` unchanged: Hamming distortion, say, scaled
    or with extra outputs at one distortion from every input. The input
    relabellings that pass form a group, so it is enough that each swap of
    two adjacent input rows leaves the multiset of ``d``'s columns as it
    is. Entries compare exactly."""
    values = d.values

    def columns(a):
        # the columns in lexicographic order; lexsort's last key is its first
        return a[:, np.lexsort(a[::-1])]

    own = columns(values)
    for i in range(values.shape[0] - 1):
        order = np.arange(values.shape[0])
        order[[i, i + 1]] = i + 1, i
        if not np.array_equal(columns(values[order]), own):
            return False
    return True


def _at_centre(p_star, method, d, target, tol) -> MaximizerResult:
    """R_p*(D) as the region's maximum: one rate solve, whose bracket is the
    result's ``[lower, upper]``."""
    values, _, (slopes, laws), lowers = rates_at_distortion_batch(
        p_star[None, :], d, target, tol=tol, gradients=True
    )
    value = float(values[0])
    return MaximizerResult(
        value, Distribution(p_star), method, 1, 0, float(slopes[0]), laws[0],
        float(lowers[0]), value,
    )


def _region_maximizer(spec: RegionSpec, d: DistortionMatrix, tol: float):
    """The region's candidates, built once, and its maximization at one target,
    with the argmax checked against the region.

    Under a symmetric ``d`` (see ``_symmetric``) the candidates are p* alone
    and each target takes one rate solve at p*. R_p(D) is then Schur-concave
    in p: it is the largest of s D + F_p(s) over slopes s <= 0, and each
    F_p(s) = min_q L_s(p, q) is concave and symmetric in p (A. W. Marshall,
    I. Olkin and B. C. Arnold, "Inequalities: Theory of Majorization", ch.
    3). The region is the core of the supermodular h = max(Q - delta, 0),
    and every point of it majorizes its min-norm point p* (S. Fujishige,
    "Lexicographically optimal base of a polymatroid with respect to a
    weight vector", Math. Oper. Res. 5 (1980)), so R~(D) = R_p*(D). Every
    other ``d`` takes the lattice or vertex batch and Frank-Wolfe."""
    k = spec.sources.alphabet_size
    if d.num_inputs != k:
        raise ValidationError("distortion and sources use different alphabets")
    oracle = _greedy_oracle(spec.sources, np.zeros(k), spec.delta)
    if _symmetric(d):
        candidates = _centre(k, oracle)[None, :]
        method = "grid" if k in _GRID_STEPS else "multistart"

        def search(target):
            return _at_centre(candidates[0], method, d, target, tol)
    else:
        candidates, method = _candidates(k, oracle, lambda points: in_region(points, spec))

        def search(target):
            return _maximize(candidates, method, oracle, np.eye(k), d, target, tol)

    def at(target: float) -> MaximizerResult:
        result = search(target)
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

    Under a symmetric distortion, one that every relabelling of the inputs
    keeps given a matching relabelling of the outputs (Hamming distortion,
    say), the most uniform attainable law p* is a maximizer, and the search
    is one rate solve at p*: the argmax is p*, ``evaluations`` is 1,
    ``starts`` is 0, and ``[lower, upper]`` brackets R~(D) within ``tol``.

    Under any other distortion the search starts, up to 4 symbols, from the
    feasible simplex lattice, above that from the region's vertices for
    fixed symbol orders; both take p*. Frank-Wolfe over the region's
    vertices, the laws of priority rules, refines the best starts, so the
    argmax is attainable by construction; ties go to the lexicographically
    smallest law. ``method`` is "grid" up to 4 symbols and "multistart"
    above, on either path. A +inf value means some attainable distribution
    has a distortion floor above the target, so no finite rate suffices.
    """
    _, at = _region_maximizer(spec, d, tol)
    return at(target)


def _extreme_rows(rows: np.ndarray) -> np.ndarray:
    """The rows that span the convex hull of ``rows``: from the last row to
    the first, a row within 1e-12 of the hull of the other rows still kept
    is dropped, so of two equal rows the first stays."""
    kept = list(range(len(rows)))
    for j in reversed(range(len(rows))):
        others = [i for i in kept if i != j]
        if others and _hull_distance(rows[others], rows[j]) <= 1e-12:
            kept.remove(j)
    return rows[kept]


def _least_majorized(laws: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``laws`` to keep: False on each row whose sorted
    partial sums are >= a kept pivot's everywhere and > somewhere, so that
    the row strictly majorizes the pivot, comparing the computed floats.

    The rows are visited in increasing sum of squares, a stable order; the
    sum of squares is strictly Schur-convex, so a row that strictly
    majorizes another comes after it. Each round takes the first row not
    yet dropped as a pivot and drops the later rows that majorize it; after
    ``_PIVOTS`` rounds every row left is kept. Rows with one sorted form
    never drop each other."""
    order = np.argsort(np.einsum("ij,ij->i", laws, laws), kind="stable")
    # one column per row in visiting order: its partial sums, the total left out
    sums = np.cumsum(np.sort(laws[order], axis=1)[:, ::-1], axis=1)[:, :-1].T.copy()
    left = np.ones(len(laws), dtype=bool)
    pivot = 0
    for _ in range(_PIVOTS):
        here, later = sums[:, pivot:pivot + 1], sums[:, pivot + 1:]
        left[pivot + 1:] &= ~((later >= here).all(axis=0) & (later > here).any(axis=0))
        rest = np.flatnonzero(left[pivot + 1:])
        if rest.size == 0:
            break
        pivot += 1 + int(rest[0])
    keep = np.empty_like(left)
    keep[order] = left
    return keep


def maximize_over_hull(
    sources: SourceList,
    d: DistortionMatrix,
    target: float,
    tol: float = RATE_TOL,
    start=None,
) -> MaximizerResult:
    """Largest R_p(D) over convex mixtures of the sources (the baseline
    attainable without lookahead). Searches mixture weights of the hull's
    extreme sources directly, from their lattice up to 4 such sources and
    from the sources and their uniform mixture above, then by Frank-Wolfe
    over the sources. A source within 1e-12 of the hull of the others is
    left out; of two equal sources the first is kept.

    Under a symmetric distortion (see ``maximize_over_region``) R_p(D) is
    Schur-concave in p, so a starting law that majorizes another starting
    law is never above it; such laws leave the starting batch before the
    search (``_least_majorized``), and ``evaluations`` counts the batch that
    is left. Laws that relabel one another, or one law from two weight
    vectors, all stay, so ties still go to the lexicographically smallest
    weights. Every other distortion starts from the whole batch.

    ``start`` is an optional ``(slope, law)`` dual pair, the ``slope`` and
    ``law`` of a ``MaximizerResult`` at the same target and distortion, say
    the region's. Every row of the first batch starts its slope search from
    it (see ``rates_at_distortion_batch``). Every rate still lies in its
    ``tol`` bracket; only its place in the bracket may move. A pair with
    slope 0 or NaN gives the cold search's result."""
    if sources.is_joint:
        raise ValidationError("the hull baseline is defined for independent sources")
    rows = _extreme_rows(sources.as_array())
    lams, method = _candidates(rows.shape[0], _simplex_vertex)
    if _symmetric(d):
        lams = lams[_least_majorized(lams @ rows)]
    return _maximize(lams, method, _simplex_vertex, rows, d, target, tol, start)


def rd_tilde_curve(
    spec: RegionSpec,
    d: DistortionMatrix,
    num_points: int,
    tol: float = RATE_TOL,
) -> list[tuple[float, MaximizerResult]]:
    """Worst-case rate over a distortion grid spanning the smallest floor and
    the largest ceiling seen across the region's candidate set (its feasible
    lattice up to 4 symbols, its vertices for fixed orders above, and p*
    either way), which every target reuses. Under a symmetric distortion
    (see ``maximize_over_region``) the set is p* alone: the floor is then
    the same for every law, and the ceiling, Schur-concave, peaks at p*, so
    p* spans the candidates' extremes, and each target is one rate solve."""
    if num_points < 2:
        raise ValidationError("need at least two curve points")
    candidates, at = _region_maximizer(spec, d, tol)
    floors = candidates @ d.values.min(axis=1)
    ceilings = (candidates @ d.values).min(axis=1)
    targets = np.linspace(float(floors.min()), float(ceilings.max()), num_points)
    return [(float(t), at(float(t))) for t in targets]
