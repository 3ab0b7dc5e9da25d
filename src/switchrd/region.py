"""The set of IID distributions an output-picking switch can imitate.

For every nonempty symbol subset V the switch is trapped inside V whenever all
sources land in V at once, which happens with probability Q(V). A distribution
p is attainable iff it puts at least Q(V) - delta mass on every V (delta = 0
is the exact region, delta > 0 its relaxation). Subsets are encoded as
bitmasks over alphabet positions.

Both source modes rest on one mass vector over masks, beta(V): the
probability that exactly V is on offer. Q is its zeta (subset-sum) transform
and beta is the Moebius inverse of Q; one butterfly transform computes either
in O(k 2^k). Joint mode accumulates beta from the support of each source
tuple, and independent mode multiplies per-source subset sums into Q.
Realizability is the same pair of tables over 0/1 support indicators.

The tables stay exact when every source entry is rational (``int`` or
``fractions.Fraction``): each source row is scaled by the lcm of its
denominators, the transforms run over Python ints, and an entry is divided
by the one common denominator only when it is read. A table with a float
entry is transformed entry by entry as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, GuardError, ValidationError
from .probcore import Distribution, SourceList

#: Largest alphabet for which the full constraint family is enumerated. On an
#: exact-rational two-source instance over denominator 997, ``region --list``
#: takes 3.7 s and 254 MB at 19 symbols and 7.1 s and 462 MB at 20
#: (``synthesize`` of the sources' mean 1.2 s and 2.3 s; of a point mass,
#: which the subset test refuses before any nearest-point search, 0.4 s at
#: both), on a 2-vCPU machine.
ALPHABET_GUARD = 19

#: Absolute slack when comparing a constraint side, so that boundary points
#: (mass exactly equal to the bound) are not reported as violations.
MEMBER_ATOL = 1e-12


def subset_members(mask: int) -> tuple[int, ...]:
    """Symbols in a bitmask-encoded subset, ascending."""
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return tuple(out)


def mask_of(symbols) -> int:
    m = 0
    for s in symbols:
        m |= 1 << s
    return m


def format_subset(mask: int) -> str:
    return "{" + ",".join(str(i) for i in subset_members(mask)) + "}"


def _subset_labels(alphabet_size: int):
    """``format_subset`` of masks 1 .. 2^k - 1 in turn, each label built from
    that of the mask without its top symbol."""
    inner = [""]
    for top in range(alphabet_size):
        for lower in range(1 << top):
            label = f"{inner[lower]},{top}" if lower else str(top)
            inner.append(label)
            yield "{" + label + "}"


def _check_mask(mask: int, alphabet_size: int) -> None:
    if mask <= 0:
        raise ValidationError("the empty subset is not a valid availability event")
    if mask >= (1 << alphabet_size):
        raise ValidationError(
            f"subset mask {mask} is out of range for alphabet size {alphabet_size}"
        )


def _check_alphabet_guard(alphabet_size: int) -> None:
    if alphabet_size > ALPHABET_GUARD:
        raise GuardError(
            f"alphabet size {alphabet_size} exceeds the enumeration guard "
            f"{ALPHABET_GUARD} (2^|X| constraints)"
        )


def _transform(table: np.ndarray, sign: int = 1) -> np.ndarray:
    """Zeta transform over the last axis, in place: entry V becomes the sum of
    the entries of every U inside V. ``sign=-1`` runs the Moebius inverse.

    Works for any dtype: exact on object arrays of ``Fraction`` or ``int``.
    """
    lead = table.shape[:-1]
    bit = table.shape[-1] >> 1
    while bit:
        # each row: masks without this bit, then the same masks with it
        pairs = table.reshape(lead + (-1, 2 * bit))
        if sign > 0:
            pairs[..., bit:] += pairs[..., :bit]
        else:
            pairs[..., bit:] -= pairs[..., :bit]
        bit >>= 1
    return table


#: The mask of each single symbol, for every alphabet the guard admits.
_SINGLETONS = 1 << np.arange(ALPHABET_GUARD)


def _on_singletons(values: np.ndarray) -> np.ndarray:
    """Per-symbol values (last axis) placed at the singleton masks."""
    k = values.shape[-1]
    out = np.zeros(values.shape[:-1] + (1 << k,), dtype=values.dtype)
    out[..., _SINGLETONS[:k]] = values
    return out


def _tuple_masks(alphabet_size: int, num_sources: int) -> np.ndarray:
    """Offered-set mask of every source tuple, in joint-table order."""
    rest = np.arange(alphabet_size**num_sources)
    masks = np.zeros_like(rest)
    for _ in range(num_sources):
        masks |= 1 << (rest % alphabet_size)
        rest //= alphabet_size
    return masks


def _entries(sources: SourceList, kind: str) -> tuple[np.ndarray, int | None]:
    """The source table as ``kind`` reads it, and the common denominator of
    an exact table whose rows were scaled to integers (None otherwise).

    An exact table with only rational entries (``int`` or ``Fraction``) has
    each row scaled by the lcm of its denominators; the product of those lcms
    is the denominator of every entry of Q and beta.
    """
    table = sources.table
    if kind == "float":
        return np.array([[float(x) for x in row] for row in table]), None
    if kind == "support":
        return np.array([[int(x > 0) for x in row] for row in table], dtype=object), None
    if not all(isinstance(x, (int, Fraction)) for row in table for x in row):
        return np.array(table, dtype=object), None
    rows, den = [], 1
    for row in table:
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        den *= scale
    return np.array(rows, dtype=object), den


@lru_cache(maxsize=64)
def _tables(
    sources: SourceList, kind: str
) -> tuple[np.ndarray, np.ndarray | None, int | None]:
    """(Q, beta, den) over all 2^k masks, index 0 holding 0, as read-only
    arrays.

    ``kind`` "exact" computes exactly: on a rational source table Q and beta
    hold Python-int numerators over the one denominator ``den``, and a table
    with any float entry is transformed as given (``den`` None). "float" runs
    in float64, and "support" replaces each entry by its 0/1 support
    indicator, so that beta counts the source tuples offering each set
    (Python ints, since counts reach k^m). Only membership reads the float
    kind, and it reads Q alone, so that kind returns None for beta.
    """
    k = sources.alphabet_size
    _check_alphabet_guard(k)
    entries, den = _entries(sources, kind)
    if sources.is_joint:
        q = np.zeros(1 << k, dtype=entries.dtype)
        np.add.at(q, _tuple_masks(k, sources.num_sources), entries[0])
        beta = None if kind == "float" else q.copy()
        _transform(q)
    else:
        q = np.multiply.reduce(_transform(_on_singletons(entries)), axis=0)
        beta = None if kind == "float" else _transform(q.copy(), -1)
    for table in (q, beta):
        if table is not None:
            table.setflags(write=False)
    return q, beta, den


#: Shared exact zero: beta vanishes on every set larger than the number of
#: sources, so most of an exact beta table reads it.
_ZERO = Fraction(0)


def _exact_values(table: np.ndarray, den: int | None) -> list:
    """Entries of an exact table: numerators over ``den`` as Fractions, or
    the entries as they are when the table was not scaled."""
    if den is None:
        return table.tolist()
    return [Fraction(n, den) if n else _ZERO for n in table.tolist()]


def q_of_subset(sources: SourceList, mask: int) -> float:
    """Probability that every source output at one time lies inside the subset.

    Exact when the source table holds rational entries.
    """
    _check_mask(mask, sources.alphabet_size)
    q, _, den = _tables(sources, "exact")
    return _exact_values(q[mask : mask + 1], den)[0]


def beta_of_subset(sources: SourceList, mask: int) -> float:
    """Probability that the set of symbols on offer equals the subset exactly."""
    _check_mask(mask, sources.alphabet_size)
    _, beta, den = _tables(sources, "exact")
    return _exact_values(beta[mask : mask + 1], den)[0]


def beta_table(sources: SourceList) -> dict[int, float]:
    """beta for every nonempty subset, keyed by mask in ascending order."""
    _, beta, den = _tables(sources, "exact")
    return dict(enumerate(_exact_values(beta[1:], den), start=1))


def realizable_subsets(sources: SourceList) -> tuple[int, ...]:
    """Masks that occur as the offered set with strictly positive probability.

    Read from the tables built over the sources' 0/1 support indicators: the
    mass vector over masks then counts the source tuples, drawn from the
    supports, that offer exactly V, its zeta transform counts those inside V,
    and the first is the Moebius inverse of the second. The counts are exact
    integers, so float cancellation in beta cannot misclassify a subset, and
    counts beyond 2^63 do not wrap.
    """
    return tuple((_tables(sources, "support")[1] > 0).nonzero()[0].tolist())


@dataclass(frozen=True)
class RegionSpec:
    """Attainable region of a source list; ``delta`` = 0 is the exact region,
    ``delta`` > 0 slackens every constraint by that amount."""

    sources: SourceList
    delta: float = 0

    def __post_init__(self):
        if not self.delta >= 0:  # NaN fails too
            raise ValidationError("delta must be nonnegative")


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of a membership query: satisfied, or the violated subsets with
    the mass present (lhs) and the mass required (rhs)."""

    satisfied: bool
    violations: tuple[tuple[int, float, float], ...]


def _shortfalls(probs: np.ndarray, spec: RegionSpec):
    """Subset masses of each row of ``probs`` (last axis: symbols), the
    required masses, and which masks fall short of them."""
    if probs.shape[-1] != spec.sources.alphabet_size:
        raise ValidationError("distribution and sources use different alphabets")
    rhs = _tables(spec.sources, "float")[0] - float(spec.delta)
    lhs = _transform(_on_singletons(probs))
    return lhs, rhs, lhs < rhs - MEMBER_ATOL


def in_region(probs: np.ndarray, spec: RegionSpec) -> np.ndarray:
    """Membership verdict for each row of a batch of probability vectors, by
    the same comparison as ``is_member``. The rows are not validated."""
    return ~_shortfalls(np.asarray(probs, dtype=float), spec)[2].any(axis=-1)


def is_member(p: Distribution, spec: RegionSpec) -> ConstraintReport:
    """Check every subset constraint; report each violated subset with both
    sides. The full-alphabet constraint holds trivially but is checked too."""
    lhs, rhs, short = _shortfalls(p.probs, spec)
    violations = tuple(
        (mask, float(lhs[mask]), float(rhs[mask])) for mask in short.nonzero()[0].tolist()
    )
    return ConstraintReport(not violations, violations)


def enumerate_constraints(spec: RegionSpec) -> list[tuple[int, float]]:
    """All nonempty subsets with their required-mass right-hand sides, in
    canonical (ascending bitmask) order. Exact when sources and delta are."""
    q, _, den = _tables(spec.sources, "exact")
    delta = spec.delta
    if den is not None and isinstance(delta, (int, Fraction)):
        # one numerator vector over den * delta's denominator
        a, b = delta.numerator, delta.denominator
        rhs = _exact_values(q[1:] * b - a * den, den * b)
    else:
        rhs = [x - delta for x in _exact_values(q[1:], den)]
    return list(enumerate(rhs, start=1))


#: Wolfe's stopping rule, relative to |x|^2: x is taken as the nearest point
#: once every point y of the polytope has x.y >= (1 - this) |x|^2.
_WOLFE_REL_GAP = 1e-12
#: Corral weights at or below this are treated as zero and their points leave.
_WOLFE_WEIGHT_FLOOR = 1e-10
#: Major cycles allowed to one nearest-point search, by both of its callers.
#: On random instances synthesis took at most 14 at k = 8 and under 40 at
#: k = 19, and the hull of 200 rows at most 11: the cap only stops a search
#: that rounding keeps from ending.
_WOLFE_CYCLES = 1000


def _affine_weights(rows: np.ndarray) -> np.ndarray:
    """Weights (summing to 1) of the point of least norm in the affine hull
    of ``rows``.

    The least-squares solution u of ``[1^T; rows^T] u = [1; 0]`` minimizes
    (sum u - 1)^2 + |rows^T u|^2, so it is the affine minimizer's weights
    scaled by 1 / (1 + its squared norm) > 0: normalizing recovers them, also
    when the rows are affinely dependent.
    """
    a = np.vstack([np.ones(len(rows)), rows.T])
    b = np.zeros(len(a))
    b[0] = 1.0
    u = np.linalg.lstsq(a, b, rcond=None)[0]
    return u / u.sum()


def _min_norm_point(oracle, start):
    """The point of least Euclidean norm in a polytope, by Wolfe's method
    (P. Wolfe, "Finding the nearest point in a polytope", Math. Programming
    11 (1976) 128-149), and the convex mixture of polytope points that
    makes it.

    The polytope is given by a linear-minimization oracle: ``oracle(c)``
    returns ``(key, y)``, a point y of the polytope that minimizes c.y and a
    hashable key naming it; equal keys must name equal points. ``start`` is
    a first such pair. Returns ``(x, keys, weights)``: the nearest point, the
    keys of its corral and their weights, which are positive, sum to 1 and
    mix the corral's points into x.

    A major cycle adds the oracle's point for c = x; minor cycles then move x
    towards the affine minimizer of the corral, dropping each point whose
    weight reaches zero on the way, until that minimizer has positive
    weights. |x| falls with every major cycle, so a cycle that cannot lower
    it, or whose new point is already in the corral or gets no weight, means
    rounding has taken over, and x is returned as it stands. Raises
    ConvergenceError if ``_WOLFE_CYCLES`` major cycles do not finish.
    """
    keys, rows = [start[0]], np.array([start[1]])
    weights = np.ones(1)
    x = rows[0]
    for _ in range(_WOLFE_CYCLES):
        key, y = oracle(x)
        if x @ x - x @ y <= _WOLFE_REL_GAP * (x @ x) or key in keys:
            return x, keys, weights
        corral, points = keys + [key], np.vstack([rows, y])
        v = _affine_weights(points)
        if v[-1] <= _WOLFE_WEIGHT_FLOOR:
            return x, keys, weights
        w = np.append(weights, 0.0)
        while (v <= _WOLFE_WEIGHT_FLOOR).any():
            # step from w towards v until the first weight reaches zero
            low = np.flatnonzero(v <= _WOLFE_WEIGHT_FLOOR)
            steps = w[low] / (w[low] - v[low])
            w = w + steps.min() * (v - w)
            keep = w > _WOLFE_WEIGHT_FLOOR
            keep[low[np.argmin(steps)]] = False
            corral = [c for c, kept in zip(corral, keep) if kept]
            points, w = points[keep], w[keep]
            v = _affine_weights(points)
        nearer = v @ points
        if nearer @ nearer >= x @ x:
            return x, keys, weights
        x, keys, rows, weights = nearer, corral, points, v
    raise ConvergenceError(f"no nearest point within {_WOLFE_CYCLES} major cycles")


def _greedy_oracle(sources: SourceList, offset: np.ndarray, delta: float = 0.0):
    """Linear-minimization oracle over the region relaxed by ``delta`` and
    shifted by ``-offset``, for ``_min_norm_point``.

    The region is the core of the supermodular h(V) = max(Q(V) - delta, 0),
    h = 1 on the alphabet, so its point minimizing c.y (Shapley 1971) gives
    the symbols sigma_1..sigma_k in ascending order of c the masses
    h(rest_{j-1}) - h(rest_j), where rest_j is the alphabet less
    sigma_1..sigma_j: k reads of the float Q table. At delta = 0 it is the
    law of the priority rule "emit the first offered symbol in that order".
    The key is the order, as a tuple of symbols.
    """
    q = _tables(sources, "float")[0]
    k = sources.alphabet_size
    full = (1 << k) - 1
    h = np.maximum(q - delta, 0.0)
    h[full] = q[full]

    def oracle(c):
        order = np.argsort(c, kind="stable")
        chain = h[full - np.concatenate(([0], np.cumsum(_SINGLETONS[order])))]
        y = np.empty(k)
        y[order] = chain[:-1] - chain[1:]
        return tuple(order.tolist()), y - offset

    return oracle


def hull_member(p: Distribution, sources: SourceList, tol: float = 1e-8) -> bool:
    """True iff p lies within Euclidean distance ``tol`` of the convex hull
    of the source distributions.

    The distance is the norm of the nearest point to the origin in the hull
    of the rows ``r_j - p``, found by Wolfe's min-norm point method
    (Math. Programming 11 (1976) 128-149) from the row of least norm. Raises
    ConvergenceError in the unlikely event that the method runs out of
    cycles.
    """
    if sources.is_joint:
        raise ValidationError("hull membership is defined for independent sources")
    if p.size != sources.alphabet_size:
        raise ValidationError("distribution and sources use different alphabets")
    return _hull_distance(sources.as_array(), p.probs) <= tol


def _hull_distance(rows: np.ndarray, point: np.ndarray) -> float:
    """Euclidean distance from ``point`` to the convex hull of ``rows``: the
    norm of the min-norm point of the rows ``r_j - point``, from the row of
    least norm (see ``hull_member``)."""
    rows = rows - point

    def oracle(c):
        j = int(np.argmin(rows @ c))
        return j, rows[j]

    first = int(np.argmin(np.einsum("ij,ij->i", rows, rows)))
    return float(np.linalg.norm(_min_norm_point(oracle, (first, rows[first]))[0]))
