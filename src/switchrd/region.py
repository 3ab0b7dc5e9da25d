"""The set of IID distributions an output-picking switch can imitate.

For every nonempty symbol subset V the switch is trapped inside V whenever all
sources land in V at once, which happens with probability Q(V). A distribution
p is attainable iff it puts at least Q(V) - delta mass on every V (delta = 0
is the exact region, delta > 0 its relaxation). Subsets are encoded as
bitmasks over alphabet positions; computations stay exact when the source
table holds ``fractions.Fraction`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError
from .probcore import Distribution, SourceList

#: Largest alphabet for which the full constraint family is enumerated.
ALPHABET_GUARD = 20

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


def _iter_joint_masks(sources: SourceList):
    """Yield (tuple-support mask, pmf entry) for every joint outcome."""
    k = sources.alphabet_size
    m = sources.num_sources
    row = sources.table[0]
    for flat, value in enumerate(row):
        mask = 0
        rest = flat
        for _ in range(m):
            mask |= 1 << (rest % k)
            rest //= k
        yield mask, value


def q_of_subset(sources: SourceList, mask: int) -> float:
    """Probability that every source output at one time lies inside the subset.

    Exact when the source table holds rational entries.
    """
    _check_mask(mask, sources.alphabet_size)
    members = subset_members(mask)
    if sources.is_joint:
        total = 0
        for tmask, value in _iter_joint_masks(sources):
            if tmask & ~mask == 0:
                total = total + value
        return total
    result = 1
    for row in sources.table:
        result = result * sum(row[i] for i in members)
    return result


def beta_of_subset(sources: SourceList, mask: int) -> float:
    """Probability that the set of symbols on offer equals the subset exactly."""
    _check_mask(mask, sources.alphabet_size)
    if sources.is_joint:
        total = 0
        for tmask, value in _iter_joint_masks(sources):
            if tmask == mask:
                total = total + value
        return total
    # inclusion-exclusion over the sub-subsets of the mask
    size = mask.bit_count()
    total = 0
    sub = mask
    while sub:
        sign = 1 if (size - sub.bit_count()) % 2 == 0 else -1
        total = total + sign * q_of_subset(sources, sub)
        sub = (sub - 1) & mask
    return total


def beta_table(sources: SourceList) -> dict[int, float]:
    """beta for every nonempty subset, keyed by mask in ascending order."""
    _check_alphabet_guard(sources.alphabet_size)
    k = sources.alphabet_size
    if sources.is_joint:
        table = {mask: 0 for mask in range(1, 1 << k)}
        for tmask, value in _iter_joint_masks(sources):
            table[tmask] = table[tmask] + value
        return table
    return {mask: beta_of_subset(sources, mask) for mask in range(1, 1 << k)}


def realizable_subsets(sources: SourceList) -> tuple[int, ...]:
    """Masks that occur as the offered set with strictly positive probability.

    Decided combinatorially from the source supports (exact integer counts),
    so float cancellation in beta cannot misclassify a subset.
    """
    _check_alphabet_guard(sources.alphabet_size)
    k = sources.alphabet_size
    if sources.is_joint:
        seen = set()
        for tmask, value in _iter_joint_masks(sources):
            if value > 0:
                seen.add(tmask)
        return tuple(sorted(seen))
    supports = [mask_of(i for i, x in enumerate(row) if x > 0) for row in sources.table]
    out = []
    for mask in range(1, 1 << k):
        size = mask.bit_count()
        count = 0
        sub = mask
        while sub:
            sign = 1 if (size - sub.bit_count()) % 2 == 0 else -1
            prod = 1
            for sup in supports:
                prod *= (sup & sub).bit_count()
            count += sign * prod
            sub = (sub - 1) & mask
        if count > 0:
            out.append(mask)
    return tuple(out)


@dataclass(frozen=True)
class RegionSpec:
    """Attainable region of a source list; ``delta`` = 0 is the exact region,
    ``delta`` > 0 slackens every constraint by that amount."""

    sources: SourceList
    delta: float = 0

    def __post_init__(self):
        if self.delta < 0:
            raise ValidationError("delta must be nonnegative")


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of a membership query: satisfied, or the violated subsets with
    the mass present (lhs) and the mass required (rhs)."""

    satisfied: bool
    violations: tuple[tuple[int, float, float], ...]


def _subset_sum_table(vec: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of vec over the symbols in mask, for all masks."""
    k = vec.size
    sums = np.zeros(1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + vec[low.bit_length() - 1]
    return sums


def _q_table_float(sources: SourceList) -> np.ndarray:
    """Q over all masks as floats (index 0 unused)."""
    k = sources.alphabet_size
    if sources.is_joint:
        mass = np.zeros(1 << k)
        for tmask, value in _iter_joint_masks(sources):
            mass[tmask] += float(value)
        # zeta transform: accumulate sub-subset mass into every superset
        table = mass.copy()
        for bit in range(k):
            step = 1 << bit
            for mask in range(1 << k):
                if mask & step:
                    table[mask] += table[mask ^ step]
        return table
    table = np.ones(1 << k)
    for row in sources.table:
        table *= _subset_sum_table(np.array([float(x) for x in row]))
    table[0] = 0.0
    return table


def is_member(p: Distribution, spec: RegionSpec) -> ConstraintReport:
    """Check every subset constraint; report each violated subset with both
    sides. The full-alphabet constraint holds trivially but is checked too."""
    k = spec.sources.alphabet_size
    if p.size != k:
        raise ValidationError("distribution and sources use different alphabets")
    _check_alphabet_guard(k)
    q_tab = _q_table_float(spec.sources)
    p_tab = _subset_sum_table(p.probs)
    delta = float(spec.delta)
    violations = []
    for mask in range(1, 1 << k):
        lhs = p_tab[mask]
        rhs = q_tab[mask] - delta
        if lhs < rhs - MEMBER_ATOL:
            violations.append((mask, float(lhs), float(rhs)))
    return ConstraintReport(not violations, tuple(violations))


def enumerate_constraints(spec: RegionSpec) -> list[tuple[int, float]]:
    """All nonempty subsets with their required-mass right-hand sides, in
    canonical (ascending bitmask) order. Exact when sources and delta are."""
    k = spec.sources.alphabet_size
    _check_alphabet_guard(k)
    return [
        (mask, q_of_subset(spec.sources, mask) - spec.delta)
        for mask in range(1, 1 << k)
    ]


def hull_member(p: Distribution, sources: SourceList, tol: float = 1e-8) -> bool:
    """True iff p is a convex mixture of the source distributions.

    Decided by nonnegative least squares on the stacked system (source rows
    plus a unit-sum row): membership iff the residual is below ``tol``.
    """
    if sources.is_joint:
        raise ValidationError("hull membership is defined for independent sources")
    if p.size != sources.alphabet_size:
        raise ValidationError("distribution and sources use different alphabets")
    # scipy costs a large share of the package's import time, and only this
    # function needs it
    from scipy.optimize import nnls

    rows = sources.as_array()
    a = np.vstack([rows.T, np.ones(rows.shape[0])])
    b = np.append(p.probs, 1.0)
    _, residual = nnls(a, b)
    return bool(residual <= tol)
