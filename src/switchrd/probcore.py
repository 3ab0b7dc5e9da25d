"""Finite-alphabet probability primitives shared by every other module.

Distributions, channels and distortion matrices are immutable after
validation, so values can be shared and queried concurrently. All logarithms
are base 2; information quantities are in bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import GuardError, ValidationError

#: Absolute tolerance on simplex constraints (nonnegativity, unit sum).
SIMPLEX_ATOL = 1e-9

#: Largest number of entries accepted for a joint source PMF.
JOINT_ENUM_GUARD = 2**20


def _frozen_array(values, *, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_pmf_entries(row: Sequence, what: str) -> None:
    """Exact entries (ints, Fractions) must be >= 0 exactly; float entries
    and the sum are held to ``SIMPLEX_ATOL``."""
    total = sum(row)
    for x in row:
        if x < (0 if isinstance(x, (int, Fraction)) else -SIMPLEX_ATOL):
            raise ValidationError(f"{what} has a negative entry {x}")
    if abs(total - 1) > SIMPLEX_ATOL:
        raise ValidationError(
            f"{what} sums to {float(total)!r}, expected 1 within {SIMPLEX_ATOL}"
        )


def _check_symbols(symbols: np.ndarray, alphabet_size: int, what: str) -> None:
    """Raise ValidationError unless every entry of ``symbols`` is an integer
    in 0..alphabet_size-1; a cast to a narrower or signed index would
    truncate or wrap the others."""
    if not np.issubdtype(symbols.dtype, np.integer):
        raise ValidationError(f"{what} symbols must be integers")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet_size):
        raise ValidationError(f"{what} symbols out of alphabet range")


def _check_seed(seed) -> None:
    """Raise ValidationError unless ``seed`` is a nonnegative Python or numpy integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be nonnegative and an integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass function over symbols 0..k-1 with k >= 2.

    Inputs failing validation are rejected outright, never renormalized.
    """

    probs: np.ndarray

    def __post_init__(self):
        vec = np.array(self.probs, dtype=float)
        if vec.ndim != 1:
            raise ValidationError("distribution must be a one-dimensional vector")
        if vec.size < 2:
            raise ValidationError("alphabet must have at least two symbols")
        if not np.all(np.isfinite(vec)):
            raise ValidationError("distribution entries must be finite")
        _check_pmf_entries(vec.tolist(), "distribution")
        vec.setflags(write=False)
        object.__setattr__(self, "probs", vec)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @classmethod
    def point_mass(cls, symbol: int, k: int) -> "Distribution":
        vec = np.zeros(k)
        vec[symbol] = 1.0
        return cls(vec)


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-letter distortion d(i, j) between source symbol i and reproduction
    symbol j. Entries must be finite and nonnegative."""

    values: np.ndarray

    def __post_init__(self):
        mat = np.array(self.values, dtype=float)
        if mat.ndim != 2 or min(mat.shape) < 1:
            raise ValidationError("distortion must be a non-empty matrix")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("distortion entries must be finite")
        if np.any(mat < 0):
            raise ValidationError("distortion entries must be nonnegative")
        mat.setflags(write=False)
        object.__setattr__(self, "values", mat)

    @property
    def num_inputs(self) -> int:
        return int(self.values.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.values.shape[1])

    @classmethod
    def hamming(cls, k: int) -> "DistortionMatrix":
        return cls(1.0 - np.eye(k))


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix w(j|i) from input symbols to output symbols."""

    rows: np.ndarray

    def __post_init__(self):
        mat = np.array(self.rows, dtype=float)
        if mat.ndim != 2 or min(mat.shape) < 1:
            raise ValidationError("transition matrix must be a non-empty matrix")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("transition entries must be finite")
        if np.any(mat < -SIMPLEX_ATOL):
            raise ValidationError("transition entries must be nonnegative")
        sums = mat.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_ATOL):
            raise ValidationError("every transition row must sum to 1")
        mat.setflags(write=False)
        object.__setattr__(self, "rows", mat)

    @property
    def num_inputs(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.rows.shape[1])

    @classmethod
    def identity(cls, k: int) -> "TransitionMatrix":
        return cls(np.eye(k))


@dataclass(frozen=True, eq=False)
class SourceList:
    """The collection of sources the switch selects from.

    independent mode: ``table`` holds one PMF row per source, all over the same
    alphabet. joint mode: ``table`` holds a single row of length
    ``alphabet_size ** num_sources`` giving the one-step joint PMF over source
    tuples in row-major order (source 0 is the slowest-varying index).

    Entries may be ``fractions.Fraction``; exact values are kept as given so
    that subset probabilities computed from them stay exact.
    """

    mode: str
    table: tuple
    alphabet_size: int
    num_sources: int

    def __post_init__(self):
        if self.mode not in ("independent", "joint"):
            raise ValidationError(f"unknown source mode {self.mode!r}")
        if self.num_sources < 1:
            raise ValidationError("need at least one source")
        if self.alphabet_size < 2:
            raise ValidationError("alphabet must have at least two symbols")
        table = tuple(tuple(row) for row in self.table)
        if self.mode == "independent":
            if len(table) != self.num_sources:
                raise ValidationError("one PMF row required per source")
            for row in table:
                if len(row) != self.alphabet_size:
                    raise ValidationError("all sources must share the alphabet")
                _check_pmf_entries(row, "source")
        else:
            want = self.alphabet_size**self.num_sources
            if want > JOINT_ENUM_GUARD:
                raise GuardError(
                    f"joint PMF would need {want} entries, guard is {JOINT_ENUM_GUARD}"
                )
            if len(table) != 1 or len(table[0]) != want:
                raise ValidationError(
                    f"joint PMF must be a single row of {want} entries"
                )
            _check_pmf_entries(table[0], "joint PMF")
        object.__setattr__(self, "table", table)

    @classmethod
    def independent(cls, rows) -> "SourceList":
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValidationError("need at least one source")
        return cls("independent", rows, len(rows[0]), len(rows))

    @classmethod
    def joint(cls, pmf, alphabet_size: int, num_sources: int) -> "SourceList":
        return cls("joint", (tuple(pmf),), alphabet_size, num_sources)

    @property
    def is_joint(self) -> bool:
        return self.mode == "joint"

    def as_array(self) -> np.ndarray:
        """Float matrix of shape (num_sources, alphabet_size); independent only."""
        if self.is_joint:
            raise ValidationError("as_array is defined only in independent mode")
        return _frozen_array([[float(x) for x in row] for row in self.table])

    def joint_array(self) -> np.ndarray:
        """Flat float joint PMF of length alphabet_size ** num_sources."""
        if not self.is_joint:
            raise ValidationError("joint_array is defined only in joint mode")
        return _frozen_array([float(x) for x in self.table[0]])


def _check_p_w(p: Distribution, w: TransitionMatrix) -> None:
    if p.size != w.num_inputs:
        raise ValidationError(
            f"dimension mismatch: |p| = {p.size}, channel has {w.num_inputs} inputs"
        )


def _check_p_d(p: Distribution, d: DistortionMatrix) -> None:
    if p.size != d.num_inputs:
        raise ValidationError(
            f"dimension mismatch: |p| = {p.size}, distortion has {d.num_inputs} rows"
        )


def mutual_information(p: Distribution, w: TransitionMatrix) -> float:
    """I(p, w) in bits. Terms with zero joint probability contribute zero."""
    _check_p_w(p, w)
    joint = p.probs[:, None] * w.rows
    marginal = joint.sum(axis=0)
    mask = joint > 0
    # marginal[j] >= joint[i, j] > 0 wherever mask holds, so the ratio is safe
    ratio = np.divide(
        w.rows, marginal[None, :], out=np.ones_like(w.rows), where=mask
    )
    return float(np.sum(joint[mask] * np.log2(ratio[mask])))


def expected_distortion(
    p: Distribution, w: TransitionMatrix, d: DistortionMatrix
) -> float:
    """Mean per-letter distortion of channel w driven by source p."""
    _check_p_w(p, w)
    if w.rows.shape != d.values.shape:
        raise ValidationError("channel and distortion shapes disagree")
    return float(np.sum(p.probs[:, None] * w.rows * d.values))


def d_min(p: Distribution, d: DistortionMatrix) -> float:
    """Distortion floor: each source letter mapped to its cheapest output."""
    _check_p_d(p, d)
    return float(p.probs @ d.values.min(axis=1))


def d_max(p: Distribution, d: DistortionMatrix) -> float:
    """Zero-rate ceiling: the best single constant reproduction."""
    _check_p_d(p, d)
    return float((p.probs @ d.values).min())


def entropy(p: Distribution) -> float:
    """Shannon entropy in bits."""
    probs = p.probs[p.probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """CDF of each PMF along the last axis, normalized as
    ``Generator.choice(k, size, p=probs)`` normalizes it. That call draws
    ``size`` uniforms u and returns, for each, the number of CDF entries that
    are <= u; mapping the same uniforms through this CDF reproduces it
    exactly."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def compositions(total: int, parts: int) -> np.ndarray:
    """Every vector of ``parts`` nonnegative integers summing to ``total``, as
    the rows of an int64 matrix in lexicographic order: each row is the gaps
    between ``parts - 1`` bars placed among ``total + parts - 1`` slots."""
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    bars = bars.reshape(math.comb(slots, parts - 1), parts - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
    return np.diff(edges, axis=1) - 1
