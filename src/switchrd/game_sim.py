"""Monte Carlo simulation of the source coding game at desk scale.

Includes exhaustive small-blocklength machinery: greedy covering codebooks
over all strings whose empirical type lies in the (relaxed) attainable region,
an exact best-response search for the switch against a fixed codebook, and a
Hoeffding bound on the probability of the output type escaping the relaxed
region. Trials draw their randomness from streams derived from (seed, trial),
so parallel execution cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InfeasibleError, ValidationError
from .probcore import Distribution, DistortionMatrix, SourceList
from .rate_distortion import rate_at_distortion
from .region import RegionSpec, is_member
from .strategy import SwitchRule, _apply_rule

#: Largest string-space enumerated exhaustively (source and reproduction).
ENUM_GUARD = 2**20
#: Largest candidate-times-target table the greedy cover will materialize.
COVER_CELL_GUARD = 2**26
#: Largest selection space searched by the exact best response.
BEST_RESPONSE_GUARD = 2**22

_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class Codebook:
    """A set of distinct reproduction words of one common blocklength."""

    words: np.ndarray
    n: int

    def __post_init__(self):
        words = np.array(self.words, dtype=np.int64)
        if words.size == 0:
            words = words.reshape(0, self.n)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValidationError("codebook words must all have the stated length")
        if words.shape[0] and len(np.unique(words, axis=0)) != words.shape[0]:
            raise ValidationError("codebook words must be distinct")
        words.setflags(write=False)
        object.__setattr__(self, "words", words)

    @property
    def size(self) -> int:
        return int(self.words.shape[0])

    @property
    def rate(self) -> float:
        """log2(size) / n in bits per symbol."""
        if self.size == 0:
            raise ValidationError("empty codebook has no rate")
        return math.log2(self.size) / self.n

    def serialize(self) -> str:
        """Newline-delimited symbol strings (digits concatenated for small
        reproduction alphabets, space-separated otherwise)."""
        lines = []
        spaced = self.size and self.words.max() > 9
        for row in self.words:
            lines.append(
                " ".join(str(x) for x in row) if spaced else "".join(str(x) for x in row)
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, n: int) -> "Codebook":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([int(t) for t in line.split()] if " " in line else [int(c) for c in line])
        return cls(np.array(rows, dtype=np.int64).reshape(len(rows), n), n)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregate of independent simulated blocks."""

    empirical_type: Distribution
    mean_distortion: float | None
    stderr: float | None
    trials: int
    n: int
    seed: int
    out_of_region_fraction: float | None = None
    codebook_rate: float | None = None

    def __post_init__(self):
        if self.mean_distortion is not None and self.mean_distortion < 0:
            raise ValidationError("mean distortion cannot be negative")
        if self.trials < 1 or self.n < 1:
            raise ValidationError("need at least one trial and one symbol")

    def to_kv(self) -> str:
        lines = [f"n={self.n}", f"trials={self.trials}", f"seed={self.seed}"]
        for key in ("mean_distortion", "stderr", "out_of_region_fraction", "codebook_rate"):
            value = getattr(self, key)
            if value is not None:
                lines.append(f"{key}={value:.12g}")
        lines.append(
            "empirical_type=" + " ".join(f"{x:.12g}" for x in self.empirical_type.probs)
        )
        return "\n".join(lines) + "\n"

    def csv_header(self) -> list[str]:
        return [
            "n",
            "trials",
            "seed",
            "mean_distortion",
            "stderr",
            "out_of_region_fraction",
            "codebook_rate",
        ] + [f"type_{i}" for i in range(self.empirical_type.size)]

    def csv_row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else f"{x:.12g}"

        return [str(self.n), str(self.trials), str(self.seed)] + [
            fmt(self.mean_distortion),
            fmt(self.stderr),
            fmt(self.out_of_region_fraction),
            fmt(self.codebook_rate),
        ] + [f"{x:.12g}" for x in self.empirical_type.probs]


def _sample(sources: SourceList, n: int, gen: np.random.Generator) -> np.ndarray:
    k = sources.alphabet_size
    if sources.is_joint:
        m = sources.num_sources
        flat = gen.choice(k**m, size=n, p=sources.joint_array())
        rows = [(flat // k ** (m - 1 - l)) % k for l in range(m)]
        return np.stack(rows)
    rows = [gen.choice(k, size=n, p=row) for row in sources.as_array()]
    return np.stack(rows)


def sample_sources(sources: SourceList, n: int, seed: int) -> np.ndarray:
    """One block of source output: one row per source, one column per time."""
    if n < 1:
        raise ValidationError("blocklength must be at least 1")
    return _sample(sources, n, np.random.default_rng(seed))


def distortion_to_codebook(
    x: np.ndarray, codebook: Codebook, d: DistortionMatrix
) -> float:
    """Average per-letter distortion to the closest codeword."""
    if codebook.size == 0:
        raise ValidationError("cannot measure distortion to an empty codebook")
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 1 or x.size != codebook.n:
        raise ValidationError("string length and codebook blocklength disagree")
    return float(d.values[x[None, :], codebook.words].mean(axis=1).min())


def _enumerate_strings(k: int, n: int) -> np.ndarray:
    """All k^n strings as an (k^n, n) int8 digit matrix in lexicographic order."""
    total = k**n
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out = np.empty((total, n), dtype=np.int8)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        out[start : start + idx.size] = ((idx[:, None] // powers[None, :]) % k).astype(
            np.int8
        )
    return out


def _type_counts(strings: np.ndarray, k: int) -> np.ndarray:
    counts = np.empty((strings.shape[0], k), dtype=np.int32)
    for s in range(k):
        counts[:, s] = (strings == s).sum(axis=1)
    return counts


def _admitted_strings(spec: RegionSpec, n: int) -> np.ndarray:
    """All source strings whose empirical type satisfies the relaxed region."""
    k = spec.sources.alphabet_size
    if k**n > ENUM_GUARD:
        raise GuardError(f"{k}^{n} source strings exceed the enumeration guard")
    strings = _enumerate_strings(k, n)
    counts = _type_counts(strings, k)
    unique, inverse = np.unique(counts, axis=0, return_inverse=True)
    admitted = np.array(
        [is_member(Distribution(row / n), spec).satisfied for row in unique]
    )
    return strings[admitted[inverse]]


def _candidate_words(
    spec: RegionSpec,
    d: DistortionMatrix,
    target_distortion: float,
    n: int,
    max_candidates: int,
    seed: int,
) -> np.ndarray:
    """Reproduction words the greedy cover may use: the whole space when it is
    small, otherwise randomly coded words drawn from each admitted type's
    rate-optimal output marginal."""
    ky = d.num_outputs
    if ky**n <= max_candidates:
        return _enumerate_strings(ky, n)
    k = spec.sources.alphabet_size
    strings = _admitted_strings(spec, n)
    unique = np.unique(_type_counts(strings, k), axis=0)
    per_type = max(1, max_candidates // max(1, len(unique)))
    pool = []
    for idx, row in enumerate(unique):
        point = rate_at_distortion(Distribution(row / n), d, target_distortion)
        marginal = (row / n) @ point.channel.rows
        marginal = np.clip(marginal, 0.0, None)
        marginal /= marginal.sum()
        gen = np.random.default_rng([seed, idx])
        pool.append(gen.choice(ky, size=(per_type, n), p=marginal))
    return np.unique(np.vstack(pool), axis=0).astype(np.int8)


def build_covering_codebook(
    spec: RegionSpec,
    d: DistortionMatrix,
    target_distortion: float,
    n: int,
    *,
    max_candidates: int = ENUM_GUARD,
    seed: int = 0,
) -> Codebook:
    """Greedy set cover of every admitted source string within the target
    distortion. Candidate order is lexicographic and ties go to the earliest
    candidate, so the construction is fully deterministic."""
    if n < 1:
        raise ValidationError("blocklength must be at least 1")
    if target_distortion < 0:
        raise ValidationError("distortion target must be nonnegative")
    targets = _admitted_strings(spec, n)
    if targets.shape[0] == 0:
        return Codebook(np.empty((0, n), dtype=np.int64), n)
    cands = _candidate_words(spec, d, target_distortion, n, max_candidates, seed)
    num_c, num_t = cands.shape[0], targets.shape[0]
    if num_c * num_t > COVER_CELL_GUARD:
        raise GuardError(
            f"cover table would hold {num_c * num_t} cells, guard is {COVER_CELL_GUARD}"
        )
    cover = np.empty((num_c, num_t), dtype=bool)
    chunk = max(1, _CHUNK // max(1, num_t))
    for start in range(0, num_c, chunk):
        block = cands[start : start + chunk]
        dist = d.values[targets[None, :, :], block[:, None, :]].mean(axis=2)
        cover[start : start + block.shape[0]] = dist <= target_distortion + 1e-12
    chosen = []
    uncovered = np.ones(num_t, dtype=bool)
    while uncovered.any():
        gains = cover[:, uncovered].sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise InfeasibleError(
                "some admitted string cannot be covered at this distortion "
                "(target below the distortion floor of an admitted type)"
            )
        chosen.append(best)
        uncovered &= ~cover[best]
    return Codebook(cands[chosen].astype(np.int64), n)


def _best_response_enumerate(options, add, n):
    sizes = np.array([len(o) for o in options], dtype=np.int64)
    total = int(sizes.prod())
    strides = np.ones(n, dtype=np.int64)
    for k in range(n - 2, -1, -1):
        strides[k] = strides[k + 1] * sizes[k + 1]
    best_val, best_vec = -1.0, None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        # column-wise mixed radix decode keeps enumeration lexicographic
        sums = np.zeros((idx.size, add[0].shape[1]))
        symbols = np.empty((idx.size, n), dtype=np.int64)
        for k in range(n):
            choice = (idx // strides[k]) % sizes[k]
            symbols[:, k] = options[k][choice]
            sums += add[k][choice]
        vals = sums.min(axis=1)
        pos = int(np.argmax(vals))
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_vec = symbols[pos].copy()
    return best_val, best_vec


def best_response_distortion(
    realizations: np.ndarray, codebook: Codebook, d: DistortionMatrix
) -> tuple[float, np.ndarray]:
    """The largest distortion the switch can force against a fixed codebook,
    searching every per-time selection from the offered sets exhaustively.
    Returns (mean distortion, the lexicographically smallest maximizer)."""
    if codebook.size == 0:
        raise ValidationError("cannot best-respond to an empty codebook")
    realizations = np.asarray(realizations, dtype=np.int64)
    if realizations.ndim != 2 or realizations.shape[1] != codebook.n:
        raise ValidationError("realizations and codebook blocklength disagree")
    n = codebook.n
    options = [np.unique(realizations[:, k]) for k in range(n)]
    total = 1
    for o in options:
        total *= len(o)
    if total > BEST_RESPONSE_GUARD:
        raise GuardError(
            f"best response would search {total} selections, guard is "
            f"{BEST_RESPONSE_GUARD}"
        )
    # add[k][pos] = distortion added at time k to each codeword by symbol pos
    add = [d.values[options[k]][:, codebook.words[:, k]] for k in range(n)]
    best_sum, vec = _best_response_enumerate(options, add, n)
    return best_sum / n, vec


def simulate_game(
    sources: SourceList,
    rule: SwitchRule,
    codebook: Codebook | None,
    d: DistortionMatrix,
    n: int,
    trials: int,
    seed: int,
    region: RegionSpec | None = None,
) -> SimReport:
    """Average the per-block distortion and the output type over independent
    blocks. Trial t draws from the stream derived from (seed, t). When
    ``region`` is given, also reports the fraction of blocks whose type left
    the (relaxed) region."""
    if n < 1 or trials < 1:
        raise ValidationError("need at least one trial and one symbol")
    k = sources.alphabet_size
    counts = np.zeros(k, dtype=np.int64)
    dists = np.empty(trials) if codebook is not None else None
    outside = 0
    for t in range(trials):
        gen = np.random.default_rng([seed, t])
        block = _sample(sources, n, gen)
        out = _apply_rule(rule, block, gen)
        block_counts = np.bincount(out, minlength=k)
        counts += block_counts
        if dists is not None:
            dists[t] = distortion_to_codebook(out, codebook, d)
        if region is not None:
            if not is_member(Distribution(block_counts / n), region).satisfied:
                outside += 1
    mean = float(dists.mean()) if dists is not None else None
    if dists is not None and trials > 1:
        stderr = float(dists.std(ddof=1) / math.sqrt(trials))
    elif dists is not None:
        stderr = 0.0
    else:
        stderr = None
    return SimReport(
        empirical_type=Distribution(counts / (n * trials)),
        mean_distortion=mean,
        stderr=stderr,
        trials=trials,
        n=n,
        seed=seed,
        out_of_region_fraction=(outside / trials) if region is not None else None,
        codebook_rate=codebook.rate if codebook is not None and codebook.size else None,
    )


def converse_bound(n: int, delta: float, alphabet_size: int) -> float:
    """Upper bound ``(2^k - 2) exp(-2 n delta^2)`` on the probability that the
    output type of a block escapes the region relaxed by ``delta``, for any
    switch. May exceed 1, in which case it is vacuous.

    Whatever the switch does, its output lies in V whenever every source does,
    so the output count in V is at least a Binomial(n, Q(V)) count of those
    trap events. By Hoeffding's inequality that count falls below
    n (Q(V) - delta) with probability at most exp(-2 n delta^2); the union
    runs over the 2^k - 2 proper nonempty subsets, as the full alphabet always
    holds."""
    if n < 1:
        raise ValidationError("blocklength must be at least 1")
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if alphabet_size < 2:
        raise ValidationError("alphabet must have at least two symbols")
    try:
        return (2**alphabet_size - 2) * math.exp(-2 * n * delta**2)
    except OverflowError:
        return math.inf
