"""Monte Carlo simulation of the source coding game at desk scale.

Includes exhaustive small-blocklength machinery: greedy covering codebooks
over all strings whose empirical type lies in the (relaxed) attainable region,
an exact best-response search for the switch against a fixed codebook, and a
Hoeffding bound on the probability of the output type escaping the relaxed
region. Both exhaustive walks, over strings and over the switch's per-time
selections, read one decoder, ``_lexicographic``, which lists digit vectors
in lexicographic order ``_CHUNK`` at a time, so the first of tied candidates
is the lexicographically smallest in both. When every reproduction word is
a candidate, the cover table is never summed word by word: each word splits
into a prefix over the first n // 2 positions and a suffix over the rest, two
small products give every target's distortion sums over all prefixes and all
suffixes, and one broadcast comparison of the two fills the table, exact on
integer-valued distortion. A ``Codebook`` is valid when built: at least one
word, all of the stated length, integer symbols and no repeats; nothing
downstream handles an empty or malformed one.

A simulation reads one stream, ``np.random.default_rng(seed)``. Each trial
takes the next ``(rows + 1) * n`` doubles of it, where ``rows`` is the number
of sources (1 in joint mode, which draws source tuples): n per source row, in
source order, then one per time step for the switch. The sampler and the rule
map them exactly as one ``Generator.choice(k, size=n, p=row)`` call per row
followed by one ``Generator.choice(k, p=f(.|V_t))`` call per step would, so
trial t reads doubles ``[t (rows + 1) n, (t + 1) (rows + 1) n)`` however the
trials are chunked, and ``PCG64.advance`` reaches it without drawing the
trials before it. Trials are simulated in chunks, with sampling, rule draws,
type counts, codebook distortion and region membership vectorized over each
chunk.

None of the following changes a draw. Each chunk's doubles are drawn into one
buffer allocated per simulation, in the order ``Generator.random`` gives
them. Source and output symbols are uint8, as ``ALPHABET_GUARD`` keeps every
symbol a rule can draw below 256; offered masks are OR-ed in the narrowest
unsigned dtype that holds them and widened to ``intp`` once, and each of the
k - 1 columns of the rule's CDFs is read through a table of 2^k entries
indexed by mask. ``sample_sources`` and ``apply_rule`` return int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InfeasibleError, ValidationError
from .probcore import (
    Distribution,
    DistortionMatrix,
    SourceList,
    _check_symbols,
    choice_cdf,
    compositions,
)
from .rate_distortion import rate_at_distortion
# is_member is not called here; bench/test_bench.py traces the game_sim.is_member binding
from .region import RegionSpec, in_region, is_member  # noqa: F401
from .strategy import SwitchRule, _apply_rule, _check_rule_covers

#: Largest string-space enumerated exhaustively (source and reproduction).
ENUM_GUARD = 2**20
#: Largest candidate-times-target table the greedy cover will materialize.
COVER_CELL_GUARD = 2**26
#: Largest selection space searched by the exact best response.
BEST_RESPONSE_GUARD = 2**22

#: Strings decoded per step when enumerating strings or selections.
_CHUNK = 1 << 16
#: Cells of a sampled cover table computed per matrix product.
_COVER_CELLS = 1 << 19
#: Cells per chunk of trials: each trial holds n uniforms per source row and
#: for the switch, n symbols per source, and n distortion terms per codeword.
_SIM_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class Codebook:
    """A nonempty set of distinct reproduction words of one common
    blocklength n >= 1, refused otherwise when built. Their symbols must be
    integers; their range is checked against a distortion matrix's outputs
    where the codebook meets one."""

    words: np.ndarray
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("blocklength must be at least 1")
        try:
            words = np.array(self.words)
        except ValueError as exc:  # ragged rows
            raise ValidationError("codebook words must all have the stated length") from exc
        if words.size == 0:
            raise ValidationError("a codebook needs at least one word")
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValidationError("codebook words must all have the stated length")
        if not np.issubdtype(words.dtype, np.integer):
            raise ValidationError("codeword symbols must be integers")
        if len(np.unique(words, axis=0)) != words.shape[0]:
            raise ValidationError("codebook words must be distinct")
        words = words.astype(np.int64)
        words.setflags(write=False)
        object.__setattr__(self, "words", words)

    @property
    def size(self) -> int:
        return int(self.words.shape[0])

    @property
    def rate(self) -> float:
        """log2(size) / n in bits per symbol."""
        return math.log2(self.size) / self.n


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

    #: Scalar fields in report order, counts then figures; the empirical
    #: type follows them.
    _COUNTS = ("n", "trials", "seed")
    _FIELDS = _COUNTS + ("mean_distortion", "stderr", "out_of_region_fraction", "codebook_rate")

    def __post_init__(self):
        if self.mean_distortion is not None and self.mean_distortion < 0:
            raise ValidationError("mean distortion cannot be negative")
        if self.trials < 1 or self.n < 1:
            raise ValidationError("need at least one trial and one symbol")

    def _texts(self) -> list[str | None]:
        """Each scalar field as printed, None where unset: counts by ``str``
        (numpy integers too), figures to 12 significant digits."""
        values = [getattr(self, name) for name in self._FIELDS]
        return [str(v) for v in values[: len(self._COUNTS)]] + [
            None if v is None else f"{v:.12g}" for v in values[len(self._COUNTS) :]
        ]

    def _type_texts(self) -> list[str]:
        return [f"{x:.12g}" for x in self.empirical_type.probs]

    def to_kv(self) -> str:
        lines = [f"{name}={text}" for name, text in zip(self._FIELDS, self._texts())
                 if text is not None]
        lines.append("empirical_type=" + " ".join(self._type_texts()))
        return "\n".join(lines) + "\n"

    def csv_header(self) -> list[str]:
        return list(self._FIELDS) + [f"type_{i}" for i in range(self.empirical_type.size)]

    def csv_row(self) -> list[str]:
        return ["" if text is None else text for text in self._texts()] + self._type_texts()


def _source_cdfs(sources: SourceList) -> np.ndarray:
    """The CDF each row of source uniforms maps through: one per source, or
    a single one over source tuples in joint mode."""
    return choice_cdf(sources.joint_array()[None] if sources.is_joint else sources.as_array())


def _sample(sources: SourceList, cdfs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Blocks x sources x time symbols from blocks x rows x time uniforms,
    each the count of entries of its row's CDF that are <= it. The symbols
    are in the narrowest unsigned dtype that holds k - 1: uint8 for every
    alphabet ``ALPHABET_GUARD`` admits."""
    k, m = sources.alphabet_size, sources.num_sources
    drawn = np.zeros((uniforms.shape[0], m, uniforms.shape[2]), np.min_scalar_type(k - 1))
    if sources.is_joint:
        # a joint CDF has k^m entries, so it is searched rather than scanned
        flat = cdfs[0].searchsorted(uniforms[:, 0], side="right")
        for l in range(m):
            drawn[:, l] = (flat // k ** (m - 1 - l)) % k
        return drawn
    for cdf, u, out in zip(cdfs, uniforms.swapaxes(0, 1), drawn.swapaxes(0, 1)):
        # every CDF ends at exactly 1, above every uniform
        for edge in cdf[:-1]:
            out += u >= edge
    return drawn


def sample_sources(sources: SourceList, n: int, seed: int) -> np.ndarray:
    """One block of source output: one row per source, one column per time."""
    if n < 1:
        raise ValidationError("blocklength must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    cdfs = _source_cdfs(sources)
    uniforms = np.random.default_rng(seed).random((1, len(cdfs), n))
    return _sample(sources, cdfs, uniforms)[0].astype(np.int64)


def _distortions(strings: np.ndarray, codebook: Codebook, d: DistortionMatrix) -> np.ndarray:
    """Average per-letter distortion of each string (rows) to its closest
    codeword."""
    if strings.ndim != 2 or strings.shape[1] != codebook.n:
        raise ValidationError("string length and codebook blocklength disagree")
    return d.values[strings[:, None, :], codebook.words[None]].mean(axis=2).min(axis=1)


def distortion_to_codebook(
    x: np.ndarray, codebook: Codebook, d: DistortionMatrix
) -> float:
    """Average per-letter distortion of the string ``x`` to the closest
    codeword; ``x`` ranges over the inputs of ``d``, the codewords over its
    outputs."""
    x = np.asarray(x)
    _check_symbols(x, d.num_inputs, "string")
    _check_symbols(codebook.words, d.num_outputs, "codeword")
    return float(_distortions(x[None], codebook, d)[0])


def _lexicographic(sizes: list[int]):
    """Every vector whose digit t lies in range(sizes[t]), in lexicographic
    order, as digit matrices of at most ``_CHUNK`` rows and ``len(sizes)``
    columns each."""
    total = math.prod(sizes)
    strides = np.array([math.prod(sizes[t + 1 :]) for t in range(len(sizes))], dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        yield idx[:, None] // strides % np.array(sizes, dtype=np.int64)


def _enumerate_strings(k: int, n: int) -> np.ndarray:
    """All k^n strings as a (k^n, n) digit matrix in lexicographic order, in
    the narrowest unsigned dtype that holds k - 1."""
    out = np.empty((k**n, n), dtype=np.min_scalar_type(k - 1))
    for i, digits in enumerate(_lexicographic([k] * n)):
        out[i * _CHUNK : (i + 1) * _CHUNK] = digits
    return out


def _type_counts(strings: np.ndarray, k: int) -> np.ndarray:
    counts = np.empty((strings.shape[0], k), dtype=np.int32)
    for s in range(k):
        # uint8 cells sum into int32 about twice as fast as bools into int64
        counts[:, s] = (strings == s).view(np.uint8).sum(axis=1, dtype=np.int32)
    return counts


def _admitted_types(spec: RegionSpec, n: int) -> np.ndarray:
    """Symbol counts, in lexicographic order, of every type of length-n source
    strings that satisfies the relaxed region; refused past ``ENUM_GUARD``
    strings."""
    k = spec.sources.alphabet_size
    if k**n > ENUM_GUARD:
        raise GuardError(f"{k}^{n} source strings exceed the enumeration guard")
    counts = compositions(n, k)
    return counts[in_region(counts / n, spec)]


def _admitted_strings(spec: RegionSpec, n: int, types: np.ndarray) -> np.ndarray:
    """All source strings whose symbol counts are a row of ``types``, in
    lexicographic order."""
    k = spec.sources.alphabet_size
    strings = _enumerate_strings(k, n)
    # each count row read as one base-(n + 1) number
    codes = (n + 1) ** np.arange(k, dtype=np.int64)
    return strings[np.isin(_type_counts(strings, k) @ codes, types @ codes)]


def _sampled_words(
    d: DistortionMatrix,
    target_distortion: float,
    n: int,
    max_candidates: int,
    seed: int,
    types: np.ndarray,
) -> np.ndarray:
    """Randomly coded reproduction words drawn from each admitted type's
    rate-optimal output marginal, in lexicographic order."""
    ky = d.num_outputs
    per_type = max(1, max_candidates // max(1, len(types)))
    pool = []
    for idx, row in enumerate(types):
        point = rate_at_distortion(Distribution(row / n), d, target_distortion)
        marginal = (row / n) @ point.channel.rows
        marginal = np.clip(marginal, 0.0, None)
        marginal /= marginal.sum()
        gen = np.random.default_rng([seed, idx])
        pool.append(gen.choice(ky, size=(per_type, n), p=marginal))
    return np.unique(np.vstack(pool), axis=0).astype(np.min_scalar_type(ky - 1))


def _onehot(strings: np.ndarray, k: int) -> np.ndarray:
    """Each string's symbols one-hot over ``k`` letters, flattened to one row
    of ``len * k`` entries: times ``_columns`` it sums per-letter distortions."""
    onehot = np.zeros(strings.shape + (k,))
    np.put_along_axis(onehot, strings[:, :, None].astype(np.int64), 1.0, axis=2)
    return onehot.reshape(strings.shape[0], -1)


def _columns(words: np.ndarray, d: DistortionMatrix) -> np.ndarray:
    """The distortion column of each word's symbol at each position, stacked
    to one column of ``len * num_inputs`` entries per word."""
    return d.values.T[words].reshape(words.shape[0], -1).T


def _largest_covered_sum(target_distortion: float, n: int) -> float:
    """The largest float s with ``s / n <= target_distortion + 1e-12`` in
    floating point. Division rounds monotonically, so a word whose per-letter
    distortions sum to s is within the target exactly when s is at most this."""
    bound = target_distortion + 1e-12
    s = bound * n
    while s / n > bound:
        s = math.nextafter(s, -math.inf)
    while s < math.inf and math.nextafter(s, math.inf) / n <= bound:
        s = math.nextafter(s, math.inf)
    return s


def _split_verdicts(prefix: np.ndarray, suffix: np.ndarray, bound: float) -> np.ndarray:
    """``verdict[t, a, b]``: prefix sum ``prefix[t, a]`` plus suffix sum
    ``suffix[t, b]`` is at most ``bound``, tested as ``prefix <= bound -
    suffix``. On integer-valued distortion the sums are integers and the
    difference is exact, so this is the verdict on the whole word's sum; on
    other distortion the two can differ by rounding at an exact tie, as the
    summation order of a product already could."""
    return prefix[:, :, None] <= (bound - suffix)[:, None, :]


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
    distortion. The candidates are every reproduction word when there are at
    most ``max_candidates``, otherwise words sampled per admitted type.
    Candidate order is lexicographic and ties go to the earliest candidate,
    so the construction is fully deterministic. A blocklength with no
    admitted type is InfeasibleError. A string no candidate covers is
    InfeasibleError when every word was a candidate, and GuardError (the
    sample was too small) when the candidates were sampled."""
    if n < 1:
        raise ValidationError("blocklength must be at least 1")
    if not target_distortion >= 0:  # NaN fails too
        raise ValidationError("distortion target must be nonnegative")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    types = _admitted_types(spec, n)
    if len(types) == 0:
        raise InfeasibleError(f"no source string of length n={n} has an admitted type")
    # strings of each admitted type, by the multinomial coefficient
    num_t = sum(
        math.factorial(n) // math.prod(map(math.factorial, row)) for row in types.tolist()
    )
    sampled = d.num_outputs**n > max_candidates
    if sampled:
        cands = _sampled_words(d, target_distortion, n, max_candidates, seed, types)
    num_c = cands.shape[0] if sampled else d.num_outputs**n
    # refused before either side's strings are enumerated
    if num_c * num_t > COVER_CELL_GUARD:
        raise GuardError(
            f"cover table would hold {num_c * num_t} cells, guard is {COVER_CELL_GUARD}"
        )
    targets = _admitted_strings(spec, n, types)
    # covered[t, c]: candidate c is within the target distortion of target t
    bound = _largest_covered_sum(target_distortion, n)
    if sampled:
        # each chunk of candidates is one product; a gather of the per-cell
        # distortions instead measured twice as slow
        onehot = _onehot(targets, d.num_inputs)
        covered = np.empty((num_t, num_c), dtype=bool)
        chunk = max(1, _COVER_CELLS // num_t)
        for start in range(0, num_c, chunk):
            block = cands[start : start + chunk]
            covered[:, start : start + block.shape[0]] = onehot @ _columns(block, d) <= bound
    else:
        # the full grid: word c = a * ky^(n - half) + b splits into a prefix
        # a over the first half positions and a suffix b over the rest, so
        # its sum is prefix[t, a] + suffix[t, b]
        half = n // 2
        prefix, suffix = (
            _onehot(targets[:, lo:hi], d.num_inputs)
            @ _columns(_enumerate_strings(d.num_outputs, hi - lo), d)
            for lo, hi in ((0, half), (half, n))
        )
        covered = _split_verdicts(prefix, suffix, bound).reshape(num_t, num_c)
    # each pick's gain is kept current by subtracting what the previous pick
    # newly covered; argmax ties go to the earliest candidate. The table is
    # summed as uint8 cells into int32, which numpy does faster than bools.
    cells = covered.view(np.uint8)
    chosen = []
    gains = cells.sum(axis=0, dtype=np.int32)
    uncovered = np.ones(num_t, dtype=bool)
    while uncovered.any():
        best = int(np.argmax(gains))
        if gains[best] == 0:
            if sampled:
                raise GuardError(
                    f"the {num_c} sampled candidate words leave an admitted string "
                    f"uncovered; the candidate budget is max_candidates={max_candidates}"
                )
            raise InfeasibleError(
                "some admitted string cannot be covered at this distortion "
                "(target below the distortion floor of an admitted type)"
            )
        chosen.append(best)
        newly = uncovered & covered[:, best]
        gains -= cells[newly].sum(axis=0, dtype=np.int32)
        uncovered &= ~newly
    if sampled:
        return Codebook(cands[chosen], n)
    return Codebook(np.stack(np.unravel_index(chosen, (d.num_outputs,) * n), axis=1), n)


def best_response_distortion(
    realizations: np.ndarray, codebook: Codebook, d: DistortionMatrix
) -> tuple[float, np.ndarray]:
    """The largest distortion the switch can force against a fixed codebook,
    searching every per-time selection from the offered sets exhaustively.
    Returns (mean distortion, the lexicographically smallest maximizer)."""
    realizations = np.asarray(realizations)
    if realizations.ndim != 2 or realizations.shape[1] != codebook.n:
        raise ValidationError("realizations and codebook blocklength disagree")
    if realizations.shape[0] == 0:
        raise ValidationError("a block needs at least one source")
    _check_symbols(realizations, d.num_inputs, "realization")
    _check_symbols(codebook.words, d.num_outputs, "codeword")
    options = [np.unique(column) for column in realizations.T]
    total = math.prod(len(o) for o in options)
    if total > BEST_RESPONSE_GUARD:
        raise GuardError(
            f"best response would search {total} selections, guard is "
            f"{BEST_RESPONSE_GUARD}"
        )
    # add[t][i] = distortion added at time t to each codeword by options[t][i]
    add = [d.values[o][:, column] for o, column in zip(options, codebook.words.T)]
    # only the times that offer a choice are decoded, at most 22 of them;
    # the sums still run in time order
    best_sum, best = -1.0, None
    for digits in _lexicographic([len(o) for o in options if len(o) > 1]):
        sums = np.zeros((digits.shape[0], codebook.size))
        columns = iter(digits.T)
        for a in add:
            sums += a[next(columns)] if len(a) > 1 else a[0]
        vals = sums.min(axis=1)
        pos = int(np.argmax(vals))
        # a later chunk wins only by a strictly larger value
        if vals[pos] > best_sum:
            best_sum, best = float(vals[pos]), iter(digits[pos].tolist())
    vec = np.array([o[next(best)] if len(o) > 1 else o[0] for o in options], dtype=np.int64)
    return best_sum / codebook.n, vec


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
    blocks, all drawn from the one stream ``np.random.default_rng(seed)``:
    trial t reads its ``(rows + 1) * n`` doubles after those of trials
    0..t-1 (see the module docstring). When ``region`` is given, also reports
    the fraction of blocks whose type left the (relaxed) region. The rule
    must have an entry for every subset the sources can offer, and the
    codewords must be outputs of ``d``; both are checked before any draw."""
    if n < 1 or trials < 1:
        raise ValidationError("need at least one trial and one symbol")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    _check_rule_covers(rule, sources)
    if codebook is not None:
        _check_symbols(codebook.words, d.num_outputs, "codeword")
    k = sources.alphabet_size
    cdfs = _source_cdfs(sources)
    rows = len(cdfs)
    words = codebook.size if codebook is not None else 0
    chunk = min(trials, max(1, _SIM_CELLS // (n * (rows + 1 + sources.num_sources + words))))
    counts = np.zeros(k, dtype=np.int64)
    dists = np.empty(trials) if codebook is not None else None
    outside = 0
    gen = np.random.default_rng(seed)
    buf = np.empty((chunk, rows + 1, n))
    for start in range(0, trials, chunk):
        uniforms = gen.random(out=buf[: min(chunk, trials - start)])
        out = _apply_rule(rule, _sample(sources, cdfs, uniforms[:, :rows]), uniforms[:, rows])
        block_counts = _type_counts(out, k)
        counts += block_counts.sum(axis=0)
        if dists is not None:
            dists[start : start + out.shape[0]] = _distortions(out, codebook, d)
        if region is not None:
            outside += int(np.count_nonzero(~in_region(block_counts / n, region)))
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
        codebook_rate=codebook.rate if codebook is not None else None,
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
    if not delta > 0:  # NaN fails too
        raise ValidationError("delta must be positive")
    if alphabet_size < 2:
        raise ValidationError("alphabet must have at least two symbols")
    try:
        return (2**alphabet_size - 2) * math.exp(-2 * n * delta**2)
    except OverflowError:
        return math.inf
