import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchrd import (
    ConvergenceError,
    Distribution,
    DistortionMatrix,
    GuardError,
    InfeasibleError,
    RegionSpec,
    SourceList,
    SwitchRule,
    ValidationError,
    apply_rule,
    build_covering_codebook,
    converse_bound,
    distortion_to_codebook,
    greedy_max_rule,
    is_member,
    load_problem,
    rate_at_distortion,
    sample_sources,
    simulate_game,
    synthesize_rule,
)
from switchrd import game_sim
from switchrd.game_sim import Codebook, best_response_distortion
from switchrd.region import realizable_subsets

HAMMING = DistortionMatrix([[0, 1], [1, 0]])
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


class TestConverseBound:
    def test_union_of_hoeffding_tails(self):
        assert converse_bound(1000, 0.05, 2) == pytest.approx(2 * math.exp(-5))
        assert converse_bound(10, 0.1, 3) == pytest.approx(6 * math.exp(-0.2))

    @pytest.mark.parametrize(
        "rows",
        [
            [[Fraction(1, 2), Fraction(1, 2)]],
            [[Fraction(2, 3), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 4)]],
        ],
    )
    def test_covers_the_simulated_escape_frequency(self, rows):
        # the greedy rule keeps the output mass on {0} at Q({0}), so the {0}
        # constraint is tight and blocks escape often enough to be counted
        sources = SourceList.independent(rows)
        n, delta = 500, 0.05
        report = simulate_game(
            sources, greedy_max_rule(sources), None, HAMMING, n, trials=1000,
            seed=0, region=RegionSpec(sources, delta),
        )
        assert report.out_of_region_fraction > 0
        assert converse_bound(n, delta, 2) >= report.out_of_region_fraction

    def test_rejects_bad_arguments(self):
        # NaN fails every comparison, so `delta <= 0` alone lets it through
        for args in ((0, 0.1, 2), (10, 0, 2), (10, math.nan, 3), (10, 0.1, 1)):
            with pytest.raises(ValidationError):
                converse_bound(*args)


def brute_force_best_response(realizations, words, d):
    """Every selection in lexicographic order; the first maximizer wins."""
    options = [sorted(set(col)) for col in realizations.T]
    best = None
    for selection in itertools.product(*options):
        value = min(sum(d[x, y] for x, y in zip(selection, w)) for w in words)
        if best is None or value > best[0]:
            best = (value, selection)
    return best[0] / len(options), list(best[1])


class TestBestResponse:
    @pytest.mark.parametrize("chunk", [game_sim._CHUNK, 7])
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force(self, monkeypatch, trial, chunk):
        # integer distortions keep every sum exact, so ties are real ties and
        # the lexicographically smallest maximizer is well defined; a chunk of
        # 7 selections puts ties on both sides of chunk boundaries
        monkeypatch.setattr(game_sim, "_CHUNK", chunk)
        rng = np.random.default_rng(trial)
        k, n = int(rng.integers(2, 4)), int(rng.integers(1, 7))
        hamming = trial % 2 == 0
        d = 1 - np.eye(k, dtype=int) if hamming else rng.integers(0, 4, size=(k, k))
        realizations = rng.integers(0, k, size=(int(rng.integers(1, 4)), n))
        size = int(rng.integers(1, min(k**n, 12) + 1))
        words = rng.permutation(k**n)[:size]
        words = np.array([[w // k ** (n - 1 - t) % k for t in range(n)] for w in words])
        value, vec = best_response_distortion(
            realizations, Codebook(words, n), DistortionMatrix(d.tolist())
        )
        expected_value, expected_vec = brute_force_best_response(realizations, words, d)
        assert value == expected_value
        assert vec.tolist() == expected_vec

    @pytest.mark.parametrize("rows, n, differ", [(1, 70, 0), (2, 100, 10)])
    def test_long_block_with_few_choices(self, rows, n, differ):
        # more time steps than numpy has array dimensions; only the steps
        # where the rows disagree offer the switch a choice
        rng = np.random.default_rng(n)
        realizations = np.repeat(rng.integers(0, 3, size=(1, n)), rows, axis=0)
        times = rng.permutation(n)[:differ]
        realizations[-1, times] = (realizations[0, times] + 1) % 3
        words = rng.integers(0, 3, size=(5, n))
        d = rng.integers(0, 4, size=(3, 3))
        value, vec = best_response_distortion(
            realizations, Codebook(words, n), DistortionMatrix(d.tolist())
        )
        expected_value, expected_vec = brute_force_best_response(realizations, words, d)
        assert value == expected_value
        assert vec.tolist() == expected_vec

    def test_a_block_without_sources_is_refused(self):
        with pytest.raises(ValidationError, match="at least one source"):
            best_response_distortion(
                np.zeros((0, 2), dtype=int), Codebook([[0, 1]], 2),
                DistortionMatrix([[0, 1], [1, 0]]),
            )


def reference_sample(sources, n, gen):
    """One block drawn the way the simulator's stream contract is defined:
    one ``gen.choice`` per source row in source order (one over source
    tuples in joint mode)."""
    k = sources.alphabet_size
    if sources.is_joint:
        m = sources.num_sources
        flat = gen.choice(k**m, size=n, p=sources.joint_array())
        return np.stack([(flat // k ** (m - 1 - l)) % k for l in range(m)])
    return np.stack([gen.choice(k, size=n, p=row) for row in sources.as_array()])


def reference_apply(rule, block, gen):
    """One scalar ``gen.choice`` per time step, in time order, from the
    rule's conditional for that step's offered mask."""
    masks = np.bitwise_or.reduce(1 << block.astype(np.int64), axis=0)
    return np.array(
        [gen.choice(rule.alphabet_size, p=rule.rules[int(mask)].probs) for mask in masks],
        dtype=np.int64,
    )


def reference_simulate(sources, rule, codebook, d, n, trials, seed, region):
    """The per-trial loop over one generator, ``default_rng(seed)``: each
    trial draws its block and then its switch choices from it."""
    k = sources.alphabet_size
    counts = np.zeros(k, dtype=np.int64)
    dists, outside = [], 0
    gen = np.random.default_rng(seed)
    for t in range(trials):
        out = reference_apply(rule, reference_sample(sources, n, gen), gen)
        block_counts = np.bincount(out, minlength=k)
        counts += block_counts
        if codebook is not None:
            dists.append(float(d.values[out[None, :], codebook.words].mean(axis=1).min()))
        if region is not None:
            outside += not is_member(Distribution(block_counts / n), region).satisfied
    dists = np.array(dists)
    return {
        "empirical_type": (counts / (n * trials)).tolist(),
        "mean_distortion": float(dists.mean()) if codebook is not None else None,
        "stderr": (
            float(dists.std(ddof=1) / math.sqrt(trials)) if codebook is not None else None
        ),
        "out_of_region_fraction": outside / trials if region is not None else None,
    }


def shipped(name):
    problem = load_problem(str(PROBLEMS / name))
    return problem.sources, problem.distortion


JOINT = SourceList.joint(
    [Fraction(1, 4), Fraction(1, 8), 0, Fraction(1, 8), Fraction(1, 4), 0,
     Fraction(1, 16), Fraction(1, 16), Fraction(1, 8)],
    3, 2,
)
# integer distortions other than Hamming, entries 0 to 3
INT2 = DistortionMatrix([[0, 3], [1, 2]])
INT3 = DistortionMatrix([[0, 3, 1], [2, 0, 3], [1, 2, 0]])
# non-integer distortion, so that per-trial sums are not exact in any order
UNEVEN = DistortionMatrix([[0, 0.3, 1.7], [0.9, 0.1, 0.45], [1.3, 0.55, 0.05]])


def sim_cases():
    """(sources, rule, distortion, delta, codebook words or None), covering
    both shipped files, joint mode, a relaxed region, non-integer distortion,
    masks wider than one byte and a source symbol of probability 0."""
    binary, hamming2 = shipped("binary_pair.yaml")
    ternary, hamming3 = shipped("ternary_demo.yaml")
    rng = np.random.default_rng(5)
    yield binary, synthesize_rule(Distribution([0.7, 0.3]), binary), hamming2, 0, None
    yield binary, greedy_max_rule(binary), hamming2, 0.05, rng.integers(0, 2, (5, 9))
    yield ternary, synthesize_rule(Distribution([0.55, 0.25, 0.2]), ternary), hamming3, 0, None
    yield ternary, greedy_max_rule(ternary), UNEVEN, 0.02, rng.integers(0, 3, (7, 9))
    yield JOINT, greedy_max_rule(JOINT), UNEVEN, 0, rng.integers(0, 3, (4, 9))
    yield JOINT, greedy_max_rule(JOINT), hamming3, 0.1, None
    # ten symbols leaning toward 8 and 9, so most offered masks need two bytes
    wide = SourceList.independent(rng.dirichlet(np.arange(1, 11), size=2).tolist())
    words = rng.integers(0, 10, (6, 9))
    yield wide, greedy_max_rule(wide), DistortionMatrix.hamming(10), 0.05, words
    # the first source never emits 1, so {1} is never offered; the rule,
    # uniform on each offered set, has an entry for exactly the realizable
    # subsets, and a simulation that reached {1} would read a missing entry
    gap = SourceList.independent([[0.5, 0, 0.5], [0.2, 0.5, 0.3]])
    masks = realizable_subsets(gap)
    assert 2 not in masks
    rule = SwitchRule({
        mask: Distribution([((mask >> i) & 1) / mask.bit_count() for i in range(3)])
        for mask in masks
    })
    yield gap, rule, UNEVEN, 0.05, rng.integers(0, 3, (5, 9))


class TestStreamContract:
    @pytest.mark.parametrize("case", range(8))
    @pytest.mark.parametrize("cells", [1, 500, game_sim._SIM_CELLS])
    def test_every_field_equals_the_per_trial_loop(self, monkeypatch, case, cells):
        # cells=1 puts every trial in a chunk of its own, 500 packs a few
        # trials per chunk and leaves a partial last one, and the default
        # runs all 301 trials as one chunk
        monkeypatch.setattr(game_sim, "_SIM_CELLS", cells)
        sources, rule, d, delta, words = list(sim_cases())[case]
        n, trials, seed = 9, 301, 17 + case
        codebook = None if words is None else Codebook(np.unique(words, axis=0), n)
        region = RegionSpec(sources, delta)
        report = simulate_game(sources, rule, codebook, d, n, trials, seed, region=region)
        expected = reference_simulate(sources, rule, codebook, d, n, trials, seed, region)
        assert report.empirical_type.probs.tolist() == expected["empirical_type"]
        assert report.mean_distortion == expected["mean_distortion"]
        assert report.stderr == expected["stderr"]
        assert report.out_of_region_fraction == expected["out_of_region_fraction"]
        assert (report.trials, report.n, report.seed) == (trials, n, seed)
        assert report.codebook_rate == (codebook.rate if codebook is not None else None)

    def test_long_blocks_span_several_chunks(self):
        sources, _ = shipped("binary_pair.yaml")
        rule = synthesize_rule(Distribution([0.7, 0.3]), sources)
        region = RegionSpec(sources, 0)
        report = simulate_game(sources, rule, None, HAMMING, 1000, 60, 4, region=region)
        expected = reference_simulate(sources, rule, None, HAMMING, 1000, 60, 4, region)
        assert report.empirical_type.probs.tolist() == expected["empirical_type"]
        assert report.out_of_region_fraction == expected["out_of_region_fraction"]

    def test_pcg64_advance_reaches_a_trial_directly(self, monkeypatch):
        sources, rule, d, *_ = list(sim_cases())[2]
        n, t, seed = 9, 37, 5
        bits = np.random.PCG64(seed)
        bits.advance(t * (sources.num_sources + 1) * n)
        gen = np.random.Generator(bits)
        expected = reference_apply(rule, reference_sample(sources, n, gen), gen)
        # every output block the simulator produces, in trial order
        blocks, apply = [], game_sim._apply_rule

        def recording(*args):
            out = apply(*args)
            blocks.extend(out)
            return out

        monkeypatch.setattr(game_sim, "_apply_rule", recording)
        simulate_game(sources, rule, None, d, n, t + 1, seed)
        np.testing.assert_array_equal(blocks[t], expected)

    @pytest.mark.parametrize("case", range(8))
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_thread_count_does_not_change_the_output(self, monkeypatch, case, threads):
        # as many threads as the constant allows, whatever CPUs this machine
        # has; 2,200 cells give every case chunks of 5 to 40 trials, none of
        # which divides 301 = 7 x 43, and test the ten-symbol case's region
        # two trials at a time
        monkeypatch.setattr(game_sim, "_cpus", lambda: 8)
        monkeypatch.setattr(game_sim, "_SIM_THREADS", threads)
        monkeypatch.setattr(game_sim, "_SIM_CELLS", 2200)
        calls, apply = [], game_sim._apply_rule

        def recording(rule, realizations, uniforms):
            calls.append((threading.current_thread(), len(uniforms)))
            return apply(rule, realizations, uniforms)

        monkeypatch.setattr(game_sim, "_apply_rule", recording)
        sources, rule, d, delta, words = list(sim_cases())[case]
        n, trials, seed = 9, 301, 17 + case
        codebook = None if words is None else Codebook(np.unique(words, axis=0), n)
        region = RegionSpec(sources, delta)
        # the threads switch as often as the interpreter lets them, so a
        # write lost between ranges would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = simulate_game(sources, rule, codebook, d, n, trials, seed, region=region)
        finally:
            sys.setswitchinterval(interval)
        expected = reference_simulate(sources, rule, codebook, d, n, trials, seed, region)
        assert report.empirical_type.probs.tolist() == expected["empirical_type"]
        assert report.mean_distortion == expected["mean_distortion"]
        assert report.stderr == expected["stderr"]
        assert report.out_of_region_fraction == expected["out_of_region_fraction"]
        assert (report.trials, report.n, report.seed) == (trials, n, seed)
        assert report.codebook_rate == (codebook.rate if codebook is not None else None)
        # one range per thread, and some range ends on a partial chunk
        sizes = [size for _, size in calls]
        assert len({thread for thread, _ in calls}) == threads
        assert sum(sizes) == trials and min(sizes) < max(sizes)

    def test_a_failing_helper_thread_fails_the_simulation(self, monkeypatch):
        class HelperFailed(Exception):
            pass

        monkeypatch.setattr(game_sim, "_cpus", lambda: 8)
        monkeypatch.setattr(game_sim, "_SIM_THREADS", 3)
        monkeypatch.setattr(game_sim, "_SIM_CELLS", 2200)
        apply = game_sim._apply_rule

        def off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise HelperFailed
            return apply(*args)

        monkeypatch.setattr(game_sim, "_apply_rule", off_main)
        sources, rule, d, *_ = list(sim_cases())[0]
        before = threading.active_count()
        with pytest.raises(HelperFailed):
            simulate_game(sources, rule, None, d, 9, 301, 3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_sample_sources_and_apply_rule_equal_choice(self, seed):
        for sources, rule, *_ in sim_cases():
            block = sample_sources(sources, 40, seed)
            expected = reference_sample(sources, 40, np.random.default_rng(seed))
            np.testing.assert_array_equal(block, expected)
            np.testing.assert_array_equal(
                apply_rule(rule, block, seed + 1),
                reference_apply(rule, block, np.random.default_rng(seed + 1)),
            )

    def test_sample_sources_and_apply_rule_return_int64(self):
        for sources, rule, *_ in sim_cases():
            block = sample_sources(sources, 40, 0)
            assert block.dtype == np.int64
            assert apply_rule(rule, block, 1).dtype == np.int64

    def test_sample_sources_past_one_byte_equals_choice(self):
        # 300 symbols, so the sampler's symbols take two bytes
        sources = SourceList.independent([np.full(300, 1 / 300).tolist()])
        block = sample_sources(sources, 200, 3)
        assert block.max() > 255
        np.testing.assert_array_equal(
            block, reference_sample(sources, 200, np.random.default_rng(3))
        )

    def test_rule_past_the_alphabet_guard_is_refused(self):
        # its mask table would hold 2^20 positions
        rule = SwitchRule({1: Distribution.point_mass(0, 20)})
        with pytest.raises(GuardError, match="alphabet size 20"):
            apply_rule(rule, np.array([[0]]), 0)

    def test_negative_seed_is_rejected(self):
        sources, _ = shipped("binary_pair.yaml")
        rule = greedy_max_rule(sources)
        block = sample_sources(sources, 5, 0)
        for call in (
            lambda: simulate_game(sources, rule, None, HAMMING, 5, 3, -1),
            lambda: sample_sources(sources, 5, -1),
            lambda: apply_rule(rule, block, -1),
            lambda: build_covering_codebook(RegionSpec(sources, 0), HAMMING, 0.25, 4, seed=-1),
        ):
            with pytest.raises(ValidationError, match="seed must be nonnegative"):
                call()

    def test_rule_over_another_alphabet_is_rejected(self):
        sources, _ = shipped("binary_pair.yaml")
        rule = SwitchRule({1: Distribution([1, 0, 0, 0]), 2: Distribution([0, 1, 0, 0]),
                           3: Distribution([0.5, 0.5, 0, 0])})
        with pytest.raises(ValidationError, match="different alphabets"):
            simulate_game(sources, rule, None, HAMMING, 10, 5, 0)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        sources, _ = shipped("binary_pair.yaml")
        rule = greedy_max_rule(sources)
        block = sample_sources(sources, 5, 0)
        for call in (
            lambda: simulate_game(sources, rule, None, HAMMING, 5, 3, seed),
            lambda: sample_sources(sources, 5, seed),
            lambda: apply_rule(rule, block, seed),
            # 2^4 words fit the default budget, so this is the full grid
            lambda: build_covering_codebook(RegionSpec(sources, 0), HAMMING, 0.25, 4, seed=seed),
        ):
            with pytest.raises(ValidationError, match="seed must be nonnegative and an integer"):
                call()

    def test_a_numpy_integer_seed_is_the_python_one(self):
        sources, _ = shipped("binary_pair.yaml")
        rule = greedy_max_rule(sources)
        block = sample_sources(sources, 5, np.int64(3))
        np.testing.assert_array_equal(block, sample_sources(sources, 5, 3))
        np.testing.assert_array_equal(apply_rule(rule, block, np.uint8(4)), apply_rule(rule, block, 4))
        got = simulate_game(sources, rule, None, HAMMING, 5, 3, np.int32(2))
        want = simulate_game(sources, rule, None, HAMMING, 5, 3, 2)
        np.testing.assert_array_equal(got.empirical_type.probs, want.empirical_type.probs)
        assert [getattr(got, f) for f in want._FIELDS] == [getattr(want, f) for f in want._FIELDS]

    @pytest.mark.parametrize("k, d", [(3, HAMMING), (2, DistortionMatrix.hamming(3))])
    def test_a_distortion_over_another_alphabet_is_rejected_before_any_draw(
        self, monkeypatch, k, d
    ):
        # 3-symbol sources against 2 inputs once raised a bare IndexError, and
        # 2-symbol sources against 3 inputs were scored on the wrong matrix
        def refuse(*args, **kwargs):
            raise AssertionError("a block was drawn or a string enumerated")

        monkeypatch.setattr(game_sim, "_sample", refuse)
        monkeypatch.setattr(game_sim, "_admitted_types", refuse)
        sources = SourceList.independent([np.full(k, 1 / k)])
        rule = greedy_max_rule(sources)
        book = Codebook([[0] * 4], 4)
        for call in (
            lambda: simulate_game(sources, rule, book, d, 4, 3, 0),
            lambda: simulate_game(sources, rule, None, d, 4, 3, 0),
            lambda: build_covering_codebook(RegionSpec(sources, 0), d, 0.3, 3),
        ):
            with pytest.raises(ValidationError, match="distortion and sources use different alphabets"):
                call()

    def test_missing_rule_entry_is_refused_before_any_draw(self, monkeypatch):
        # the rule lacks {0,1} and {0,2}, both of which ternary_demo can
        # offer; at every seed the smallest is named and no block is drawn
        def no_draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(game_sim, "_sample", no_draw)
        sources, d = shipped("ternary_demo.yaml")
        rule = SwitchRule({
            mask: Distribution.point_mass(mask.bit_length() - 1, 3)
            for mask in range(1, 8) if mask not in (3, 5)
        })
        for seed in range(8):
            with pytest.raises(ValidationError) as err:
                simulate_game(sources, rule, None, d, 2, 40, seed)
            assert str(err.value) == "rule has no entry for offered subset {0,1}"

    def test_missing_rule_entry_is_the_smallest_the_block_offers(self):
        # time 0 offers {0,2} and time 1 offers {0,1}; neither has an entry
        rule = SwitchRule({
            mask: Distribution.point_mass(mask.bit_length() - 1, 3)
            for mask in range(1, 8) if mask not in (3, 5)
        })
        with pytest.raises(ValidationError, match=r"subset \{0,1\}$"):
            apply_rule(rule, np.array([[0, 0], [2, 1]]), 0)


def admitted_strings(spec, k, n):
    return [
        s for s in itertools.product(range(k), repeat=n)
        if is_member(Distribution(np.bincount(s, minlength=k) / n), spec).satisfied
    ]


def reference_sampled_words(d, target, n, budget, seed, types):
    """Randomly coded words as one ``rate_at_distortion`` per admitted type
    gives them: each type's output marginal, sampled from its own stream."""
    per_type = max(1, budget // len(types))
    pool = []
    for idx, row in enumerate(types):
        point = rate_at_distortion(Distribution(row / n), d, target)
        marginal = np.clip((row / n) @ point.channel.rows, 0.0, None)
        marginal /= marginal.sum()
        gen = np.random.default_rng([seed, idx])
        pool.append(gen.choice(d.num_outputs, size=(per_type, n), p=marginal))
    return np.unique(np.vstack(pool), axis=0).astype(np.uint8)


def outcome(call):
    """What ``call`` returns, or the error it raises."""
    try:
        return call()
    except (InfeasibleError, ConvergenceError) as err:
        return err


def brute_force_cover(spec, d, target, n, cands=None):
    """Greedy cover over ``cands`` (every reproduction word by default) in
    lexicographic order, recomputing each candidate's gain at every pick from
    per-cell means."""
    targets = np.array(admitted_strings(spec, spec.sources.alphabet_size, n))
    if cands is None:
        cands = np.array(list(itertools.product(range(d.num_outputs), repeat=n)))
    means = d.values[targets[None, :, :], cands[:, None, :]].mean(axis=2)
    if not np.array_equal(d.values, np.round(d.values)):
        # off integer distortion the cover's half sums may round an exact
        # tie the other way, so the cases keep clear of one
        assert np.abs(means - target).min() > 1e-9
    cover = means <= target + 1e-12
    chosen, uncovered = [], np.ones(len(targets), dtype=bool)
    while uncovered.any():
        gains = cover[:, uncovered].sum(axis=1)
        chosen.append(int(np.argmax(gains)))
        uncovered &= ~cover[chosen[-1]]
    return cands[chosen]


class TestCoveringCodebook:
    @pytest.mark.parametrize("chunk", [game_sim._CHUNK, 7])
    @pytest.mark.parametrize(
        "name, d, n, target",
        [("binary_pair.yaml", None, 7, 0.25), ("binary_pair.yaml", None, 8, 0.1),
         ("ternary_demo.yaml", None, 5, 0.25), ("ternary_demo.yaml", None, 4, 0.5),
         # targets a word's sum can equal exactly, at odd n, where the
         # prefix and suffix halves differ in length
         ("binary_pair.yaml", None, 7, 2 / 7), ("binary_pair.yaml", INT2, 7, 5 / 7),
         ("ternary_demo.yaml", INT3, 5, 4 / 5), ("ternary_demo.yaml", INT3, 5, 0.25),
         # halves of one position each
         ("binary_pair.yaml", INT2, 2, 1.0),
         # non-integer distortion, every entry a multiple of 0.05, so no
         # word's sum comes near 5 * 0.213 = 1.065
         ("ternary_demo.yaml", UNEVEN, 5, 0.213)],
    )
    def test_equals_brute_force_greedy_and_covers(self, monkeypatch, name, d, n, target, chunk):
        # a chunk of 7 strings splits both enumerations across many chunks,
        # and 700 cells the greedy's reads of the cover table
        monkeypatch.setattr(game_sim, "_CHUNK", chunk)
        monkeypatch.setattr(game_sim, "_COVER_CELLS", min(game_sim._COVER_CELLS, 100 * chunk))
        sources, hamming = shipped(name)
        d = hamming if d is None else d
        spec = RegionSpec(sources, 0)
        book = build_covering_codebook(spec, d, target, n)
        np.testing.assert_array_equal(book.words, brute_force_cover(spec, d, target, n))
        for s in admitted_strings(spec, sources.alphabet_size, n):
            assert distortion_to_codebook(np.array(s), book, d) <= target + 1e-12

    @pytest.mark.parametrize("n", range(1, 21))
    def test_half_ranks_equal_the_mean_test(self, n):
        # every integer total s of n letters of distortion 0..3, as a prefix
        # sum over n // 2 letters plus a suffix sum over the rest, at targets
        # on s / n, just either side of it, and 1e-12 below it, where the
        # mean test's allowance brings the bound back onto s itself
        half = n // 2
        prefix = np.arange(3 * half + 1, dtype=float)[None]
        suffix = np.arange(3 * (n - half) + 1, dtype=float)[None]
        sums = prefix[0, :, None] + suffix[0, None, :]
        for s in range(3 * n + 1):
            for target in (s / n, s / n + 1e-13, s / n - 1e-13, s / n - 1e-12):
                if target < 0:
                    continue
                bound = game_sim._largest_covered_sum(target, n)
                rank_p, rank_s = game_sim._half_ranks(prefix, suffix, bound)
                assert rank_p.dtype == rank_s.dtype == np.uint8
                verdicts = rank_p[0, :, None] <= rank_s[0, None, :]
                np.testing.assert_array_equal(verdicts, sums / n <= target + 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_half_ranks_keep_the_order_of_any_sums(self, seed):
        # non-integer sums with ties, drawn from a few values
        gen = np.random.default_rng(seed)
        values = gen.uniform(0, 3, 6)
        prefix, suffix = values[gen.integers(0, 6, (4, 9))], values[gen.integers(0, 6, (4, 7))]
        rank_p, rank_s = game_sim._half_ranks(prefix, suffix, 3.5)
        np.testing.assert_array_equal(
            rank_p[:, :, None] <= rank_s[:, None, :],
            prefix[:, :, None] <= (3.5 - suffix)[:, None, :],
        )

    def test_output_symbols_past_127_are_not_wrapped(self):
        # only output 129 is free; a signed byte would read it as -127
        sources, _ = shipped("binary_pair.yaml")
        values = np.ones((2, 130))
        values[:, 129] = 0
        book = build_covering_codebook(
            RegionSpec(sources, 0), DistortionMatrix(values.tolist()), 0.0, 2
        )
        assert book.words.tolist() == [[129, 129]]

    def test_target_below_a_type_floor_is_infeasible(self):
        # every letter costs at least 0.5, so no word comes within 0.4
        sources, _ = shipped("binary_pair.yaml")
        d = DistortionMatrix([[0.5, 1], [1, 0.5]])
        with pytest.raises(InfeasibleError):
            build_covering_codebook(RegionSpec(sources, 0), d, 0.4, 6)

    @pytest.mark.parametrize("name", ["binary_pair.yaml", "ternary_demo.yaml"])
    def test_blocklength_with_no_admitted_type_is_infeasible(self, name):
        # a string of one symbol has a point-mass type, outside both regions
        sources, d = shipped(name)
        with pytest.raises(InfeasibleError, match=r"of length n=1 has an admitted type$"):
            build_covering_codebook(RegionSpec(sources, 0), d, 0.25, 1)

    @pytest.mark.parametrize("target", [math.nan, -0.1])
    def test_nan_or_negative_target_is_rejected(self, target):
        sources, d = shipped("binary_pair.yaml")
        with pytest.raises(ValidationError, match="nonnegative"):
            build_covering_codebook(RegionSpec(sources, 0), d, target, 4)

    def test_sampled_candidates_cover_every_admitted_string(self):
        # 2^8 words exceed the budget of 128, so the candidates are sampled
        sources, d = shipped("binary_pair.yaml")
        spec = RegionSpec(sources, 0)
        book = build_covering_codebook(spec, d, 0.25, 8, max_candidates=128, seed=2)
        assert 0 < book.size < 2**8
        for s in admitted_strings(spec, 2, 8):
            assert distortion_to_codebook(np.array(s), book, d) <= 0.25 + 1e-12
        again = build_covering_codebook(spec, d, 0.25, 8, max_candidates=128, seed=2)
        np.testing.assert_array_equal(again.words, book.words)

    @pytest.mark.parametrize("cells", [game_sim._COVER_CELLS, 700])
    @pytest.mark.parametrize(
        "name, d, n, target, budget, seed",
        [("binary_pair.yaml", None, 8, 0.25, 128, 2), ("ternary_demo.yaml", None, 6, 0.25, 700, 1),
         ("ternary_demo.yaml", INT3, 5, 0.6, 100, 0),
         # as in the full-grid test: no word's sum comes near 6 * 0.213
         ("ternary_demo.yaml", UNEVEN, 6, 0.213, 300, 3)],
    )
    def test_sampled_candidates_equal_brute_force_greedy(
        self, monkeypatch, name, d, n, target, budget, seed, cells
    ):
        monkeypatch.setattr(game_sim, "_COVER_CELLS", cells)
        sources, hamming = shipped(name)
        d = hamming if d is None else d
        spec = RegionSpec(sources, 0)
        assert d.num_outputs**n > budget
        types = game_sim._admitted_types(spec, n)
        cands = game_sim._sampled_words(d, target, n, budget, seed, types)
        book = build_covering_codebook(spec, d, target, n, max_candidates=budget, seed=seed)
        np.testing.assert_array_equal(book.words, brute_force_cover(spec, d, target, n, cands))

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(1, 9), min_size=3, max_size=3), min_size=1, max_size=3),
        integer=st.booleans(), values=st.lists(st.floats(0.0, 2.0), min_size=9, max_size=9),
        n=st.integers(2, 5), share=st.floats(-0.2, 1.0), budget=st.integers(1, 60),
        seed=st.integers(0, 2**31),
    )
    def test_sampled_words_are_the_per_type_solves(
        self, rows, integer, values, n, share, budget, seed
    ):
        # one batch over every admitted type draws the words, or raises the
        # error, that one rate_at_distortion per type does
        sources = SourceList.independent([np.array(r) / sum(r) for r in rows])
        values = np.array(values).reshape(3, 3)
        d = DistortionMatrix(np.round(values) if integer else values)
        types = game_sim._admitted_types(RegionSpec(sources, 0.1), n)
        assume(len(types) > 0)
        floors = (types / n) @ d.values.min(axis=1)
        target = max(0.0, floors.max() + share * (d.values.max() - floors.max()))
        want = outcome(lambda: reference_sampled_words(d, target, n, budget, seed, types))
        got = outcome(lambda: game_sim._sampled_words(d, target, n, budget, seed, types))
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.uint8
        else:
            assert (type(got), str(got)) == (type(want), str(want))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_a_candidate_budget_below_one_is_rejected_before_any_solve(self, monkeypatch, budget):
        def refuse(*args, **kwargs):
            raise AssertionError("the candidates were enumerated or solved for")

        monkeypatch.setattr(game_sim, "_admitted_types", refuse)
        monkeypatch.setattr(game_sim, "_rows_at", refuse)
        sources, d = shipped("binary_pair.yaml")
        with pytest.raises(ValidationError, match="max_candidates must be at least 1"):
            build_covering_codebook(RegionSpec(sources, 0), d, 0.25, 6, max_candidates=budget)

    @pytest.mark.parametrize(
        "name, n, budget",
        [("binary_pair.yaml", 12, game_sim.ENUM_GUARD),
         ("ternary_demo.yaml", 8, game_sim.ENUM_GUARD),
         ("binary_pair.yaml", 12, 2048)],
    )
    def test_the_cover_table_is_never_held(self, name, n, budget):
        # the whole table at binary n = 12 is 2,509 targets x 4,096 words;
        # a build that holds it peaks near 13.6 MiB, and near 6.6 MiB with
        # the 2,048-word budget's sampled candidates
        sources, d = shipped(name)
        spec = RegionSpec(sources, 0)
        tracemalloc.start()
        try:
            build_covering_codebook(spec, d, 0.25, n, max_candidates=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_a_sample_that_misses_a_string_is_a_guard_not_infeasible(self):
        # under Hamming distortion every type's floor is 0, so no string is
        # out of reach at 0.25; only the 64-word budget is too small
        sources, d = shipped("binary_pair.yaml")
        with pytest.raises(GuardError, match="max_candidates=64"):
            build_covering_codebook(RegionSpec(sources, 0), d, 0.25, 10, max_candidates=64)

    def test_cover_table_past_the_cell_guard_is_refused(self):
        # 2^14 candidate words against the 9,893 admitted 14-symbol strings
        sources, d = shipped("binary_pair.yaml")
        with pytest.raises(GuardError, match="cover table"):
            build_covering_codebook(RegionSpec(sources, 0), d, 0.25, 14)

    def test_cell_guard_is_checked_before_any_enumeration(self, monkeypatch):
        # 2^20 candidate words against the 616,645 admitted 20-symbol strings,
        # counted per type without listing a string
        def refuse(k, n):
            raise AssertionError("strings were enumerated")

        monkeypatch.setattr(game_sim, "_enumerate_strings", refuse)
        sources, d = shipped("binary_pair.yaml")
        with pytest.raises(GuardError, match="cover table would hold 646599147520 cells"):
            build_covering_codebook(RegionSpec(sources, 0), d, 0.25, 20)


class TestCodebook:
    @pytest.mark.parametrize(
        "words, n, message",
        [
            ([], 2, "at least one word"),
            (np.empty((0, 2), dtype=np.int64), 2, "at least one word"),
            ([[0, 1], [0]], 2, "stated length"),
            ([[0, 1, 0]], 2, "stated length"),
            ([[0.0, 1.0]], 2, "must be integers"),
            ([[0, 1], [1, 0], [0, 1]], 2, "distinct"),
            ([[]], 0, "blocklength must be at least 1"),
        ],
    )
    def test_invalid_words_are_refused_when_built(self, words, n, message):
        with pytest.raises(ValidationError, match=message):
            Codebook(words, n)


class TestSimReport:
    @pytest.mark.parametrize("seed", [10**13, np.int64(10**13)])
    def test_every_layout_reads_one_field_order(self, seed):
        # an unset figure is left out of key=value and blank in CSV, and
        # counts print as integers however many digits they have, numpy
        # integers included
        report = game_sim.SimReport(
            empirical_type=Distribution([0.25, 0.75]), mean_distortion=0.125,
            stderr=1 / 3, trials=np.int64(3), n=4, seed=seed, codebook_rate=0.5,
        )
        assert report.to_kv() == (
            "n=4\ntrials=3\nseed=10000000000000\nmean_distortion=0.125\n"
            "stderr=0.333333333333\ncodebook_rate=0.5\nempirical_type=0.25 0.75\n"
        )
        assert report.csv_header() == [
            "n", "trials", "seed", "mean_distortion", "stderr",
            "out_of_region_fraction", "codebook_rate", "type_0", "type_1",
        ]
        assert report.csv_row() == [
            "4", "3", "10000000000000", "0.125", "0.333333333333", "", "0.5", "0.25", "0.75",
        ]


class TestSymbolChecks:
    """Symbols from a caller are integers within the distortion matrix's
    inputs (strings, realizations) or outputs (codewords), checked before a
    cast could truncate them or an index wrap or overflow."""

    def test_codeword_symbols_that_are_not_integers_are_rejected(self):
        with pytest.raises(ValidationError, match="codeword symbols must be integers"):
            Codebook([[0.5, 1.7]], 2)

    def test_string_symbols_that_are_not_integers_are_rejected(self):
        with pytest.raises(ValidationError, match="string symbols must be integers"):
            distortion_to_codebook(np.array([0.5, 1.9]), Codebook([[0, 1]], 2), HAMMING)

    def test_string_symbol_out_of_range_is_rejected(self):
        with pytest.raises(ValidationError, match="string symbols out of alphabet range"):
            distortion_to_codebook(np.array([0, 2]), Codebook([[0, 1]], 2), HAMMING)

    def test_codeword_symbol_out_of_range_is_rejected(self):
        with pytest.raises(ValidationError, match="codeword symbols out of alphabet range"):
            distortion_to_codebook(np.array([0, 1]), Codebook([[0, 5]], 2), HAMMING)

    def test_codeword_range_is_read_from_the_outputs(self):
        # 2 inputs, 3 outputs: codeword symbol 2 is valid, string symbol 2 is not
        d = DistortionMatrix([[0, 1, 0.5], [1, 0, 0.5]])
        assert distortion_to_codebook(np.array([0, 1]), Codebook([[2, 2]], 2), d) == 0.5
        with pytest.raises(ValidationError, match="string symbols out of alphabet range"):
            distortion_to_codebook(np.array([2, 1]), Codebook([[2, 2]], 2), d)

    @pytest.mark.parametrize("realization", [[[-1, 1]], [[0, 5]]])
    def test_best_response_realization_out_of_range_is_rejected(self, realization):
        # numpy would wrap the -1 to the last symbol and fail on the 5
        with pytest.raises(ValidationError, match="realization symbols out of alphabet range"):
            best_response_distortion(np.array(realization), Codebook([[0, 1]], 2), HAMMING)

    def test_best_response_realization_that_is_not_integers_is_rejected(self):
        with pytest.raises(ValidationError, match="realization symbols must be integers"):
            best_response_distortion(np.array([[0.5, 1.7]]), Codebook([[0, 1]], 2), HAMMING)

    def test_best_response_codeword_out_of_range_is_rejected(self):
        with pytest.raises(ValidationError, match="codeword symbols out of alphabet range"):
            best_response_distortion(np.array([[0, 1]]), Codebook([[0, 5]], 2), HAMMING)

    def test_simulation_codeword_out_of_range_is_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(game_sim, "_sample", no_draw)
        sources, _ = shipped("binary_pair.yaml")
        with pytest.raises(ValidationError, match="codeword symbols out of alphabet range"):
            simulate_game(sources, greedy_max_rule(sources), Codebook([[0, 5]], 2),
                          HAMMING, 2, 10, 0)
