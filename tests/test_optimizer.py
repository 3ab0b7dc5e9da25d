import itertools
import math
import unittest.mock
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchrd import (
    Distribution,
    DistortionMatrix,
    RegionSpec,
    SourceList,
    ValidationError,
    entropy,
    is_member,
    load_problem,
    maximize_over_hull,
    maximize_over_region,
    rd_tilde_curve,
)
from switchrd import optimizer
from switchrd.optimizer import (
    _candidates,
    _centre,
    _extreme_rows,
    _frank_wolfe,
    _lattice,
    _least_majorized,
    _maximize,
    _simplex_vertex,
    _symmetric,
)
from switchrd.probcore import compositions
from switchrd.rate_distortion import RATE_TOL, rate_at_distortion, rates_at_distortion_batch
from switchrd.region import _greedy_oracle, _min_norm_point, in_region

HAMMING = DistortionMatrix.hamming(2)
BINARY_PAIR = SourceList.independent(
    [[Fraction(2, 3), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 4)]]
)
BINARY_SPEC = RegionSpec(BINARY_PAIR, 0)

#: Loose-but-honest rate tolerance for property checks over random instances.
FAST = 1e-5


def h2(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def random_sources(rng, k, m):
    return SourceList.independent(rng.dirichlet(np.ones(k), size=m).tolist())


def uniform_hamming_rate(k, target):
    """R(D) of the uniform source under k-ary Hamming distortion, 0 <= D <= 1 - 1/k."""
    h = -target * math.log2(target) - (1 - target) * math.log2(1 - target)
    return math.log2(k) - h - target * math.log2(k - 1)


#: (D2) three sources on four symbols whose region contains the uniform point,
#: at a target where R~ must equal the uniform closed form.
D2_SOURCES = SourceList.independent(
    [
        [0.207779, 0.175252, 0.514738, 0.102231],
        [0.174610, 0.655466, 0.065014, 0.104910],
        [0.258326, 0.206629, 0.401393, 0.133652],
    ]
)
D2_TARGET = 0.59073
#: (D3) an instance whose search runs along the region's boundary, where a
#: membership test has no slack to spare.
D3_SOURCES = SourceList.independent(
    [
        [0.25804390058453003, 0.22256519889352394, 0.4637733871061953, 0.05561751341575073],
        [0.050348381226948444, 0.08493843226198874, 0.10917657964187615, 0.7555366068691868],
    ]
)
D3_DISTORTION = DistortionMatrix([[0, 3, 1, 2], [2, 0, 1, 3], [2, 3, 0, 2], [1, 3, 2, 0]])
D3_TARGET = 0.5030675073631221
#: (D5) three peaked sources on five symbols under Hamming distortion; the
#: region's most uniform law p* = (.041804, .025733, .310821 x 3) gives
#: R~(0) = H(p*), and R_p*(D) in closed form while 4 min p* >= D.
D5_SOURCES = SourceList.independent(
    [[.000752, .018923, .336560, .230976, .412789],
     [.006478, .005836, .498397, .431469, .057820],
     [.035852, .001112, .395276, .212961, .354799]]
)
#: (D1) two sources on six symbols under an integer distortion, where a
#: projected ascent stalled at 1.001780 (D = 0.3) and 0.510979 (D = 0.6)
#: against Frank-Wolfe's 1.032600225 and 0.545602886.
D1_SOURCES = SourceList.independent(
    [[.224506, .130479, .093505, .296216, .209885, .045409],
     [.068749, .313709, .136949, .119617, .193192, .167784]]
)
D1_DISTORTION = DistortionMatrix(
    [[int(c) for c in row] for row in "022323 300113 300303 013011 213102 222330".split()]
)
#: (D5, four symbols) a thin region under 4-ary Hamming distortion whose
#: lattice holds no point near its most uniform law
#: p* = (.331403, .331403, .005791, .331403), of entropy 1.627155.
D5_K4_SOURCES = SourceList.independent(
    [[0.011904, 0.342654, 0.000465, 0.644977],
     [0.608763, 0.006398, 0.00044, 0.384399],
     [0.40273, 0.471259, 0.004891, 0.12112]]
)
#: (D9) the worst of 38 random maximizations: a projected ascent stalled at
#: 0.754875136, and Frank-Wolfe reaches 0.849582 at D9_TARGET.
D9_SOURCES = SourceList.independent(
    [[0.14132602419595616, 0.003735308142705593, 0.08508682672819379,
      0.0023329747358940287, 0.26193341705147527, 0.5055854491457752],
     [0.43482750772118517, 0.03444674893805774, 0.030145962856579164,
      0.2174610524755093, 0.08178444652867808, 0.20133428147999047]]
)
D9_DISTORTION = DistortionMatrix(
    [[int(c) for c in row] for row in "032033 002130 300112 312122 210101 013001".split()]
)
D9_TARGET = 0.2549471066978872
#: Instance #64 of an 80-maximization stress, under 4-ary Hamming distortion
#: at delta 0.02, whose lattice rows tied within 1e-8 bits before p* joined
#: the candidates.
TIES_SOURCES = SourceList.independent(
    [[0.026118, 0.95399, 0.000159, 0.019733],
     [0.310096, 0.053975, 0.456507, 0.179422],
     [0.218518, 0.722262, 0.052458, 0.006762]]
)
TIES_TARGET = 0.5160384135320375
#: Two sources that swap symbols 0 and 1, under a distortion that the same
#: swap of inputs and outputs keeps: the problem is its own mirror image, and
#: its maximum is not on the mirror's axis, so the lattice's best rows are
#: mirror pairs whose values tie but for rounding.
MIRROR_SOURCES = SourceList.independent(
    [[0.349657, 0.434258, 0.216085], [0.434258, 0.349657, 0.216085]]
)
MIRROR_DISTORTION = DistortionMatrix([[0.5, 1.0, 1.5], [1.0, 0.5, 1.5], [0.5, 0.5, 0.0]])
MIRROR_TARGET = 0.5261583017399333
#: Stresses A and B are random maximizations from numpy
#: ``default_rng(20261020)`` with kmax, mmax = 6, 3 and ``default_rng(20261021)``
#: with 7, 5. Each instance draws, in this order: k = integers(2, kmax + 1),
#: m = integers(2, mmax + 1), Hamming = integers(0, 2), delta =
#: choice([0, 0.02]), m Dirichlet(choice([0.7, 1])) sources, an integer 0-3
#: distortion unless Hamming, and D as a uniform(0, 0.7) share of the uniform
#: law's floor-to-ceiling span.
#: Instance #21 of stress A (from 0): p*, the cyclic-shift vertices and
#: Dirichlet mixtures of them all have rate 0 here, where the gradient
#: vanishes and Frank-Wolfe cannot leave; the vertices of random symbol
#: orders reach 0.0420.
STRESS_A21_SOURCES = SourceList.independent(
    [[0.717283621330993, 0.2175050959765759, 0.009522063184010797,
      0.035141577644134954, 0.02054764186428534],
     [0.2838859370025292, 0.20690640174955374, 0.044767046493096575,
      0.26549721914477803, 0.19894339561004257]]
)
STRESS_A21_DISTORTION = DistortionMatrix(
    [[int(c) for c in row] for row in "03022 12201 31332 03232 20013".split()]
)
STRESS_A21_TARGET = 0.8911595427070396
#: Instance #29 of stress B: on a face the iterates zig-zag at about 1e-5
#: bits per step, so a cap of 40 steps stopped 3.2e-3 bits short.
STRESS_B29_SOURCES = SourceList.independent(
    [[0.05084588131813762, 0.04013644895741892, 0.5927761299617661,
      0.1836970512412656, 0.02978170361954852, 0.10276278490186337],
     [0.2894249684480724, 0.3915371682482958, 0.22202003956602082,
      0.08610705117193831, 0.007585858272063804, 0.0033249142936088052],
     [0.3718748844701283, 0.008434261235991823, 0.0343289646534974,
      0.040201065190301116, 0.5339329975512522, 0.01122782689882926],
     [0.5464427850878897, 0.02500439737635581, 0.00699996095270427,
      0.14938241421595347, 0.11636082218178478, 0.15580962018531205],
     [0.46347214518405866, 0.03290515757451706, 0.05658136724099805,
      0.2605554455416612, 0.00856195156357988, 0.17792393289518516]]
)
STRESS_B29_DISTORTION = DistortionMatrix(
    [[int(c) for c in row] for row in "003130 031221 200332 130012 331022 022320".split()]
)
STRESS_B29_TARGET = 0.2982710950283657
#: The benchmark's generated instances ``wc_k3_m2`` and ``wc_k4_m3`` at
#: bench seed 0, both under Hamming distortion, with the targets of their
#: ``optimize`` ops.
WC_K3_M2 = [[0.282862, 0.251967, 0.465171], [0.091422, 0.067106, 0.841472]]
WC_K3_M2_TARGETS = (0.213932, 0.454605)
WC_K4_M3 = [
    [0.102231, 0.514738, 0.175252, 0.207779],
    [0.104910, 0.065014, 0.655466, 0.174610],
    [0.133652, 0.401393, 0.206629, 0.258326],
]
WC_K4_M3_TARGETS = (0.239443, 0.508816)
#: The benchmark's ``wc_k2_m3`` at bench seed 0: three binary sources, the
#: first between the other two, under an integer distortion.
WC_K2_M3 = [[0.420057, 0.579943], [0.817763, 0.182237], [0.301934, 0.698066]]
WC_K2_M3_DISTORTION = [[0, 2], [3, 0]]
WC_K2_M3_TARGETS = (0.336046, 0.714097)


def blahut_lower(p, d, target, slope, law):
    """Blahut's lower bound on R_p(target) from any slope s <= 0 and output law
    q: s target - sum_x p(x) log2 n(x) - log2 max_y c(y), where
    n(x) = sum_y q(y) 2^(s d(x, y)) and c(y) = sum_x p(x) 2^(s d(x, y)) / n(x)
    (Blahut 1972, Theorem 2)."""
    kernel = np.exp2(slope * d.values)
    norms = kernel @ law
    c = (p / norms) @ kernel
    return slope * target - p @ np.log2(norms) - math.log2(c.max())


def worst_case_values(sources, d, target):
    """R~ and R* as ``optimize`` prints them: the hull search starts from the
    region result's dual pair."""
    region = maximize_over_region(RegionSpec(sources, 0), d, target)
    hull = maximize_over_hull(sources, d, target, start=(region.slope, region.law))
    return region.value, hull.value


def region_search(spec):
    """The region's oracle, candidates and method, as ``maximize_over_region``
    builds them."""
    k = spec.sources.alphabet_size
    oracle = _greedy_oracle(spec.sources, np.zeros(k), spec.delta)
    return (oracle, *_candidates(k, oracle, lambda points: in_region(points, spec)))


def relabelled(rows, d, perm):
    """The sources and the distortion with input symbol ``perm[x]`` renamed
    ``x``: the entries of every source and the rows of the distortion
    matrix move together."""
    return (
        SourceList.independent(np.asarray(rows, dtype=float)[:, perm].tolist()),
        DistortionMatrix(np.asarray(d, dtype=float)[perm].tolist()),
    )


class TestRegionMaximizer:
    def test_binary_pair_prefers_uniform(self):
        res = maximize_over_region(BINARY_SPEC, HAMMING, 0.1)
        assert np.abs(res.argmax.probs - 0.5).sum() <= 1e-3
        assert res.value == pytest.approx(1 - h2(0.1), abs=1e-3)
        assert res.method == "grid"

    def test_single_source_region_is_a_point(self):
        srcs = SourceList.independent([[0.7, 0.3]])
        res = maximize_over_region(RegionSpec(srcs, 0), HAMMING, 0.1, FAST)
        np.testing.assert_allclose(res.argmax.probs, [0.7, 0.3], atol=1e-9)
        assert res.value == pytest.approx(h2(0.3) - h2(0.1), abs=1e-3)

    def test_zero_rate_regime(self):
        res = maximize_over_region(BINARY_SPEC, HAMMING, 0.6, FAST)
        assert res.value == 0.0

    def test_argmax_stays_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            srcs = random_sources(rng, 3, 2)
            res = maximize_over_region(
                RegionSpec(srcs, 0), DistortionMatrix.hamming(3), 0.15, FAST
            )
            assert is_member(res.argmax, RegionSpec(srcs, 0)).satisfied

    def test_determinism(self):
        spec = RegionSpec(random_sources(np.random.default_rng(9), 5, 2), 0)
        d = DistortionMatrix.hamming(5)
        a = maximize_over_region(spec, d, 0.12)
        b = maximize_over_region(spec, d, 0.12)
        assert a.method == "multistart"
        assert a.value == b.value
        np.testing.assert_array_equal(a.argmax.probs, b.argmax.probs)
        assert a.evaluations == b.evaluations

    def test_grid_and_multistart_agree(self):
        # delta = 1 frees the whole simplex, whose maximum under Hamming
        # distortion is the uniform point's closed form: k = 4 takes the
        # lattice and k = 5 the multistart ascent
        rng = np.random.default_rng(5)
        for k, method, tol in ((4, "grid", 1e-6), (5, "multistart", FAST)):
            free = RegionSpec(random_sources(rng, k, 2), 1.0)
            d = DistortionMatrix.hamming(k)
            for target in (0.1, 0.3):
                res = maximize_over_region(free, d, target, tol)
                assert res.method == method
                assert res.value == pytest.approx(uniform_hamming_rate(k, target), abs=1e-6)

    def test_nan_target_is_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            maximize_over_region(BINARY_SPEC, HAMMING, math.nan)

    def test_unreachable_distortion_reports_inf(self):
        d = DistortionMatrix([[0.5, 1.0], [1.0, 0.5]])
        res = maximize_over_region(BINARY_SPEC, d, 0.4, FAST)
        assert math.isinf(res.value)

    def test_lockstep_frank_wolfe_matches_single_starts(self):
        # the starts share every rate batch, so a start's path must not
        # depend on which other starts are still moving
        rng = np.random.default_rng(9)
        spec = RegionSpec(random_sources(rng, 5, 2), 0)
        d = DistortionMatrix.hamming(5)
        oracle, candidates, method = region_search(spec)
        assert method == "multistart"

        def batch_value(ps, start=None):
            return rates_at_distortion_batch(ps, d, 0.2, tol=FAST, gradients=True, start=start)

        values, grads, (slopes, laws), lowers = batch_value(candidates)
        seeds = list(zip(values.tolist(), candidates, grads, zip(slopes, laws), lowers))
        assert all(s < 0 for _, _, _, (s, _), _ in seeds)
        basis = np.eye(5)
        together = _frank_wolfe(seeds, oracle, batch_value, basis, FAST)
        assert sum(v > v0 for (v0, *_), (_, v, _, _) in zip(seeds, together)) > 1
        for seed, (x, v, (s, law), lower) in zip(seeds, together):
            [(x_alone, v_alone, (s_alone, law_alone), lower_alone)] = _frank_wolfe(
                [seed], oracle, batch_value, basis, FAST
            )
            np.testing.assert_array_equal(x, x_alone)
            assert v == v_alone and s == s_alone and lower == lower_alone
            assert v - FAST <= lower <= v
            np.testing.assert_array_equal(law, law_alone)

    @pytest.mark.parametrize("search", ["region", "hull"])
    def test_evaluations_are_the_first_batch_and_ten_per_step(self, monkeypatch, search):
        # Frank-Wolfe reads its slopes off the gradient, so a search solves
        # its candidates once, best-only, and then 10 line-search candidates
        # per step of each start
        batches = []
        solve = optimizer.rates_at_distortion_batch

        def spy(ps, *args, **kwargs):
            batches.append((len(ps), kwargs["best_only"]))
            return solve(ps, *args, **kwargs)

        monkeypatch.setattr(optimizer, "rates_at_distortion_batch", spy)
        if search == "region":
            res = maximize_over_region(RegionSpec(D3_SOURCES, 0), D3_DISTORTION, D3_TARGET)
            first = len(region_search(RegionSpec(D3_SOURCES, 0))[1])
        else:
            res = maximize_over_hull(D3_SOURCES, D3_DISTORTION, D3_TARGET)
            first = len(_candidates(2, _simplex_vertex)[0])
        assert (res.method, res.starts) == ("grid", 1)
        assert batches[0] == (first, True)
        assert len(batches) > 1 and all(b == (10, False) for b in batches[1:])
        assert res.evaluations == first + 10 * (len(batches) - 1)

    def test_boundary_points_raise_no_floating_point_error(self):
        # the delta = 1 oracle's vertices and lattice points with p(x) = 0;
        # under the integer distortion some lattice rows at D = 0 meet a
        # kernel sum of 0, whose logarithm the gradient floors
        rng = np.random.default_rng(5)
        free = RegionSpec(random_sources(rng, 5, 2), 1.0)
        zeros = SourceList.independent([[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]])
        # the unit vectors: their region and their hull are the simplex,
        # and inputs 0 and 1 share a zero-distortion output, so R~(0) = log2 3
        corners = SourceList.independent(np.eye(4).tolist())
        merged = DistortionMatrix([[0, 3, 3, 2], [0, 1, 0, 2], [3, 3, 3, 0], [3, 0, 2, 3]])
        with np.errstate(all="raise"):
            res = maximize_over_region(free, DistortionMatrix.hamming(5), 0.1, FAST)
            assert res.method == "multistart"
            assert res.value == pytest.approx(uniform_hamming_rate(5, 0.1), abs=1e-6)
            for spec in (RegionSpec(zeros, 0), RegionSpec(zeros, 1.0)):
                res = maximize_over_region(spec, DistortionMatrix.hamming(3), 0.0)
                assert res.method == "grid"
                assert res.value == pytest.approx(entropy(res.argmax), abs=1e-6)
            res = maximize_over_hull(zeros, DistortionMatrix.hamming(3), 0.0)
            assert res.value == pytest.approx(entropy(res.argmax), abs=1e-6)
            for res in (
                maximize_over_region(RegionSpec(corners, 0), merged, 0.0),
                maximize_over_hull(corners, merged, 0.0),
            ):
                assert res.method == "grid"
                assert res.value == pytest.approx(math.log2(3), abs=1e-6)


def pick_best_by_loop(values, vecs):
    """The rule of ``_pick_best``, one comparison at a time."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best] or (
            values[i] == values[best] and tuple(vecs[i]) < tuple(vecs[best])
        ):
            best = i
    return best


class TestPickBest:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), k=st.integers(1, 4))
    def test_matches_the_loop_on_exact_ties(self, data, n, k):
        # few distinct entries, so values and whole vectors tie often
        values = data.draw(
            st.lists(st.sampled_from([-np.inf, 0.0, 0.5, 1.0]), min_size=n, max_size=n)
        )
        vecs = data.draw(
            st.lists(
                st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
        got = optimizer._pick_best(np.array(values), np.array(vecs))
        assert got == pick_best_by_loop(values, vecs)

    @pytest.mark.parametrize("method", ["grid", "multistart"])
    def test_seeds_are_every_row_within_tol_of_the_best(self, monkeypatch, method):
        # the mirror instance's lattice holds mirror pairs whose values tie
        # but for rounding; at k = 5 the seeds are the region's vertices and
        # p*, under a distortion no relabelling keeps (Hamming, with the
        # first input's row doubled), since a symmetric one ends at p*
        seeds = []
        frank_wolfe = optimizer._frank_wolfe

        def spy(starts, *args):
            seeds.extend(starts)
            return frank_wolfe(starts, *args)

        monkeypatch.setattr(optimizer, "_frank_wolfe", spy)
        if method == "grid":
            spec, d, target = RegionSpec(MIRROR_SOURCES, 0), MIRROR_DISTORTION, MIRROR_TARGET
        else:
            spec = RegionSpec(random_sources(np.random.default_rng(9), 5, 2), 0)
            d = DistortionMatrix(((1.0 - np.eye(5)) * [[2], [1], [1], [1], [1]]).tolist())
            target = 0.2
        res = maximize_over_region(spec, d, target)
        candidates = region_search(spec)[1]
        values = rates_at_distortion_batch(candidates, d, target, best_only=True)
        tied = candidates[values >= values.max() - RATE_TOL]
        assert res.method == method
        assert res.starts == len(seeds) == len(tied)
        np.testing.assert_array_equal(np.array([x for _, x, *_ in seeds]), tied)
        if method == "grid":
            assert len(tied) > 1
            np.testing.assert_array_equal(tied[::-1, [1, 0, 2]], tied)


class TestCandidates:
    def test_region_seeds_are_vertices_of_random_and_cyclic_orders_and_p_star(self):
        rng = np.random.default_rng(11)
        for k, delta in ((5, 0.0), (6, 0.1), (7, 0.02)):
            spec = RegionSpec(random_sources(rng, k, 3), delta)
            oracle, candidates, method = region_search(spec)
            assert method == "multistart"
            orders = np.random.default_rng(0)
            points = [oracle(orders.permutation(k))[1] for _ in range(16)]
            points += [oracle(np.roll(np.arange(k), shift))[1] for shift in range(k)]
            points.append(_min_norm_point(oracle, oracle(np.arange(k)))[0])
            np.testing.assert_array_equal(candidates, np.unique(points, axis=0))
            assert in_region(candidates, spec).all()

    def test_hull_seeds_are_every_source_and_the_uniform_mixture(self):
        m = 6
        lams, method = _candidates(m, _simplex_vertex)
        assert method == "multistart"
        assert len(lams) == m + 1
        for j in range(m):
            assert (lams == np.eye(m)[j]).all(axis=1).any()
        assert np.abs(lams - 1.0 / m).max(axis=1).min() <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_the_lattice_takes_p_star(self, k):
        rng = np.random.default_rng(k)
        spec = RegionSpec(random_sources(rng, k, 3), 0)
        oracle, candidates, method = region_search(spec)
        assert method == "grid"
        p_star = _min_norm_point(oracle, oracle(np.arange(k)))[0]
        assert (candidates == p_star).all(axis=1).any()
        # the feasible lattice points and p*, each once
        ticks = round(1 / optimizer._GRID_STEPS[k])
        lattice = compositions(ticks, k) / ticks
        inside = lattice[in_region(lattice, spec)]
        assert len(candidates) == len(np.unique(np.vstack([inside, p_star]), axis=0))


    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_the_lattice_is_built_once_and_read_only(self, dim):
        lattice = _lattice(dim)
        assert _lattice(dim) is lattice
        assert not lattice.flags.writeable
        ticks = round(1 / optimizer._GRID_STEPS[dim])
        np.testing.assert_array_equal(lattice, np.unique(compositions(ticks, dim) / ticks, axis=0))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_both_paths_return_the_sorted_lattice_and_p_star(self, dim):
        rng = np.random.default_rng(dim)
        cases = [(_simplex_vertex, None), (_simplex_vertex, lambda points: points[:, 0] <= 0.5)]
        # a region needs two symbols
        for delta in (0.0, 0.05) if dim > 1 else ():
            spec = RegionSpec(random_sources(rng, dim, 3), delta)
            oracle = _greedy_oracle(spec.sources, np.zeros(dim), spec.delta)
            cases.append((oracle, lambda points, spec=spec: in_region(points, spec)))
        for oracle, inside in cases:
            points, method = _candidates(dim, oracle, inside)
            lattice = _lattice(dim) if inside is None else _lattice(dim)[inside(_lattice(dim))]
            p_star = _min_norm_point(oracle, oracle(np.arange(dim)))[0]
            want = np.unique(np.vstack([lattice, p_star]), axis=0)
            assert method == "grid" and points.shape == want.shape
            np.testing.assert_array_equal(points, want)


class TestPinnedInstances:
    def test_region_maximum_is_never_below_the_hull_maximum(self):
        # (D2) the hull lies inside the region, and the region here holds the
        # uniform point, the maximizer of the free simplex
        d = DistortionMatrix.hamming(4)
        region = maximize_over_region(RegionSpec(D2_SOURCES, 0), d, D2_TARGET)
        hull = maximize_over_hull(D2_SOURCES, d, D2_TARGET)
        assert region.method == "grid"
        assert region.value == pytest.approx(uniform_hamming_rate(4, D2_TARGET), abs=1e-9)
        assert hull.value <= region.value

    def test_search_stays_in_the_region(self):
        # (D3) the argmax must pass is_member, or the search raises
        # "maximizer left the feasible region"
        spec = RegionSpec(D3_SOURCES, 0)
        res = assert_every_row_is_a_member(spec, D3_DISTORTION, D3_TARGET)
        assert res.method == "grid"
        assert math.isfinite(res.value)
        assert is_member(res.argmax, spec).satisfied

    def test_d5_reaches_the_most_uniform_law(self):
        # (D5) the multistart seeds hold p*, so R~ is at least R_p*(D)
        spec = RegionSpec(D5_SOURCES, 0)
        oracle = _greedy_oracle(D5_SOURCES, np.zeros(5))
        h_star = entropy(Distribution(_min_norm_point(oracle, oracle(np.zeros(5)))[0]))
        assert h_star == pytest.approx(1.899336, abs=5e-7)
        d = DistortionMatrix.hamming(5)
        assert maximize_over_region(spec, d, 0.0).value >= h_star - 1e-6
        erokhin = h_star - h2(0.05) - 0.05 * math.log2(4)
        assert maximize_over_region(spec, d, 0.05).value >= erokhin - 1e-6

    def test_d5_four_symbols_reaches_the_most_uniform_law(self):
        # (D5) the four-symbol lattice holds no attainable point, so p* is
        # the only candidate
        spec = RegionSpec(D5_K4_SOURCES, 0)
        oracle = _greedy_oracle(D5_K4_SOURCES, np.zeros(4))
        p_star = Distribution(_min_norm_point(oracle, oracle(np.zeros(4)))[0])
        d = DistortionMatrix.hamming(4)
        res = maximize_over_region(spec, d, 0.0)
        assert res.method == "grid"
        assert res.value >= entropy(p_star) - 1e-6
        at_p_star = rate_at_distortion(p_star, d, 0.05).rate
        assert maximize_over_region(spec, d, 0.05).value >= at_p_star - 1e-6

    def test_d9_reaches_the_frank_wolfe_value(self):
        res = maximize_over_region(RegionSpec(D9_SOURCES, 0), D9_DISTORTION, D9_TARGET)
        assert res.method == "multistart"
        assert res.value >= 0.8495

    @pytest.mark.parametrize("target, floor", [(0.3, 1.0326), (0.6, 0.5456)])
    def test_d1_reaches_the_frank_wolfe_value(self, target, floor):
        res = maximize_over_region(RegionSpec(D1_SOURCES, 0), D1_DISTORTION, target)
        assert res.method == "multistart"
        assert res.value >= floor

    def test_ties_instance_keeps_its_value(self):
        # an ascent from one of the lattice rows tied here ended at 0.1777
        # bits; p* now ranks first
        res = maximize_over_region(
            RegionSpec(TIES_SOURCES, 0.02), DistortionMatrix.hamming(4), TIES_TARGET
        )
        assert res.method == "grid"
        assert res.value >= 0.1792512

    def test_vertices_of_random_orders_leave_the_zero_rate_plateau(self):
        res = maximize_over_region(
            RegionSpec(STRESS_A21_SOURCES, 0.02), STRESS_A21_DISTORTION, STRESS_A21_TARGET
        )
        assert res.method == "multistart"
        assert res.value >= 0.042

    def test_the_step_cap_lets_a_zig_zag_finish(self):
        # stress B #29
        res = maximize_over_region(
            RegionSpec(STRESS_B29_SOURCES, 0), STRESS_B29_DISTORTION, STRESS_B29_TARGET
        )
        assert res.method == "multistart"
        assert res.value >= 0.7923

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        m=st.integers(1, 3),
        delta=st.sampled_from([0.0, 0.02, 0.1]),
    )
    def test_every_iterate_is_a_member(self, seed, k, m, delta):
        rng = np.random.default_rng(seed)
        spec = RegionSpec(random_sources(rng, k, m), delta)
        d = DistortionMatrix(rng.integers(0, 4, size=(k, k)).tolist())
        floor, ceiling = d.values.min(axis=1).mean(), d.values.mean(axis=0).min()
        target = float(floor + rng.uniform(0, 0.7) * (ceiling - floor))
        assert_every_row_is_a_member(spec, d, target, FAST)


def assert_every_row_is_a_member(spec, d, target, tol=RATE_TOL):
    """Every row the region search sends to the rate solver, each iterate
    included, passes ``is_member`` as it stands; returns the search's
    result."""
    solve = optimizer.rates_at_distortion_batch
    rows = []

    def spy(ps, *args, **kwargs):
        rows.extend(ps)
        return solve(ps, *args, **kwargs)

    with unittest.mock.patch.object(optimizer, "rates_at_distortion_batch", spy):
        res = maximize_over_region(spec, d, target, tol)
    assert len(rows) == res.evaluations
    for x in rows:
        assert is_member(Distribution(x), spec).satisfied
    return res


class TestHullMaximizer:
    def test_single_source(self):
        srcs = SourceList.independent([[0.7, 0.3]])
        res = maximize_over_hull(srcs, HAMMING, 0.1, FAST)
        assert res.value == pytest.approx(h2(0.3) - h2(0.1), abs=1e-3)

    def test_nan_target_is_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            maximize_over_hull(BINARY_PAIR, HAMMING, math.nan)

    def test_binary_pair_picks_the_most_uniform_vertex(self):
        res = maximize_over_hull(BINARY_PAIR, HAMMING, 0.1)
        assert res.value == pytest.approx(h2(1 / 3) - h2(0.1), abs=1e-3)
        np.testing.assert_allclose(res.argmax.probs, [2 / 3, 1 / 3], atol=1e-3)

    def test_hull_never_beats_region(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            srcs = random_sources(rng, 3, 2)
            d = DistortionMatrix.hamming(3)
            hull = maximize_over_hull(srcs, d, 0.2, FAST)
            region = maximize_over_region(RegionSpec(srcs, 0), d, 0.2, FAST)
            assert hull.value <= region.value + 1e-6


    def test_an_interior_source_leaves_the_search(self, monkeypatch):
        # the first source lies between the other two, so the search runs
        # over the two-source lattice and matches the binary closed form
        rows = [[0.420057, 0.579943], [0.817763, 0.182237], [0.301934, 0.698066]]
        dims = []

        def spy(dim, oracle, inside=None):
            dims.append(dim)
            return _candidates(dim, oracle, inside)

        monkeypatch.setattr(optimizer, "_candidates", spy)
        lo, hi = min(r[0] for r in rows), max(r[0] for r in rows)
        for target in (0.1, 0.2, 0.35):
            res = maximize_over_hull(SourceList.independent(rows), HAMMING, target)
            p0 = min(max(0.5, lo), hi)
            assert res.value == pytest.approx(max(h2(p0) - h2(target), 0.0), abs=RATE_TOL)
        assert dims == [2, 2, 2]

    def test_a_repeated_source_changes_nothing(self):
        p, q = [0.7, 0.3], [0.45, 0.55]
        for target in (0.1, 0.3):
            want = maximize_over_hull(SourceList.independent([p, q]), HAMMING, target)
            got = maximize_over_hull(SourceList.independent([p, p, q]), HAMMING, target)
            assert got.value == want.value and got.slope == want.slope
            np.testing.assert_array_equal(got.argmax.probs, want.argmax.probs)
            np.testing.assert_array_equal(got.law, want.law)
            assert (got.evaluations, got.starts) == (want.evaluations, want.starts)

    def test_one_source_twice_is_that_source(self):
        p = [0.7, 0.3]
        for target in (0.05, 0.2):
            got = maximize_over_hull(SourceList.independent([p, p]), HAMMING, target)
            assert got.value == rate_at_distortion(Distribution(p), HAMMING, target).rate
            np.testing.assert_array_equal(got.argmax.probs, p)


class TestDualPair:
    """Each result carries the dual pair of the Blahut line certifying its
    value, and the hull search takes such a pair as its start."""

    @pytest.mark.parametrize(
        "search, sources, d, target, delta",
        [
            ("region", BINARY_PAIR, HAMMING, 0.1, 0),
            ("region", D2_SOURCES, DistortionMatrix.hamming(4), D2_TARGET, 0),
            ("region", D3_SOURCES, D3_DISTORTION, D3_TARGET, 0),
            ("region", TIES_SOURCES, DistortionMatrix.hamming(4), TIES_TARGET, 0.02),
            ("region", D5_SOURCES, DistortionMatrix.hamming(5), 0.05, 0),
            ("hull", BINARY_PAIR, HAMMING, 0.1, 0),
            ("hull", D2_SOURCES, DistortionMatrix.hamming(4), D2_TARGET, 0),
            ("hull", D3_SOURCES, D3_DISTORTION, D3_TARGET, 0),
            ("hull", D5_SOURCES, DistortionMatrix.hamming(5), 0.05, 0),
        ],
    )
    def test_the_pair_certifies_the_value(self, search, sources, d, target, delta):
        if search == "region":
            res = maximize_over_region(RegionSpec(sources, delta), d, target)
        else:
            res = maximize_over_hull(sources, d, target)
        assert res.slope < 0 and res.law.shape == (d.num_outputs,)
        lower = blahut_lower(res.argmax.probs, d, target, res.slope, res.law)
        assert res.value - RATE_TOL <= lower <= res.value

    def test_an_infinite_value_carries_no_pair(self):
        d = DistortionMatrix([[0.5, 1.0], [1.0, 0.5]])
        for res in (
            maximize_over_region(BINARY_SPEC, d, 0.4, FAST),
            maximize_over_hull(BINARY_PAIR, d, 0.4, FAST),
        ):
            assert res.value == res.lower == res.upper == math.inf
            assert math.isnan(res.slope) and np.isnan(res.law).all()

    @pytest.mark.parametrize(
        "sources, d, target",
        [
            (D2_SOURCES, DistortionMatrix.hamming(4), D2_TARGET),
            (BINARY_PAIR, HAMMING, 0.05),
            (BINARY_PAIR, HAMMING, 0.15),
            (BINARY_PAIR, HAMMING, 0.25),
            (SourceList.independent([[0.45, 0.55], [0.55, 0.45]]), HAMMING, 0.1),
        ],
    )
    def test_a_hull_started_from_the_region_pair_keeps_its_value(self, sources, d, target):
        # the D2 and TestSandwich instances
        region = maximize_over_region(RegionSpec(sources, 0), d, target)
        cold = maximize_over_hull(sources, d, target)
        warm = maximize_over_hull(sources, d, target, start=(region.slope, region.law))
        assert abs(warm.value - cold.value) <= RATE_TOL
        assert warm.value <= region.value + RATE_TOL

    def test_a_pair_of_slope_zero_or_nan_searches_cold(self):
        d = DistortionMatrix.hamming(4)
        cold = maximize_over_hull(D2_SOURCES, d, D2_TARGET)
        uniform = np.full(4, 0.25)
        for start in ((0.0, uniform), (math.nan, uniform), (cold.slope, np.full(4, math.nan))):
            got = maximize_over_hull(D2_SOURCES, d, D2_TARGET, start=start)
            assert got.value == cold.value and got.slope == cold.slope
            np.testing.assert_array_equal(got.argmax.probs, cold.argmax.probs)
            np.testing.assert_array_equal(got.law, cold.law)
            assert (got.evaluations, got.starts) == (cold.evaluations, cold.starts)


class TestRelabelling:
    """Renaming the symbols renames the problem: R~ and R* are the same up
    to the rates' brackets. The hull searches mixture weights, which no
    renaming moves; only its start, the region's dual pair, moves with the
    labels. Under Hamming distortion the region search ends at p*, which
    moves with the labels; elsewhere its starts move with the labels, so R~
    is checked where Frank-Wolfe reaches one maximum from all of them."""

    @pytest.mark.parametrize(
        "rows, target",
        [(WC_K3_M2, t) for t in WC_K3_M2_TARGETS] + [(WC_K4_M3, t) for t in WC_K4_M3_TARGETS],
    )
    def test_r_star_of_the_benchmark_instances(self, rows, target):
        k = len(rows[0])
        d = 1.0 - np.eye(k)
        perms = list(itertools.permutations(range(k)))
        if k > 3:
            perms = perms[::5]
        base = worst_case_values(*relabelled(rows, d, list(range(k))), target)[1]
        for perm in perms:
            got = worst_case_values(*relabelled(rows, d, list(perm)), target)[1]
            assert abs(got - base) <= 2 * RATE_TOL

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 4))
    def test_r_star_of_random_instances(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=int(rng.integers(2, 4)))
        d = rng.integers(0, 4, size=(k, k)).astype(float)
        floor, ceiling = (rows @ d.min(axis=1)).max(), (rows @ d).min(axis=1).max()
        target = float(floor + rng.uniform(0.1, 0.9) * (ceiling - floor))
        base = worst_case_values(*relabelled(rows, d, list(range(k))), target)[1]
        got = worst_case_values(*relabelled(rows, d, rng.permutation(k)), target)[1]
        assert abs(got - base) <= 2 * RATE_TOL

    @pytest.mark.parametrize("target", WC_K3_M2_TARGETS)
    def test_r_tilde_of_wc_k3_m2(self, target):
        # (D8) only the distortion's rows move with the labels
        d = 1.0 - np.eye(3)
        values = [
            worst_case_values(*relabelled(WC_K3_M2, d, list(perm)), target)[0]
            for perm in itertools.permutations(range(3))
        ]
        assert max(values) - min(values) <= 2 * RATE_TOL

    def test_r_tilde_of_d9(self):
        rows, d = D9_SOURCES.as_array(), D9_DISTORTION.values
        rng = np.random.default_rng(0)
        values = []
        for perm in [np.arange(6)] + [rng.permutation(6) for _ in range(3)]:
            sources, renamed = relabelled(rows, d, perm)
            values.append(maximize_over_region(RegionSpec(sources, 0), renamed, D9_TARGET).value)
        assert max(values) - min(values) <= 2 * RATE_TOL

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_r_tilde_of_random_five_symbol_instances(self, seed):
        # under Hamming distortion, which ends at p*; under integer
        # distortions the starts, which move with the labels, can still end
        # at other local maxima
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(5), size=int(rng.integers(2, 4)))
        d = 1.0 - np.eye(5)
        target = float(rng.uniform(0.1, 0.9) * (rows @ d).min(axis=1).max())
        values = [
            maximize_over_region(RegionSpec(sources, 0), renamed, target).value
            for sources, renamed in (
                relabelled(rows, d, list(range(5))), relabelled(rows, d, rng.permutation(5))
            )
        ]
        assert abs(values[1] - values[0]) <= 2 * RATE_TOL


class TestSandwich:
    def test_region_between_hull_and_unconstrained(self):
        # slackening every constraint by 1 frees the whole simplex
        free = RegionSpec(BINARY_PAIR, 1.0)
        for target in (0.05, 0.15, 0.25):
            r_star = maximize_over_hull(BINARY_PAIR, HAMMING, target).value
            r_tilde = maximize_over_region(BINARY_SPEC, HAMMING, target).value
            r_free = maximize_over_region(free, HAMMING, target).value
            assert r_star <= r_tilde + 1e-6
            assert r_tilde <= r_free + 1e-6

    def test_collapse_when_hull_contains_the_unconstrained_argmax(self):
        srcs = SourceList.independent([[0.45, 0.55], [0.55, 0.45]])
        free = RegionSpec(srcs, 1.0)
        target = 0.1
        r_star = maximize_over_hull(srcs, HAMMING, target).value
        r_tilde = maximize_over_region(RegionSpec(srcs, 0), HAMMING, target).value
        r_free = maximize_over_region(free, HAMMING, target).value
        assert r_star == pytest.approx(1 - h2(target), abs=1e-3)
        assert r_tilde == pytest.approx(r_star, abs=1e-3)
        assert r_free == pytest.approx(r_star, abs=1e-3)


class TestCurve:
    def test_binary_pair_curve(self):
        curve = rd_tilde_curve(BINARY_SPEC, HAMMING, 6)
        values = [res.value for _, res in curve]
        targets = [t for t, _ in curve]
        assert targets[0] == pytest.approx(0.0)
        assert targets[-1] == pytest.approx(0.5)
        assert all(a >= b - 1e-6 for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
        for target, res in curve[1:-1]:
            assert res.value == pytest.approx(1 - h2(target), abs=2e-3)


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def hamming_with_erasures(k, scale, erasures):
    """``scale`` times k-ary Hamming distortion, with one extra output per
    entry of ``erasures`` at that constant distortion from every input."""
    d = scale * (1.0 - np.eye(k))
    return DistortionMatrix(np.hstack([d, np.tile(erasures, (k, 1))]).tolist())


def majorizes(a, b, tol=1e-9):
    """True iff law ``a`` majorizes law ``b``: every partial sum of ``a``'s
    largest entries is at least ``b``'s."""
    return bool((np.cumsum(np.sort(a)[::-1]) >= np.cumsum(np.sort(b)[::-1]) - tol).all())


class TestSymmetry:
    """``_symmetric`` passes a distortion that every relabelling of the inputs
    keeps, given a matching relabelling of the outputs, and nothing else."""

    @pytest.mark.parametrize(
        "d",
        [
            DistortionMatrix.hamming(2),
            DistortionMatrix.hamming(5),
            DistortionMatrix((2.5 * (1.0 - np.eye(4))).tolist()),
            DistortionMatrix((1.0 - np.eye(4))[[2, 0, 3, 1]][:, [1, 3, 0, 2]].tolist()),
            hamming_with_erasures(3, 1.0, [0.6]),
            hamming_with_erasures(4, 2.0, [0.6, 1.5]),
            DistortionMatrix([[0.5, 1.0], [1.0, 0.5]]),
        ],
        ids=["hamming-2", "hamming-5", "scaled", "permuted", "one-erasure", "two-erasures",
             "shifted-binary"],
    )
    def test_passes(self, d):
        assert _symmetric(d)

    @pytest.mark.parametrize(
        "d",
        [
            DistortionMatrix([[0, 2], [3, 0]]),
            DistortionMatrix([[abs(i - j) for j in range(3)] for i in range(3)]),
            DistortionMatrix(np.random.default_rng(0).integers(0, 4, size=(4, 4)).tolist()),
            MIRROR_DISTORTION,
            DistortionMatrix(((1.0 - np.eye(5)) * [[2], [1], [1], [1], [1]]).tolist()),
        ],
        ids=["wc_k2_m3", "ternary-distance", "random-integer", "mirror", "one-row-doubled"],
    )
    def test_fails(self, d):
        assert not _symmetric(d)

    @pytest.mark.parametrize("target", WC_K3_M2_TARGETS)
    def test_a_relabelled_hamming_instance_relabels_the_answer(self, target):
        # (D8) each labelling of wc_k3_m2 ends at its own p*, which is the
        # first labelling's, renamed
        perms = list(itertools.permutations(range(3)))  # the identity first
        results = [
            maximize_over_region(RegionSpec(sources, 0), renamed, target)
            for sources, renamed in (relabelled(WC_K3_M2, 1.0 - np.eye(3), list(p)) for p in perms)
        ]
        base = results[0]
        for perm, res in zip(perms, results):
            assert abs(res.value - base.value) <= 1e-12
            np.testing.assert_allclose(
                res.argmax.probs, base.argmax.probs[list(perm)], rtol=0, atol=1e-12
            )


class TestSymmetricExit:
    """Under a symmetric distortion the region search is one rate solve at
    p*, the region's min-norm point, whose bracket is the result's."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        m=st.integers(1, 3),
        joint=st.booleans(),
        delta=st.sampled_from([0.0, 0.05]),
        erasure=st.booleans(),
    )
    # p* = (1/2, 1/2): its rate line rounds 1e-16 above its rate unless clamped
    @example(seed=99998, k=2, m=1, joint=False, delta=0.05, erasure=False)
    def test_no_attainable_law_beats_p_star(self, seed, k, m, joint, delta, erasure):
        rng = np.random.default_rng(seed)
        if joint:
            k, m = min(k, 4), max(m, 2)
            pmf = rng.dirichlet(np.full(k**m, 0.5))
            sources = SourceList.joint(pmf.tolist(), k, m)
        else:
            sources = random_sources(rng, k, m)
        spec = RegionSpec(sources, delta)
        scale = float(rng.choice([1.0, 2.5]))
        d = hamming_with_erasures(k, scale, [0.6 * scale] if erasure else [])
        oracle, candidates, method = region_search(spec)
        p_star = _centre(k, oracle)
        for _ in range(20):
            assert majorizes(oracle(rng.normal(size=k))[1], p_star)
        ceiling = float((p_star @ d.values).min())
        target = float(rng.uniform(0.05, 0.95)) * ceiling
        exit_ = maximize_over_region(spec, d, target, FAST)
        np.testing.assert_array_equal(exit_.argmax.probs, p_star)
        assert exit_.value == exit_.upper
        assert 0 <= exit_.upper - exit_.lower <= FAST
        # the general search, lattice or vertices and Frank-Wolfe, certifies
        # no more than R_p*(D): its lower end is at most R_p*(D), and its
        # value at most R_p*(D) + tol
        general = _maximize(candidates, method, oracle, np.eye(k), d, target, FAST)
        assert general.lower <= exit_.upper + 1e-9
        assert general.value <= exit_.upper + FAST + 1e-9

    def test_one_rate_solve_per_target(self, monkeypatch):
        batches = []
        solve = optimizer.rates_at_distortion_batch

        def spy(ps, *args, **kwargs):
            batches.append(len(ps))
            return solve(ps, *args, **kwargs)

        def no_candidates(*args, **kwargs):
            raise AssertionError("the symmetric exit builds no starting points")

        monkeypatch.setattr(optimizer, "rates_at_distortion_batch", spy)
        monkeypatch.setattr(optimizer, "_candidates", no_candidates)
        spec = RegionSpec(D5_SOURCES, 0)
        d = DistortionMatrix.hamming(5)
        curve = rd_tilde_curve(spec, d, 4)
        assert batches == [1] * 4
        oracle = _greedy_oracle(D5_SOURCES, np.zeros(5))
        p_star = _centre(5, oracle)
        # the floor is 0 for every law, and the span ends at p*'s ceiling
        assert [t for t, _ in curve] == pytest.approx(
            np.linspace(0.0, (p_star @ d.values).min(), 4).tolist(), rel=1e-12, abs=0
        )
        for _, res in curve:
            assert (res.method, res.evaluations, res.starts) == ("multistart", 1, 0)
            np.testing.assert_array_equal(res.argmax.probs, p_star)

    def test_the_general_path_has_an_open_upper_end(self):
        res = maximize_over_region(RegionSpec(D3_SOURCES, 0), D3_DISTORTION, D3_TARGET)
        assert res.upper == math.inf
        assert res.value - RATE_TOL <= res.lower <= res.value

    @pytest.mark.parametrize(
        "spec, d, targets",
        [
            (None, "binary_pair.yaml", (0.1, 0.2)),
            (None, "ternary_demo.yaml", (0.1, 0.2)),
            (RegionSpec(SourceList.independent(WC_K3_M2), 0), DistortionMatrix.hamming(3),
             WC_K3_M2_TARGETS),
            (RegionSpec(SourceList.independent(WC_K4_M3), 0), DistortionMatrix.hamming(4),
             WC_K4_M3_TARGETS),
        ],
        ids=["binary_pair", "ternary_demo", "wc_k3_m2", "wc_k4_m3"],
    )
    def test_every_hamming_row_carries_a_narrow_bracket(self, spec, d, targets):
        # the shipped files at their pinned targets and along the five-point
        # curve, and the benchmark's Hamming instances at their targets
        results = []
        if spec is None:
            problem = load_problem(PROBLEMS / d)
            spec, d = RegionSpec(problem.sources, problem.delta), problem.distortion
            results = [res for _, res in rd_tilde_curve(spec, d, 5)]
        results += [maximize_over_region(spec, d, t) for t in targets]
        for res in results:
            assert (res.evaluations, res.starts) == (1, 0)
            assert res.value == res.upper
            assert 0 <= res.upper - res.lower <= 1e-6


def sorted_sums(laws):
    """Each row's partial sums of its entries in decreasing order, the last
    (the total) left out."""
    return np.cumsum(np.sort(laws, axis=1)[:, ::-1], axis=1)[:, :-1]


def least_majorized_reference(laws):
    """O(N^2): a row is kept iff its sorted partial sums are >= no other
    row's everywhere with > somewhere, comparing the computed floats."""
    sums = sorted_sums(laws)
    return np.array([
        not any((s >= t).all() and (s > t).any() for t in sums) for s in sums
    ])


def laws_with_copies(rng, k, n, copies, scale=None):
    """``n`` laws on ``k`` symbols, then ``copies`` rows that repeat a law or
    permute its entries, in a random order. With ``scale`` every entry is a
    multiple of 1 / ``scale``, a power of two, so every partial sum and sum
    of squares is exact; otherwise the laws are Dirichlet(1) draws."""
    if scale is None:
        laws = rng.dirichlet(np.ones(k), size=n)
    else:
        laws = rng.multinomial(scale, np.full(k, 1 / k), size=n) / scale
    picks = [laws[rng.integers(0, n)] for _ in range(copies)]
    picks = [rng.permutation(row) if rng.random() < 0.5 else row for row in picks]
    return rng.permutation(np.vstack([laws, *picks]))


class TestMajorizationFilter:
    """Under a symmetric distortion the hull search drops from its starting
    batch the lattice laws that strictly majorize a kept law
    (``_least_majorized``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        n=st.integers(1, 80),
        copies=st.integers(0, 30),
    )
    def test_without_the_pivot_cap_it_keeps_the_minimal_laws(self, seed, k, n, copies):
        # exact sums, so the sum of squares orders every strict majorization
        laws = laws_with_copies(np.random.default_rng(seed), k, n, copies, scale=16)
        with unittest.mock.patch.object(optimizer, "_PIVOTS", len(laws)):
            keep = _least_majorized(laws)
        np.testing.assert_array_equal(keep, least_majorized_reference(laws))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        n=st.integers(1, 300),
        copies=st.integers(0, 30),
        exact=st.booleans(),
    )
    def test_it_drops_only_laws_that_majorize_a_kept_law(self, seed, k, n, copies, exact):
        laws = laws_with_copies(
            np.random.default_rng(seed), k, n, copies, scale=16 if exact else None
        )
        keep = _least_majorized(laws)
        reference = least_majorized_reference(laws)
        assert keep[reference].all()
        sums = sorted_sums(laws)
        for s in sums[~keep]:
            assert ((s >= sums[keep]).all(axis=1) & (s > sums[keep]).any(axis=1)).any()

    def test_laws_with_one_sorted_form_all_stay(self):
        law = np.array([0.5, 0.3, 0.2])
        laws = np.array([law, law[[2, 0, 1]], law, [0.6, 0.3, 0.1], law[[1, 2, 0]]])
        np.testing.assert_array_equal(_least_majorized(laws), [1, 1, 1, 0, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        m=st.integers(2, 4),
        kind=st.sampled_from(["hamming", "scaled", "erasure"]),
    )
    def test_no_dropped_law_beats_the_kept_laws(self, seed, k, m, kind):
        rng = np.random.default_rng(seed)
        rows = _extreme_rows(rng.dirichlet(np.full(k, float(rng.choice([0.5, 1, 3]))), size=m))
        d = {
            "hamming": DistortionMatrix.hamming(k),
            "scaled": hamming_with_erasures(k, 2.5, []),
            "erasure": hamming_with_erasures(k, 1.0, [0.6]),
        }[kind]
        assert _symmetric(d)
        lams, _ = _candidates(len(rows), _simplex_vertex)
        laws = lams @ rows
        keep = _least_majorized(laws)
        ceiling = float((laws @ d.values).min(axis=1).max())
        target = float(rng.uniform(0.05, 0.95)) * ceiling
        # a best-only batch gives its largest rate as the whole batch would
        kept = rates_at_distortion_batch(laws[keep], d, target, tol=FAST, best_only=True)
        if not keep.all():
            dropped = rates_at_distortion_batch(laws[~keep], d, target, tol=FAST, best_only=True)
            assert dropped.max() <= kept.max() + FAST

    @pytest.mark.parametrize("target", WC_K4_M3_TARGETS)
    def test_wc_k4_m3_starts_from_its_13_least_majorized_laws(self, monkeypatch, target):
        batches = []
        solve = optimizer.rates_at_distortion_batch

        def spy(ps, *args, **kwargs):
            batches.append(len(ps))
            return solve(ps, *args, **kwargs)

        monkeypatch.setattr(optimizer, "rates_at_distortion_batch", spy)
        res = maximize_over_hull(SourceList.independent(WC_K4_M3), DistortionMatrix.hamming(4),
                                 target)
        # of the 1,327 points of the three-source lattice and p*
        assert batches[0] == 13
        assert res.evaluations == sum(batches)

    @pytest.mark.parametrize("target", WC_K2_M3_TARGETS)
    def test_an_integer_distortion_starts_from_the_whole_lattice(self, target):
        # wc_k2_m3 as ``optimize`` runs it: 202 lattice points and four
        # Frank-Wolfe steps of 10 candidates
        d = DistortionMatrix(WC_K2_M3_DISTORTION)
        assert not _symmetric(d)
        sources = SourceList.independent(WC_K2_M3)
        region = maximize_over_region(RegionSpec(sources, 0), d, target)
        hull = maximize_over_hull(sources, d, target, start=(region.slope, region.law))
        assert (hull.evaluations, hull.starts) == (242, 1)
