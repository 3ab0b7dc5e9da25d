import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchrd import (
    Distribution,
    GuardError,
    RegionSpec,
    SourceList,
    ValidationError,
    beta_of_subset,
    beta_table,
    entropy,
    enumerate_constraints,
    hull_member,
    is_member,
    mask_of,
    q_of_subset,
    realizable_subsets,
    subset_members,
)
from switchrd.region import _greedy_oracle, _min_norm_point

BINARY_PAIR = SourceList.independent(
    [[Fraction(2, 3), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 4)]]
)


def random_sources(rng, k, m):
    rows = rng.dirichlet(np.ones(k), size=m)
    return SourceList.independent(rows.tolist())


def random_pmf(rng, size):
    """Exact PMF with small integer weights, some of them zero."""
    weights = rng.integers(0, 4, size=size)
    weights[rng.integers(size)] += 1
    return [Fraction(int(w), int(weights.sum())) for w in weights]


#: Pairwise coprime denominators (primes); any two multiply past 2^63.
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 1_000_000_007)


def big_denominator_pmf(rng, size, den):
    """Exact PMF whose entries are ``size`` random parts of ``den``, over ``den``."""
    cuts = sorted(int(c) for c in rng.integers(0, den, size=size - 1))
    bounds = [0, *cuts, den]
    return [Fraction(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]


def independent_outcomes(rows):
    """(source tuple, probability) pairs of independent sources."""
    return [
        (symbols, math.prod(row[s] for row, s in zip(rows, symbols)))
        for symbols in itertools.product(range(len(rows[0])), repeat=len(rows))
    ]


def joint_outcomes(pmf, k, m):
    """(source tuple, probability) pairs of a joint PMF in row-major order:
    source 0 varies slowest, as in ``itertools.product``."""
    return list(zip(itertools.product(range(k), repeat=m), pmf))


def brute_force(k, outcomes):
    """(Q, beta, realizable) from (source tuple, probability) pairs, by
    enumerating every outcome."""
    beta = {mask: 0 for mask in range(1, 1 << k)}
    for symbols, prob in outcomes:
        beta[mask_of(symbols)] += prob
    q = {v: sum(b for u, b in beta.items() if u & ~v == 0) for v in beta}
    return q, beta, tuple(mask for mask, b in beta.items() if b > 0)


class TestSubsetHelpers:
    def test_members(self):
        assert subset_members(0b101) == (0, 2)
        assert mask_of([0, 2]) == 0b101

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError):
            q_of_subset(BINARY_PAIR, 0)
        with pytest.raises(ValidationError):
            beta_of_subset(BINARY_PAIR, 0)


class TestTrapProbabilities:
    def test_full_alphabet_is_certain(self):
        assert q_of_subset(BINARY_PAIR, 0b11) == 1

    def test_binary_pair_values_exact(self):
        assert q_of_subset(BINARY_PAIR, 0b01) == Fraction(1, 2)
        assert q_of_subset(BINARY_PAIR, 0b10) == Fraction(1, 12)

    def test_beta_values_exact(self):
        assert beta_of_subset(BINARY_PAIR, 0b01) == Fraction(1, 2)
        assert beta_of_subset(BINARY_PAIR, 0b10) == Fraction(1, 12)
        assert beta_of_subset(BINARY_PAIR, 0b11) == Fraction(5, 12)

    def test_single_source_betas(self):
        src = SourceList.independent([[0.2, 0.3, 0.5]])
        assert beta_of_subset(src, 0b001) == pytest.approx(0.2)
        assert beta_of_subset(src, 0b010) == pytest.approx(0.3)
        assert beta_of_subset(src, 0b100) == pytest.approx(0.5)
        assert beta_of_subset(src, 0b011) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), m=st.integers(1, 3))
    def test_beta_normalization_and_partial_sums(self, seed, k, m):
        srcs = random_sources(np.random.default_rng(seed), k, m)
        betas = beta_table(srcs)
        assert sum(betas.values()) == pytest.approx(1.0, abs=1e-9)
        for mask, value in betas.items():
            assert value >= -1e-12
            if mask.bit_count() > m:
                assert abs(value) <= 1e-12
        for mask in betas:
            partial = sum(v for u, v in betas.items() if u & ~mask == 0)
            assert partial == pytest.approx(float(q_of_subset(srcs, mask)), abs=1e-9)

    def test_joint_agrees_with_product_form(self):
        rows = [[0.6, 0.4], [0.3, 0.7]]
        joint = [
            rows[0][a] * rows[1][b] for a in range(2) for b in range(2)
        ]
        independent = SourceList.independent(rows)
        joint_srcs = SourceList.joint(joint, alphabet_size=2, num_sources=2)
        for mask in (0b01, 0b10, 0b11):
            assert q_of_subset(joint_srcs, mask) == pytest.approx(
                float(q_of_subset(independent, mask))
            )
            assert beta_of_subset(joint_srcs, mask) == pytest.approx(
                float(beta_of_subset(independent, mask))
            )

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(2024)
        srcs = SourceList.independent([[2 / 3, 1 / 3], [3 / 4, 1 / 4]])
        trials = 200_000
        draws = np.stack(
            [rng.choice(2, size=trials, p=row) for row in srcs.as_array()]
        )
        for mask in (0b01, 0b10):
            inside = np.all(np.isin(draws, subset_members(mask)), axis=0)
            freq = inside.mean()
            q = float(q_of_subset(srcs, mask))
            stderr = np.sqrt(q * (1 - q) / trials)
            assert abs(freq - q) <= 4 * stderr


class TestMembership:
    def test_uniform_is_attainable(self):
        assert is_member(Distribution([0.5, 0.5]), RegionSpec(BINARY_PAIR, 0)).satisfied

    def test_violation_reports_both_sides(self):
        report = is_member(Distribution([0.4, 0.6]), RegionSpec(BINARY_PAIR, 0))
        assert not report.satisfied
        assert report.violations == ((0b01, pytest.approx(0.4), pytest.approx(0.5)),)

    def test_boundary_point_is_a_member(self):
        assert is_member(
            Distribution([11 / 12, 1 / 12]), RegionSpec(BINARY_PAIR, 0)
        ).satisfied

    def test_single_source_region_is_that_source(self):
        src = SourceList.independent([[0.2, 0.3, 0.5]])
        spec = RegionSpec(src, 0)
        assert is_member(Distribution([0.2, 0.3, 0.5]), spec).satisfied
        assert not is_member(Distribution([0.25, 0.3, 0.45]), spec).satisfied

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), m=st.integers(1, 3))
    def test_hull_inside_region(self, seed, k, m):
        rng = np.random.default_rng(seed)
        srcs = random_sources(rng, k, m)
        lam = rng.dirichlet(np.ones(m))
        p = Distribution(lam @ srcs.as_array())
        assert hull_member(p, srcs)
        assert is_member(p, RegionSpec(srcs, 0)).satisfied

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        deltas=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
    )
    def test_relaxation_is_monotone(self, seed, deltas):
        rng = np.random.default_rng(seed)
        srcs = random_sources(rng, 3, 2)
        p = Distribution(rng.dirichlet(np.ones(3)))
        d1, d2 = sorted(deltas)
        if is_member(p, RegionSpec(srcs, d1)).satisfied:
            assert is_member(p, RegionSpec(srcs, d2)).satisfied

    @pytest.mark.parametrize("delta", [-0.1, math.nan, -math.inf])
    def test_a_negative_or_nan_delta_is_rejected(self, delta):
        # NaN fails every comparison, so `delta < 0` alone lets it through,
        # and then every law passes the region's constraints
        src = SourceList.independent([[0.5, 0.5], [0.9, 0.1]])
        with pytest.raises(ValidationError, match="delta must be nonnegative"):
            RegionSpec(src, delta)


class TestConstraintListing:
    def test_counts(self):
        assert len(enumerate_constraints(RegionSpec(BINARY_PAIR, 0))) == 3
        ternary = SourceList.independent([[0.5, 0.3, 0.2]])
        assert len(enumerate_constraints(RegionSpec(ternary, 0))) == 7

    def test_binary_pair_rhs_values(self):
        rhs = {r for _, r in enumerate_constraints(RegionSpec(BINARY_PAIR, 0))}
        assert rhs == {Fraction(1, 2), Fraction(1, 12), Fraction(1)}

    def test_attainable_interval_exact(self):
        constraints = dict(enumerate_constraints(RegionSpec(BINARY_PAIR, 0)))
        low = constraints[0b10]
        high = 1 - constraints[0b01]
        assert (low, high) == (Fraction(1, 12), Fraction(1, 2))

    def test_alphabet_guard(self):
        wide = SourceList.independent([[1.0 / 21] * 21])
        with pytest.raises(GuardError):
            enumerate_constraints(RegionSpec(wide, 0))

    def test_guard_refuses_twenty_symbols(self):
        wide = SourceList.independent([[Fraction(1, 20)] * 20])
        for build in (beta_table, realizable_subsets, lambda s: q_of_subset(s, 1)):
            with pytest.raises(GuardError):
                build(wide)
        with pytest.raises(GuardError):
            is_member(Distribution([0.05] * 20), RegionSpec(wide, 0))


class TestHull:
    def test_vertices_belong(self):
        for row in BINARY_PAIR.as_array():
            assert hull_member(Distribution(row), BINARY_PAIR)

    def test_interior_point(self):
        assert hull_member(Distribution([0.7, 0.3]), BINARY_PAIR)

    def test_uniform_is_outside(self):
        assert not hull_member(Distribution([0.5, 0.5]), BINARY_PAIR)

    def test_joint_mode_rejected(self):
        joint = SourceList.joint([0.25] * 4, alphabet_size=2, num_sources=2)
        with pytest.raises(ValidationError):
            hull_member(Distribution([0.5, 0.5]), joint)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), m=st.integers(1, 12))
    def test_mixtures_belong_and_far_point_masses_do_not(self, seed, k, m):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=m)
        for j in range(1, m):
            draw = rng.random()
            if draw < 0.25:
                rows[j] = rows[rng.integers(j)]
            elif draw < 0.4:
                rows[j] = np.eye(k)[rng.integers(k)]
        srcs = SourceList.independent(rows.tolist())
        # random zero weights put the mixture on a vertex or a face
        w = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.6)
        w[rng.integers(m)] += 0.1
        assert hull_member(Distribution(w / w.sum() @ rows), srcs)
        for i in np.flatnonzero(rows.max(axis=0) <= 1 - 1e-3):
            assert not hull_member(Distribution(np.eye(k)[i]), srcs)

    def test_affinely_dependent_rows(self):
        # six rows over three symbols: more than k + 1, so affinely dependent
        rows = [[0.2, 0.8, 0], [0.2, 0, 0.8], [0.6, 0.2, 0.2], [0.4, 0.3, 0.3],
                [0.6, 0.2, 0.2], [0.3, 0.35, 0.35]]
        srcs = SourceList.independent(rows)
        assert hull_member(Distribution(np.mean(rows, axis=0)), srcs)
        assert hull_member(Distribution([0.2, 0.4, 0.4]), srcs)
        assert not hull_member(Distribution([0.1, 0.45, 0.45]), srcs)
        assert not hull_member(Distribution([0.7, 0.15, 0.15]), srcs)
        # six rows over four symbols; the nearest point to this p lies on the
        # edge between rows 0 and 2, 2.8e-4 away, and the search to it drops
        # rows from the corral twice in one major cycle
        rows = [[0.19, 0.38, 0.14, 0.29], [0.28, 0.66, 0, 0.06], [0, 0.38, 0.3, 0.32],
                [0.69, 0.14, 0.15, 0.02], [0.34, 0.44, 0.11, 0.11], [0.47, 0.46, 0.03, 0.04]]
        srcs = SourceList.independent(rows)
        p = Distribution([0.09, 0.38, 0.224, 0.306])
        assert not hull_member(p, srcs)
        assert not hull_member(p, srcs, tol=2.7e-4)
        assert hull_member(p, srcs, tol=2.8e-4)
        assert hull_member(Distribution([0.095, 0.38, 0.22, 0.305]), srcs)

    def test_tol_bounds_the_distance(self):
        # 1e-6 past the (3/4, 1/4) end of the segment: distance sqrt(2) 1e-6
        p = Distribution([0.75 + 1e-6, 0.25 - 1e-6])
        assert hull_member(p, BINARY_PAIR, tol=1e-5)
        assert not hull_member(p, BINARY_PAIR)

    def test_needs_no_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        assert hull_member(Distribution([0.7, 0.3]), BINARY_PAIR)
        assert not hull_member(Distribution([0.5, 0.5]), BINARY_PAIR)


class TestMinNormPoint:
    def test_no_offset_gives_the_most_uniform_attainable_law(self):
        # the min-norm point of the region is its lexicographically optimal
        # base (Fujishige 1980), the attainable law of largest entropy: under
        # Hamming distortion R~(0) = H(p*)
        srcs = SourceList.independent(
            [[.000752, .018923, .336560, .230976, .412789],
             [.006478, .005836, .498397, .431469, .057820],
             [.035852, .001112, .395276, .212961, .354799]]
        )
        oracle = _greedy_oracle(srcs, np.zeros(5))
        p_star = _min_norm_point(oracle, oracle(np.zeros(5)))[0]
        np.testing.assert_allclose(
            p_star, [.041804, .025733, .310821, .310821, .310821], atol=1e-6
        )
        p_star = Distribution(p_star)
        assert is_member(p_star, RegionSpec(srcs, 0)).satisfied
        assert entropy(p_star) == pytest.approx(1.899336, abs=5e-7)


class TestGreedyOracle:
    """The oracle over the region relaxed by delta, the core of
    h(V) = max(Q(V) - delta, 0) with h = 1 on the whole alphabet."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 6),
        m=st.integers(1, 3),
        delta=st.sampled_from([0.0, 0.02, 0.1, 1.0]),
    )
    def test_vertices_are_members_tight_on_their_chains(self, seed, k, m, delta):
        rng = np.random.default_rng(seed)
        srcs = random_sources(rng, k, m)
        spec = RegionSpec(srcs, delta)
        oracle = _greedy_oracle(srcs, np.zeros(k), delta)
        for c in rng.normal(size=(5, k)):
            order, y = oracle(c)
            assert abs(y.sum() - 1.0) <= 1e-12
            assert is_member(Distribution(y), spec).satisfied
            # Edmonds: along its order, each chain set carries exactly its h
            for j in range(k):
                rest = mask_of(order[j:])
                h = 1.0 if j == 0 else max(float(q_of_subset(srcs, rest)) - delta, 0.0)
                assert abs(y[list(order[j:])].sum() - h) <= 1e-12

    def test_free_simplex_has_the_uniform_law_as_its_min_norm_point(self):
        rng = np.random.default_rng(4)
        for k in (2, 5, 7):
            oracle = _greedy_oracle(random_sources(rng, k, 2), np.zeros(k), 1.0)
            p = _min_norm_point(oracle, oracle(np.zeros(k)))[0]
            np.testing.assert_allclose(p, np.full(k, 1.0 / k), rtol=0, atol=1e-12)


class TestAgainstEnumeration:
    """The transform tables equal exact enumeration of every joint outcome."""

    def assert_matches(self, srcs, outcomes):
        k = srcs.alphabet_size
        q, beta, realizable = brute_force(k, outcomes)
        assert {mask: q_of_subset(srcs, mask) for mask in q} == q
        assert {mask: beta_of_subset(srcs, mask) for mask in beta} == beta
        assert beta_table(srcs) == beta
        assert list(beta_table(srcs)) == list(range(1, 1 << k))
        assert realizable_subsets(srcs) == realizable

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), m=st.integers(1, 3))
    def test_independent(self, seed, k, m):
        rng = np.random.default_rng(seed)
        rows = [random_pmf(rng, k) for _ in range(m)]
        self.assert_matches(SourceList.independent(rows), independent_outcomes(rows))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3), m=st.integers(1, 2))
    def test_joint(self, seed, k, m):
        pmf = random_pmf(np.random.default_rng(seed), k**m)
        self.assert_matches(SourceList.joint(pmf, k, m), joint_outcomes(pmf, k, m))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), m=st.integers(2, 3))
    def test_independent_denominators_beyond_int64(self, seed, k, m):
        rng = np.random.default_rng(seed)
        rows = [big_denominator_pmf(rng, k, den) for den in BIG_PRIMES[:m]]
        assert math.prod(BIG_PRIMES[:m]) > 2**63
        self.assert_matches(SourceList.independent(rows), independent_outcomes(rows))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3))
    def test_joint_denominators_beyond_int64(self, seed, k):
        # a product-form joint PMF over one denominator past 2^63, perturbed
        # so that its entries carry different denominators
        rng = np.random.default_rng(seed)
        rows = [big_denominator_pmf(rng, k, den) for den in BIG_PRIMES[:2]]
        pmf = [prob for _, prob in independent_outcomes(rows)]
        shift = Fraction(int(rng.integers(1, 1000)), BIG_PRIMES[2]) * min(pmf[0], pmf[-1])
        pmf[0] += shift
        pmf[-1] -= shift
        assert math.lcm(*(x.denominator for x in pmf)) > 2**63
        self.assert_matches(SourceList.joint(pmf, k, 2), joint_outcomes(pmf, k, 2))

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[1, 0, 0], [0, 0, 1]], id="ints"),
            pytest.param([[0, 1, 0], [Fraction(1, 3), 0, Fraction(2, 3)]], id="ints-and-fractions"),
            pytest.param([[0, Fraction(1, 2), Fraction(1, 2)], [1, 0, 0], [0, 1, 0]], id="mixed-rows"),
        ],
    )
    def test_independent_int_entries(self, rows):
        self.assert_matches(SourceList.independent(rows), independent_outcomes(rows))

    @pytest.mark.parametrize(
        "pmf",
        [
            pytest.param([0, 1, 0, 0], id="ints"),
            pytest.param([0, Fraction(1, 2), Fraction(1, 2), 0], id="ints-and-fractions"),
        ],
    )
    def test_joint_int_entries(self, pmf):
        self.assert_matches(SourceList.joint(pmf, 2, 2), joint_outcomes(pmf, 2, 2))


#: Tables with a float entry, with the Q and beta values (masks 1, 2, ...)
#: they returned before exact tables were computed in integers. Such tables
#: are transformed entry by entry as given, so these values and their types
#: (float cancellation residues, an untouched int 0, a Fraction where only
#: Fractions meet) must not change.
FLOAT_TABLES = [
    pytest.param(
        SourceList.independent([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]),
        (0.12, 0.03, 0.35, 0.15, 0.6299999999999999, 0.32000000000000006, 1.0),
        (0.12, 0.03, 0.19999999999999998, 0.15, 0.3599999999999999,
         0.14000000000000004, 8.326672684688674e-17),
        id="float-independent",
    ),
    pytest.param(
        SourceList.joint([0.1, 0.05, 0.15, 0.2, 0.1, 0.05, 0.1, 0.15, 0.1], 3, 2),
        (0.1, 0.1, 0.44999999999999996, 0.1, 0.44999999999999996, 0.4, 1.0),
        (0.1, 0.1, 0.25, 0.1, 0.25, 0.2, 0),
        id="float-joint",
    ),
    pytest.param(
        SourceList.independent(
            [[Fraction(1, 3), 0.25, Fraction(5, 12)], [0.5, Fraction(1, 4), 0.25]]
        ),
        (0.16666666666666666, 0.0625, 0.43749999999999994, 0.10416666666666667,
         0.5625, 0.33333333333333337, 1.0),
        (0.16666666666666666, 0.0625, 0.20833333333333326, 0.10416666666666667,
         0.2916666666666667, 0.16666666666666669, -5.551115123125783e-17),
        id="mixed-independent",
    ),
    pytest.param(
        SourceList.joint([Fraction(1, 4), 0.25, Fraction(1, 8), 0.375], 2, 2),
        (Fraction(1, 4), 0.375, 1.0),
        (Fraction(1, 4), 0.375, 0.375),
        id="mixed-joint",
    ),
]


def typed(values):
    return [(type(v), v) for v in values]


class TestFloatTables:
    @pytest.mark.parametrize("srcs, q, beta", FLOAT_TABLES)
    def test_values_and_types_pinned(self, srcs, q, beta):
        masks = range(1, len(q) + 1)
        assert typed(q_of_subset(srcs, mask) for mask in masks) == typed(q)
        assert typed(beta_of_subset(srcs, mask) for mask in masks) == typed(beta)
        assert list(beta_table(srcs)) == list(masks)
        assert typed(beta_table(srcs).values()) == typed(beta)

    @pytest.mark.parametrize("delta", [0, Fraction(1, 20), 0.05])
    @pytest.mark.parametrize("srcs, q, beta", FLOAT_TABLES)
    def test_constraints_pinned(self, srcs, q, beta, delta):
        constraints = enumerate_constraints(RegionSpec(srcs, delta))
        assert [mask for mask, _ in constraints] == list(range(1, len(q) + 1))
        assert typed(rhs for _, rhs in constraints) == typed(x - delta for x in q)

    def test_float_delta_on_exact_table(self):
        constraints = enumerate_constraints(RegionSpec(BINARY_PAIR, 0.05))
        q = [Fraction(1, 2), Fraction(1, 12), Fraction(1)]
        assert typed(rhs for _, rhs in constraints) == typed(float(x) - 0.05 for x in q)


class TestRealizableSubsets:
    def test_binary_pair(self):
        assert realizable_subsets(BINARY_PAIR) == (0b01, 0b10, 0b11)

    def test_deterministic_source_limits_offers(self):
        srcs = SourceList.independent([[1.0, 0.0], [0.5, 0.5]])
        assert realizable_subsets(srcs) == (0b01, 0b11)

    def test_joint_support(self):
        joint = SourceList.joint([0.5, 0.5, 0.0, 0.0], alphabet_size=2, num_sources=2)
        # outcomes (0,0) and (0,1) only: offered sets {0} and {0,1}
        assert realizable_subsets(joint) == (0b01, 0b11)

    def test_counts_beyond_int64(self):
        # 2^64 - 2 source tuples offer {0,1}: the count must not wrap around
        srcs = SourceList.independent([[Fraction(1, 2)] * 2] * 64)
        assert realizable_subsets(srcs) == (1, 2, 3)
