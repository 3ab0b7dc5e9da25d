import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchrd import strategy
from switchrd import (
    ConvergenceError,
    Distribution,
    InfeasibleError,
    RegionSpec,
    SourceList,
    SwitchRule,
    ValidationError,
    apply_rule,
    greedy_max_rule,
    induced_distribution,
    is_member,
    q_of_subset,
    realizable_subsets,
    sample_sources,
    subset_members,
    synthesize_rule,
)

BINARY_PAIR = SourceList.independent(
    [[Fraction(2, 3), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 4)]]
)


def binary_pair_rule(f1):
    """Rule for the two-binary-source instance, parameterized by the chance of
    emitting a 1 when both symbols are on offer."""
    return SwitchRule(
        {
            0b01: Distribution([1.0, 0.0]),
            0b10: Distribution([0.0, 1.0]),
            0b11: Distribution([1.0 - f1, f1]),
        }
    )


def random_sources(rng, k, m):
    return SourceList.independent(rng.dirichlet(np.ones(k), size=m).tolist())


class TestSwitchRule:
    def test_support_condition_enforced(self):
        with pytest.raises(ValidationError):
            SwitchRule({0b01: Distribution([0.5, 0.5])})

    def test_serialization_roundtrip(self):
        rule = binary_pair_rule(0.52)
        parsed = SwitchRule.parse(rule.serialize())
        assert set(parsed.rules) == set(rule.rules)
        for mask in rule.rules:
            np.testing.assert_allclose(
                parsed.rules[mask].probs, rule.rules[mask].probs, atol=1e-12
            )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            SwitchRule.parse("not a rule line\n")
        # a mask listed twice: neither line may silently win
        with pytest.raises(ValidationError, match="mask 3 twice"):
            SwitchRule.parse("1: 1 0\n2: 0 1\n3: 1 0\n3: 0 1\n")

    def test_negative_entry_rejected(self):
        # a distribution within the simplex tolerance, but not a probability
        with pytest.raises(ValidationError, match="negative"):
            SwitchRule.parse("1: 1 0\n2: 0 1\n3: -1e-10 1.0000000001\n")


class TestInducedDistribution:
    def test_always_pick_one(self):
        got = induced_distribution(binary_pair_rule(1.0), BINARY_PAIR)
        np.testing.assert_allclose(got.probs, [0.5, 0.5], atol=1e-12)

    def test_never_pick_one(self):
        got = induced_distribution(binary_pair_rule(0.0), BINARY_PAIR)
        np.testing.assert_allclose(got.probs, [11 / 12, 1 / 12], atol=1e-12)

    def test_interpolates(self):
        got = induced_distribution(binary_pair_rule(0.52), BINARY_PAIR)
        assert got.probs[1] == pytest.approx(1 / 12 + 5 / 12 * 0.52, abs=1e-12)

    def test_missing_entry_is_an_error(self):
        rule = SwitchRule({0b01: Distribution([1.0, 0.0])})
        with pytest.raises(ValidationError):
            induced_distribution(rule, BINARY_PAIR)


class TestGreedyMaxRule:
    def test_puts_all_mass_on_the_largest_symbol(self):
        rng = np.random.default_rng(5)
        srcs = random_sources(rng, 5, 3)
        rule = greedy_max_rule(srcs)
        for mask, f in rule.rules.items():
            assert f.probs[max(subset_members(mask))] == 1.0

    def test_singleton_is_forced(self):
        srcs = SourceList.independent([[1.0, 0.0]])
        rule = greedy_max_rule(srcs)
        assert list(rule.rules) == [0b01]
        assert rule.rules[0b01].probs[0] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), m=st.integers(1, 3))
    def test_prefix_mass_telescopes(self, seed, k, m):
        srcs = random_sources(np.random.default_rng(seed), k, m)
        induced = induced_distribution(greedy_max_rule(srcs), srcs)
        for top in range(k):
            prefix_mask = (1 << (top + 1)) - 1
            assert induced.probs[: top + 1].sum() == pytest.approx(
                float(q_of_subset(srcs, prefix_mask)), abs=1e-9
            )


class TestSynthesizeRule:
    def test_uniform_target_picks_one_whenever_possible(self):
        rule = synthesize_rule(Distribution([0.5, 0.5]), BINARY_PAIR)
        assert rule.rules[0b11].probs[1] == pytest.approx(1.0, abs=1e-9)

    def test_roundtrip_through_greedy_target(self):
        rng = np.random.default_rng(11)
        srcs = random_sources(rng, 4, 2)
        target = induced_distribution(greedy_max_rule(srcs), srcs)
        rule = synthesize_rule(target, srcs)
        got = induced_distribution(rule, srcs)
        assert np.abs(got.probs - target.probs).sum() <= 1e-8

    def test_infeasible_target_names_a_violated_subset(self):
        with pytest.raises(InfeasibleError) as err:
            synthesize_rule(Distribution([0.4, 0.6]), BINARY_PAIR)
        assert err.value.certificate == 0b01
        assert err.value.lhs == pytest.approx(0.4)
        assert err.value.rhs == pytest.approx(0.5)

    def test_target_the_subset_test_refuses_is_infeasible(self):
        # short of Q({0}) = 1/2 by 1e-10: within an L1 1e-8 of the region,
        # but outside it by is_member's comparison, so outside it here too
        target = Distribution([0.4999999999, 0.5000000001])
        report = is_member(target, RegionSpec(BINARY_PAIR, 0))
        with pytest.raises(InfeasibleError) as err:
            synthesize_rule(target, BINARY_PAIR)
        assert report.violations == ((0b01, 0.4999999999, 0.5),)
        assert (err.value.certificate, err.value.lhs, err.value.rhs) == report.violations[0]

    def test_certificate_is_the_first_most_violated_subset(self):
        # one source: the region is its law, and {0} and {0,2} are both
        # short by exactly 1/4, the most of any subset
        srcs = SourceList.independent([[0.5, 0.25, 0.25]])
        with pytest.raises(InfeasibleError) as err:
            synthesize_rule(Distribution([0.25, 0.5, 0.25]), srcs)
        assert (err.value.certificate, err.value.lhs, err.value.rhs) == (0b001, 0.25, 0.5)

    def test_decomposition_that_misses_an_attainable_target_is_a_solver_failure(
        self, monkeypatch
    ):
        # a nearest-point search that stops at one vertex, as rounding could
        monkeypatch.setattr(
            strategy, "_min_norm_point", lambda oracle, start: (None, [start[0]], [1.0])
        )
        with pytest.raises(ConvergenceError, match="misses the attainable target"):
            synthesize_rule(Distribution([0.7, 0.3]), BINARY_PAIR)

    def test_has_no_tolerance_option(self):
        # the region's subset test is the one verdict on attainability
        assert "tol" not in inspect.signature(synthesize_rule).parameters

    def test_joint_mode_synthesis(self):
        joint = SourceList.joint(
            [Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)],
            alphabet_size=2,
            num_sources=2,
        )
        target = Distribution([0.6, 0.4])
        rule = synthesize_rule(target, joint)
        got = induced_distribution(rule, joint)
        assert np.abs(got.probs - target.probs).sum() <= 1e-8

    def test_attainable_target_with_a_negligible_offered_set(self):
        # {0,1} is on offer with chance 2e-11 and {1} with chance 1e-22
        row = [Fraction(99999999999, 100000000000), Fraction(1, 100000000000)]
        srcs = SourceList.independent([row, row])
        target = Distribution([float(x) for x in row])
        rule = synthesize_rule(target, srcs)
        got = induced_distribution(rule, srcs)
        assert np.abs(got.probs - target.probs).sum() <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 5),
        m=st.integers(1, 3),
        joint=st.booleans(),
        concentration=st.sampled_from([1.0, 0.5]),
    )
    def test_feasibility_matches_membership(self, seed, k, m, joint, concentration):
        rng = np.random.default_rng(seed)
        if joint:
            pmf = rng.dirichlet(np.full(k**m, concentration))
            srcs = SourceList.joint(pmf.tolist(), alphabet_size=k, num_sources=m)
        else:
            rows = rng.dirichlet(np.full(k, concentration), size=m)
            srcs = SourceList.independent(rows.tolist())
        target = Distribution(rng.dirichlet(np.ones(k)))
        report = is_member(target, RegionSpec(srcs, 0))
        try:
            rule = synthesize_rule(target, srcs)
        except InfeasibleError as err:
            assert not report.satisfied
            cert = err.certificate
            lhs = target.probs[list(subset_members(cert))].sum()
            shortfall = float(q_of_subset(srcs, cert)) - lhs
            assert shortfall > 1e-10
            # a most violated subset
            worst = max(rhs - mass for _, mass, rhs in report.violations)
            assert shortfall == pytest.approx(worst, abs=1e-12)
        else:
            assert report.satisfied
            got = induced_distribution(rule, srcs)
            assert np.abs(got.probs - target.probs).sum() <= 1e-8


class TestApplyRule:
    def test_identical_sources_force_the_output(self):
        rule = binary_pair_rule(0.3)
        block = np.array([[0, 1, 1, 0], [0, 1, 1, 0]])
        out = apply_rule(rule, block, seed=9)
        np.testing.assert_array_equal(out, [0, 1, 1, 0])

    def test_same_seed_same_output(self):
        rule = binary_pair_rule(0.7)
        block = sample_sources(BINARY_PAIR, 200, 3)
        np.testing.assert_array_equal(
            apply_rule(rule, block, seed=42), apply_rule(rule, block, seed=42)
        )

    def test_output_always_available(self):
        rng = np.random.default_rng(13)
        srcs = random_sources(rng, 4, 3)
        rule = synthesize_rule(
            induced_distribution(greedy_max_rule(srcs), srcs), srcs
        )
        block = sample_sources(srcs, 500, 21)
        out = apply_rule(rule, block, seed=22)
        for k in range(block.shape[1]):
            assert out[k] in block[:, k]

    def test_long_run_frequency(self):
        rule = binary_pair_rule(1.0)
        n = 100_000
        block = sample_sources(BINARY_PAIR, n, 7)
        out = apply_rule(rule, block, seed=8)
        freq = out.mean()
        assert abs(freq - 0.5) <= 4 * np.sqrt(0.25 / n)

    def test_symbols_that_are_not_integers_are_rejected(self):
        # a cast to the simulator's uint8 symbols would truncate 0.5 to 0
        with pytest.raises(ValidationError, match="must be integers"):
            apply_rule(binary_pair_rule(0.3), np.array([[0.5], [1.0]]), seed=0)

    def test_empty_block_is_rejected(self):
        # as in sample_sources, a block has at least one time step
        with pytest.raises(ValidationError, match="at least one source and one time step"):
            apply_rule(binary_pair_rule(0.3), np.zeros((2, 0), dtype=np.int64), seed=0)

    def test_unknown_subset_is_an_error(self):
        rule = SwitchRule({0b01: Distribution([1.0, 0.0])})
        with pytest.raises(ValidationError):
            apply_rule(rule, np.array([[0], [1]]), seed=0)
