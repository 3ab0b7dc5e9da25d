import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchrd import (
    ConvergenceError,
    Distribution,
    DistortionMatrix,
    InfeasibleError,
    ValidationError,
    ba_fixed_slope,
    d_max,
    d_min,
    expected_distortion,
    mutual_information,
    rate_at_distortion,
    rates_at_distortion_batch,
    rd_curve,
)
from switchrd import rate_distortion
from switchrd.rate_distortion import RATE_TOL, RdCurve
from switchrd.probcore import SIMPLEX_ATOL, compositions

HAMMING = DistortionMatrix.hamming(2)
UNIFORM = Distribution([0.5, 0.5])
#: A source all but 1.5e-7 on symbol 0: its printed curve rises by more than
#: 1e-7 bits between two points whose rates are certified only to 1e-6.
CURVE_RISE_DISTORTION = [
    [2.1405501046863082, 1.4843729558251335, 0.7384582836813961],
    [0.8454219065678339, 0.5178637500957962, 0.9883635282965217],
    [0.018563224158922864, 1.36129847768578, 2.347989578740571],
]


def h2(x):
    if x in (0, 1):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def binary_rd(q, target):
    """Closed-form oracle for a Bernoulli(q) source under Hamming distortion."""
    q = min(q, 1 - q)
    if target >= q:
        return 0.0
    return h2(q) - h2(target)


def simplex_vectors(k):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
        .map(lambda xs: [x / sum(xs) for x in xs])
    )


def distortion_matrices(nx, ny):
    return st.lists(
        st.lists(st.floats(0.0, 4.0), min_size=ny, max_size=ny),
        min_size=nx,
        max_size=nx,
    ).map(DistortionMatrix)


class TestFixedSlope:
    def test_steep_slope_pins_distortion_to_floor(self):
        pt = ba_fixed_slope(UNIFORM, HAMMING, -50.0)
        assert pt.distortion == pytest.approx(0.0, abs=1e-3)
        assert pt.rate == pytest.approx(1.0, abs=1e-3)

    def test_zero_slope_is_the_zero_rate_endpoint(self):
        pt = ba_fixed_slope(Distribution([2 / 3, 1 / 3]), HAMMING, 0.0)
        assert pt.rate == 0.0
        assert pt.distortion <= d_max(Distribution([2 / 3, 1 / 3]), HAMMING) + 1e-12

    def test_positive_slope_rejected(self):
        with pytest.raises(ValidationError):
            ba_fixed_slope(UNIFORM, HAMMING, 1.0)

    @pytest.mark.parametrize("slope", [math.nan, -math.inf, math.inf])
    def test_slope_that_is_not_finite_is_rejected_by_name(self, slope):
        with pytest.raises(ValidationError, match=f"finite and nonpositive, got {slope}$"):
            ba_fixed_slope(Distribution([0.3, 0.7]), HAMMING, slope)

    def test_non_convergence_reports_last_iterate(self, monkeypatch):
        monkeypatch.setattr(rate_distortion, "_MAX_ITERS", 2)
        with pytest.raises(ConvergenceError, match="within 2 iterations") as err:
            ba_fixed_slope(Distribution([0.3, 0.7]), HAMMING, -3.0, tol=1e-15)
        assert err.value.last_point is not None
        assert err.value.last_point.rate >= 0.0

    def test_the_budget_cuts_the_last_burst_short(self, monkeypatch):
        # no gap falls below tol 0, so every row runs until _MAX_ITERS
        # updates run out, 150 here: inside the burst from 143 to 159, which
        # the budget cuts short
        rng = np.random.default_rng(1)
        ps = rng.dirichlet(np.ones(4), size=20)
        d_arr = rng.uniform(0.0, 4.0, size=(4, 4))
        slopes = -rng.uniform(0.2, 6.0, size=20)
        q0 = rng.dirichlet(np.ones(4), size=20)

        def solve(budget):
            monkeypatch.setattr(rate_distortion, "_MAX_ITERS", budget)
            return rate_distortion._solve_fixed_slopes(ps, d_arr, slopes, 0.0, q0)

        cut = solve(150)
        assert len(cut) == 5
        for budget in (143, 159):
            assert not np.array_equal(solve(budget)[3], cut[3])

    def test_dominated_column_gets_no_mass(self):
        # the third column costs at least as much as the second on every input
        d = DistortionMatrix([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
        p = Distribution([0.2, 0.5, 0.3])
        pt = ba_fixed_slope(p, d, -16.0)
        assert np.all(pt.channel.rows[:, 2] == 0.0)
        assert expected_distortion(p, pt.channel, d) == pytest.approx(
            pt.distortion, abs=1e-12
        )
        assert mutual_information(p, pt.channel) == pytest.approx(pt.rate, abs=1e-12)
        kept = DistortionMatrix([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        reduced = ba_fixed_slope(p, kept, -16.0)
        assert pt.rate == pytest.approx(reduced.rate, abs=1e-12)
        assert pt.distortion == pytest.approx(reduced.distortion, abs=1e-12)


class TestRateAtDistortion:
    def test_uniform_binary_closed_form(self):
        pt = rate_at_distortion(UNIFORM, HAMMING, 0.1, tol=1e-7)
        assert pt.rate == pytest.approx(1 - h2(0.1), abs=1e-4)

    def test_skewed_binary_closed_form(self):
        pt = rate_at_distortion(Distribution([2 / 3, 1 / 3]), HAMMING, 0.1, tol=1e-7)
        assert pt.rate == pytest.approx(h2(1 / 3) - h2(0.1), abs=1e-4)

    def test_rate_zero_at_ceiling(self):
        pt = rate_at_distortion(Distribution([2 / 3, 1 / 3]), HAMMING, 1 / 3)
        assert pt.rate == 0.0

    @pytest.mark.parametrize("p0, target", [(0.3, 0.1), (0.1, 0.05), (0.45, 0.2), (0.5, 0.01)])
    def test_slope_is_that_of_the_certifying_line(self, p0, target):
        # R_p(D) = h(p0) - h(D) has slope log2(D / (1 - D)); at (.3, .7) and
        # D = .1 the middle of the final slope bracket is -33.6 instead
        pt = rate_at_distortion(Distribution([p0, 1 - p0]), HAMMING, target)
        assert pt.slope == pytest.approx(math.log2(target / (1 - target)), abs=1e-6)
        assert rate_at_distortion(Distribution([p0, 1 - p0]), HAMMING, 0.6).slope == 0.0

    @pytest.mark.parametrize("target", [math.nan, -0.1])
    def test_nan_or_negative_target_is_rejected(self, target):
        with pytest.raises(ValidationError, match="nonnegative"):
            rate_at_distortion(UNIFORM, HAMMING, target)

    def test_infeasible_below_floor(self):
        d = DistortionMatrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InfeasibleError):
            rate_at_distortion(UNIFORM, d, 0.5)

    def test_floor_itself_is_reached_via_large_slopes(self):
        pt = rate_at_distortion(UNIFORM, HAMMING, 0.0)
        assert pt.distortion == pytest.approx(0.0, abs=1e-9)
        assert pt.rate == pytest.approx(1.0, abs=1e-6)

    def test_achieving_channel_meets_the_target(self):
        p = Distribution([0.3, 0.7])
        pt = rate_at_distortion(p, HAMMING, 0.12, tol=1e-6)
        assert expected_distortion(p, pt.channel, HAMMING) <= 0.12 + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(p=simplex_vectors(2), frac=st.floats(0.05, 0.95))
    def test_oracle_equivalence_binary_hamming(self, p, frac):
        q = min(p)
        target = frac * q
        pt = rate_at_distortion(Distribution(p), HAMMING, target, tol=1e-7)
        assert pt.rate == pytest.approx(binary_rd(p[1], target), abs=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(
        p=simplex_vectors(3),
        d=distortion_matrices(3, 3),
        fracs=st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
    )
    # the third column is dominated by the second; the solver used to crawl
    # on it at slope -16
    @example(
        p=[1 / 3, 1 / 3, 1 / 3],
        d=DistortionMatrix([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [1.0, 0.0, 0.0]]),
        fracs=(0.5, 0.75),
    )
    # the second and third columns tie on the third input, and the solver
    # used to crawl while the third column's mass moved to the second
    @example(
        p=[1 / 3, 1 / 3, 1 / 3],
        d=DistortionMatrix([[0.0, 2.0, 1.0], [0.0, 0.5, 1.0], [1.0, 0.0, 0.0]]),
        fracs=(0.5, 0.75),
    )
    # extrapolation used to discard output mass that had to grow back here
    @example(
        p=[0.4, 0.2, 0.4],
        d=DistortionMatrix([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 3.0]]),
        fracs=(0.5, 0.75),
    )
    # probes near slope -5.976 crawl; each had to certify its own 1e-9-bit gap
    # and ran out of iterations before the search stopped on its bracket
    @example(
        p=[0.4808325384224334, 0.4516184390818355, 0.06754902249573111],
        d=DistortionMatrix(
            [[0, 0, 0], [2.193680767865311, 0.17456750489537412, 0],
             [0.8147165544031554, 0.9733195807996629, 2]]
        ),
        fracs=(0.125, 0.5),
    )
    def test_monotone_in_distortion(self, p, d, fracs):
        dist = Distribution(p)
        lo, hi = d_min(dist, d), d_max(dist, d)
        if hi - lo < 1e-3:
            return
        t1, t2 = sorted(lo + f * (hi - lo) for f in fracs)
        if t2 - t1 < 1e-4:
            return
        r1 = rate_at_distortion(dist, d, t1).rate
        r2 = rate_at_distortion(dist, d, t2).rate
        assert r1 >= r2 - 1e-6

    @settings(max_examples=15, deadline=None)
    @given(p=simplex_vectors(3), d=distortion_matrices(3, 2), frac=st.floats(0.15, 0.85))
    def test_midpoint_convexity(self, p, d, frac):
        dist = Distribution(p)
        lo, hi = d_min(dist, d), d_max(dist, d)
        if hi - lo < 1e-2:
            return
        t1 = lo + frac * 0.5 * (hi - lo)
        t2 = lo + (0.5 + frac * 0.5) * (hi - lo)
        mid = 0.5 * (t1 + t2)
        r1 = rate_at_distortion(dist, d, t1, tol=1e-8).rate
        r2 = rate_at_distortion(dist, d, t2, tol=1e-8).rate
        rm = rate_at_distortion(dist, d, mid, tol=1e-8).rate
        assert rm <= 0.5 * (r1 + r2) + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(p=simplex_vectors(3), seed=st.integers(0, 2**32 - 1))
    # extrapolation used to discard output mass that had to grow back here
    @example(p=[1.0 / 2.25, 0.25 / 2.25, 1.0 / 2.25], seed=0)
    def test_continuity_in_the_source(self, p, seed):
        rng = np.random.default_rng(seed)
        bump = rng.normal(size=3)
        bump -= bump.mean()
        norm = np.abs(bump).sum()
        if norm < 1e-9:
            return
        bump *= 1e-3 / norm
        q = np.clip(np.array(p) + bump, 1e-6, None)
        q /= q.sum()
        d = DistortionMatrix.hamming(3)
        target = 0.2
        rp = rate_at_distortion(Distribution(p), d, target).rate
        rq = rate_at_distortion(Distribution(q), d, target).rate
        assert abs(rp - rq) <= 1e-2


class TestCurve:
    def test_two_points_are_the_endpoints(self):
        curve = rd_curve(Distribution([2 / 3, 1 / 3]), HAMMING, 2)
        assert curve.points[0].distortion == pytest.approx(0.0, abs=1e-9)
        assert curve.points[-1].rate == 0.0
        assert curve.points[-1].distortion == pytest.approx(1 / 3)

    def test_uniform_binary_matches_closed_form(self):
        curve = rd_curve(UNIFORM, HAMMING, 11, tol=1e-7)
        for pt in curve.points:
            assert pt.rate == pytest.approx(binary_rd(0.5, pt.distortion), abs=1e-4)

    def test_rates_nonincreasing(self):
        curve = rd_curve(Distribution([0.2, 0.5, 0.3]), DistortionMatrix.hamming(3), 9)
        rates = curve.rates()
        assert np.all(np.diff(rates) <= 1e-7)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            rd_curve(UNIFORM, HAMMING, 1)

    def test_rise_within_the_certified_brackets_is_accepted(self):
        # points 5 and 6 print rates 1.2825e-6 and 1.7493e-6, a rise of
        # 4.7e-7 bits, but point 6's certified lower end (9.26e-7) is below
        # point 5's rate, so the two contradict nothing
        p = Distribution([0.9999998545824277, 7.270878618031988e-08, 7.270878618031988e-08])
        d = DistortionMatrix(CURVE_RISE_DISTORTION)
        pts = rd_curve(p, d, 11).points
        assert pts[5].rate > pts[4].rate + 1e-7
        assert pts[5].lower <= pts[4].rate
        assert pts[-1].rate == 0.0

    def test_a_lower_end_above_an_earlier_rate_is_refused(self):
        curve = rd_curve(Distribution([0.2, 0.5, 0.3]), DistortionMatrix.hamming(3), 5)
        pts = list(curve.points)
        # R_p(D) is nonincreasing, so no point at a larger distortion can be
        # certified above point 1's rate
        pts[3] = dataclasses.replace(pts[3], lower=pts[1].rate + 1e-9)
        with pytest.raises(ValidationError, match="nonincreasing"):
            RdCurve(curve.source, tuple(pts))


class TestBatch:
    def test_matches_single_calls(self):
        ps = np.array([[0.5, 0.5], [0.7, 0.3], [0.9, 0.1]])
        batch = rates_at_distortion_batch(ps, HAMMING, 0.08)[0]
        for row, got in zip(ps, batch):
            want = rate_at_distortion(Distribution(row), HAMMING, 0.08).rate
            assert got == pytest.approx(want, abs=1e-5)

    def test_flags_infeasible_rows_with_inf(self):
        d = DistortionMatrix([[0.0, 1.0], [1.0, 0.5]])
        ps = np.array([[0.5, 0.5], [0.0, 1.0]])
        # floors are 0.25 and 0.5, so only the second row is unreachable
        rates = rates_at_distortion_batch(ps, d, 0.3)[0]
        assert math.isfinite(rates[0])
        assert math.isinf(rates[1])

    def test_zero_rate_rows(self):
        ps = np.array([[0.9, 0.1]])
        rates = rates_at_distortion_batch(ps, HAMMING, 0.5)[0]
        assert rates[0] == 0.0

    def test_non_convergence_reports_last_iterate_and_caller_row(self, monkeypatch):
        # row 0 is at its ceiling and never searched, so the failing row is
        # row 1 of the caller's batch
        monkeypatch.setattr(rate_distortion, "_MAX_ITERS", 2)
        ps = np.array([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(ConvergenceError, match="batch row 1") as err:
            rates_at_distortion_batch(ps, HAMMING, 0.2)
        assert err.value.last_point is not None
        assert err.value.last_point.rate >= 0.0

    def test_best_only_non_convergence_reports_caller_row(self, monkeypatch):
        # the same failing row: no row is dropped before it fails
        monkeypatch.setattr(rate_distortion, "_MAX_ITERS", 2)
        ps = np.array([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(ConvergenceError, match="batch row 1") as err:
            rates_at_distortion_batch(ps, HAMMING, 0.2, best_only=True)
        assert err.value.last_point is not None
        assert err.value.last_point.rate >= 0.0

    @pytest.mark.parametrize("target", [math.nan, -1.0])
    def test_nan_or_negative_target_is_rejected(self, target):
        with pytest.raises(ValidationError, match="nonnegative"):
            rates_at_distortion_batch(np.array([[0.5, 0.5]]), HAMMING, target)

    @pytest.mark.parametrize(
        "ps",
        [
            [0.5, 0.5],  # not 2-D
            [[0.2, 0.3, 0.5]],  # three symbols against two inputs
            [[math.nan, 0.5]],
            [[math.inf, 0.5]],
            [[1.1, -0.1]],
            [[0.6, 0.6]],
            [[0.5, 0.5 - 2 * SIMPLEX_ATOL]],
        ],
    )
    def test_rows_that_are_not_distributions_are_rejected(self, ps):
        with pytest.raises(ValidationError):
            rates_at_distortion_batch(np.array(ps), HAMMING, 0.2)

    def test_time_sharing_ignores_underflow(self):
        # mixing a row's two sides underflows on this lattice; the search
        # ignores underflow whatever numpy's error state outside it
        dv = np.array([[3, 1, 2, 0], [0, 2, 1, 1], [2, 0, 2, 0], [0, 2, 1, 3]], dtype=float)
        ps = compositions(10, 4) / 10
        target = 1e-9 * float((ps @ dv).min(axis=1).max())
        want = rates_at_distortion_batch(ps, DistortionMatrix(dv.tolist()), target)[0]
        with np.errstate(all="raise"):
            got = rates_at_distortion_batch(ps, DistortionMatrix(dv.tolist()), target)[0]
        assert np.array_equal(got, want)

    def test_rows_within_the_simplex_tolerance_are_accepted(self):
        ps = np.array([[1.0 + SIMPLEX_ATOL / 2, -SIMPLEX_ATOL / 2], [0.5, 0.5]])
        rates = rates_at_distortion_batch(ps, HAMMING, 0.2)[0]
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(1 - h2(0.2), abs=1e-5)


@st.composite
def lattice_batches(draw):
    """A simplex lattice of 2 or 3 symbols, a distortion matrix and a target
    inside the span of the lattice's floors and ceilings."""
    k = draw(st.sampled_from([2, 3]))
    ticks = draw(st.integers(1, 20))
    d = draw(distortion_matrices(k, k))
    frac = draw(st.floats(0.05, 0.95))
    ps = compositions(ticks, k) / ticks
    lo = float((ps @ d.values.min(axis=1)).min())
    hi = float((ps @ d.values).min(axis=1).max())
    return ps, d, lo + frac * (hi - lo)


class TestBestOnly:
    @settings(max_examples=20, deadline=None)
    @given(batch=lattice_batches())
    def test_keeps_the_maximum_and_every_surviving_row(self, batch):
        ps, d, target = batch
        try:
            full = rates_at_distortion_batch(ps, d, target)[0]
        except ConvergenceError:
            return
        fast = rates_at_distortion_batch(ps, d, target, best_only=True)[0]
        best = int(np.argmax(full))
        assert int(np.argmax(fast)) == best
        assert fast[best] == full[best]
        kept = ~np.isneginf(fast)
        assert np.array_equal(fast[kept], full[kept])
        assert np.all(full[~kept] < full[best])

    def test_keeps_every_surviving_row_under_a_dominated_column(self):
        # the first column is dominated by the last; row 5's corner
        # distortion once came out 1 ulp lower when solved alone
        d = DistortionMatrix([[2, 2, 1.28125], [2, 0.5, 1.15625], [0, 2, 0]])
        ps = compositions(3, 3) / 3
        full = rates_at_distortion_batch(ps, d, 0.720703125)[0]
        fast = rates_at_distortion_batch(ps, d, 0.720703125, best_only=True)[0]
        kept = ~np.isneginf(fast)
        assert kept[5]
        assert np.array_equal(fast[kept], full[kept])

    def test_drops_a_row_certified_below_the_maximum(self):
        # batch row 211's probes crawl near slope -0.0281, and its full search
        # returns 1.94e-4 bits; its bracket falls below the maximum first
        d = DistortionMatrix([[2.33, 3.079], [3.764, 2.202], [3.686, 1.346]])
        ps = compositions(20, 3) / 20
        target = 2.6676048388493547
        rates = rates_at_distortion_batch(ps, d, target, best_only=True)[0]
        assert np.isneginf(rates[211])
        best = int(np.argmax(rates))
        assert rates[best] == 0.04227446435101943
        assert ps[best].tolist() == [0.65, 0.35, 0.0]
        assert rates[best] == rate_at_distortion(Distribution(ps[best]), d, target).rate

    def test_rows_whose_probes_yield_keep_their_values(self):
        # mixtures of the benchmark's four-symbol sources, where the best
        # row's probes and many others run past 63 updates
        sources = np.array([
            [0.102231, 0.514738, 0.175252, 0.207779],
            [0.104910, 0.065014, 0.655466, 0.174610],
            [0.133652, 0.401393, 0.206629, 0.258326],
        ])
        ps = compositions(24, 3) / 24 @ sources
        d = DistortionMatrix.hamming(4)
        full = rates_at_distortion_batch(ps, d, 0.508816)[0]
        fast = rates_at_distortion_batch(ps, d, 0.508816, best_only=True)[0]
        best = int(np.argmax(full))
        assert int(np.argmax(fast)) == best
        kept = ~np.isneginf(fast)
        assert np.array_equal(fast[kept], full[kept])
        assert np.all(full[~kept] < full[best])

    @settings(max_examples=20, deadline=None)
    @given(batch=lattice_batches(), shift=st.integers(1, 3))
    def test_a_started_batch_keeps_every_surviving_row(self, batch, shift):
        # each row starts from the pair of another lattice row; the kept rows
        # carry the full search's rates, gradients, pairs and lower ends
        ps, d, target = batch
        try:
            _, _, (slopes, laws), _ = rates_at_distortion_batch(ps, d, target)
            start = (np.roll(slopes, shift), np.roll(laws, shift, axis=0))
            full = rates_at_distortion_batch(ps, d, target, start=start)
        except ConvergenceError:
            return
        fast = rates_at_distortion_batch(
            ps, d, target, best_only=True, start=start
        )
        best = int(np.argmax(full[0]))
        assert int(np.argmax(fast[0])) == best
        kept = ~np.isneginf(fast[0])
        for got, want in zip((fast[0], fast[1], *fast[2], fast[3]),
                             (full[0], full[1], *full[2], full[3])):
            # a row whose floor lies above the target has no pair (NaN)
            assert np.array_equal(got[kept], want[kept], equal_nan=True)
        assert np.all(full[0][~kept] < full[0][best])

    def test_leaves_the_numpy_error_state_as_it_was(self, monkeypatch):
        # the solver ignores underflow inside itself only, whether it returns
        # or raises
        ps = np.array([[0.9, 0.1], [0.3, 0.7]])
        want = rates_at_distortion_batch(ps, HAMMING, 0.2, best_only=True)[0]
        with np.errstate(all="raise"):
            before = np.geterr()
            got = rates_at_distortion_batch(ps, HAMMING, 0.2, best_only=True)[0]
            assert np.geterr() == before
            monkeypatch.setattr(rate_distortion, "_MAX_ITERS", 2)
            with pytest.raises(ConvergenceError):
                rates_at_distortion_batch(ps, HAMMING, 0.2, best_only=True)
            assert np.geterr() == before
        assert np.array_equal(got, want)


#: The benchmark's four-symbol sources under 4-ary Hamming distortion; at
#: D = 0.508816 the hull's best lattice point is their mixture (0, .22, .78).
WC_K4_M3_SOURCES = np.array([
    [0.102231, 0.514738, 0.175252, 0.207779],
    [0.104910, 0.065014, 0.655466, 0.174610],
    [0.133652, 0.401393, 0.206629, 0.258326],
])


def projected(vectors):
    """Each row less its mean: the part of a gradient the simplex sees."""
    return vectors - vectors.mean(axis=-1, keepdims=True)


class TestBatchIndependence:
    """A row's fixed-slope solve gives the same bits alone as in a batch."""

    def test_a_corner_row_on_the_dominated_column_path(self):
        d_arr = np.array([[2, 2, 1.28125], [2, 0.5, 1.15625], [0, 2, 0]])
        row = np.array([1 / 3, 1 / 3, 1 / 3])
        q0 = np.array([0.0, 1 / 3, 2 / 3])
        slope = -1.5699742180592637
        alone = rate_distortion._solve_fixed_slopes(
            row[None, :], d_arr, np.array([slope]), 1e-10, q0=q0[None, :]
        )
        assert alone[1][0] == 0.8125
        for other in ([0.2, 0.3, 0.5], [0.6, 0.1, 0.3]):
            batch = rate_distortion._solve_fixed_slopes(
                np.array([row, other]), d_arr, np.full(2, slope), 1e-10, q0=np.tile(q0, (2, 1))
            )
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[0], want[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rows_with_a_dominated_column(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(3, 5))
        d_arr = rng.integers(0, 9, size=(nx, ny)) / 4.0
        d_arr[:, 0] = d_arr[:, 1:].max(axis=1) + 0.5  # dominated by every other column
        ps = rng.dirichlet(np.ones(nx), size=7)
        slopes = -rng.uniform(0.1, 8.0, size=7)
        batch = rate_distortion._solve_fixed_slopes(ps, d_arr, slopes, 1e-10)
        for i in range(len(ps)):
            alone = rate_distortion._solve_fixed_slopes(ps[i:i + 1], d_arr, slopes[i:i + 1], 1e-10)
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[i], want[0])


class TestEnvelopeGradient:
    @pytest.mark.parametrize("p0, target", [(0.3, 0.1), (0.1, 0.05), (0.45, 0.2), (0.8, 0.15)])
    def test_binary_hamming_matches_the_closed_form(self, p0, target):
        # R_p(D) = h(p0) - h(D) for D < min(p0, 1 - p0); at (.3, .7) and
        # D = .1 the row closes while its upper side is still the zero-rate
        # corner, whose slope would give 1.585 instead of log2(7/3)
        rates, grads, _, _ = rates_at_distortion_batch(
            np.array([[p0, 1 - p0]]), HAMMING, target
        )
        assert rates[0] == pytest.approx(binary_rd(p0, target), abs=1e-6)
        assert grads[0, 0] - grads[0, 1] == pytest.approx(math.log2((1 - p0) / p0), abs=1e-5)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_lossless_hamming_gradient_is_the_entropy_gradient(self, k):
        # R_p(0) = H(p) under Hamming distortion, so on the simplex its
        # gradient is -log2 p(x) up to a constant
        ps = np.random.default_rng(k).dirichlet(np.ones(k), size=6)
        rates, grads, _, _ = rates_at_distortion_batch(
            ps, DistortionMatrix.hamming(k), 0.0
        )
        entropies = -(ps * np.log2(ps)).sum(axis=1)
        np.testing.assert_allclose(rates, entropies, rtol=0, atol=1e-6)
        np.testing.assert_allclose(projected(grads), projected(-np.log2(ps)), rtol=0, atol=1e-5)

    def test_matches_central_differences_of_the_rates(self):
        p = np.array([0.0, 0.22, 0.78]) @ WC_K4_M3_SOURCES
        d = DistortionMatrix.hamming(4)
        rates, grads, _, _ = rates_at_distortion_batch(
            p[None, :], d, 0.508816, tol=1e-10
        )
        step, units = 1e-4, projected(np.eye(4))
        around = rates_at_distortion_batch(
            np.vstack([p + step * units, p - step * units]), d, 0.508816, tol=1e-10
        )[0]
        differences = (around[:4] - around[4:]) / (2 * step)
        np.testing.assert_allclose(projected(grads[0]), differences, rtol=0, atol=1e-6)

    def test_rows_without_a_certificate_carry_no_gradient(self):
        # the batch of TestBestOnly's drop: row 211 is dropped, and every kept
        # row has the gradient it has without best_only
        d = DistortionMatrix([[2.33, 3.079], [3.764, 2.202], [3.686, 1.346]])
        ps = compositions(20, 3) / 20
        target = 2.6676048388493547
        full, full_grads, _, _ = rates_at_distortion_batch(ps, d, target)
        rates, grads, _, _ = rates_at_distortion_batch(
            ps, d, target, best_only=True
        )
        assert np.isneginf(rates[211]) and np.isnan(grads[211]).all()
        kept = ~np.isneginf(rates)
        assert np.array_equal(rates[kept], full[kept])
        assert np.array_equal(grads[kept], full_grads[kept])
        assert np.isfinite(full_grads).all()
        # an unreachable row has none either, and a zero-rate row has 0
        d = DistortionMatrix([[0.0, 1.0], [1.0, 0.5]])
        rates, grads, _, _ = rates_at_distortion_batch(
            np.array([[0.5, 0.5], [0.0, 1.0]]), d, 0.3
        )
        assert np.isposinf(rates[1]) and np.isnan(grads[1]).all()
        rates, grads, _, _ = rates_at_distortion_batch(
            np.array([[0.9, 0.1]]), HAMMING, 0.5
        )
        assert rates[0] == 0.0 and (grads == 0.0).all()

    def test_lower_ends_are_the_slope_search_brackets(self):
        # each row's lower end is the one rate_at_distortion reports, and a
        # row without a bracket has its rate as its lower end
        ps = compositions(6, 3) / 6 @ WC_K4_M3_SOURCES
        d = DistortionMatrix.hamming(4)
        rates, _, _, lowers = rates_at_distortion_batch(ps, d, 0.508816)
        assert ((rates - lowers >= 0.0) & (rates - lowers <= RATE_TOL)).all()
        for p, lower in zip(ps, lowers):
            assert lower == rate_at_distortion(Distribution(p), d, 0.508816).lower
        d = DistortionMatrix([[2.33, 3.079], [3.764, 2.202], [3.686, 1.346]])
        ps = compositions(20, 3) / 20
        rates, _, _, lowers = rates_at_distortion_batch(
            ps, d, 2.6676048388493547, best_only=True
        )
        assert np.isneginf(lowers[211])
        d = DistortionMatrix([[0.0, 1.0], [1.0, 0.5]])
        _, _, _, lowers = rates_at_distortion_batch(
            np.array([[0.5, 0.5], [0.0, 1.0], [0.9, 0.1]]), d, 0.3
        )
        assert lowers[1] == np.inf and lowers[2] == 0.0


def nearby_starts():
    """Mixtures of WC_K4_M3_SOURCES under 4-ary Hamming distortion at
    D = 0.508816, and the dual pairs of sources a small step from each."""
    ps = compositions(6, 3) / 6 @ WC_K4_M3_SOURCES
    step = 0.005 * projected(np.random.default_rng(3).normal(size=ps.shape))
    d = DistortionMatrix.hamming(4)
    _, _, duals, _ = rates_at_distortion_batch(ps + step, d, 0.508816)
    return ps, d, 0.508816, duals


class TestWarmStart:
    def test_a_row_depends_only_on_its_own_start(self):
        ps, d, target, (slopes, laws) = nearby_starts()
        assert (slopes < 0).sum() > 10 and (slopes == 0).any()
        rates, grads, (s_out, q_out), _ = rates_at_distortion_batch(
            ps, d, target, start=(slopes, laws)
        )
        back = rates_at_distortion_batch(
            ps[::-1], d, target, start=(slopes[::-1], laws[::-1])
        )
        for got, want in zip((back[0], back[1], *back[2]), (rates, grads, s_out, q_out)):
            assert np.array_equal(got, want[::-1])
        for i in range(0, len(ps), 4):
            alone = rates_at_distortion_batch(
                ps[i:i + 1], d, target, start=(slopes[i:i + 1], laws[i:i + 1])
            )
            assert alone[0][0] == rates[i] and alone[2][0][0] == s_out[i]
            assert np.array_equal(alone[1][0], grads[i])
            assert np.array_equal(alone[2][1][0], q_out[i])

    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    def test_rates_lie_within_tol_of_the_cold_search(self, tol):
        ps, d, target, start = nearby_starts()
        cold = rates_at_distortion_batch(ps, d, target, tol=tol)[0]
        warm, _, (slopes, _), _ = rates_at_distortion_batch(
            ps, d, target, tol=tol, start=start
        )
        tight = rates_at_distortion_batch(ps, d, target, tol=1e-10)[0]
        assert np.abs(warm - cold).max() <= tol
        assert (warm >= tight - 1e-9).all() and (warm <= tight + tol).all()
        # the certifying slope is the curve's, whatever the search started from
        _, _, (cold_slopes, _), _ = rates_at_distortion_batch(
            ps, d, target, tol=tol
        )
        np.testing.assert_allclose(slopes, cold_slopes, rtol=0, atol=0.05)

    @settings(max_examples=20, deadline=None)
    @given(batch=lattice_batches(), shift=st.integers(1, 3))
    def test_any_start_keeps_each_rate_within_tol(self, batch, shift):
        # each row starts from the pair of another lattice row
        ps, d, target = batch
        try:
            cold, _, (slopes, laws), _ = rates_at_distortion_batch(ps, d, target)
        except ConvergenceError:
            return
        start = (np.roll(slopes, shift), np.roll(laws, shift, axis=0))
        warm = rates_at_distortion_batch(ps, d, target, start=start)[0]
        finite = np.isfinite(cold)
        assert np.array_equal(np.isfinite(warm), finite)
        assert np.abs(warm[finite] - cold[finite]).max(initial=0.0) <= RATE_TOL

    def test_starting_from_the_own_pair_takes_fewer_probes(self, monkeypatch):
        ps, d, target, _ = nearby_starts()
        rates, _, own, _ = rates_at_distortion_batch(ps, d, target)
        solve = rate_distortion._solve_fixed_slopes
        sizes = []

        def spy(*args, **kwargs):
            sizes.append(len(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(rate_distortion, "_solve_fixed_slopes", spy)
        rates_at_distortion_batch(ps, d, target)
        cold, sizes[:] = sum(sizes), []
        again = rates_at_distortion_batch(ps, d, target, start=own)[0]
        assert sum(sizes) < cold
        assert np.abs(again - rates).max() <= RATE_TOL

    def test_a_slope_zero_or_nan_pair_searches_cold(self):
        ps, d, target, (slopes, laws) = nearby_starts()
        cold = rates_at_distortion_batch(ps, d, target)
        n = len(ps)
        for start in (
            (np.zeros(n), laws),
            (np.full(n, np.nan), laws),
            (slopes, np.full(laws.shape, np.nan)),
            (np.where(np.arange(n) % 2, 0.0, np.nan), np.full(laws.shape, 0.25)),
        ):
            got = rates_at_distortion_batch(ps, d, target, start=start)
            for a, b in zip((got[0], got[1], *got[2]), (cold[0], cold[1], *cold[2])):
                assert np.array_equal(a, b, equal_nan=True)
        # rows with a pair do not change the rows without one
        half = np.where(np.arange(n) % 2, 0.0, slopes)
        got = rates_at_distortion_batch(ps, d, target, start=(half, laws))[0]
        assert np.array_equal(got[1::2], cold[0][1::2])

    def test_a_start_of_another_shape_is_rejected(self):
        ps, d, target, (slopes, laws) = nearby_starts()
        with pytest.raises(ValidationError, match="start"):
            rates_at_distortion_batch(ps, d, target, start=(slopes[1:], laws[1:]))
        with pytest.raises(ValidationError, match="start"):
            rates_at_distortion_batch(ps, d, target, start=(slopes, laws[:, 1:]))


def objective_after_each_check(ps, d_arr, slopes, most=255):
    """Each row's objective -sum_x p(x) log2 sum_y q(y) 2^(s d(x, y)) at the
    output law q it holds after each convergence check of a cold fixed-slope
    solve, up to the check after ``most`` updates. The solve is read at each
    check by ending it there, with ``_MAX_ITERS`` set to the updates run by
    then (1, 3, 7, 15, 31, 47, ...), which leaves every iterate as it is; a
    row that has stopped keeps its last law."""
    kernel = np.exp2(slopes[:, None, None] * d_arr[None, :, :])
    values, updates, burst = [], 1, 1
    with pytest.MonkeyPatch.context() as patch:
        while updates <= most:
            patch.setattr(rate_distortion, "_MAX_ITERS", updates)
            out = rate_distortion._solve_fixed_slopes(ps, d_arr, slopes, 1e-12)
            norms = np.einsum("nxy,ny->nx", kernel, out[3])
            values.append(-np.einsum("nx,nx->n", ps, np.log2(norms)))
            if (out[4] < 1e-12).all():
                break
            burst = min(2 * burst, rate_distortion._MAX_BURST)
            updates += burst
    return np.array(values)


class TestSquaredExtrapolation:
    """The squared extrapolation between checks keeps a point only where it
    lowers the objective, so the objective never rises from one check to the
    next, and it saves most of the updates that plain iteration runs."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
    def test_the_objective_never_rises_between_checks(self, seed, k):
        rng = np.random.default_rng(seed)
        ps = rng.dirichlet(np.full(k, 0.7), size=30)
        d_arr = rng.uniform(0.0, 4.0, size=(k, k))
        slopes = -rng.uniform(0.2, 8.0, size=30)
        values = objective_after_each_check(ps, d_arr, slopes)
        assert np.diff(values, axis=0).max(initial=0.0) <= 1e-12

    # the sources where extrapolation used to discard output mass that had
    # to grow back (see TestRateAtDistortion)
    @pytest.mark.parametrize(
        "p, d, targets",
        [
            ([0.4, 0.2, 0.4], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 3.0]], (0.2, 0.3)),
            ([1.0 / 2.25, 0.25 / 2.25, 1.0 / 2.25], DistortionMatrix.hamming(3).values, (0.2,)),
        ],
    )
    def test_the_objective_never_rises_where_mass_was_discarded(self, p, d, targets):
        # a ladder of slopes and those of the lines certifying the tested rates
        dist, d = Distribution(p), DistortionMatrix(d)
        certifying = [rate_at_distortion(dist, d, t).slope for t in targets]
        slopes = np.concatenate([-(2.0 ** np.arange(-2, 6)), certifying])
        values = objective_after_each_check(np.tile(p, (slopes.size, 1)), d.values, slopes)
        assert len(values) > 3
        assert np.diff(values, axis=0).max() <= 1e-12

    def test_the_hull_lattice_keeps_its_update_budget(self, monkeypatch):
        # the whole 1,326-point hull lattice of WC_K4_M3_SOURCES, searched in
        # full: counted in sequential map evaluations (one contraction of the
        # whole call each), it takes 18,914 with the extrapolation and
        # 207,138 with plain updates
        ps = compositions(50, 3) / 50 @ WC_K4_M3_SOURCES
        d = DistortionMatrix.hamming(4)
        monkeypatch.setattr(rate_distortion, "np", CountingNumpy())
        rates = rates_at_distortion_batch(ps, d, 0.508816)[0]
        assert np.isfinite(rates).all()
        assert CountingNumpy.maps < 28000


class CountingNumpy:
    """A stand-in for the solver module's ``np`` that counts the map
    evaluations, one ``nx,nxy->ny`` contraction of a whole call each: the
    sequential depth of a batch."""

    maps = 0

    def __init__(self):
        CountingNumpy.maps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kwargs):
        CountingNumpy.maps += subscripts == "nx,nxy->ny"
        return np.einsum(subscripts, *operands, **kwargs)


#: Instance #64 of an 80-maximization stress (4-ary Hamming distortion,
#: delta 0.02): its hull lattice at TIES_TARGET, started from the dual pair
#: of the region's maximum there, has warm probes that crawl.
TIES_SOURCES = np.array([
    [0.026118, 0.95399, 0.000159, 0.019733],
    [0.310096, 0.053975, 0.456507, 0.179422],
    [0.218518, 0.722262, 0.052458, 0.006762],
])
TIES_TARGET = 0.5160384135320375
TIES_REGION_PAIR = (
    -1.4923765733504855,
    [0.2651389090243575, 0.2707720704469451, 0.30688075147884997, 0.1572082690498476],
)


class TestOpeningYield:
    """A best-only batch started far from most rows' own pairs, whose warm
    probes crawl, keeps every kept row as the full search has it."""

    def batch(self):
        ps = compositions(50, 3) / 50 @ TIES_SOURCES
        n = len(ps)
        start = (np.full(n, TIES_REGION_PAIR[0]), np.tile(TIES_REGION_PAIR[1], (n, 1)))
        return ps, DistortionMatrix.hamming(4), start

    def test_kept_rows_are_the_full_search_bit_for_bit(self):
        ps, d, start = self.batch()
        full, full_grads, full_duals, _ = rates_at_distortion_batch(
            ps, d, TIES_TARGET, start=start
        )
        fast, grads, duals, _ = rates_at_distortion_batch(
            ps, d, TIES_TARGET, best_only=True, start=start
        )
        best = int(np.argmax(full))
        assert int(np.argmax(fast)) == best
        kept = ~np.isneginf(fast)
        assert (~kept).sum() > 100
        for got, want in zip((fast, grads, *duals), (full, full_grads, *full_duals)):
            assert np.array_equal(got[kept], want[kept])
        assert np.all(full[~kept] < full[best])

def kary_uniform_rd(k, target):
    """Closed form for the uniform k-ary source under Hamming distortion."""
    if target >= 1 - 1 / k:
        return 0.0
    return math.log2(k) - h2(target) - target * math.log2(k - 1)


# (source, distortion, closed form of R at a distortion)
CLOSED_FORMS = [
    (Distribution([0.5, 0.5]), HAMMING, lambda t: binary_rd(0.5, t)),
    (Distribution([0.8, 0.2]), HAMMING, lambda t: binary_rd(0.2, t)),
    (
        Distribution([1 / 3] * 3),
        DistortionMatrix.hamming(3),
        lambda t: kary_uniform_rd(3, t),
    ),
    (
        Distribution([0.25] * 4),
        DistortionMatrix.hamming(4),
        lambda t: kary_uniform_rd(4, t),
    ),
]


class TestSlopeSearch:
    @pytest.mark.parametrize("p, d, closed_form", CLOSED_FORMS)
    @pytest.mark.parametrize("frac", [0.01, 0.2, 0.5, 0.9, 0.999])
    def test_lands_on_target_and_closed_form(self, p, d, closed_form, frac):
        floor, ceiling = d_min(p, d), d_max(p, d)
        target = floor + frac * (ceiling - floor)
        tol = 1e-6
        pt = rate_at_distortion(p, d, target, tol)
        assert abs(pt.distortion - target) <= tol
        assert pt.rate == pytest.approx(closed_form(pt.distortion), abs=1e-8)

    @pytest.mark.parametrize("p, d, closed_form", CLOSED_FORMS)
    @pytest.mark.parametrize("frac", [0.01, 0.2, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_certified_bracket_holds_the_closed_form(self, p, d, closed_form, frac, tol):
        # 1e-12 covers float rounding
        floor, ceiling = d_min(p, d), d_max(p, d)
        target = floor + frac * (ceiling - floor)
        pt = rate_at_distortion(p, d, target, tol)
        assert pt.distortion == pytest.approx(target, abs=1e-12)
        assert pt.lower - 1e-12 <= closed_form(target) <= pt.rate + 1e-12
        assert pt.rate - pt.lower <= tol

    def test_closes_the_bracket_on_a_near_kink_draw(self):
        # a test_monotone_in_distortion draw whose probes crawl near slope
        # -1.1103, where a 1e-9-bit gap per probe was out of reach
        d = DistortionMatrix(
            [[0, 0, 0], [1.5, 1.9864544516642035, 2.7767036841595343],
             [3.5586056425109716, 0.8212392360618532, 0]]
        )
        target = 0.8494930527521765
        pt = rate_at_distortion(Distribution([1 / 3] * 3), d, target)
        assert pt.distortion == pytest.approx(target, abs=1e-12)
        assert pt.rate - pt.lower <= 1e-6

    @pytest.mark.parametrize(
        "p, d, target",
        [
            # the probes at the kink slope -1.0838 used to run out of updates
            (
                [0.1402821156036739, 0.6182437632268749, 0.24147412116945116],
                [[3.9114315959214103, 1.6256492938767582, 0.018296758096877586],
                 [2.6422358295075434, 2.861201426062131, 3.792078094999081],
                 [0.9783942696147618, 1.2717325910615322, 2.9932556364426834]],
                2.1370633928361404,
            ),
            # and here those at -3.1949, 0.409 of the way from floor to ceiling
            (
                [0.2987, 0.2185, 0.4828],
                [[0.5, 0.5, 0.5], [3, 2.6103, 4], [0.5, 1.4302, 0.2971]],
                0.93803224413,
            ),
        ],
    )
    def test_closes_the_bracket_on_a_straight_segment(self, p, d, target):
        # on a straight segment of R_p(D) the distortion jumps across the
        # target at one slope, where every output law between the two ends'
        # is optimal and the fixed-slope iteration crawls
        pt = rate_at_distortion(Distribution(p), DistortionMatrix(d), target)
        assert pt.distortion == pytest.approx(target, abs=1e-12)
        assert pt.rate - pt.lower <= 1e-6

    @pytest.mark.parametrize("p, d", [case[:2] for case in CLOSED_FORMS])
    def test_batch_of_one_is_the_scalar(self, p, d):
        target = d_min(p, d) + 0.3 * (d_max(p, d) - d_min(p, d))
        batch = rates_at_distortion_batch(p.probs[None, :], d, target)[0]
        assert batch[0] == rate_at_distortion(p, d, target).rate

    @pytest.mark.parametrize("p, d", [case[:2] for case in CLOSED_FORMS])
    def test_curve_points_are_scalar_points(self, p, d):
        curve = rd_curve(p, d, 9)
        targets = np.linspace(d_min(p, d), d_max(p, d), 9)
        for pt, target in zip(curve.points, targets):
            scalar = rate_at_distortion(p, d, float(target))
            assert (pt.distortion, pt.rate) == (scalar.distortion, scalar.rate)

    @pytest.mark.parametrize("p, d", [case[:2] for case in CLOSED_FORMS])
    def test_below_floor_raises_and_ceiling_is_rate_zero(self, p, d):
        shifted = DistortionMatrix(d.values + 1.0)
        with pytest.raises(InfeasibleError):
            rate_at_distortion(p, shifted, d_min(p, shifted) - 1e-6)
        assert rate_at_distortion(p, d, d_max(p, d)).rate == 0.0

    def test_non_convergence_reports_last_iterate(self, monkeypatch):
        monkeypatch.setattr(rate_distortion, "_MAX_ITERS", 2)
        with pytest.raises(ConvergenceError) as err:
            rate_at_distortion(Distribution([0.3, 0.7]), HAMMING, 0.2)
        assert err.value.last_point is not None
        assert err.value.last_point.rate >= 0.0


@pytest.mark.parametrize(
    "fn", [ba_fixed_slope, rate_at_distortion, rd_curve, rates_at_distortion_batch]
)
def test_rate_functions_have_no_iteration_budget_option(fn):
    # every fixed-slope solve reads the one module budget, _MAX_ITERS
    assert "max_iters" not in inspect.signature(fn).parameters


def test_the_batch_has_one_return_shape():
    # the batch always returns its certificate; there is no option to drop it
    assert "gradients" not in inspect.signature(rates_at_distortion_batch).parameters
    rates, grads, (slopes, laws), lowers = rates_at_distortion_batch(
        np.array([[0.3, 0.7]]), HAMMING, 0.1
    )
    assert grads.shape == laws.shape == (1, 2)
    assert rates.shape == slopes.shape == lowers.shape == (1,)


@st.composite
def door_cases(draw):
    """A source over 2-4 symbols, an integer or a real distortion matrix, and
    the curve's number of points: targets are the curve's, one below the
    floor, one within 1e-12 below it and one above the ceiling."""
    k, ky = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    p = Distribution(draw(simplex_vectors(k)))
    if draw(st.booleans()):
        values = st.integers(0, 3).map(float)
    else:
        values = st.floats(0.0, 4.0)
    d = DistortionMatrix(draw(st.lists(
        st.lists(values, min_size=ky, max_size=ky), min_size=k, max_size=k
    )))
    return p, d, draw(st.integers(2, 5))


def outcome(call):
    """A rate query's point, or the type of the error it raised."""
    try:
        return call()
    except (ConvergenceError, InfeasibleError) as err:
        return type(err)


def point_bits(pt):
    return (pt.distortion, pt.rate, pt.lower, pt.slope, pt.channel.rows.tobytes())


class TestOneDoor:
    """Scalar, curve and batch queries share one triage and one search, so
    they agree bit for bit at every target."""

    @settings(max_examples=60, deadline=None)
    @given(case=door_cases())
    @example(case=(Distribution([0.25, 0.75]), DistortionMatrix([[0.5, 1.0], [0.5, 1.0]]), 3))
    def test_scalar_curve_and_batch_agree(self, case):
        p, d, num_points = case
        lo, hi = d_min(p, d), d_max(p, d)
        on_curve = np.linspace(lo, hi, num_points)
        off_curve = [max(0.0, lo - 1e-6), max(0.0, lo - 5e-13), hi + 0.25]
        scalars = {}
        for target in [*on_curve, *off_curve]:
            target = float(target)
            pt = scalars[target] = outcome(lambda: rate_at_distortion(p, d, target))
            batch = outcome(lambda: rates_at_distortion_batch(np.tile(p.probs, (3, 1)), d, target))
            if pt is ConvergenceError:
                assert batch is ConvergenceError
                continue
            rates, _, _, lowers = batch
            if pt is InfeasibleError:
                assert target < lo - 1e-12
                assert (rates == np.inf).all() and (lowers == np.inf).all()
                continue
            assert (rates == pt.rate).all() and (lowers == pt.lower).all()
            if target >= hi:
                # the zero-rate corner, at the ceiling's distortion
                assert (pt.rate, pt.lower, pt.slope, pt.distortion) == (0.0, 0.0, 0.0, hi)
            elif target < lo:
                # within 1e-12 below the floor: the probe at SLOPE_FLOOR, which
                # pins the distortion to the floor unless a row's gaps are tiny
                assert pt.distortion > target
                gaps = d.values - d.values.min(axis=1, keepdims=True)
                if ((gaps == 0.0) | (gaps >= 1e-3)).all():
                    assert pt.distortion == pytest.approx(lo, rel=1e-15, abs=1e-300)
        curve = outcome(lambda: rd_curve(p, d, num_points))
        want = [scalars[float(t)] for t in on_curve]
        if ConvergenceError in want:
            assert curve is ConvergenceError
            return
        want.sort(key=lambda pt: pt.distortion)
        assert [point_bits(pt) for pt in curve.points] == [point_bits(pt) for pt in want]

    def test_a_ceiling_that_rounds_above_the_target_still_gives_rate_zero(self):
        # floor and ceiling are equal, but the ceiling's product rounds 1 ulp
        # above the target while the search's corner sits on it; both sides
        # at the target once made a 0/0 chord and a NaN-wide bracket
        a = 1.175762490529363e-145
        d = DistortionMatrix([[a, 1.0], [a, 1.0]])
        ps = compositions(7, 2) / 7
        target = 1.1757624905293628e-145
        with np.errstate(all="raise"):
            rates = rates_at_distortion_batch(ps, d, target)[0]
            for p in ps:
                assert rate_at_distortion(Distribution(p), d, target).rate == 0.0
        assert (rates == 0.0).all()
