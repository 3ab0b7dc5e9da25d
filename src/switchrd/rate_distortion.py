"""Rate-distortion computation for a fixed discrete source.

The solver is an alternating-minimization sweep at a fixed trade-off slope
(bits of rate per unit of distortion, always <= 0) combined with a slope
search that stops on a certified bracket on R_p(D) at the target distortion.
Slope 0 is the zero-rate endpoint; very large negative slopes pin the
distortion to its floor. All operations are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, ValidationError
from .probcore import (
    SIMPLEX_ATOL,
    Distribution,
    DistortionMatrix,
    TransitionMatrix,
    _check_p_d,
    d_max,
    d_min,
)

#: Default bound, in bits, on the certified optimality gap of a fixed-slope
#: solve: the objective is within this of its minimum when the solve stops.
BA_TOL = 1e-9
#: Default width, in bits, of the certified bracket on R_p(D) at which the
#: slope search stops.
RATE_TOL = 1e-6
#: Most negative slope tried before the distortion floor is declared reached.
SLOPE_FLOOR = -float(2**20)

#: Iteration budget of every fixed-slope solve, read at call time.
_MAX_ITERS = 200_000
#: Longest run of updates between two convergence checks.
_MAX_BURST = 16
#: Share of the uniform output law mixed into every warm start.
_WARM_MIX = 0.01
#: Longest step of the squared extrapolation, in units of its first
#: difference. Near a kink of R_p(D) the iteration crawls while its path
#: bends, the step |r| / |v| grows past 10^4, and a step that long
#: overshoots every time; at the cap an accepted cycle still stands in for
#: thousands of plain updates.
_MAX_STEP = 4096.0
_LN2 = float(np.log(2.0))


@dataclass(frozen=True, eq=False)
class RdPoint:
    """One point of the rate-distortion curve with its achieving channel.

    ``rate`` is the mutual information of ``channel``, whose distortion is
    ``distortion``, so it is at least R_p(distortion); ``lower`` is a
    certified lower bound on R_p(distortion), read off Blahut's line of
    slope ``slope`` (0 at the zero-rate end), and at most ``rate``."""

    distortion: float
    rate: float
    channel: TransitionMatrix
    slope: float
    lower: float


@dataclass(frozen=True, eq=False)
class RdCurve:
    """Rate-distortion points of one source, sorted by distortion."""

    source: Distribution
    points: tuple[RdPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        ceiling = math.inf  # the least rate printed so far
        for a, b in zip(pts, pts[1:]):
            if b.distortion < a.distortion - 1e-12:
                raise ValidationError("curve points must be sorted by distortion")
            # each rate is certified only to within its bracket, so a rise is
            # a contradiction only when a lower end passes an earlier rate
            ceiling = min(ceiling, a.rate)
            if b.lower > ceiling + 1e-12:
                raise ValidationError("rates must be nonincreasing in distortion")
        object.__setattr__(self, "points", pts)

    def rates(self) -> np.ndarray:
        return np.array([pt.rate for pt in self.points])


def _undominated_columns(d_arr):
    """Indices of the reproduction columns worth keeping.

    A column is dropped when another column has no larger distortion on any
    input (the lower index survives a tie). Moving a dropped column's mass to
    the column that dominates it raises neither the expected distortion nor
    the mutual information, so every fixed-slope optimum and every R_p(D) is
    unchanged, while the iteration would shrink such a column only by a factor
    close to 1 per step.
    """
    cols = d_arr.T
    no_worse = np.all(cols[:, None, :] <= cols[None, :, :], axis=2)
    better = np.any(cols[:, None, :] < cols[None, :, :], axis=2)
    order = np.arange(cols.shape[0])
    beats = no_worse & (better | (order[:, None] < order[None, :]))
    return np.nonzero(~beats.any(axis=0))[0]


@np.errstate(under="ignore")
def _solve_fixed_slopes(ps, d_arr, slopes, tol, q0=None):
    """Alternating minimization for a batch of sources at per-row slopes.

    ps: (N, X) source rows; d_arr: (X, Y); slopes: (N,) all <= 0. Returns
    (rate, dist, w, q, gap). ``gap`` is each row's certified bound, in bits,
    on the suboptimality of its objective rate - slope * dist; a row stops
    once it is below ``tol`` or ``_MAX_ITERS`` updates run out. Rows are
    solved independently of each other.

    * Weakly dominated reproduction columns (see ``_undominated_columns``)
      are dropped exactly before solving; ``w`` and ``q`` carry zeros there.
    * A warm start ``q0`` is mixed with a share ``_WARM_MIX`` of the uniform
      output law, so every column starts at no less than that share of its
      uniform value. The iteration's suboptimality after t steps is bounded
      by the divergence of the optimum from the start over t, and the mixing
      caps that divergence at the cold start's plus log2(1 / _WARM_MIX) bits:
      a warm start can be somewhat worse than a cold one, but never by much.
      A row of NaN in ``q0`` starts cold, from the uniform law itself.
    * Rows whose slope is shallow enough that the zero-rate corner is optimal
      are recognized in closed form and skip the iteration entirely.
    * The updates before each check run in cycles of three (SQUAREM,
      Varadhan & Roland 2008): two updates, a squared extrapolation along
      them, and an update from its point. The step is at most ``_MAX_STEP``.
      The point is floored at a tenth of the second update's, so it cannot
      throw away mass that must grow back, and it is kept only where it
      strictly lowers the objective; elsewhere the cycle goes on from the
      second update. A burst's one or two updates left over run plain, and
      every update counts against ``_MAX_ITERS``.
    * Kernel entries and output masses underflow to 0 by design, so a call
      ignores underflow whatever numpy's error state is outside it.
    """
    ps = np.asarray(ps, dtype=float)
    n, nx = ps.shape
    ny = d_arr.shape[1]
    keep = _undominated_columns(d_arr)
    if keep.size < ny:
        sub_q0 = None if q0 is None else np.asarray(q0, dtype=float)[:, keep]
        rate, dist, w_sub, q_sub, gap = _solve_fixed_slopes(ps, d_arr[:, keep], slopes, tol, sub_q0)
        w = np.zeros((n, nx, ny))
        q = np.zeros((n, ny))
        w[:, :, keep] = w_sub
        q[:, keep] = q_sub
        return rate, dist, w, q, gap
    rate = np.zeros(n)
    dist = np.zeros(n)
    w = np.zeros((n, nx, ny))
    q = np.zeros((n, ny))
    gap = np.full(n, np.inf)

    # keep the largest exponent at zero per input row so that extreme slopes
    # cannot underflow the whole row
    gaps = d_arr - d_arr.min(axis=1, keepdims=True)
    argmin_cols = np.argmin(gaps, axis=1)
    kernel = np.exp2(slopes[:, None, None] * gaps[None, :, :])
    # first-order corner test: the best constant column is the global
    # optimum iff no other column has an update factor above 1 there
    costs = _costs(ps, d_arr)
    best_cols = np.argmin(costs, axis=1)
    shifted = d_arr[None, :, :] - d_arr[:, best_cols].T[:, :, None]
    exponents = np.clip(slopes[:, None, None] * shifted, None, 1023.0)
    corner_factors = np.einsum("nx,nxy->ny", ps, np.exp2(exponents))
    corner = corner_factors.max(axis=1) <= 1.0 + 1e-12
    if corner.any():
        rows = np.nonzero(corner)[0]
        w[rows, :, best_cols[rows]] = 1.0
        q[rows, best_cols[rows]] = 1.0
        dist[rows] = costs[rows, best_cols[rows]]
        gap[rows] = 0.0
    q_iter = np.full((n, ny), 1.0 / ny)
    if q0 is not None:
        q0 = np.asarray(q0, dtype=float)
        warm = ~np.isnan(q0).any(axis=1)
        q_warm = np.maximum(q0[warm], 0.0)
        q_warm = q_warm / q_warm.sum(axis=1, keepdims=True)
        q_iter[warm] = (1.0 - _WARM_MIX) * q_warm + _WARM_MIX / ny
    q[~corner] = q_iter[~corner]

    # an input whose every column underflowed (the slope is steep enough that
    # only the cheapest column survives) goes to its cheapest column
    def update(kern, ps_act, q_act, norms=None):
        # q(y) <- q(y) sum_x p(x) 2^(s d(x,y)) / norm(x), the output marginal
        # of the channel below, without forming the channel; returns the
        # norms at q_act too
        if norms is None:
            norms = np.einsum("nxy,ny->nx", kern, q_act)
        if norms.min() > 0.0:
            return q_act * np.einsum("nx,nxy->ny", ps_act / norms, kern), norms
        dead = norms <= 0.0
        weights = np.divide(ps_act, norms, out=np.zeros_like(norms), where=~dead)
        q_next = q_act * np.einsum("nx,nxy->ny", weights, kern)
        rows, xs = np.nonzero(dead)
        np.add.at(q_next, (rows, argmin_cols[xs]), ps_act[rows, xs])
        return q_next, norms

    def log_norms(ps_act, norms):
        return np.einsum("nx,nx->n", ps_act, np.log2(np.maximum(norms, 1e-300)))

    def cycle(kern, ps_act, q0):
        # two updates, the squared extrapolation along their first and second
        # differences r and v, and an update from its point
        q1, norms0 = update(kern, ps_act, q0)
        q2 = update(kern, ps_act, q1)[0]
        r = q1 - q0
        v = q2 - q1 - r
        # beta = |r| / |v| in [1, _MAX_STEP] is minus the step length; 1
        # gives q2
        vv = np.maximum(np.einsum("ny,ny->n", v, v), 1e-300)
        beta = np.sqrt(np.einsum("ny,ny->n", r, r) / vv)
        beta = np.minimum(np.maximum(beta, 1.0), _MAX_STEP)[:, None]
        q_sq = np.maximum(q0 + 2.0 * beta * r + beta**2 * v, 0.1 * q2)
        q_sq /= q_sq.sum(axis=1, keepdims=True)
        norms_sq = np.einsum("nxy,ny->nx", kern, q_sq)
        # kept where its norms are positive and the objective
        # -sum_x p(x) log2 norm(x) falls
        better = norms_sq.min(axis=1) > 0.0
        better &= log_norms(ps_act, norms_sq) > log_norms(ps_act, norms0)
        if better.all():
            return update(kern, ps_act, q_sq, norms_sq)[0]
        q_kept = np.where(better[:, None], q_sq, q2)
        norms = np.where(better[:, None], norms_sq, np.einsum("nxy,ny->nx", kern, q2))
        return update(kern, ps_act, q_kept, norms)[0]

    def channel(kern, q_act):
        # w(y|x) proportional to q(y) 2^(s d(x,y))
        scaled = kern * q_act[:, None, :]
        norms = scaled.sum(axis=2)
        if not norms.min() > 0.0:
            rows, xs = np.nonzero(norms <= 0.0)
            scaled[rows, xs, :] = 0.0
            scaled[rows, xs, argmin_cols[xs]] = 1.0
            norms = scaled.sum(axis=2)
        return scaled / norms[:, :, None], norms

    active = np.nonzero(~corner)[0]
    kern, ps_act, q_act = kernel[active], ps[active], q[active]
    # bursts of 1, 2, 4, ... updates up to _MAX_BURST, so warm starts exit
    # fast and crawls stay cheap
    check_every = 1
    spent = 0
    while active.size:
        # a burst of cheap multiplicative updates, then one convergence check;
        # the iteration budget may cut the last burst short
        burst = min(check_every, _MAX_ITERS - spent)
        check_every = min(check_every * 2, _MAX_BURST)
        for _ in range((burst - 1) // 3):
            q_act = cycle(kern, ps_act, q_act)
        for _ in range((burst - 1) % 3):
            q_act = update(kern, ps_act, q_act)[0]
        w_act, norms = channel(kern, q_act)
        factors = np.einsum("nx,nxy->ny", ps_act / norms, kern)
        q_new = np.einsum("nx,nxy->ny", ps_act, w_act)
        gap_act = np.maximum(factors.max(axis=1) - 1.0, 0.0) / _LN2
        gap[active] = gap_act
        spent += burst
        # only a row that stops here needs its channel
        stop = (gap_act < tol) | (spent >= _MAX_ITERS)
        if stop.any():
            w[active[stop]] = w_act[stop]
            q[active[stop]] = q_new[stop]
            keep = ~stop
            active, kern, ps_act, q_new = active[keep], kern[keep], ps_act[keep], q_new[keep]
        q_act = q_new

    rows = np.nonzero(~corner)[0]
    rate[rows], dist[rows] = _rates_and_distortions(ps[rows], w[rows], d_arr)
    return rate, dist, w, q, gap


def _costs(ps, d_arr):
    """Expected distortion of each constant output under each source row,
    ``ps @ d_arr``. A matrix product may round one row differently in
    batches of different sizes; this contraction does not, so a row's result
    never depends on the rows solved beside it."""
    return np.einsum("nx,xy->ny", ps, d_arr)


def _rates_and_distortions(ps, w, d_arr):
    """Mutual information (bits, floored at 0) and expected distortion of
    each row's channel ``w[n]`` driven by source ``ps[n]``."""
    joint = ps[:, :, None] * w
    marginal = np.einsum("nx,nxy->ny", ps, w)
    mask = joint > 0
    ratio = np.divide(
        w,
        np.maximum(marginal[:, None, :], 1e-300),
        out=np.ones_like(joint),
        where=mask,
    )
    log_ratio = np.log2(ratio, out=np.zeros_like(ratio), where=mask)
    rate = np.einsum("nxy,nxy->n", joint, log_ratio)
    dist = np.einsum("nxy,xy->n", joint, d_arr)
    return np.maximum(rate, 0.0), dist


def _check_tol(tol: float) -> None:
    """Reject a solver tolerance that is not a finite positive number: zero,
    a negative or NaN value could never be met, and inf accepts anything."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be a finite positive number, got {tol}")


def ba_fixed_slope(
    p: Distribution,
    d: DistortionMatrix,
    slope: float,
    tol: float = BA_TOL,
) -> RdPoint:
    """Solve the trade-off at one fixed slope and return the resulting point.

    ``slope`` must be finite and <= 0; slope 0 returns the zero-rate
    endpoint. Converged means a certified optimality gap below ``tol`` bits,
    which implies that successive rate iterates move by less than ``tol`` as
    well; the point's ``lower`` is its rate minus that gap. Raises
    ConvergenceError (carrying the last iterate) if ``_MAX_ITERS`` updates
    run out first.
    """
    _check_tol(tol)
    if not (math.isfinite(slope) and slope <= 0):
        raise ValidationError(f"slope must be finite and nonpositive, got {slope}")
    _check_p_d(p, d)
    if slope == 0:
        # the zero-rate corner, the point of every target at its ceiling
        return _point(_rows_at(p.probs[None, :], d.values, np.array([math.inf]), tol), 0)
    rate, dist, w, _, gap = _solve_fixed_slopes(
        p.probs[None, :], d.values, np.array([slope]), tol
    )
    point = _point((rate, dist, w, rate - gap, np.array([slope])), 0)
    if not gap[0] < tol:
        raise ConvergenceError(
            f"no convergence within {_MAX_ITERS} iterations at slope {slope}",
            last_point=point,
        )
    return point


def _mix_channels(ps, d_arr, w_low, w_high, targets):
    """Land each row exactly on its target by time-sharing two channels whose
    distortions bracket it; expected distortion is linear in the channel.
    Returns (rate, dist, w)."""
    d_low, d_high = (np.einsum("nx,nxy,xy->n", ps, c, d_arr) for c in (w_low, w_high))
    span = d_high - d_low
    alpha = np.divide(
        d_high - targets, span, out=np.zeros_like(span), where=np.abs(span) >= 1e-300
    )
    alpha = np.clip(alpha, 0.0, 1.0)[:, None, None]
    w = alpha * w_low + (1.0 - alpha) * w_high
    return (*_rates_and_distortions(ps, w, d_arr), w)


@np.errstate(under="ignore")
def _slope_search(ps, d_arr, targets, tol, labels, best_only, start):
    """R_p(D) for a batch of sources, each row at its own reachable target
    (floor - 1e-12 <= target < ceiling). Returns (rate, dist, w, lower,
    dual_slope, dual_q): every row stops on a certified bracket on
    R_p(target).

    * **Lower end.** A probe at slope s solves the fixed-slope trade-off to a
      certified gap g, at most tol / 4 unless ``_MAX_ITERS`` runs out first;
      say it has rate r and distortion d. By Blahut's dual,
      R_p(x) >= r + s (x - d) - g for every x, so the best such line over a
      row's probes, read at the target, is a lower end. It is returned
      clamped to the row's rate, which rounding can leave just below it.
    * **Upper end.** Each row keeps two sides, a probe at or below its target
      and one above it. Their (d, r) points are achievable, so the chord
      between them, read at the target, is an upper end; a zero-rate side
      whose ceiling rounds onto the target is one itself.
    * **Search.** The lower side starts at slope -64 and doubles towards
      SLOPE_FLOOR until its distortion is at most the target; a row still
      above it at SLOPE_FLOOR sits at the floor and returns its last probe,
      with lower end r - g. The upper side starts at slope 0, the zero-rate
      corner at the ceiling, which needs no solve. Regula falsi in t = 2^s
      with Anderson-Bjorck weights moves the sides (D(s) is nondecreasing).
    * **Warm start.** ``start`` is a (slopes, output laws) pair, one per
      row, say the dual pair of a nearby source. A row with a slope in
      [SLOPE_FLOOR, 0) and a finite law solves a second probe at that pair
      in the same call as its probe at -64, and both probes' lines compete
      for the lower end. The warm probe becomes the side its distortion
      falls on: at or below the target it is the lower side (unless the
      probe at -64 is too, at a larger slope), and no doubling runs; above
      it, it replaces the zero-rate corner as the upper side while the
      probe at -64 doubles as above. The row's next probe warm-starts from
      it. Any other row, a slope of 0 or NaN say, searches cold.
    * **Exit.** Once its bracket is at most ``tol`` bits wide, a row returns
      its two sides time-shared at exactly the target. Mutual information is
      convex in the channel, so that rate lies inside the bracket. A row
      whose bracket is still wider when its slope bracket collapses, or
      after 200 regula falsi probes, raises ConvergenceError carrying that
      mixed point; ``labels`` names the rows in its message.

    Each probe warm-starts from its own row's previous one, so a row's answer
    depends only on its own source, target and start, not on the rest of
    the batch.

    With ``best_only`` the caller reads only the largest rate, and each
    round drops every searching row whose chord plus ``tol`` is below, by
    more than 1e-12 against rounding, the largest rate some row is sure to
    return: a finished row's rate or a searching row's lower end. A row
    returns at most R_p(target) + tol, which is at most its chord plus
    ``tol``, so a dropped row (rate and lower end -inf, no dual pair) would
    have returned less than the batch maximum. The rows that are not dropped
    run exactly the probes they run without ``best_only``, so their values
    are bit-identical.

    **Dual pair.** ``dual_slope`` and ``dual_q`` are the slope and the output
    law of the probe whose line is the row's lower end: a row at
    the floor keeps its last probe's, and a row whose lower end is still the
    zero-rate side's line keeps slope 0 and the uniform law. Blahut's line
    is linear in p through L_s(p, q), so this pair gives the envelope
    gradient of R_p(target) (see ``_envelope_gradients``). The time-shared
    channel is no such pair: a row may close while its upper side is still
    the zero-rate corner.

    Channel masses underflow to 0 by design here too (time-sharing a
    channel with entries near the smallest float, say), so the search
    ignores underflow whatever numpy's error state is outside it.
    """
    m, ny = ps.shape[0], d_arr.shape[1]
    q_warm = np.zeros((m, ny))
    # the best supporting line of each row's probes, read at its
    # target, and the probe it comes from; the zero-rate side's line is 0
    lower = np.zeros(m)
    dual_slope = np.zeros(m)
    dual_q = np.full((m, ny), 1.0 / ny)

    def compete(rows, slopes, rate, dist, q, gap):
        # a probe's line, read at the target, may raise the lower end; its
        # pair then becomes the row's dual pair
        lines = rate + slopes * (targets[rows] - dist) - gap
        best = lines > lower[rows]
        lower[rows[best]] = lines[best]
        dual_slope[rows[best]], dual_q[rows[best]] = slopes[best], q[best]

    def solve(rows, slopes):
        rate, dist, w, q, gap = _solve_fixed_slopes(ps[rows], d_arr, slopes, tol / 4, q_warm[rows])
        q_warm[rows] = q
        compete(rows, slopes, rate, dist, q, gap)
        return rate, dist, w, gap

    slope = np.full(m, -64.0)
    # the rows whose start pair is usable take a warm probe, at that pair
    s_start, q_start = start
    hot = np.nonzero(
        np.isfinite(s_start) & (s_start < 0.0) & np.isfinite(q_start).all(axis=1)
        & (q_start >= 0.0).all(axis=1) & (q_start.sum(axis=1) > 0.0)
    )[0]
    s_hot, law_hot = np.maximum(s_start[hot], SLOPE_FLOOR), q_start[hot]
    # every row's probe at -64 and the warm probes in one call; the NaN rows
    # start cold
    out = _solve_fixed_slopes(
        np.vstack([ps, ps[hot]]), d_arr, np.concatenate([slope, s_hot]), tol / 4,
        q0=np.vstack([np.full((m, ny), np.nan), law_hot]),
    )
    (rate, dist, w, q, gap), (r_hot, d_hot, w_hot, q_hot, g_hot) = (
        [a[:m] for a in out], [a[m:] for a in out]
    )
    q_warm[:] = q
    # a row's two lines compete in turn, the cold one first
    compete(np.arange(m), slope, rate, dist, q, gap)
    compete(hot, s_hot, r_hot, d_hot, q_hot, g_hot)

    # widen the lower side from the probe at -64 where no probe is at or
    # below the target
    below = np.zeros(m, dtype=bool)  # rows whose warm probe is at or below
    below[hot] = d_hot <= targets[hot]
    widen = (dist > targets) & ~below
    while widen.any():
        wide = np.nonzero(widen)[0]
        slope[wide] = np.maximum(2.0 * slope[wide], SLOPE_FLOOR)
        rate[wide], dist[wide], w[wide], gap[wide] = solve(wide, slope[wide])
        widen = (dist > targets) & ~below & (slope > SLOPE_FLOOR)
    # rows still above their target at the floor are finished
    finished = (dist > targets) & ~below
    lower[finished] = (rate - gap)[finished]
    dual_slope[finished], dual_q[finished] = slope[finished], q_warm[finished]
    searching = ~finished

    # the bracket's two sides, at or below (0) and above (1) the target:
    # slopes, D - target, rates, regula falsi weights and channels
    costs = _costs(ps, d_arr)
    ends = np.stack([slope, np.zeros(m)])
    vals = np.stack([dist - targets, costs.min(axis=1) - targets])
    rates = np.stack([rate, np.zeros(m)])
    chans = np.stack([w, np.zeros_like(w)])
    chans[1, np.arange(m), :, np.argmin(costs, axis=1)] = 1.0
    # each warm probe takes the side its distortion falls on, where it is
    # nearer the target in slope than that side's probe so far
    f_hot = d_hot - targets[hot]
    side = (f_hot > 0.0).astype(int)
    nearer = np.where(
        side == 0, (vals[0, hot] > 0.0) | (s_hot >= ends[0, hot]), s_hot > ends[0, hot]
    )
    take = nearer & searching[hot]
    taken, side = hot[take], side[take]
    ends[side, taken], vals[side, taken] = s_hot[take], f_hot[take]
    rates[side, taken], chans[side, taken] = r_hot[take], w_hot[take]
    q_warm[taken] = q_hot[take]
    weights = vals.copy()
    last = np.full(m, -1)  # the side that moved last
    dropped = np.zeros(m, dtype=bool)
    probes = np.zeros(m, dtype=int)  # regula falsi probes run

    def mix(rows):
        rate[rows], dist[rows], w[rows] = _mix_channels(
            ps[rows], d_arr, chans[0, rows], chans[1, rows], targets[rows]
        )

    def probe(rows, s):
        # a probe at slope ``s`` moves the side its distortion falls on
        rate_s, dist_s, w_s, _ = solve(rows, s)
        f = dist_s - targets[rows]
        side = (f > 0.0).astype(int)
        # when one side moves twice in a row, the other side's weight is
        # scaled by 1 - f_new / f_old (Anderson & Bjorck), or halved
        # (Illinois) where that factor is not positive
        twice = last[rows] == side
        scale = 1.0 - f[twice] / vals[side[twice], rows[twice]]
        weights[1 - side[twice], rows[twice]] *= np.where(scale > 0.0, scale, 0.5)
        ends[side, rows], vals[side, rows], weights[side, rows] = s, f, f
        rates[side, rows], chans[side, rows] = rate_s, w_s
        last[rows] = side
        probes[rows] += 1

    while True:
        rows = np.nonzero(searching)[0]
        (v_lo, v_hi), (r_lo, r_hi) = vals[:, rows], rates[:, rows]
        upper = np.divide(r_lo * v_hi - r_hi * v_lo, v_hi - v_lo, out=r_hi.copy(), where=v_hi > 0.0)
        closed = upper - lower[rows] <= tol
        mix(rows[closed])
        finished[rows[closed]], searching[rows[closed]] = True, False
        rows, upper = rows[~closed], upper[~closed]
        if best_only:
            # drop every row whose chord is below what another is sure of
            sure = max(lower[rows].max(initial=-np.inf), rate[finished].max(initial=-np.inf))
            out = upper + tol + 1e-12 < sure
            searching[rows[out]], dropped[rows[out]] = False, True
            rows, upper = rows[~out], upper[~out]
        lo, hi = ends[:, rows]
        stuck = (hi - lo <= 1e-13 * np.maximum(1.0, -lo)) | (probes[rows] == 200)
        if stuck.any():
            i = int(np.argmax(stuck))
            row = rows[i]
            mix([row])
            raise ConvergenceError(
                f"bracket on R_p({targets[row]}) still {upper[i] - lower[row]:.3g} "
                f"bits wide at slopes [{lo[i]}, {hi[i]}] for batch row {labels[row]}",
                last_point=_point((rate, dist, w, lower, dual_slope), row),
            )
        if not rows.size:
            break
        g_lo, g_hi = weights[:, rows]
        # interpolated in t = 2^s, in which D is close to linear near the
        # floor (D - floor falls like 2^(s * gap) as s -> -inf)
        t = np.exp2(lo) + (np.exp2(hi) - np.exp2(lo)) * g_lo / (g_lo - g_hi)
        with np.errstate(divide="ignore"):
            s = np.log2(t)
        # a probe rounded onto a side falls back to the midpoint
        probe(rows, np.where((s > lo) & (s < hi), s, 0.5 * (lo + hi)))
    rate[dropped] = -np.inf
    dual_slope[dropped], dual_q[dropped] = np.nan, np.nan
    # a lower end read off a line can pass the rate by rounding; the bracket
    # [lower, rate] must not cross
    np.minimum(lower, rate, out=lower)
    return rate, dist, w, lower, dual_slope, dual_q


def _rows_at(ps, d_arr, targets, tol=RATE_TOL, best_only=False, start=None):
    """R_p(D) for a batch of sources, each row at its own target: the one
    door to ``_slope_search``, which checks the targets and ``tol``. Returns
    whole rows (rate, dist, w, lower, dual_slope, dual_q): rate and lower
    end +inf, NaN elsewhere, more than 1e-12 below the floor; the zero-rate
    corner (the first cheapest constant output, slope 0, the uniform law)
    at or above the ceiling; otherwise the search's row, from its ``start``
    pair if given. Floors and ceilings are per-row vector-matrix products,
    the contraction of ``d_min`` and ``d_max``, so they equal theirs bit for
    bit. An empty search, which would still cost a solver call, is skipped."""
    if not (targets >= 0).all():  # NaN fails too
        raise ValidationError("distortion target must be nonnegative")
    _check_tol(tol)
    n, nx = ps.shape
    ny = d_arr.shape[1]
    start = start or (np.full(n, np.nan), np.full((n, ny), np.nan))
    costs = (ps[:, None, :] @ d_arr)[:, 0]
    floors = (ps[:, None, :] @ d_arr.min(axis=1)[:, None])[:, 0, 0]
    rate, lower, slope = np.zeros(n), np.zeros(n), np.zeros(n)
    dist = costs.min(axis=1)
    w = np.zeros((n, nx, ny))
    w[np.arange(n), :, np.argmin(costs, axis=1)] = 1.0
    law = np.full((n, ny), 1.0 / ny)
    none = targets < floors - 1e-12
    rate[none] = lower[none] = np.inf
    dist[none] = slope[none] = w[none] = law[none] = np.nan
    idx = np.nonzero(~none & (targets < dist))[0]
    if idx.size:
        found = _slope_search(
            ps[idx], d_arr, targets[idx], tol, idx, best_only, (start[0][idx], start[1][idx])
        )
        for out, rows in zip((rate, dist, w, lower, slope, law), found):
            out[idx] = rows
    return rate, dist, w, lower, slope, law


def _point(rows, i: int) -> RdPoint:
    """Row ``i`` of ``(rate, dist, w, lower, slope, ...)`` rows as an RdPoint."""
    rate, dist, w, lower, slope = (a[i] for a in rows[:5])
    return RdPoint(float(dist), float(rate), TransitionMatrix(w), float(slope), float(lower))


def _below_floor(p: Distribution, d: DistortionMatrix, target: float) -> InfeasibleError:
    """The error for a target more than 1e-12 below the floor of ``p``."""
    floor = d_min(p, d)
    message = f"target distortion {target} is below the floor {floor}"
    return InfeasibleError(message, lhs=target, rhs=floor)


def rate_at_distortion(
    p: Distribution,
    d: DistortionMatrix,
    target: float,
    tol: float = RATE_TOL,
) -> RdPoint:
    """Rate (bits) needed to reproduce source ``p`` within distortion ``target``.

    A batch of one for ``_rows_at``: the point has a certified bracket
    ``[lower, rate]`` on R_p(target) at most ``tol`` bits wide, and
    ConvergenceError means the search could not close it. Its distortion is
    ``target`` exactly, with two exceptions. A target at or above the
    zero-rate ceiling returns the zero-rate corner, at the ceiling's
    distortion. A target at most 1e-12 below the floor returns the probe at
    ``SLOPE_FLOOR``, at the floor up to rounding unless an entry of ``d``
    lies less than about 1e-3 above its row's least, which that slope does
    not pin down. A target lower still raises InfeasibleError.
    """
    _check_p_d(p, d)
    rows = _rows_at(p.probs[None, :], d.values, np.array([float(target)]), tol)
    if rows[0][0] == np.inf:
        raise _below_floor(p, d, target)
    return _point(rows, 0)


def rd_curve(
    p: Distribution,
    d: DistortionMatrix,
    num_points: int,
    tol: float = RATE_TOL,
) -> RdCurve:
    """Rate-distortion curve at ``num_points`` distortions linearly spaced
    across [floor, ceiling], searched in one batch: each point is the one
    ``rate_at_distortion`` returns at its target."""
    if num_points < 2:
        raise ValidationError("need at least two curve points")
    targets = np.linspace(d_min(p, d), d_max(p, d), num_points)
    rows = _rows_at(np.tile(p.probs, (num_points, 1)), d.values, targets, tol)
    points = sorted((_point(rows, i) for i in range(num_points)), key=lambda pt: pt.distortion)
    return RdCurve(p, tuple(points))


def rates_at_distortion_batch(
    ps: np.ndarray,
    d: DistortionMatrix,
    target: float,
    *,
    tol: float = RATE_TOL,
    best_only: bool = False,
    start=None,
):
    """Rates for many sources at one target distortion, searched side by
    side, with the certificate of each: returns ``(rates, grads, duals,
    lowers)``. This is the workhorse behind grid searches over sources, and
    the public face of ``_rows_at``: a row more than 1e-12 below its floor
    gets +inf, a row at or above its ceiling gets 0, and every other row the
    rate of a channel at exactly the target, at most ``tol`` bits above
    R_p(target). Each row of ``ps`` must be a law over the inputs of ``d``,
    within ``SIMPLEX_ATOL`` as ``Distribution`` checks it.

    ``best_only`` is for callers that read only the largest rate: the search
    then stops early on every row whose bracket's upper end, plus ``tol``,
    shows it below another row's value, and such a row gets -inf. Every
    other row gets the same value, bit for bit, as without ``best_only``
    from the same ``start``. A row that would fail to converge may be
    dropped before it fails.

    ``grads`` holds, per row, the envelope gradient of R_p(target) in p (see
    ``_envelope_gradients``), read off the row's certificate at no extra
    solve. ``duals`` is the pair ``(slopes, laws)`` of that certificate: the
    slope and the output law of the Blahut line that is the row's lower end.
    ``lowers`` holds those lower ends, clamped to the rates, so R_p(target)
    lies in ``[lowers, rates]``, which never cross, and the bracket is at
    most ``tol`` wide. A row given +inf or -inf has no gradient and no pair
    (NaN), and its lower end is its rate; a row given 0 at its ceiling has
    gradient 0, the pair of slope 0 and the uniform law, and lower end 0.

    ``start`` takes such a pair, one slope and one output law per row, and
    warm-starts each row's search from it (see ``_slope_search``): passing
    the ``duals`` of nearby sources saves probes. A row whose slope is 0 or
    not finite searches cold. A row's value depends only on its own source
    and start, and lies within its bracket either way.
    """
    if not target >= 0:  # NaN fails too
        raise ValidationError("distortion target must be nonnegative")
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 2 or ps.shape[1] != d.num_inputs:
        raise ValidationError(
            f"sources must be rows of {d.num_inputs} probabilities, got shape {ps.shape}"
        )
    # NaN and inf entries fail these comparisons too
    if not ((ps >= -SIMPLEX_ATOL).all() and (np.abs(ps.sum(axis=1) - 1.0) <= SIMPLEX_ATOL).all()):
        raise ValidationError(f"every source row must be a distribution within {SIMPLEX_ATOL}")
    n, ny = ps.shape[0], d.num_outputs
    if start is not None:
        start = np.asarray(start[0], dtype=float), np.asarray(start[1], dtype=float)
        if start[0].shape != (n,) or start[1].shape != (n, ny):
            raise ValidationError(
                f"start must hold {n} slopes and {n} laws over {ny} outputs, got shapes "
                f"{start[0].shape} and {start[1].shape}"
            )
    rates, _, _, lowers, slopes, laws = _rows_at(
        ps, d.values, np.full(n, float(target)), tol, best_only, start
    )
    return rates, _envelope_gradients(d.values, slopes, laws), (slopes, laws), lowers


@np.errstate(under="ignore")
def _envelope_gradients(d_arr, slopes, qs):
    """-log2 sum_y q(y) 2^(s d(x, y)) per row and input x, at each row's
    slope s and output law q.

    At a row's dual pair (see ``_slope_search``) this is the derivative of
    R_p(target) in p(x) (Blahut 1972; Csiszar 1974): R_p(D) is the largest
    Blahut line s D + L_s(p, q), L_s(p, q) = -sum_x p(x) log2 sum_y q(y)
    2^(s d(x, y)) is linear in p, and by the envelope theorem only the
    line's own p-dependence moves R. Slope 0 gives exactly 0, as
    sum_y q(y) = 1 there, however the sum rounds. The kernel is the
    solver's, shifted by each input's cheapest entry, and its sums are
    floored at 1e-300, so an input that q never reaches (a symbol with
    p(x) = 0, say) gets a large finite entry, not +inf.
    """
    lows = d_arr.min(axis=1)
    kernel = np.exp2(slopes[:, None, None] * (d_arr - lows[:, None])[None, :, :])
    sums = np.einsum("nxy,ny->nx", kernel, qs)
    grads = -slopes[:, None] * lows[None, :] - np.log2(np.maximum(sums, 1e-300))
    grads[slopes == 0.0] = 0.0
    return grads
