"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ValidationError -> 3, InfeasibleError -> 2,
GuardError and ConvergenceError -> 4.
"""


class SwitchRdError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SwitchRdError, ValueError):
    """Malformed input: off-simplex probabilities, bad dimensions, bad files."""


class InfeasibleError(SwitchRdError):
    """A mathematically infeasible request, e.g. a target distribution outside
    the attainable set or a distortion below the floor of the queried source.

    ``certificate`` carries a witness when one exists (for region problems, the
    bitmask of a violated symbol subset)."""

    def __init__(self, message: str, *, certificate=None, lhs=None, rhs=None):
        super().__init__(message)
        self.certificate = certificate
        self.lhs = lhs
        self.rhs = rhs


class GuardError(SwitchRdError):
    """A desk-scale enumeration cap was exceeded."""


class ConvergenceError(SwitchRdError):
    """An iterative solver ran out of iterations.

    The rate search raises it when a row's certified bracket on R_p(D) is
    still wider than ``tol`` bits once its slope bracket has collapsed or its
    200 rounds are spent; the message names the width and, in a batch, the
    row. This happens where R_p(D) is straight around the target, so that
    D(s) jumps across it at one slope, or where probes near a change of the
    optimal output support crawl for longer than the solver's one iteration
    budget, ``rate_distortion._MAX_ITERS``. ``ba_fixed_slope`` raises it when
    its solve spends that budget without certifying a gap below its ``tol``.
    The CLI reports it with exit code 4. ``last_point`` holds the solver's
    last point (for the rate search, the row's two sides time-shared at the
    target), so callers can inspect how far it got. ``hull_member`` and
    ``synthesize_rule`` raise it if their nearest-point search (Wolfe's
    method, one cycle cap for both) runs out of major cycles, and
    ``synthesize_rule`` also when the rule it decomposes an attainable target
    into induces a law more than L1 1e-8 from that target."""

    def __init__(self, message: str, *, last_point=None):
        super().__init__(message)
        self.last_point = last_point
