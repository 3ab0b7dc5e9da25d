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

    The rate solver raises it when a fixed-slope solve spends its whole
    iteration budget (``max_iters``) without certifying an optimality gap
    below ``ba_tol`` bits: the budget is too small for the tolerance asked
    for, or the slope sits so close to a change of the optimal output support
    that the iteration crawls for longer than the budget. The CLI reports it
    with exit code 4. ``last_point`` holds the last iterate, where there is a
    single one, so callers can inspect how far the solve got. ``hull_member``
    and ``synthesize_rule`` raise it if their nearest-point search (Wolfe's
    method, one cycle cap for both) runs out of major cycles."""

    def __init__(self, message: str, *, last_point=None):
        super().__init__(message)
        self.last_point = last_point
