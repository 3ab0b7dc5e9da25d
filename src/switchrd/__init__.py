"""Worst-case rate-distortion analysis for an adversarial multi-source switch.

A switch observes several known IID sources and, with full lookahead over
their realizations, emits one of the offered symbols at every time step. This
package computes the set of IID distributions such a switch can imitate, the
worst-case rate-distortion curve over that set, constructive switch rules for
any attainable target, and desk-scale Monte Carlo / covering-codebook
verification of both sides of that story.
"""

from .errors import (
    ConvergenceError,
    GuardError,
    InfeasibleError,
    SwitchRdError,
    ValidationError,
)
from .game_sim import (
    Codebook,
    SimReport,
    best_response_distortion,
    build_covering_codebook,
    converse_bound,
    distortion_to_codebook,
    sample_sources,
    simulate_game,
)
from .optimizer import (
    MaximizerResult,
    maximize_over_hull,
    maximize_over_region,
    rd_tilde_curve,
)
from .probcore import (
    Distribution,
    DistortionMatrix,
    SourceList,
    TransitionMatrix,
    d_max,
    d_min,
    entropy,
    expected_distortion,
    mutual_information,
)
from .problem import ProblemSpec, load_problem
from .rate_distortion import (
    RdCurve,
    RdPoint,
    ba_fixed_slope,
    rate_at_distortion,
    rates_at_distortion_batch,
    rd_curve,
)
from .region import (
    ConstraintReport,
    RegionSpec,
    beta_of_subset,
    beta_table,
    enumerate_constraints,
    format_subset,
    hull_member,
    is_member,
    mask_of,
    q_of_subset,
    realizable_subsets,
    subset_members,
)
from .strategy import (
    SwitchRule,
    apply_rule,
    greedy_max_rule,
    induced_distribution,
    synthesize_rule,
)

__all__ = [
    "Codebook",
    "ConstraintReport",
    "ConvergenceError",
    "Distribution",
    "DistortionMatrix",
    "GuardError",
    "InfeasibleError",
    "MaximizerResult",
    "ProblemSpec",
    "RdCurve",
    "RdPoint",
    "RegionSpec",
    "SimReport",
    "SourceList",
    "SwitchRdError",
    "SwitchRule",
    "TransitionMatrix",
    "ValidationError",
    "apply_rule",
    "ba_fixed_slope",
    "best_response_distortion",
    "beta_of_subset",
    "beta_table",
    "build_covering_codebook",
    "converse_bound",
    "d_max",
    "d_min",
    "distortion_to_codebook",
    "entropy",
    "enumerate_constraints",
    "expected_distortion",
    "format_subset",
    "greedy_max_rule",
    "hull_member",
    "induced_distribution",
    "is_member",
    "load_problem",
    "mask_of",
    "maximize_over_hull",
    "maximize_over_region",
    "mutual_information",
    "q_of_subset",
    "rate_at_distortion",
    "rates_at_distortion_batch",
    "rd_curve",
    "rd_tilde_curve",
    "realizable_subsets",
    "sample_sources",
    "simulate_game",
    "subset_members",
    "synthesize_rule",
]

__version__ = "0.1.0"
