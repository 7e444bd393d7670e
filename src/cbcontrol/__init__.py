"""Charge-balanced control of discrete-time linear systems.

Decide reachability and controllability when every length-h block of
inputs must sum to zero per channel, synthesize minimum-energy input
sequences in the repetitive (identical blocks) and non-repetitive
(distinct blocks) regimes, and simulate and verify the result.
"""

from .analysis import (
    ConditionCheck,
    ControllabilityVerdict,
    PbhResult,
    RatioOrder,
    check_nonrepetitive_sufficient,
    check_repetitive_sufficient,
    hb_invertible,
    pbh_controllable,
    select_h,
    unit_ratio_orders,
)
from .bundled import bundled_problem
from .charge_balance import BlockScheme, build_scheme
from .design import (
    ControlPlan,
    PlanVerification,
    SteeringTask,
    design_nonrepetitive,
    design_repetitive,
    oracle_stacked_ls,
    rollout,
    verify_plan,
)
from .errors import (
    AnalysisError,
    ChargeBalanceError,
    DimensionError,
    PreconditionError,
    ProblemFormatError,
    ReachabilityError,
)
from .lifting import LiftedSystem, h_sum, lift, reachability_matrix
from .problem_io import Problem, load_problem, parse_problem
from .system import LtiSystem, Trajectory, simulate
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BlockScheme",
    "ChargeBalanceError",
    "ConditionCheck",
    "ControlPlan",
    "ControllabilityVerdict",
    "DEFAULT",
    "DimensionError",
    "LiftedSystem",
    "LtiSystem",
    "PbhResult",
    "PlanVerification",
    "PreconditionError",
    "Problem",
    "ProblemFormatError",
    "RatioOrder",
    "ReachabilityError",
    "SteeringTask",
    "Tolerances",
    "Trajectory",
    "build_scheme",
    "bundled_problem",
    "check_nonrepetitive_sufficient",
    "check_repetitive_sufficient",
    "design_nonrepetitive",
    "design_repetitive",
    "h_sum",
    "hb_invertible",
    "lift",
    "load_problem",
    "oracle_stacked_ls",
    "parse_problem",
    "pbh_controllable",
    "reachability_matrix",
    "rollout",
    "select_h",
    "simulate",
    "unit_ratio_orders",
    "verify_plan",
]
