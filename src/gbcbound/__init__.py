"""Outer bounds on the distortion region for Gaussian broadcast of a Gaussian source.

The library evaluates the schedule-indexed family of outer-bound
inequalities, decides region membership by maximizing over schedules,
traces region boundaries, cross-validates membership against capacity
region containment of the induced virtual broadcast channel, checks the
Minkowski inequality machinery the analysis rests on, and verifies by
Monte Carlo that uncoded transmission achieves the per-receiver optima
at matched bandwidth.
"""

from .bound import (
    BoundEvaluation,
    bound_rhs,
    check_inequality,
    eval_lhs,
    reduced_bound_value,
)
from .capacity import (
    ContainmentResult,
    GaussianBC,
    RatePoint,
    boundary_rates,
    containment,
    point_to_point_capacity,
    rate_membership,
    scenario_from_capacities,
    split_grid,
    virtual_channel,
)
from .core import (
    BroadcastScenario,
    DistortionTuple,
    TauSchedule,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    step_schedule,
    trivial_distortion,
    trivial_distortions,
    validate_scenario,
)
from .membership import (
    MembershipVerdict,
    SupResult,
    TrivialComparison,
    classify_vs_trivial,
    in_outer_region,
    sup_bound_lhs,
    trace_boundary,
)
from .minkowski import MinkowskiCheck, check_minkowski, equality_condition, power_sum
from .simulate import GENERATOR_NAME, SimConfig, SimReport, run_analog
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundEvaluation",
    "BroadcastScenario",
    "CheckResult",
    "ContainmentResult",
    "DistortionTuple",
    "GENERATOR_NAME",
    "GaussianBC",
    "MembershipVerdict",
    "MinkowskiCheck",
    "RatePoint",
    "SimConfig",
    "SimReport",
    "SupResult",
    "TauSchedule",
    "TrivialComparison",
    "bound_rhs",
    "boundary_rates",
    "check_inequality",
    "check_minkowski",
    "classify_vs_trivial",
    "containment",
    "equality_condition",
    "eval_lhs",
    "in_outer_region",
    "load_scenario",
    "point_to_point_capacity",
    "power_sum",
    "rate_membership",
    "reduced_bound_value",
    "run_all_checks",
    "run_analog",
    "scenario_from_capacities",
    "scenario_from_dict",
    "scenario_to_dict",
    "split_grid",
    "step_schedule",
    "sup_bound_lhs",
    "trace_boundary",
    "trivial_distortion",
    "trivial_distortions",
    "validate_scenario",
    "virtual_channel",
]
