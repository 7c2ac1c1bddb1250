"""Sia's core: configuration sets, goodput matrix, ILP, restart factor,
bootstrapping, policy and placement."""

from repro.core.bootstrap import (bootstrap_ratio, bootstrap_throughput,
                                  pick_reference_type)
from repro.core.configs import (build_config_set, feasible_for_job,
                                multi_node_configs, powers_of_two_up_to,
                                single_node_configs)
from repro.core.health import (HealthConfig, HealthEvent, HealthTracker,
                               NodeHealth, deterministic_jitter,
                               placement_backoff)
from repro.core.ilp import (AssignmentProblem, AssignmentSolution,
                            solve_assignment)
from repro.core.matrix import (apply_health_discount, apply_restart_discount,
                               config_index, normalize_rows, restart_factor,
                               shape_utilities)
from repro.core.placement import Placer, PlacementResult
from repro.core.policy import SiaPolicy, SiaPolicyParams
from repro.core.types import (AdaptivityMode, Allocation, BatchScale,
                              Configuration, JobStatus, PolicyDecision,
                              ProfilingMode)

__all__ = [
    "bootstrap_ratio", "bootstrap_throughput", "pick_reference_type",
    "build_config_set", "feasible_for_job", "multi_node_configs",
    "powers_of_two_up_to", "single_node_configs",
    "AssignmentProblem", "AssignmentSolution", "solve_assignment",
    "apply_health_discount", "apply_restart_discount",
    "config_index", "normalize_rows", "restart_factor", "shape_utilities",
    "HealthConfig", "HealthEvent", "HealthTracker", "NodeHealth",
    "deterministic_jitter", "placement_backoff",
    "Placer", "PlacementResult",
    "SiaPolicy", "SiaPolicyParams",
    "AdaptivityMode", "Allocation", "BatchScale", "Configuration",
    "JobStatus", "PolicyDecision", "ProfilingMode",
]
