"""Sia's core: configuration sets, goodput matrix, ILP, restart factor,
bootstrapping, policy parameters and placement."""

from repro.core.bootstrap import (BootstrapModel, bootstrap_ratio,
                                  bootstrap_throughput)
from repro.core.configs import (build_config_set, multi_node_configs,
                                powers_of_two_up_to, single_node_configs)
from repro.core.health import (HealthConfig, HealthEvent, HealthTracker,
                               NodeHealth, deterministic_jitter,
                               placement_backoff)
from repro.core.ilp import (AssignmentProblem, AssignmentSolution,
                            solve_assignment)
from repro.core.matrix import (apply_health_discount, apply_restart_discount,
                               normalize_rows, restart_factor,
                               shape_utilities)
from repro.core.placement import place
from repro.core.policy import SiaPolicyParams
from repro.core.types import (AdaptivityMode, Allocation, Configuration,
                              ProfilingMode)

__all__ = [
    "BootstrapModel", "bootstrap_ratio", "bootstrap_throughput",
    "build_config_set", "multi_node_configs",
    "powers_of_two_up_to", "single_node_configs",
    "AssignmentProblem", "AssignmentSolution", "solve_assignment",
    "apply_health_discount", "apply_restart_discount",
    "normalize_rows", "restart_factor", "shape_utilities",
    "HealthConfig", "HealthEvent", "HealthTracker", "NodeHealth",
    "deterministic_jitter", "placement_backoff",
    "place", "SiaPolicyParams",
    "AdaptivityMode", "Allocation", "Configuration", "ProfilingMode",
]
