"""Discrete-time trace-driven cluster simulator."""

from repro.sim.chaos import ChaosReport, CrashAt, SimulatedCrash, run_chaos
from repro.sim.checkpoint import (CheckpointConfig, CheckpointCorruptError,
                                  CheckpointError, CheckpointState,
                                  latest_valid_checkpoint, read_checkpoint,
                                  write_checkpoint)
from repro.sim.engine import Simulator, SimulatorConfig, simulate
from repro.sim.executor import ExecutionModel, RoundExecution
from repro.sim.faults import (CheckpointRestoreFaultModel, FaultContext,
                              FaultModel, GrayFailureModel, JobCrashModel,
                              NodeCrashModel, PlacementFailure,
                              PlacementFailureModel, StragglerModel,
                              TelemetryCorruptionModel)
from repro.sim.invariants import InvariantChecker, InvariantError
from repro.sim.telemetry import (FaultEvent, JobRecord, RoundRecord,
                                 SimulationResult)

__all__ = [
    "Simulator", "SimulatorConfig", "simulate",
    "ExecutionModel", "RoundExecution",
    "FaultModel", "FaultContext", "NodeCrashModel", "StragglerModel",
    "JobCrashModel", "CheckpointRestoreFaultModel", "GrayFailureModel",
    "PlacementFailure", "PlacementFailureModel", "TelemetryCorruptionModel",
    "FaultEvent", "JobRecord", "RoundRecord", "SimulationResult",
    "CheckpointConfig", "CheckpointState", "CheckpointError",
    "CheckpointCorruptError", "write_checkpoint", "read_checkpoint",
    "latest_valid_checkpoint",
    "InvariantChecker", "InvariantError",
    "ChaosReport", "CrashAt", "SimulatedCrash", "run_chaos",
]
