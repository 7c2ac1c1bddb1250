"""Regenerate the golden decision digests (``decisions.json``).

Every policy runs on three small seeded setups on the 64-GPU heterogeneous
preset: a plain Helios run, a fault-heavy ``resilient=True`` run, and a
gray-failure run with the health layer on.  For each round the fixture
stores one SHA-256 over the tuple ``benchmarks/e2e/child.py`` hashes for
its decision digest (round time, sorted allocations, backend, fault
events), plus the run's end metrics.  ``tests/test_golden.py`` reruns
every case against it.

A change that is meant to move decisions regenerates the fixture from the
repository root and commits the diff with it::

    PYTHONPATH=src python -m tests.golden.regen
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

from repro.cluster import presets
from repro.core.fork import RIGID_SCHEDULERS, make_fault_models, make_scheduler
from repro.core.health import HealthConfig
from repro.sim import Simulator, SimulatorConfig
from repro.workloads import helios_trace, tuned_jobs

FIXTURE = Path(__file__).with_name("decisions.json")

POLICIES = ("sia", "pollux", "gavel", "shockwave", "themis", "fifo", "srtf")
SETUPS = ("helios64", "faults", "gray")
#: fixture key "<setup>/<policy>" -> (setup, policy).
CASES = {f"{setup}/{policy}": (setup, policy)
         for setup in SETUPS for policy in POLICIES}

#: fault knobs (``repro.core.fork.FAULT_OPTION_DEFAULTS`` names) per setup.
FAULTS = {
    "helios64": {},
    "faults": {"straggler_rate": 2.0, "job_crash_rate": 2.0,
               "restore_failure_prob": 0.2},
    "gray": {"gray_rate": 1.0, "placement_fail_prob": 0.1,
             "telemetry_corrupt_rate": 0.5},
}


def build(setup: str, policy: str) -> Simulator:
    """The simulator for one (setup, policy) case."""
    cluster = presets.heterogeneous()
    trace = helios_trace(seed=3, num_jobs=8, window_hours=1.0,
                         work_scale_factor=0.1)
    jobs = trace.jobs
    if policy in RIGID_SCHEDULERS:
        jobs = tuned_jobs(jobs, cluster, seed=trace.seed)
    resilient = setup != "helios64"
    config = SimulatorConfig(
        seed=1, max_hours=4.0, resilient=resilient,
        node_failure_rate=0.05 if setup == "faults" else 0.0,
        fault_models=make_fault_models(FAULTS[setup]),
        health=HealthConfig() if setup == "gray" else None)
    return Simulator(cluster, make_scheduler(policy, resilient=resilient),
                     jobs, config)


def round_digest(rnd) -> str:
    """SHA-256 over one round's time, allocations, backend and faults."""
    faults = [(e.kind, e.time, e.target, e.detail) for e in rnd.fault_events]
    return hashlib.sha256(repr((rnd.time, sorted(rnd.allocations.items()),
                                rnd.backend, faults)).encode()).hexdigest()


def record(result) -> dict:
    """What the fixture pins for one finished run."""
    return {
        "rounds": [round_digest(rnd) for rnd in result.rounds],
        "avg_jct_h": statistics.fmean(result.jcts_hours()),
        "makespan_h": result.makespan_hours,
        "completed": len(result.completed_jobs),
        "censored": result.censored,
    }


def main() -> None:
    cases = {key: record(build(*case).run()) for key, case in CASES.items()}
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")


if __name__ == "__main__":
    main()
