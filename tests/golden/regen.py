"""Regenerate the golden decision digests (``decisions.json``).

Every policy runs on four seeded setups on the 64-GPU heterogeneous
preset: a plain Helios run, a fault-heavy ``resilient=True`` run, a
gray-failure run with the health layer on, and a contended run.  The
first three run eight short jobs that never wait for GPUs; the contended
run submits 48 full-length jobs in half an hour and stops after an hour,
so jobs queue and the rigid policies' serving order decides who runs.  Each case is built the way the
CLI builds a run — a run spec from ``build_run_spec``, the simulator from
``simulator_from_spec`` — so the fixture pins that builder too.  For each
round the fixture stores one SHA-256 over the tuple
``benchmarks/e2e/child.py`` hashes for its decision digest (round time,
sorted allocations, backend, fault events), one SHA-256 over the
round's sorted ``RoundRecord.estimates`` (the goodput each allocated
job's estimator predicted, so estimate drift shows even where no
allocation moves), plus the run's end metrics.
``tests/test_golden.py`` reruns every case against it.

A change that is meant to move decisions regenerates the fixture from the
repository root and commits the diff with it::

    PYTHONPATH=src python -m tests.golden.regen
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

from repro.analysis.replay import build_run_spec, simulator_from_spec
from repro.cluster import presets
from repro.core.fork import scheduler_jobs
from repro.sim import Simulator
from repro.workloads import helios_trace

FIXTURE = Path(__file__).with_name("decisions.json")

POLICIES = ("sia", "pollux", "gavel", "shockwave", "themis", "fifo", "srtf")
SETUPS = ("helios64", "faults", "gray", "contended")
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
    "contended": {},
}


def build(setup: str, policy: str) -> Simulator:
    """The simulator for one (setup, policy) case."""
    if setup == "contended":
        trace = helios_trace(seed=3, num_jobs=48, window_hours=0.5,
                             work_scale_factor=1.0)
        max_hours = 1.0
    else:
        trace = helios_trace(seed=3, num_jobs=8, window_hours=1.0,
                             work_scale_factor=0.1)
        max_hours = 4.0
    jobs = scheduler_jobs(policy, trace.jobs, presets.heterogeneous(),
                          trace.seed)
    spec = build_run_spec(
        scheduler=policy, cluster="heterogeneous", jobs=jobs, seed=1,
        max_hours=max_hours, resilient=setup in ("faults", "gray"),
        node_failure_rate=0.05 if setup == "faults" else 0.0,
        health=setup == "gray", fault_options=FAULTS[setup])
    return simulator_from_spec(spec)


def round_digest(rnd) -> str:
    """SHA-256 over one round's time, allocations, backend and faults."""
    faults = [(e.kind, e.time, e.target, e.detail) for e in rnd.fault_events]
    return hashlib.sha256(repr((rnd.time, sorted(rnd.allocations.items()),
                                rnd.backend, faults)).encode()).hexdigest()


def estimates_digest(rnd) -> str:
    """SHA-256 over one round's sorted per-job goodput estimates."""
    return hashlib.sha256(
        repr(sorted(rnd.estimates.items())).encode()).hexdigest()


def record(result) -> dict:
    """What the fixture pins for one finished run."""
    return {
        "rounds": [round_digest(rnd) for rnd in result.rounds],
        "estimates": [estimates_digest(rnd) for rnd in result.rounds],
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
