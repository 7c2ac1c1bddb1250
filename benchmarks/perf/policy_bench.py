"""Policy-pipeline microbenchmarks: goodput pass + solver tiers at scale.

Measures, per (cluster size, job count) point:

* full policy round latency (bootstrap + goodput_eval + solve + placement)
  via the observability phase spans;
* per-solver-backend columns (``milp``, ``lp_round``, ``tiered``): round
  latency, solve-phase time, first-round objective and its gap vs the MILP
  reference when the MILP column ran — the solver-tier scaling story up to
  16384 GPUs / 4096 jobs;
* steady-state estimator cache hit rate across consecutive rounds.

Each point's gated column is one of its ``backends`` columns: MILP up to
256 GPUs, tiered beyond (:func:`gated_backend`).  The 4096-GPU point also
carries the round-latency target it is reported against.

Results land in ``BENCH_policy.json``.  ``--check-baseline`` compares the
gated round latencies against a committed baseline and exits non-zero
on a > ``--regression-factor`` (default 2x) slowdown, which is how CI gates
performance regressions.  ``--sizes`` / ``--backends`` narrow a run (CI
uses ``--sizes 1024`` for the large-point gate without paying for 4096).

Run:  PYTHONPATH=src python benchmarks/perf/policy_bench.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.cluster import presets
from repro.core.policy import SiaPolicyParams
from repro.core.types import ProfilingMode
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.schedulers.base import PLAN_PHASES, JobView
from repro.workloads import helios_trace

#: active jobs per 64 GPUs (paper-proportional load, as in Figure 9).
JOBS_PER_64 = 16

#: largest size where the exact-MILP reference column is still affordable
#: to time.
FULL_COMPARE_MAX_GPUS = 256

#: per-round policy latency targets (seconds) reported next to a point's
#: gated round latency; reported, not gated.
ROUND_TARGET_S = {4096: 0.150}


def gated_backend(size: int) -> str:
    """The column the baseline gate reads: the MILP where affordable, the
    tiered solver past the cutoff."""
    return "milp" if size <= FULL_COMPARE_MAX_GPUS else "tiered"


def gated_column(point: dict) -> dict:
    return point["backends"][gated_backend(point["gpus"])]


def default_backends(size: int) -> tuple[str, ...]:
    """Solver columns per point: the MILP reference is measured only where
    it is affordable; the fast tiers are measured everywhere."""
    if size <= FULL_COMPARE_MAX_GPUS:
        return ("milp", "lp_round", "tiered")
    return ("lp_round", "tiered")


def make_views(scheduler, cluster, n_jobs: int) -> list[JobView]:
    trace = helios_trace(seed=4, num_jobs=n_jobs)
    views = []
    for job in trace.jobs:
        estimator = scheduler.make_estimator(job, cluster,
                                             ProfilingMode.BOOTSTRAP)
        estimator.profile_initial()
        views.append(JobView(job=job, estimator=estimator,
                             current_config=None, age=0.0, num_restarts=0,
                             progress=0.0))
    return views


def run_rounds(scheduler, cluster, views, rounds: int) -> dict:
    """Run consecutive policy rounds over the same views (steady state after
    round 1: no new observations, so estimator caches stay warm), then one
    extra *cold-cache* round at the warm running state.

    The cold round is the honest goodput_eval comparison point: every job
    is running at a realistic configuration (large feasible sets) and every
    feasible (job, config) pair is evaluated exactly once.  The earlier
    warm rounds measure the latency jobs actually see (cache hits included).
    """
    from repro.obs.metrics import MetricsRegistry

    tracer = Tracer()
    scheduler.tracer = tracer
    scheduler.metrics = MetricsRegistry()
    latencies = []
    objectives = []
    previous: dict = {}
    for r in range(rounds):
        start = time.perf_counter()
        plan = scheduler.decide(views, cluster, previous, 60.0 * r)
        latencies.append(time.perf_counter() - start)
        objectives.append(plan.objective)
        previous = dict(plan.allocations)
        for view in views:
            alloc = plan.allocations.get(view.job_id)
            view.current_config = alloc.configuration() \
                if alloc is not None else None
    phases = {name: tracer.span_stats(name).total for name in PLAN_PHASES}
    hits = sum(getattr(v.estimator, "cache_hits", 0) for v in views)
    misses = sum(getattr(v.estimator, "cache_misses", 0) for v in views)
    counters = scheduler.metrics.snapshot()

    for view in views:
        cache = getattr(view.estimator, "_goodput_cache", None)
        if cache is not None:
            cache.clear()
    cold_tracer = Tracer()
    scheduler.tracer = cold_tracer
    scheduler.decide(views, cluster, previous, 60.0 * rounds)
    return {
        "latencies": latencies,
        "objectives": objectives,
        "phases": phases,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "eval_cold": cold_tracer.span_stats("goodput_eval").total,
        "warm_start_hits": counters.get("solver.warm_start_hits", 0),
    }


def _column(result: dict) -> dict:
    return {
        "round_latency_median": statistics.median(result["latencies"]),
        "round_latency_first": result["latencies"][0],
        "objective_first": result["objectives"][0],
        "phase_totals": result["phases"],
        "goodput_eval_cold": result["eval_cold"],
        "cache_hit_rate": result["cache_hit_rate"],
        "warm_start_hits": result["warm_start_hits"],
    }


def measure_backend(cluster, n_jobs: int, rounds: int, solver: str) -> dict:
    """One (point, solver backend) measurement from a fresh job trace."""
    scheduler = SiaScheduler(SiaPolicyParams(solver=solver))
    views = make_views(scheduler, cluster, n_jobs)
    return run_rounds(scheduler, cluster, views, rounds)


def measure_point(size: int, n_jobs: int, rounds: int,
                  backends: tuple[str, ...] | None = None) -> dict:
    cluster = presets.scaled_heterogeneous(size)
    point: dict = {"gpus": size, "jobs": n_jobs, "rounds": rounds}
    if backends is None:
        backends = default_backends(size)
    if gated_backend(size) not in backends:
        backends = (*backends, gated_backend(size))

    point["backends"] = {}
    for solver in backends:
        point["backends"][solver] = _column(
            measure_backend(cluster, n_jobs, rounds, solver))
    # First-round objective gap vs the MILP reference (identical initial
    # views per backend: same trace seed, no prior allocations).  Rigorous
    # gap bounds live in tests/test_solver_tiers.py; this is the at-scale
    # spot check.
    milp_obj = point["backends"].get("milp", {}).get("objective_first")
    if milp_obj:
        for solver, column in point["backends"].items():
            column["optimality_gap_first"] = \
                (milp_obj - column["objective_first"]) / abs(milp_obj)
    if size in ROUND_TARGET_S:
        point["round_latency_target"] = ROUND_TARGET_S[size]
    return point


def run_bench(quick: bool, sizes: tuple[int, ...] | None = None,
              backends: tuple[str, ...] | None = None) -> dict:
    if sizes is None:
        sizes = (64,) if quick else (64, 128, 256, 1024, 4096, 16384)
    rounds = 2 if quick else 3
    points = [measure_point(size, JOBS_PER_64 * (size // 64), rounds,
                            backends=backends)
              for size in sizes]
    return {"benchmark": "policy_round", "jobs_per_64_gpus": JOBS_PER_64,
            "points": points}


def check_baseline(report: dict, baseline_path: Path,
                   factor: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    by_size = {p["gpus"]: p for p in baseline["points"]}
    failures = []
    for point in report["points"]:
        ref = by_size.get(point["gpus"])
        if ref is None:
            continue
        now = gated_column(point)["round_latency_median"]
        then = gated_column(ref)["round_latency_median"]
        if now > factor * then:
            failures.append(
                f"{point['gpus']} GPUs: round latency {now:.4f}s "
                f"> {factor:.1f}x baseline {then:.4f}s")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smallest instance only (CI)")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated GPU counts to measure "
                             "(overrides --quick's size selection)")
    parser.add_argument("--backends", type=str, default=None,
                        help="comma-separated solver backends to column "
                             "(default: per-size, MILP reference <= "
                             f"{FULL_COMPARE_MAX_GPUS} GPUs only)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_policy.json"))
    parser.add_argument("--check-baseline", type=Path, default=None,
                        help="baseline JSON to gate regressions against")
    parser.add_argument("--regression-factor", type=float, default=2.0)
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in args.sizes.split(",")) \
        if args.sizes else None
    backends = tuple(args.backends.split(",")) if args.backends else None
    report = run_bench(args.quick, sizes=sizes, backends=backends)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for point in report["points"]:
        gated = gated_column(point)
        line = (f"{point['gpus']:5d} GPUs / {point['jobs']:4d} jobs: "
                f"round {gated['round_latency_median'] * 1e3:8.1f} ms")
        if "round_latency_target" in point:
            line += (f" (target <= "
                     f"{point['round_latency_target'] * 1e3:.0f} ms),")
        eval_ms = gated['phase_totals']['goodput_eval'] * 1e3
        line += (f" goodput_eval {eval_ms:8.1f} ms total,"
                 f" cache hit rate {gated['cache_hit_rate']:.0%}")
        print(line)
        for solver, column in point.get("backends", {}).items():
            gap = column.get("optimality_gap_first")
            gap_text = f", gap {gap:+.2%}" if gap is not None else ""
            print(f"        {solver:10s} round "
                  f"{column['round_latency_median'] * 1e3:8.1f} ms, solve "
                  f"{column['phase_totals']['solve'] * 1e3:8.1f} ms total"
                  f"{gap_text}")
    print(f"wrote {args.out}")

    if args.check_baseline is not None:
        failures = check_baseline(report, args.check_baseline,
                                  args.regression_factor)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
