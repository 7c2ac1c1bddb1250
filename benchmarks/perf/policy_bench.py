"""Policy-pipeline microbenchmarks: goodput pass + the solvers at scale.

Measures, per (cluster size, job count) point:

* full policy round latency (bootstrap + goodput_eval + solve + placement)
  of the ``milp`` backend via the observability phase spans, with the
  solve-phase time and first-round objective — the scaling story up to
  16384 GPUs / 4096 jobs;
* steady-state plan memo hit rate across consecutive rounds, with
  every placed job re-reporting its iteration time and gradient noise
  scale between rounds as in the engine;
* the same rounds at 1024 GPUs with reports jittered by
  ``ExecutionModel(obs_noise=0.05)`` (the ``1024 GPUs, obs_noise 0.05``
  point), where almost no fit or key repeats between rounds, so it times
  what the plan memo and the estimators' kept keys cost when they rarely
  answer;
* the solver points: ``solve_assignment(p, "milp")`` over every
  instance of ``milp_helios64.json`` and ``milp_scale1024.json``
  (captured sia-helios64 and sia-scale1024 rounds, see
  ``milp_fixture.py``), over ``flat_utility``, seeded instances built
  here (:func:`flat_utility`), and over ``contended1024``, the first
  round of 1,024 fresh jobs on 1,024 GPUs, captured here
  (:func:`contended`).  The policy points leave every GPU type slack and
  their options far apart, so their MILPs never search; the captured
  rounds bind capacity (helios64) or hold near-tied options (scale1024),
  the flat-utility instances bind capacity with every option worth about
  the same, so the lattice DP's incumbent floor drops almost no state,
  and the contended round is past the DP's work cap, so HiGHS searches.
  Each solver point reports how many instances each of ``milp``'s paths
  (``argmax``, ``dp``, ``highs``) answered, and times the ``greedy``
  backend, the ablation baseline, over the same instances with its objective
  over ``milp``'s per instance (median and min).

Each policy point is gated on its round latency; the 4096-GPU point also
carries the round-latency target it is reported against.  The noisy point
runs wherever its size does.  Each solver
point is gated on its ``milp`` pass over its instances, on its path
counts, on its ``greedy`` pass, and on greedy's min objective ratio.

Results land in ``BENCH_policy.json``.  ``--check-baseline`` compares the
gated values against a committed baseline and exits non-zero on a >
``--regression-factor`` (default 2x) slowdown, on a solver point whose
path counts differ from the baseline's (a change that sends rounds back
to HiGHS fails, not only shows in the diff) or whose greedy min ratio
falls more than :data:`RATIO_SLACK` below the baseline's, or on a point
the baseline lacks, which is how CI gates performance regressions.  ``--sizes``
narrows a run to those policy points (CI uses ``--sizes 1024`` for the
large-point gate without paying for 4096); without it, the solver points
run too.

Run:  PYTHONPATH=src python benchmarks/perf/policy_bench.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from milp_fixture import FIXTURES, load, recording

from repro.cluster import presets
from repro.core.ilp import AssignmentProblem, solve_assignment
from repro.core.policy import SiaPolicyParams
from repro.core.types import ProfilingMode
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler
from repro.schedulers.base import PLAN_PHASES, JobView
from repro.sim.executor import ExecutionModel
from repro.workloads import helios_trace

#: active jobs per 64 GPUs (paper-proportional load, as in Figure 9).
JOBS_PER_64 = 16

#: the paths of the ``milp`` backend (``AssignmentSolution.path``).
MILP_PATHS = ("argmax", "dp", "highs")

#: passes a solver point makes over its instances with each backend; the
#: median is gated.
FIXTURE_PASSES = 5

#: how far a solver point's greedy min objective ratio may fall below the
#: baseline's.
RATIO_SLACK = 0.005

#: per-round policy latency targets (seconds) reported next to a point's
#: gated round latency; reported, not gated.
ROUND_TARGET_S = {4096: 0.150}

#: instances of the flat-utility solver point, and the seed they are
#: drawn from.
FLAT_INSTANCES = 8
FLAT_SEED = 0

#: GPUs of the contended solver point, with one fresh job per GPU (64 per
#: 64 GPUs, four times a policy point's load).
CONTENDED_GPUS = 1024

#: report noise of the noisy policy point, and the size it runs at.
NOISY_OBS = 0.05
NOISY_GPUS = 1024


def point_name(point: dict) -> str:
    """What baseline entries are matched by: the fixture, or the size and
    any report noise."""
    if "fixture" in point:
        return point["fixture"]
    noise = point.get("obs_noise")
    return f"{point['gpus']} GPUs" + (f", obs_noise {noise}" if noise else "")


def gated_value(point: dict) -> tuple[str, float]:
    """The gated measurement of a point, with its label."""
    if "fixture" in point:
        return "milp pass", point["backends"]["milp"]["pass_median"]
    return "round latency", point["backends"]["milp"]["round_latency_median"]


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


def report_iterations(executor: ExecutionModel, views: list[JobView],
                      allocations: dict, memo: dict) -> None:
    """Each placed job reports the iteration time of its round and its
    gradient noise scale, as the engine does between rounds: the executor
    runs the estimator's batch plan (looked up in the scheduler's plan
    ``memo``) on the allocation, and the estimator folds the reports in.
    Without report noise the noise scale is the one the estimator already
    holds, so only a noisy executor moves it."""
    for view in views:
        allocation = allocations.get(view.job_id)
        if allocation is None:
            continue
        plan = view.estimator.best_plan(allocation.configuration(), memo)
        execution = executor.execute(view.job, allocation, plan)
        if execution is not None:
            view.estimator.add_observation(
                executor.observe(view.job, allocation, execution))
            view.estimator.update_gradient_stats(
                executor.observed_noise_scale(view.job))


def run_rounds(scheduler, cluster, views, rounds: int,
               obs_noise: float = 0.0) -> dict:
    """Run consecutive policy rounds over the same views, each placed job
    re-reporting its iteration time between rounds (steady state after
    round 1: a job re-reporting the configuration it keeps moves no fit,
    so the plan memo keeps answering), then one extra *cold-memo* round at
    the warm running state.

    The cold round is the honest goodput_eval comparison point: every job
    is running at a realistic configuration (large feasible sets) and every
    feasible (job, config) pair is evaluated exactly once.  The earlier
    warm rounds measure the latency jobs actually see (memo hits included).
    With ``obs_noise`` every report moves its job's fit, so the warm
    rounds mostly miss.
    """
    tracer = Tracer()
    scheduler.tracer = tracer
    executor = ExecutionModel(obs_noise=obs_noise)
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
        report_iterations(executor, views, previous, scheduler.plan_memo)
    phases = {name: tracer.span_stats(name).total for name in PLAN_PHASES}
    hits = sum(getattr(v.estimator, "cache_hits", 0) for v in views)
    misses = sum(getattr(v.estimator, "cache_misses", 0) for v in views)

    # Cold means no plan in the scheduler's plan memo.
    scheduler.plan_memo.clear()
    cold_tracer = Tracer()
    scheduler.tracer = cold_tracer
    scheduler.decide(views, cluster, previous, 60.0 * rounds)
    return {
        "latencies": latencies,
        "objectives": objectives,
        "phases": phases,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "eval_cold": cold_tracer.span_stats("goodput_eval").total,
    }


def _column(result: dict) -> dict:
    return {
        "round_latency_median": statistics.median(result["latencies"]),
        "round_latency_first": result["latencies"][0],
        "objective_first": result["objectives"][0],
        "phase_totals": result["phases"],
        "goodput_eval_cold": result["eval_cold"],
        "cache_hit_rate": result["cache_hit_rate"],
    }


def measure_point(size: int, n_jobs: int, rounds: int,
                  obs_noise: float = 0.0) -> dict:
    """One policy point: ``milp`` rounds over a fresh job trace, with
    jobs reporting through an executor of report noise ``obs_noise``."""
    cluster = presets.scaled_heterogeneous(size)
    scheduler = SiaScheduler(SiaPolicyParams(solver="milp"))
    views = make_views(scheduler, cluster, n_jobs)
    point: dict = {"gpus": size, "jobs": n_jobs, "rounds": rounds,
                   "backends": {"milp": _column(run_rounds(
                       scheduler, cluster, views, rounds, obs_noise))}}
    if obs_noise:
        point["obs_noise"] = obs_noise
    if size in ROUND_TARGET_S:
        point["round_latency_target"] = ROUND_TARGET_S[size]
    return point


def timed_passes(problems: list[AssignmentProblem], backend: str,
                 ) -> tuple[list[float], list]:
    """:data:`FIXTURE_PASSES` timed passes of ``backend`` over
    ``problems``: each pass's seconds, and every solution."""
    passes, solutions = [], []
    for _ in range(FIXTURE_PASSES):
        start = time.perf_counter()
        solutions.extend(solve_assignment(problem, backend)
                         for problem in problems)
        passes.append(time.perf_counter() - start)
    return passes, solutions


def measure_fixture(name: str, problems: list[AssignmentProblem]) -> dict:
    """A solver point: timed passes of the ``milp`` backend over
    ``problems``, with the number of instances each ``milp`` path
    answered in one pass, and of ``greedy``, with its objective over
    ``milp``'s on each instance."""
    passes, solutions = timed_passes(problems, "milp")
    solves = [solution.solve_time for solution in solutions]
    optima = solutions[:len(problems)]
    paths = [solution.path for solution in optima]
    greedy_passes, greedy = timed_passes(problems, "greedy")
    ratios = [g.objective / m.objective for g, m in zip(greedy, optima)]
    milp = {"pass_median": statistics.median(passes),
            "solve_median": statistics.median(solves),
            "solve_max": max(solves),
            "paths": {path: paths.count(path) for path in MILP_PATHS}}
    return {"fixture": name, "instances": len(problems),
            "backends": {"milp": milp, "greedy": {
                "pass_median": statistics.median(greedy_passes),
                "ratio_median": statistics.median(ratios),
                "ratio_min": min(ratios)}}}


def flat_utility(count: int = FLAT_INSTANCES,
                 seed: int = FLAT_SEED) -> list[AssignmentProblem]:
    """``count`` seeded instances where every option is worth about the
    same: 12 jobs over types A/B/C of 24/24/16 GPUs, 1/2/4/8/16-GPU
    configurations of each, and utility ``1 + U(0, 1e-3) * GPUs``.  Every
    job wants 16 GPUs, so capacity binds, and any state stays within
    reach of the optimum."""
    rng = np.random.default_rng(seed)
    gpus = [1, 2, 4, 8, 16] * 3
    types = [t for t in "ABC" for _ in range(5)]
    return [AssignmentProblem(
        utilities=1.0 + rng.uniform(0.0, 1e-3, (12, len(gpus))) * gpus,
        config_gpus=gpus, config_types=types,
        capacities={"A": 24, "B": 24, "C": 16})
        for _ in range(count)]


def contended(size: int = CONTENDED_GPUS) -> list[AssignmentProblem]:
    """The first-round ``milp`` instance of ``size`` fresh Helios jobs on
    ``scaled_heterogeneous(size)``, captured as ``milp_fixture`` captures
    a workload's rounds.  At one job per GPU its lattice is past the DP's
    work cap, so HiGHS searches."""
    cluster = presets.scaled_heterogeneous(size)
    scheduler = SiaScheduler(SiaPolicyParams(solver="milp"))
    views = make_views(scheduler, cluster, size)
    with recording() as captured:
        scheduler.decide(views, cluster, {}, 0.0)
    return captured


def run_bench(quick: bool, sizes: tuple[int, ...] | None = None) -> dict:
    narrowed = sizes is not None
    if sizes is None:
        sizes = (64,) if quick else (64, 128, 256, 1024, 4096, 16384)
    rounds = 2 if quick else 3
    points = [measure_point(size, JOBS_PER_64 * (size // 64), rounds)
              for size in sizes]
    if NOISY_GPUS in sizes:
        points.append(measure_point(NOISY_GPUS,
                                    JOBS_PER_64 * (NOISY_GPUS // 64),
                                    rounds, NOISY_OBS))
    if not narrowed:
        points.extend(measure_fixture(fixture.name, load(fixture))
                      for fixture in FIXTURES.values())
        points.append(measure_fixture("flat_utility", flat_utility()))
        points.append(measure_fixture(f"contended{CONTENDED_GPUS}",
                                      contended()))
    return {"benchmark": "policy_round", "jobs_per_64_gpus": JOBS_PER_64,
            "points": points}


def check_baseline(report: dict, baseline_path: Path,
                   factor: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    by_name = {point_name(p): p for p in baseline["points"]}
    failures = []
    for point in report["points"]:
        name = point_name(point)
        ref = by_name.get(name)
        if ref is None:
            failures.append(f"{name}: no baseline entry in {baseline_path}")
            continue
        label, now = gated_value(point)
        _, then = gated_value(ref)
        if now > factor * then:
            failures.append(
                f"{name}: {label} {now:.4f}s "
                f"> {factor:.1f}x baseline {then:.4f}s")
        if "fixture" not in point:
            continue
        paths = point["backends"]["milp"]["paths"]
        expected = ref["backends"]["milp"]["paths"]
        if paths != expected:
            failures.append(f"{name}: milp paths {paths} "
                            f"!= baseline {expected}")
        greedy, ref_greedy = (p["backends"].get("greedy")
                              for p in (point, ref))
        if ref_greedy is None:
            failures.append(f"{name}: no greedy baseline in {baseline_path}")
            continue
        if greedy["pass_median"] > factor * ref_greedy["pass_median"]:
            failures.append(
                f"{name}: greedy pass {greedy['pass_median']:.4f}s "
                f"> {factor:.1f}x baseline {ref_greedy['pass_median']:.4f}s")
        if greedy["ratio_min"] < ref_greedy["ratio_min"] - RATIO_SLACK:
            failures.append(
                f"{name}: greedy min ratio {greedy['ratio_min']:.4f} "
                f"< baseline {ref_greedy['ratio_min']:.4f} - {RATIO_SLACK}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smallest instance only (CI)")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated GPU counts to measure "
                             "(overrides --quick's size selection)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_policy.json"))
    parser.add_argument("--check-baseline", type=Path, default=None,
                        help="baseline JSON to gate regressions against")
    parser.add_argument("--regression-factor", type=float, default=2.0)
    args = parser.parse_args(argv)

    sizes = tuple(int(s) for s in args.sizes.split(",")) \
        if args.sizes else None
    report = run_bench(args.quick, sizes=sizes)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for point in report["points"]:
        if "fixture" in point:
            milp, greedy = (point["backends"][b] for b in ("milp", "greedy"))
            paths = ", ".join(f"{path} {count}"
                              for path, count in milp["paths"].items())
            print(f"{point['fixture']} ({point['instances']} instances): "
                  f"milp pass {milp['pass_median'] * 1e3:8.1f} ms, solve "
                  f"p50 {milp['solve_median'] * 1e3:.2f} ms, max "
                  f"{milp['solve_max'] * 1e3:.2f} ms ({paths}); greedy "
                  f"pass {greedy['pass_median'] * 1e3:.1f} ms, ratio p50 "
                  f"{greedy['ratio_median']:.4f}, min "
                  f"{greedy['ratio_min']:.4f}")
            continue
        gated = point["backends"]["milp"]
        line = (f"{point['gpus']:5d} GPUs / {point['jobs']:4d} jobs: "
                f"round {gated['round_latency_median'] * 1e3:8.1f} ms")
        if "obs_noise" in point:
            line += f" (obs_noise {point['obs_noise']})"
        if "round_latency_target" in point:
            line += (f" (target <= "
                     f"{point['round_latency_target'] * 1e3:.0f} ms),")
        eval_ms = gated['phase_totals']['goodput_eval'] * 1e3
        solve_ms = gated['phase_totals']['solve'] * 1e3
        line += (f" goodput_eval {eval_ms:8.1f} ms total,"
                 f" milp solve {solve_ms:8.1f} ms total,"
                 f" cache hit rate {gated['cache_hit_rate']:.0%}")
        print(line)
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
