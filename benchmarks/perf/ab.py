"""A/B comparison of this working tree against a git ref, end to end.

    python3 benchmarks/perf/ab.py REF --workload sia-scale1024 \\
        --seeds 1 3 --pairs 10 --seconds 40

Checks ``REF`` out with ``git worktree add`` under a temporary directory,
removed on any exit, and runs each tree's own ``benchmarks/e2e/bench.py``
(untraced, ``--seconds`` per run) in pairs, swapping which tree runs first
on each pair: ``REF`` first on even pairs.  The candidate is the working
tree that holds this script, uncommitted changes included; ``ab.py HEAD``
on a clean tree is an A/A run.

For each seed and end-to-end metric it prints ``REF``'s median, the
candidate's median, the candidate's relative delta, the pairs the
candidate won (ties count for neither side) and ``REF``'s IQR relative to
its median.  Which way is better comes from ``BENCHMARK.json``.

Exits 1 when a bench run crashes or reports itself incorrect, or when the
two trees' ``report:`` decision digests differ at a seed unless
``--decisions-may-move`` is passed, and 2 on bad usage.  No timing is
gated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
REPORT_PREFIX = "report: "


def better_directions(root: Path = ROOT) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"``, from ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def parse(text: str) -> tuple[dict[str, float], str | None, bool]:
    """One bench output: its metric values, its decision digest and
    whether its result line says ``correct``."""
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct = result["correct"] is True
        metrics = {name: float(m["value"])
                   for name, m in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        return {}, None, False
    reports = [json.loads(line[len(REPORT_PREFIX):]) for line in lines
               if line.startswith(REPORT_PREFIX)]
    digest = reports[-1].get("digest") if reports else None
    return metrics, digest, correct


def relative_iqr(values: list[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def summarize(pairs: list[tuple[str, str]], better: dict[str, str],
              ) -> tuple[list[dict], list[str], bool]:
    """``(rows, crashes, digests_differ)`` for one seed's ``(REF output,
    candidate output)`` pairs.  A row per metric both trees report:
    ``metric``, ``ref`` and ``new`` medians, ``delta`` (relative to
    ``ref``), ``won`` and ``pairs`` (pairs whose runs both completed
    correctly), ``iqr`` (``REF``'s, relative)."""
    parsed = [(parse(ref), parse(new)) for ref, new in pairs]
    crashes = [f"pair {i} {side}: crashed or incorrect"
               for i, runs in enumerate(parsed)
               for side, (_, _, correct) in zip(("ref", "new"), runs)
               if not correct]
    # The digests of the runs that completed; a crash is not a mismatch.
    ref_digests = {ref[1] for ref, _ in parsed if ref[2]}
    new_digests = {new[1] for _, new in parsed if new[2]}
    differ = bool(ref_digests and new_digests) and ref_digests != new_digests
    # Timings of the pairs where both runs completed correctly.
    usable = [(ref[0], new[0]) for ref, new in parsed if ref[2] and new[2]]
    rows = []
    names = dict.fromkeys(name for ref, new in usable for name in ref
                          if name in new)
    for name in names:
        both = [(ref[name], new[name]) for ref, new in usable
                if name in ref and name in new]
        refs, news = [r for r, _ in both], [n for _, n in both]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        ref_median = statistics.median(refs)
        new_median = statistics.median(news)
        rows.append({
            "metric": name, "ref": ref_median, "new": new_median,
            "delta": (new_median - ref_median) / ref_median
            if ref_median else 0.0,
            "won": sum(sign * (n - r) < 0 for r, n in both),
            "pairs": len(both), "iqr": relative_iqr(refs)})
    return rows, crashes, differ


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':16s} {'ref':>12s} {'new':>12s} {'delta':>8s} "
             f"{'won':>6s} {'ref IQR':>8s}"]
    for row in rows:
        lines.append(f"{row['metric']:16s} {row['ref']:12.6g} "
                     f"{row['new']:12.6g} {row['delta']:+8.1%} "
                     f"{row['won']:>3d}/{row['pairs']:<2d} {row['iqr']:8.1%}")
    return lines


def exit_code(crashes: list[str], digests_differ: bool,
              decisions_may_move: bool) -> int:
    return 1 if crashes or (digests_differ and not decisions_may_move) else 0


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """One untraced ``bench.py`` run of ``tree``: its stdout.  A failed
    run's stderr tail goes to this script's stderr."""
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "bench.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        print(f"{tree}: bench exited {proc.returncode}: "
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return proc.stdout


@contextlib.contextmanager
def worktree(ref: str):
    """``ref`` checked out in a temporary worktree, removed on exit."""
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    path = tmp / "ref"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                        "--detach", "--quiet", str(path), ref], check=True)
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(path)], capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def _raise_exit(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="bench.py --seconds of every run")
    parser.add_argument("--decisions-may-move", action="store_true",
                        help="do not fail when the decision digests differ")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    signal.signal(signal.SIGTERM, _raise_exit)
    better = better_directions()
    crashes: list[str] = []
    differ = False
    with worktree(args.ref) as ref_tree:
        for seed in args.seeds:
            pairs = []
            for index in range(args.pairs):
                trees = (ref_tree, ROOT) if index % 2 == 0 \
                    else (ROOT, ref_tree)
                out = {tree: run_bench(tree, args.workload, seed,
                                       args.seconds) for tree in trees}
                pairs.append((out[ref_tree], out[ROOT]))
            rows, seed_crashes, seed_differ = summarize(pairs, better)
            print(f"== {args.workload} seed {seed}: {args.ref} (ref) vs "
                  f"working tree (new), {args.pairs} pairs of "
                  f"{args.seconds:g} s")
            print("\n".join(format_rows(rows)))
            if seed_differ:
                print(f"decision digests differ at seed {seed}")
            crashes += [f"seed {seed} {c}" for c in seed_crashes]
            differ = differ or seed_differ
    for crash in crashes:
        print(f"ab: {crash}", file=sys.stderr)
    return exit_code(crashes, differ, args.decisions_may_move)


if __name__ == "__main__":
    sys.exit(main())
