"""Start-up cost: scipy loads only when a solve needs it.

scipy (HiGHS) is over half of a process's start-up time and ~40 MB of its
memory, yet FIFO, the other rigid baselines, Pollux and the analysis CLI
never call it, and Sia's ``milp``/``tiered`` call HiGHS only for a lattice
too large for the DP, which imports it at that call.  Gavel solves an LP
every round, so it loads scipy when built or unpickled
(:meth:`repro.schedulers.base.Scheduler.load_solvers`).  Each check runs
in a fresh interpreter, since this one has loaded scipy long ago.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cluster import presets
from repro.core.fork import make_scheduler
from repro.core.policy import SiaPolicyParams
from repro.jobs.job import make_job
from repro.schedulers import GavelScheduler, SiaScheduler
from repro.sim import simulate
from repro.workloads import tuned_jobs

SRC = Path(__file__).resolve().parent.parent / "src"

#: three short jobs on the paper's heterogeneous testbed; ``JOBS`` is
#: adaptive, ``rigid(JOBS)`` the rigid baselines' tuned copies.
TINY_RUN = """
from repro.cluster import presets
from repro.jobs.job import make_job
from repro.sim import simulate
from repro.workloads import tuned_jobs

CLUSTER = presets.heterogeneous()
JOBS = [make_job(f"j{i}", "resnet18", 60.0 * i, work_scale=0.05)
        for i in range(3)]

def rigid(jobs):
    return tuned_jobs(jobs, CLUSTER, seed=0)
"""


def scipy_modules(code: str, tmp_path: Path) -> list[str]:
    """The ``scipy`` modules loaded after ``code`` runs in a fresh
    interpreter.  ``code`` may store a list in ``SEEN`` to report a point
    of its own instead."""
    out = tmp_path / "modules.json"
    script = textwrap.dedent(code) + textwrap.dedent(f"""
        import json as _json, sys as _sys
        _loaded = sorted(m for m in _sys.modules
                         if m == "scipy" or m.startswith("scipy."))
        with open({str(out)!r}, "w") as _f:
            _json.dump(globals().get("SEEN", _loaded), _f)
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


class TestNoScipy:
    """Paths that never solve leave scipy unloaded."""

    def test_import_package_and_cli(self, tmp_path):
        assert scipy_modules("import repro, repro.cli", tmp_path) == []

    def test_trace(self, tmp_path):
        assert scipy_modules("""
            import contextlib, io
            from repro.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["trace", "--num-jobs", "6"]) == 0
            """, tmp_path) == []

    def test_fifo_and_pollux_simulate(self, tmp_path):
        assert scipy_modules(TINY_RUN + """
from repro.core.fork import make_scheduler
fifo = simulate(CLUSTER, make_scheduler("fifo"), rigid(JOBS),
                max_hours=100)
pollux = simulate(CLUSTER, make_scheduler("pollux"), JOBS, max_hours=100)
assert fifo.rounds and pollux.rounds
""", tmp_path) == []

    def test_greedy_sia(self, tmp_path):
        assert scipy_modules("""
            from repro.core.policy import SiaPolicyParams
            from repro.schedulers import SiaScheduler
            SiaScheduler(SiaPolicyParams(solver="greedy"))
            """, tmp_path) == []


class TestScipyLoadsBeforeAnyRound:
    """Gavel, which solves an LP every round, loads scipy when built or
    restored; Sia only checks that scipy is installed, whatever its
    solver, and leaves the import to its first HiGHS call."""

    @pytest.mark.parametrize("build, loads", [
        ("SiaScheduler()", False),
        ("SiaScheduler(SiaPolicyParams(solver='tiered'))", False),
        ("GavelScheduler()", True)],
        ids=["SiaScheduler()",
             "SiaScheduler(SiaPolicyParams(solver='tiered'))",
             "GavelScheduler()"])
    def test_construction(self, build, loads, tmp_path):
        assert ("scipy.optimize" in scipy_modules(f"""
            from repro.core.policy import SiaPolicyParams
            from repro.schedulers import GavelScheduler, SiaScheduler
            {build}
            """, tmp_path)) is loads

    @pytest.mark.parametrize("scheduler, loads", [
        (SiaScheduler(), False), (GavelScheduler(), True),
        (SiaScheduler(SiaPolicyParams(solver="greedy")), False)],
        ids=["sia", "gavel", "sia-greedy"])
    def test_unpickling(self, scheduler, loads, tmp_path):
        blob = tmp_path / "scheduler.pkl"
        blob.write_bytes(pickle.dumps(scheduler))
        assert ("scipy.optimize" in scipy_modules(f"""
            import pickle
            with open({str(blob)!r}, "rb") as f:
                pickle.load(f)
            """, tmp_path)) is loads

    def test_sia_simulate_leaves_scipy_to_highs(self, tmp_path):
        """A Sia run whose rounds all fit the lattice DP never reaches
        HiGHS, so scipy is loaded neither at its first decide nor after
        its last."""
        seen = scipy_modules(TINY_RUN + """
import sys
from repro.obs.tracer import Tracer
from repro.schedulers import SiaScheduler

SEEN = []
decide = SiaScheduler.decide

def first_decide(self, *args, **kwargs):
    if not SEEN:
        SEEN.append("scipy.optimize" in sys.modules)
    return decide(self, *args, **kwargs)

SiaScheduler.decide = first_decide
result = simulate(CLUSTER, SiaScheduler(), JOBS, tracer=Tracer(),
                  max_hours=100)
paths = {s.attrs["path"] for s in result.spans if s.name == "ilp_solve"}
assert result.rounds and paths and "highs" not in paths, paths
SEEN.append("scipy.optimize" in sys.modules)
""", tmp_path)
        assert seen == [False, False]


class TestBrokenScipy:
    """A missing scipy fails when a solving scheduler is built
    or restored, not as a fallback the ladder or the engine's resilient
    guard would swallow every round."""

    @pytest.fixture
    def no_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)

    def test_solving_schedulers_raise(self, no_scipy):
        with pytest.raises(ImportError):
            SiaScheduler()
        with pytest.raises(ImportError):
            GavelScheduler()

    def test_restoring_raises(self, monkeypatch):
        blob = pickle.dumps(SiaScheduler())
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ImportError):
            pickle.loads(blob)

    def test_fifo_runs(self, no_scipy):
        cluster = presets.heterogeneous()
        jobs = tuned_jobs([make_job(f"j{i}", "resnet18", 60.0 * i,
                                    work_scale=0.05) for i in range(3)],
                          cluster, seed=0)
        result = simulate(cluster, make_scheduler("fifo"), jobs,
                          max_hours=100)
        assert result.rounds and result.censored == 0
