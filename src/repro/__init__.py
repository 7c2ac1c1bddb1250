"""repro — reproduction of "Sia: Heterogeneity-aware, goodput-optimized
ML-cluster scheduling" (SOSP 2023).

Public API tour
---------------

* :mod:`repro.cluster`     — GPU catalog, nodes, preset testbeds.
* :mod:`repro.perf`        — throughput/efficiency/goodput models, the
  ground-truth catalog, and the per-job Goodput Estimator (bootstrapping).
* :mod:`repro.jobs`        — job abstraction, adaptivity modes, hybrid
  (pipeline x data parallel) jobs.
* :mod:`repro.core`        — Sia's configuration sets, goodput matrix, ILP,
  restart factor, policy parameters, placement.
* :mod:`repro.schedulers`  — Sia and the baselines (Pollux, Gavel,
  Shockwave, Themis, FIFO, SRTF).
* :mod:`repro.sim`         — the discrete-time trace-driven simulator.
* :mod:`repro.workloads`   — Philly/Helios/newTrace generators, TunedJobs.
* :mod:`repro.metrics`     — JCT stats, heterogeneous finish-time fairness.
* :mod:`repro.analysis`    — experiment drivers and table rendering.

Quickstart::

    from repro.cluster import presets
    from repro.schedulers import SiaScheduler
    from repro.sim import simulate
    from repro.workloads import philly_trace
    from repro.metrics import summarize

    trace = philly_trace(seed=0, num_jobs=40, work_scale_factor=0.25,
                         window_hours=2.0)
    result = simulate(presets.heterogeneous(), SiaScheduler(), trace.jobs)
    print(summarize(result).as_row())
"""

__version__ = "1.0.0"
