"""Tests for online throughput-model fitting: fitted parameters must recover
synthetic ground truth from the measurements the simulator produces, and the
running fit state must equal the whole-list reference of ``tests/oracle.py``
bit for bit."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf import fitting
from repro.perf.estimator import JobConstraints
from repro.perf.fitting import (FIT_RTOL, FitResult, Observation, RunningFit,
                                fit_compute_params, fit_sync_params,
                                fit_throughput_params, invert_sync_time)
from repro.perf.throughput import ThroughputModel, ThroughputParams
from repro.schedulers.pollux import PolluxEstimator
from tests.oracle import reference_compute_params, reference_fit

TRUE = ThroughputParams(alpha_c=0.02, beta_c=0.003,
                        alpha_r=0.015, beta_r=0.002,
                        alpha_n=0.09, beta_n=0.01)
TRUE_MODEL = ThroughputModel(TRUE)


def obs(gpu_type="t4", n=1, k=1, m=32, s=1) -> Observation:
    return Observation(gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                       local_bsz=m, accum_steps=s,
                       iter_time=TRUE_MODEL.iter_time(m, k, n, s))


class TestObservation:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            Observation("t4", 1, 1, 32, 1, 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Observation("t4", 4, 2, 32, 1, 1.0)

    def test_rejects_bad_plan(self):
        with pytest.raises(ValueError):
            Observation("t4", 1, 1, 0, 1, 1.0)


class TestComputeFit:
    def test_recovers_linear_params(self):
        observations = [obs(m=m) for m in (8, 16, 32, 64, 128)]
        alpha, beta = fit_compute_params(observations)
        assert alpha == pytest.approx(TRUE.alpha_c, rel=1e-6)
        assert beta == pytest.approx(TRUE.beta_c, rel=1e-6)

    def test_single_point_heuristic_split(self):
        alpha, beta = fit_compute_params([obs(m=100)])
        total = TRUE_MODEL.grad_time(100)
        assert alpha + beta * 100 == pytest.approx(total)
        assert alpha >= 0 and beta >= 0

    def test_accumulation_normalized_out(self):
        observations = [obs(m=m, s=4) for m in (16, 64)]
        alpha, beta = fit_compute_params(observations)
        assert alpha == pytest.approx(TRUE.alpha_c, rel=1e-6)
        assert beta == pytest.approx(TRUE.beta_c, rel=1e-6)

    def test_falls_back_to_smallest_gpu_count(self):
        """Without 1-GPU data (Pollux can start multi-GPU), the fit uses the
        smallest count seen, yielding a conservative (larger) estimate."""
        observations = [obs(k=4, m=m) for m in (16, 64)]
        alpha, beta = fit_compute_params(observations)
        assert alpha + beta * 16 >= TRUE_MODEL.grad_time(16)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_compute_params([])


class TestSyncInversion:
    def test_roundtrip(self):
        grad = TRUE_MODEL.grad_time(32)
        sync = TRUE_MODEL.sync_time(2, 8)
        iter_time = TRUE_MODEL.iter_time(32, 8, 2)
        assert invert_sync_time(iter_time, grad, 1) == pytest.approx(sync)

    def test_roundtrip_with_accumulation(self):
        grad = TRUE_MODEL.grad_time(32)
        sync = TRUE_MODEL.sync_time(2, 8)
        iter_time = TRUE_MODEL.iter_time(32, 8, 2, accum_steps=4)
        assert invert_sync_time(iter_time, grad, 4) == pytest.approx(sync)

    def test_no_negative_sync(self):
        assert invert_sync_time(0.01, 0.05, 1) == 0.0


class TestSyncFit:
    def test_recovers_from_two_counts(self):
        points = [(k, TRUE_MODEL.sync_time(1, k)) for k in (2, 4, 8)]
        alpha, beta = fit_sync_params(points)
        assert alpha == pytest.approx(TRUE.alpha_r, rel=1e-6)
        assert beta == pytest.approx(TRUE.beta_r, rel=1e-6)

    def test_single_count_heuristic(self):
        alpha, beta = fit_sync_params([(4, 0.02)])
        assert alpha == pytest.approx(0.02)
        assert beta > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_sync_params([])


class TestFullFit:
    def test_exact_recovery_with_rich_data(self):
        observations = (
            [obs(m=m) for m in (8, 32, 128)]
            + [obs(k=k, m=32) for k in (2, 4, 8)]
            + [obs(n=2, k=k, m=32) for k in (8, 16)]
        )
        fit = fit_throughput_params(observations)
        assert fit.has_single_gpu and fit.has_intra_node and fit.has_inter_node
        for attr in ("alpha_c", "beta_c", "alpha_r", "beta_r",
                     "alpha_n", "beta_n"):
            assert getattr(fit.params, attr) == pytest.approx(
                getattr(TRUE, attr), rel=1e-5), attr

    def test_prediction_accuracy_on_unseen_config(self):
        observations = [obs(m=m) for m in (8, 32, 128)] + \
            [obs(k=k, m=32) for k in (2, 4)]
        fit = fit_throughput_params(observations)
        fitted = ThroughputModel(fit.params)
        # Predict an unseen single-node count.
        assert fitted.iter_time(32, 8, 1) == pytest.approx(
            TRUE_MODEL.iter_time(32, 8, 1), rel=0.02)

    def test_missing_inter_node_extrapolated_pessimistically(self):
        observations = [obs(m=32), obs(k=4, m=32)]
        fit = fit_throughput_params(observations)
        assert not fit.has_inter_node
        assert fit.params.alpha_n >= fit.params.alpha_r

    def test_missing_intra_node_derived_from_inter(self):
        observations = [obs(m=32), obs(n=2, k=8, m=32)]
        fit = fit_throughput_params(observations)
        assert fit.has_inter_node and not fit.has_intra_node
        assert fit.params.alpha_r <= fit.params.alpha_n

    def test_only_single_gpu_data_no_multi_flags(self):
        fit = fit_throughput_params([obs(m=32)])
        assert fit.has_single_gpu
        assert not fit.has_multi_gpu

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_throughput_params([])

    @settings(max_examples=30, deadline=None)
    @given(ms=st.lists(st.integers(1, 256), min_size=2, max_size=6,
                       unique=True))
    def test_fit_never_produces_negative_params(self, ms):
        observations = [obs(m=m) for m in ms]
        fit = fit_throughput_params(observations)
        assert fit.params.alpha_c >= 0
        assert fit.params.beta_c >= 0



#: one drawn report: ``(num_nodes, gpus per node, local_bsz, accum_steps,
#: jitter)``.  Few distinct values, so duplicate reports (and their
#: averaging noise) are common; GPU counts drawn in any order make the
#: smallest count shrink over time.
_REPORTS = st.tuples(st.integers(1, 3), st.sampled_from([1, 2, 4, 8]),
                     st.sampled_from([8, 16, 32, 64]), st.integers(1, 3),
                     st.sampled_from([1.0, 1.0, 1.0, 0.9, 1.25]))
#: a step is a report, or None: fit now.
_STEPS = st.lists(st.one_of(_REPORTS, st.none()), min_size=1, max_size=40)


def _report(step, gpu_type="t4") -> Observation:
    n, per_node, m, s, jitter = step
    k = n * per_node
    return Observation(gpu_type=gpu_type, num_nodes=n, num_gpus=k,
                       local_bsz=m, accum_steps=s,
                       iter_time=TRUE_MODEL.iter_time(m, k, n, s) * jitter)


class TestRunningFit:
    """The running state equals the whole-list reference bit for bit
    (``repr`` round-trips floats exactly, so equal reprs are equal bits)."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    def test_matches_reference_after_any_sequence(self, steps):
        state = RunningFit()
        seen: list[Observation] = []
        for step in [*steps, None]:
            if step is not None:
                seen.append(_report(step))
                state.add(seen[-1])
            elif seen:
                assert repr(state.fit()) == repr(reference_fit(seen))
                assert state.compute_params() == \
                    reference_compute_params(seen)
        if seen:
            assert repr(fit_throughput_params(seen)) == \
                repr(reference_fit(seen))
            assert fit_compute_params(seen) == reference_compute_params(seen)

    def test_shrinking_smallest_count_refits_compute(self):
        """A 4-GPU job later seen on 2 GPUs, then 1: each smaller count
        restarts the compute sums and re-inverts every multi-GPU report."""
        state = RunningFit()
        seen = []
        for k in (4, 4, 8, 2, 4, 1, 2):
            for m in (16, 32):
                seen.append(obs(k=k, m=m, s=2 if k == 8 else 1))
                state.add(seen[-1])
            assert repr(state.fit()) == repr(reference_fit(seen))
        assert state.fit().has_single_gpu

    @staticmethod
    def count_sync_fits(monkeypatch) -> list:
        """Record the point list of every ``fit_sync_params`` call."""
        calls = []
        real = fitting.fit_sync_params

        def counting(points):
            calls.append(list(points))
            return real(points)
        monkeypatch.setattr(fitting, "fit_sync_params", counting)
        return calls

    def test_inter_node_reports_reuse_the_intra_node_fit(self, monkeypatch):
        """Reports that only add inter-node points leave the compute fit
        and the intra-node list alone: each refit reruns only the
        inter-node regime."""
        calls = self.count_sync_fits(monkeypatch)
        state = RunningFit()
        seen = [obs(m=m) for m in (16, 32)] + [obs(k=k) for k in (2, 4)]
        for report in seen:
            state.add(report)
        assert repr(state.fit()) == repr(reference_fit(seen))
        assert len(calls) == 1  # the intra-node regime
        del calls[:]
        for k in (16, 32, 16):
            seen.append(obs(n=k // 8, k=k))
            state.add(seen[-1])
            assert repr(state.fit()) == repr(reference_fit(seen))
        # One inter-node fit per refit, over its whole (grown) list.
        assert [len(points) for points in calls] == [1, 2, 3]
        assert all(k >= 16 for points in calls for k, _ in points)
        del calls[:]
        state.fit()
        assert not calls

    def test_smaller_count_refits_both_regimes(self, monkeypatch):
        """A 1-GPU report below the smallest count seen moves the compute
        fit: every point is re-inverted and both regimes refit, though
        neither list grew."""
        calls = self.count_sync_fits(monkeypatch)
        state = RunningFit()
        seen = [obs(k=2, m=16), obs(k=2, m=32), obs(k=4),
                obs(n=2, k=16)]
        for report in seen:
            state.add(report)
        assert repr(state.fit()) == repr(reference_fit(seen))
        sizes = sorted(len(points) for points in calls)
        assert sizes == [1, 3]
        del calls[:]
        compute = state.compute_params()
        seen.append(obs(m=64))
        state.add(seen[-1])
        assert repr(state.fit()) == repr(reference_fit(seen))
        assert state.compute_params() != compute
        assert sorted(len(points) for points in calls) == sizes

    def test_regime_caches_do_not_pickle(self):
        """The pickle holds the point lists, not the fits derived from
        them; a restored state refits them to the same bits."""
        state = RunningFit()
        seen = [obs(m=32), obs(k=4), obs(n=2, k=16)]
        for report in seen:
            state.add(report)
        fitted = repr(state.fit())
        restored = pickle.loads(pickle.dumps(state))
        assert "_intra_fit" not in restored.__dict__
        assert "_inter_fit" not in restored.__dict__
        assert repr(restored.fit()) == fitted == repr(reference_fit(seen))

    @settings(max_examples=40, deadline=None)
    @given(steps=_STEPS)
    def test_pollux_shared_state_matches_reference(self, steps):
        """Pollux maps every GPU type to one shared state: reports on any
        type fold into one running fit, equal to the reference over all
        accepted reports."""
        types = ("t4", "rtx", "a100")
        est = PolluxEstimator("bert", JobConstraints(min_bsz=8, max_bsz=512),
                              types)
        accepted: list[Observation] = []
        for i, step in enumerate(steps):
            if step is None:
                continue
            report = _report(step, gpu_type=types[i % len(types)])
            if est.add_observation(report):
                accepted.append(report)
        states = {id(est._types[t]) for t in types}
        assert len(states) == 1
        if accepted:
            running = est._types["t4"].running
            assert running.reports == len(accepted)
            assert repr(running.fit()) == repr(reference_fit(accepted))


class TestFitDeadBand:
    def fit(self, **changes) -> FitResult:
        return replace(fit_throughput_params(
            [obs(m=32), obs(m=64), obs(k=4, m=32)]), **changes)

    def scaled(self, fit: FitResult, factor: float) -> FitResult:
        return replace(fit, params=replace(
            fit.params, alpha_c=fit.params.alpha_c * factor))

    def test_float_noise_reproduces(self):
        stored = self.fit()
        assert stored.reproduces(stored)
        assert self.scaled(stored, 1 + FIT_RTOL / 2).reproduces(stored)

    def test_real_change_does_not_reproduce(self):
        stored = self.fit()
        assert not self.scaled(stored, 1 + 1e-6).reproduces(stored)
        assert not self.scaled(stored, 1 + 4 * FIT_RTOL).reproduces(stored)

    def test_flags_and_zero_must_match_exactly(self):
        stored = self.fit()
        assert not self.fit(has_inter_node=True).reproduces(stored)
        assert not stored.reproduces(None)
        zero = replace(stored, params=replace(stored.params, beta_n=0.0))
        tiny = replace(stored, params=replace(stored.params, beta_n=1e-300))
        assert not tiny.reproduces(zero)
