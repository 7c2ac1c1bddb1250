"""Tests for online throughput-model fitting: fitted parameters must recover
synthetic ground truth from the measurements the simulator produces, and the
running fit state must equal the whole-list, per-configuration reference of
``tests/oracle.py`` bit for bit."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perf import fitting
from repro.perf.estimator import JobConstraints
from repro.perf.fitting import (FIT_RTOL, FitResult, Observation, RunningFit,
                                _nonneg_linear_fit, fit_sync_params,
                                invert_sync_time)
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


def folded(observations: list[Observation]) -> RunningFit:
    """A fit state with ``observations`` folded in, in order."""
    state = RunningFit()
    for observation in observations:
        state.add(observation)
    return state


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
        alpha, beta = folded(observations).compute_params()
        assert alpha == pytest.approx(TRUE.alpha_c, rel=1e-6)
        assert beta == pytest.approx(TRUE.beta_c, rel=1e-6)

    def test_single_point_heuristic_split(self):
        alpha, beta = folded([obs(m=100)]).compute_params()
        total = TRUE_MODEL.grad_time(100)
        assert alpha + beta * 100 == pytest.approx(total)
        assert alpha >= 0 and beta >= 0

    def test_accumulation_normalized_out(self):
        observations = [obs(m=m, s=4) for m in (16, 64)]
        alpha, beta = folded(observations).compute_params()
        assert alpha == pytest.approx(TRUE.alpha_c, rel=1e-6)
        assert beta == pytest.approx(TRUE.beta_c, rel=1e-6)

    def test_falls_back_to_smallest_gpu_count(self):
        """Without 1-GPU data (Pollux can start multi-GPU), the fit uses the
        smallest count seen, yielding a conservative (larger) estimate."""
        observations = [obs(k=4, m=m) for m in (16, 64)]
        alpha, beta = folded(observations).compute_params()
        assert alpha + beta * 16 >= TRUE_MODEL.grad_time(16)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            folded([]).compute_params()


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
        fit = folded(observations).fit()
        assert fit.has_single_gpu and fit.has_intra_node and fit.has_inter_node
        for attr in ("alpha_c", "beta_c", "alpha_r", "beta_r",
                     "alpha_n", "beta_n"):
            assert getattr(fit.params, attr) == pytest.approx(
                getattr(TRUE, attr), rel=1e-5), attr

    def test_prediction_accuracy_on_unseen_config(self):
        observations = [obs(m=m) for m in (8, 32, 128)] + \
            [obs(k=k, m=32) for k in (2, 4)]
        fit = folded(observations).fit()
        fitted = ThroughputModel(fit.params)
        # Predict an unseen single-node count.
        assert fitted.iter_time(32, 8, 1) == pytest.approx(
            TRUE_MODEL.iter_time(32, 8, 1), rel=0.02)

    def test_missing_inter_node_extrapolated_pessimistically(self):
        observations = [obs(m=32), obs(k=4, m=32)]
        fit = folded(observations).fit()
        assert not fit.has_inter_node
        assert fit.params.alpha_n >= fit.params.alpha_r

    def test_missing_intra_node_derived_from_inter(self):
        observations = [obs(m=32), obs(n=2, k=8, m=32)]
        fit = folded(observations).fit()
        assert fit.has_inter_node and not fit.has_intra_node
        assert fit.params.alpha_r <= fit.params.alpha_n

    def test_only_single_gpu_data_no_multi_flags(self):
        fit = folded([obs(m=32)]).fit()
        assert fit.has_single_gpu
        assert not fit.has_multi_gpu

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            folded([]).fit()

    @settings(max_examples=30, deadline=None)
    @given(ms=st.lists(st.integers(1, 256), min_size=2, max_size=6,
                       unique=True))
    def test_fit_never_produces_negative_params(self, ms):
        observations = [obs(m=m) for m in ms]
        fit = folded(observations).fit()
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

    def test_shrinking_smallest_count_refits_compute(self):
        """A 4-GPU job later seen on 2 GPUs, then 1: each smaller count
        restarts the compute means.  Only new configurations move the
        fit; a re-report at 4 or 2 GPUs, once a smaller count is seen or
        the mean is already there, moves nothing."""
        state = RunningFit()
        seen, moved = [], []
        for k in (4, 4, 8, 2, 4, 1, 2):
            for m in (16, 32):
                seen.append(obs(k=k, m=m, s=2 if k == 8 else 1))
                moved.append(state.add(seen[-1]))
            assert repr(state.fit()) == repr(reference_fit(seen))
        assert moved == [True, True, False, False, True, True, True, True,
                         False, False, True, True, False, False]
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

    def test_inter_node_reports_reuse_the_intra_node_fit(self):
        """Reports that only add inter-node configurations leave the
        compute fit and the intra-node fit bit-equal, and an exact
        re-report of an inter-node configuration moves nothing."""
        state = RunningFit()
        seen = [obs(m=m) for m in (16, 32)] + [obs(k=k) for k in (2, 4)]
        for report in seen:
            state.add(report)
        before = state.fit()
        assert repr(before) == repr(reference_fit(seen))
        moved = []
        for k in (16, 32, 16):
            seen.append(obs(n=k // 8, k=k))
            moved.append(state.add(seen[-1]))
            fit = state.fit()
            assert repr(fit) == repr(reference_fit(seen))
            assert (fit.params.alpha_c, fit.params.beta_c,
                    fit.params.alpha_r, fit.params.beta_r) == \
                (before.params.alpha_c, before.params.beta_c,
                 before.params.alpha_r, before.params.beta_r)
        assert moved == [True, True, False]

    def test_smaller_count_refits_both_regimes(self, monkeypatch):
        """A 1-GPU report below the smallest count seen moves the compute
        fit, so every configuration's sync point is re-inverted and both
        regimes move, though neither gained a configuration.  Each refit
        fits each regime once, on one point per configuration."""
        calls = self.count_sync_fits(monkeypatch)
        state = RunningFit()
        seen = [obs(k=2, m=16), obs(k=2, m=32), obs(k=4), obs(k=4),
                obs(n=2, k=16), obs(n=2, k=16)]
        for report in seen:
            state.add(report)
        before = state.fit()
        assert repr(before) == repr(reference_fit(seen))
        sizes = sorted(len(points) for points in calls)
        assert sizes == [1, 3]
        del calls[:]
        seen.append(obs(m=64))
        assert state.add(seen[-1])
        after = state.fit()
        assert repr(after) == repr(reference_fit(seen))
        for name in ("alpha_c", "alpha_r", "beta_r", "alpha_n"):
            assert getattr(after.params, name) != \
                getattr(before.params, name), name
        assert sorted(len(points) for points in calls) == sizes

    def test_pickle_holds_only_the_means(self):
        """The pickle holds the means, their counts and the flags, nothing
        derived from them; a restored state fits them to the same bits."""
        state = RunningFit()
        seen = [obs(m=32), obs(k=4), obs(k=4), obs(n=2, k=16)]
        for report in seen:
            state.add(report)
        fitted = repr(state.fit())
        restored = pickle.loads(pickle.dumps(state))
        assert sorted(restored.__dict__) == [
            "_compute", "_multi", "_smallest", "gamma", "has_single_gpu",
            "reports"]
        assert restored._multi == {(4, 1, 32, 1): [seen[1].iter_time, 2],
                                   (16, 2, 32, 1): [seen[3].iter_time, 1]}
        assert repr(restored.fit()) == fitted == repr(reference_fit(seen))

    def test_re_report_equal_to_its_mean_moves_nothing(self):
        """``add`` returns False exactly when no mean, flag or smallest
        count moved: an exact re-report of any configuration, 1-GPU or
        not, leaves the fit bit-equal."""
        state = RunningFit()
        reports = [obs(m=32), obs(m=64), obs(k=4), obs(n=2, k=16)]
        assert [state.add(report) for report in reports] == [True] * 4
        fitted = repr(state.fit())
        assert [state.add(report) for report in reports] == [False] * 4
        assert repr(state.fit()) == fitted
        assert state.reports == 8
        # A jittered report moves its configuration's mean.
        assert state.add(replace(reports[2],
                                 iter_time=reports[2].iter_time * 1.1))
        assert repr(state.fit()) != fitted

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


class TestClosedForm:
    def test_agrees_with_lstsq(self):
        """On 500 seeded point sets, the closed-form solve agrees with
        ``np.linalg.lstsq`` (under the same clamping rules) within
        :data:`FIT_RTOL` on each coefficient."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            xs = sorted(rng.choice(np.arange(1, 513), n,
                                   replace=False).tolist())
            a, b = rng.uniform(1e-3, 0.1), rng.uniform(1e-5, 1e-2)
            ys = [a + b * x * rng.uniform(0.8, 1.25) for x in xs]
            design = np.stack([np.ones(n), np.array(xs, dtype=float)],
                              axis=1)
            (a_ls, b_ls), *_ = np.linalg.lstsq(design, np.array(ys),
                                               rcond=None)
            if b_ls < 0:
                expected = (float(np.mean(ys)), 0.0)
            elif a_ls < 0:
                expected = (0.0, float(np.dot(xs, ys) / np.dot(xs, xs)))
            else:
                expected = (float(a_ls), float(b_ls))
            for got, want in zip(_nonneg_linear_fit(xs, ys), expected):
                assert abs(got - want) <= FIT_RTOL * abs(want), (xs, ys)


class TestFitDeadBand:
    def fit(self, **changes) -> FitResult:
        return replace(folded(
            [obs(m=32), obs(m=64), obs(k=4, m=32)]).fit(), **changes)

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
