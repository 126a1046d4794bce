import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgd import losses, optim
from localgd._kernels import gf_numeric_margin
from localgd.data import FederatedDataset, RawSample, SyntheticSpec, gen_synthetic, prepare
from localgd.errors import DivergenceError
from localgd.optim import (
    AVERAGING_MODES,
    ENGINES,
    RunConfig,
    run_local_gd,
    run_local_gf,
    run_two_stage,
)

from conftest import random_dataset, separable_dataset


def reference_gd(dataset, eta, rounds):
    """Plain full-batch GD written independently of the optimizer module.

    One step averages the per-client one-step updates in ascending client
    order, which is the deterministic full-gradient step of the averaged
    objective.
    """
    w = np.zeros(dataset.d)
    iterates = [w]
    for _ in range(rounds):
        acc = np.zeros(dataset.d)
        for m in range(dataset.M):
            acc = acc + (w - eta * losses.client_gradient(dataset, m, w))
        w = acc / dataset.M
        iterates.append(w)
    return iterates


def one_round(ds, w, K, eta):
    """The average after one round from w, and the largest drift of any local iterate."""
    res = run_local_gd(ds, RunConfig(R=1, K=K, eta=eta, w0=tuple(w)))
    return res.final_weights, max([0.0, *res.traces[0].drift])


class TestLocalGdRound:
    def test_single_step_is_full_gd(self, rng):
        ds = random_dataset(rng, M=3, n=2, d=4)
        w = rng.normal(size=4)
        w_next, _ = one_round(ds, w, K=1, eta=0.7)
        rep = losses.objective(ds, w)
        np.testing.assert_allclose(w_next, w - 0.7 * rep.grad, atol=1e-15)

    def test_single_client_is_sequential_gd(self, rng):
        ds = random_dataset(rng, M=1, n=4, d=3)
        w = rng.normal(size=3)
        w_next, _ = one_round(ds, w, K=5, eta=0.5)
        v = w.copy()
        for _ in range(5):
            v = v - 0.5 * losses.client_gradient(ds, 0, v)
        np.testing.assert_array_equal(w_next, v)

    def test_drift_bounded_by_round_budget(self, rng):
        for eta in (0.5, 2.0, 8.0):
            ds = random_dataset(rng, M=2, n=3, d=4)
            w = rng.normal(size=4)
            K = 6
            _, drift_max = one_round(ds, w, K=K, eta=eta)
            worst = max(losses.client_value(ds, m, w) for m in range(ds.M))
            assert drift_max <= eta * K * worst + 1e-10

    def test_local_descent_within_round(self, rng):
        # each client's own loss cannot increase along its local pass
        ds = random_dataset(rng, M=2, n=3, d=4)
        w = rng.normal(size=4)
        for m in range(ds.M):
            sub = FederatedDataset(clients=[ds.clients[m]], d=ds.d)
            v = w.copy()
            prev = losses.client_value(sub, 0, v)
            for _ in range(8):
                v, _ = one_round(sub, v, K=1, eta=7.9)
                cur = losses.client_value(sub, 0, v)
                assert cur <= prev + 1e-12
                prev = cur


class TestRunLocalGd:
    def test_trace_count_and_initial_loss(self, rng):
        ds = random_dataset(rng)
        res = run_local_gd(ds, RunConfig(R=17, K=3, eta=0.5))
        assert len(res.traces) == 18
        assert [t.r for t in res.traces] == list(range(18))
        assert res.traces[0].global_loss == pytest.approx(math.log(2), abs=1e-15)
        assert res.traces[0].iterate_norm == 0.0

    def test_matches_reference_gd_bitwise(self, rng):
        ds = separable_dataset(rng, M=3, n=2, d=4)
        eta = 1.3
        res = run_local_gd(ds, RunConfig(R=200, K=1, eta=eta))
        ref = reference_gd(ds, eta, 200)
        np.testing.assert_array_equal(res.final_weights, ref[-1])
        for t, w_ref in zip(res.traces, ref):
            assert t.global_loss == losses.objective(ds, w_ref).value

    def test_deterministic(self, rng):
        ds = random_dataset(rng)
        cfg = RunConfig(R=30, K=4, eta=2.0)
        a = run_local_gd(ds, cfg)
        b = run_local_gd(ds, cfg)
        np.testing.assert_array_equal(a.final_weights, b.final_weights)
        assert [t.global_loss for t in a.traces] == [t.global_loss for t in b.traces]

    def test_uniform_average_matches_manual_accumulation(self, rng):
        ds = random_dataset(rng, M=2, n=2, d=3)
        eta, K, R = 0.8, 3, 4
        res = run_local_gd(ds, RunConfig(R=R, K=K, eta=eta, averaging="uniform_average"))
        # manual re-run of the algorithm, accumulating the client averages
        w = np.zeros(3)
        acc = np.zeros(3)
        for _ in range(R):
            locals_ = [w.copy() for _ in range(ds.M)]
            for k in range(K):
                acc_k = np.zeros(3)
                for m in range(ds.M):
                    acc_k += locals_[m]
                    locals_[m] = locals_[m] - eta * losses.client_gradient(ds, m, locals_[m])
                acc += acc_k / ds.M
            w = sum(locals_) / ds.M
        np.testing.assert_allclose(res.averaged_weights, acc / (K * R), atol=1e-13)
        np.testing.assert_allclose(res.final_weights, w, atol=1e-13)

    def test_divergence_detected_with_partial_traces(self):
        # three identical clients each step to 8.5e307, so the averaging sum
        # overflows float64 and the run must abort with its traces intact
        z = np.array([[1.0, 0.0]])
        ds = FederatedDataset(clients=[z.copy(), z.copy(), z.copy()], d=2)
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            run_local_gd(ds, RunConfig(R=10, K=1, eta=1.7e308))
        assert err.value.round_index == 1
        assert len(err.value.traces) == 1
        assert err.value.traces[0].global_loss == pytest.approx(math.log(2), abs=1e-15)

    def test_divergence_round_does_not_depend_on_tracing(self):
        # the same run as above: both engines report round 1, not the first
        # traced round, and keep the traces before it
        z = np.array([[1.0, 0.0]])
        ds = FederatedDataset(clients=[z.copy(), z.copy(), z.copy()], d=2)
        for engine in ("numpy", "margin"):
            for trace_every in (1, 4):
                cfg = RunConfig(R=10, K=1, eta=1.7e308, engine=engine, trace_every=trace_every)
                with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
                    run_local_gd(ds, cfg)
                assert err.value.round_index == 1, (engine, trace_every)
                assert [t.r for t in err.value.traces] == [0], (engine, trace_every)

    def test_trace_thinning(self, rng):
        ds = random_dataset(rng)
        res = run_local_gd(ds, RunConfig(R=25, K=2, eta=0.5, trace_every=10))
        assert [t.r for t in res.traces] == [0, 10, 20, 25]

    def test_lemma_collection_does_not_perturb_iterates(self, rng):
        ds = random_dataset(rng)
        on = run_local_gd(ds, RunConfig(R=20, K=3, eta=1.5, track_bounds=True))
        off = run_local_gd(ds, RunConfig(R=20, K=3, eta=1.5, track_bounds=False))
        np.testing.assert_array_equal(on.final_weights, off.final_weights)

    def test_drift_and_bias_recorded(self, rng):
        ds = random_dataset(rng)
        res = run_local_gd(ds, RunConfig(R=5, K=3, eta=0.5))
        for t in res.traces[:-1]:
            assert t.drift is not None and len(t.drift) == ds.M
            assert t.bias is not None and all(b >= 0 for b in t.bias)
        assert res.traces[-1].drift is None

    @given(
        seed=st.integers(0, 2**32 - 1), M=st.integers(2, 4), d=st.integers(2, 4),
        K=st.integers(1, 8), eta=st.floats(0.1, 8.0), R=st.integers(1, 40),
        trace_every=st.integers(1, 3), averaging=st.sampled_from(AVERAGING_MODES),
    )
    @settings(max_examples=100, deadline=None)
    def test_margin_engine_matches_numpy_engine(self, seed, M, d, K, eta, R, trace_every, averaging):
        ds = random_dataset(np.random.default_rng(seed), M=M, n=1, d=d)
        cfg = dict(R=R, K=K, eta=eta, averaging=averaging, trace_every=trace_every)
        res_np = run_local_gd(ds, RunConfig(engine="numpy", **cfg))
        res_mg = run_local_gd(ds, RunConfig(engine="margin", **cfg))
        np.testing.assert_allclose(res_mg.final_weights, res_np.final_weights, rtol=0, atol=1e-9)
        if averaging == "uniform_average":
            np.testing.assert_allclose(
                res_mg.averaged_weights, res_np.averaged_weights, rtol=0, atol=1e-9
            )
        assert [t.r for t in res_mg.traces] == [t.r for t in res_np.traces]
        for a, b in zip(res_np.traces, res_mg.traces):
            np.testing.assert_allclose(
                [b.global_loss, b.grad_norm, b.min_margin, *b.client_losses],
                [a.global_loss, a.grad_norm, a.min_margin, *a.client_losses], rtol=0, atol=1e-9,
            )

    @pytest.mark.parametrize("track_bounds", [True, False])
    def test_one_client_evaluation_per_iterate(self, rng, monkeypatch, track_bounds):
        # each traced iterate is evaluated once (one ell_prime per client); a
        # round then takes K - 1 more client gradients, plus the one at w_K
        # only when the bias is tracked
        calls = []
        real = losses.ell_prime
        monkeypatch.setattr(losses, "ell_prime", lambda z: calls.append(1) or real(z))
        M, R, K = 3, 5, 4
        ds = random_dataset(rng, M=M, n=2, d=4)
        run_local_gd(ds, RunConfig(R=R, K=K, eta=0.9, track_bounds=track_bounds))
        assert len(calls) == M * (R + 1) + R * M * (K if track_bounds else K - 1)

    def test_margin_engine_rejects_multisample_clients(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        with pytest.raises(ValueError, match="one sample per client"):
            run_local_gd(ds, RunConfig(R=5, K=2, eta=0.5, engine="margin"))


class TestRunTwoStage:
    def test_requires_stage_parameters(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValueError):
            run_two_stage(ds, RunConfig(R=10, K=2, eta=0.5))

    def test_zero_warmup_equals_plain_run(self, rng):
        ds = random_dataset(rng)
        res2 = run_two_stage(ds, RunConfig(R=20, K=2, eta1=0.1, eta2=2.0, r0=0))
        res1 = run_local_gd(ds, RunConfig(R=20, K=2, eta=2.0))
        np.testing.assert_array_equal(res2.final_weights, res1.final_weights)

    def test_full_warmup_returns_stage1_average(self, rng):
        ds = random_dataset(rng)
        res = run_two_stage(ds, RunConfig(R=12, K=2, eta1=0.5, eta2=2.0, r0=12))
        ref = run_local_gd(
            ds, RunConfig(R=12, K=2, eta=0.5, averaging="uniform_average")
        )
        np.testing.assert_array_equal(res.final_weights, ref.averaged_weights)

    def test_stage_labels_switch_at_r0(self, rng):
        ds = random_dataset(rng)
        res = run_two_stage(ds, RunConfig(R=10, K=2, eta1=0.5, eta2=2.0, r0=4))
        assert [t.r for t in res.traces] == list(range(11))
        assert [t.stage for t in res.traces] == [1] * 4 + [2] * 7
        assert all(t.eta_used == 0.5 for t in res.traces if t.stage == 1)
        assert all(t.eta_used == 2.0 for t in res.traces if t.stage == 2)

    def test_stage2_starts_from_stage1_average(self, rng):
        ds = random_dataset(rng)
        res = run_two_stage(ds, RunConfig(R=8, K=3, eta1=0.4, eta2=1.5, r0=5))
        ref = run_local_gd(ds, RunConfig(R=5, K=3, eta=0.4, averaging="uniform_average"))
        t_r0 = next(t for t in res.traces if t.r == 5)
        assert t_r0.global_loss == losses.objective(ds, ref.averaged_weights).value

    def test_large_eta2_warns(self, rng):
        ds = random_dataset(rng)
        with pytest.warns(UserWarning, match="exceeds 4"):
            run_two_stage(ds, RunConfig(R=4, K=1, eta1=0.5, eta2=5.0, r0=1))


def single_client_unit_dataset():
    return prepare([(RawSample(np.array([1.0, 0.0]), 1), 0)])


class TestRunLocalGf:
    def test_single_client_transcendental_identity(self):
        # eta*K = e moves the margin projection from 0 to exactly 1
        ds = single_client_unit_dataset()
        res = run_local_gf(ds, RunConfig(R=1, K=1, eta=math.e))
        assert res.traces[1].global_loss == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-12)
        assert res.traces[1].a[0] == pytest.approx(1.0, rel=1e-12)

    def test_antipodal_cancellation(self):
        ds = FederatedDataset(
            clients=[np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])], d=2
        )
        res = run_local_gf(ds, RunConfig(R=20, K=4, eta=1.0))
        for t in res.traces:
            assert t.iterate_norm <= 1e-14
            assert t.global_loss == pytest.approx(math.log(2), abs=1e-14)

    def test_exact_requires_single_samples(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        with pytest.raises(ValueError, match="one sample per client"):
            run_local_gf(ds, RunConfig(R=2, K=1, eta=1.0, gf_method="exact"))

    def test_numeric_general_path(self, rng):
        # multi-sample clients fall back to the d-dimensional integrator
        ds = separable_dataset(rng, M=2, n=3, d=3)
        res = run_local_gf(ds, RunConfig(R=5, K=2, eta=1.0, gf_substeps=200))
        assert len(res.traces) == 6
        assert res.traces[0].lyapunov is None
        losses_seq = [t.global_loss for t in res.traces]
        assert losses_seq[-1] < losses_seq[0]

    def test_lyapunov_fields_populated(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        res = run_local_gf(ds, RunConfig(R=10, K=2, eta=2.0))
        for t in res.traces:
            assert t.lyapunov == pytest.approx(max(t.rho), rel=1e-15)
            assert len(t.a) == 2
        lyap = [t.lyapunov for t in res.traces]
        assert all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))

    def test_exact_and_margin_numeric_agree(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        exact = run_local_gf(ds, RunConfig(R=50, K=1, eta=4.0, gf_method="exact"))
        numeric = run_local_gf(
            ds, RunConfig(R=50, K=1, eta=4.0, gf_method="numeric", gf_substeps=10000)
        )
        diff = max(
            float(np.max(np.abs(np.array(a.a) - np.array(b.a))))
            for a, b in zip(exact.traces, numeric.traces)
        )
        assert diff <= 1e-6

    @given(
        seed=st.integers(0, 2**32 - 1), M=st.integers(2, 4), d=st.integers(2, 4),
        K=st.integers(1, 4), eta=st.floats(0.1, 8.0), R=st.integers(1, 30),
        substeps=st.sampled_from([16, 32, 64, 128]), trace_every=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_numeric_flow_within_its_error_estimate_of_exact(
        self, seed, M, d, K, eta, R, substeps, trace_every
    ):
        ds = random_dataset(np.random.default_rng(seed), M=M, n=1, d=d)
        cfg = dict(R=R, K=K, eta=eta, trace_every=trace_every)
        exact = run_local_gf(ds, RunConfig(gf_method="exact", **cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coarse substeps warn about err_max
            numeric = run_local_gf(ds, RunConfig(gf_method="numeric", gf_substeps=substeps, **cfg))
        gammas, U = ds.sample_geometry()
        err_max = gf_numeric_margin(gammas, U @ U.T, np.zeros(M), 0.0, eta, K, R, substeps)[-1]
        # err_max, the gap to a half-resolution run, overestimates one round's
        # RK4 error about 15-fold (fourth order); R of them for R rounds left a
        # 30-fold margin on 400 random draws. Losses, surrogates and margins
        # move no faster than the projections a, as prepare scales every gamma
        # to at most 1.
        tol = R * err_max + 1e-11
        assert max(gammas) <= 1.0
        assert [t.r for t in numeric.traces] == [t.r for t in exact.traces]
        for a, b in zip(exact.traces, numeric.traces):
            np.testing.assert_allclose(
                [b.global_loss, b.min_margin, b.lyapunov, *b.client_losses, *b.rho, *b.a],
                [a.global_loss, a.min_margin, a.lyapunov, *a.client_losses, *a.rho, *a.a],
                rtol=0, atol=tol,
            )

    def test_non_finite_start_diverges_at_round_zero(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        for method in ("exact", "numeric"):
            with pytest.raises(DivergenceError) as err:
                run_local_gf(ds, RunConfig(R=5, K=2, eta=1.0, gf_method=method, w0=(math.nan, 0.0)))
            assert err.value.round_index == 0, method
            assert err.value.traces == [], method

    def test_numeric_flow_divergence_round_does_not_depend_on_tracing(self):
        # at eta = 1e300 round 1 moves the margins to about 3e297, far outside
        # |g * a| <= 700, untraced or not
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        for method in ("numeric", "exact"):
            for trace_every in (1, 4):
                cfg = RunConfig(R=5, K=2, eta=1e300, gf_method=method, trace_every=trace_every)
                with pytest.raises(DivergenceError) as err:
                    run_local_gf(ds, cfg)
                assert err.value.round_index == 1, (method, trace_every)
                assert [t.r for t in err.value.traces] == [0], (method, trace_every)

    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.filterwarnings("ignore:flow integration error estimate")
    def test_half_resolution_pass_only_with_two_substeps(self, rng, monkeypatch, substeps):
        # with one substep the half-resolution pass would integrate the same path again
        calls = []
        real = optim._rk4_client_flow
        monkeypatch.setattr(optim, "_rk4_client_flow", lambda *a: calls.append(a[-1]) or real(*a))
        ds = separable_dataset(rng, M=2, n=3, d=3)
        run_local_gf(ds, RunConfig(R=3, K=2, eta=1.0, gf_substeps=substeps))
        assert sorted(set(calls)) == sorted({substeps, max(1, substeps // 2)})
        assert len(calls) == ds.M * 3 * (1 if substeps < 2 else 2)

    def test_coarse_substeps_warn(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        with pytest.warns(UserWarning, match="error estimate"):
            run_local_gf(ds, RunConfig(R=3, K=64, eta=4.0, gf_method="numeric", gf_substeps=2))

    def test_determinism(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        cfg = RunConfig(R=25, K=4, eta=1.0)
        a = run_local_gf(ds, cfg)
        b = run_local_gf(ds, cfg)
        np.testing.assert_array_equal(a.final_weights, b.final_weights)


def _outcome(run, ds, cfg):
    """(stop, traces) of ``run(ds, cfg)``: stop is the divergence round, None if the run
    finished, or "refused" if it is a flow whose eta * K = inf leaves no surrogate losses."""
    try:
        return None, run(ds, cfg).traces
    except DivergenceError as err:
        return err.round_index, err.traces
    except ValueError as err:
        assert "b must be finite" in str(err)
        return "refused", []


def _numbers(trace):
    """Every number a trace holds."""
    fields = (trace.global_loss, trace.grad_norm, trace.iterate_norm, trace.min_margin,
              trace.eta_used, trace.lyapunov)
    lists = (trace.client_losses, trace.rho, trace.a, trace.drift, trace.bias)
    return [x for x in fields if x is not None] + list(itertools.chain(*filter(None, lists)))


class TestDivergenceRule:
    """One rule ends every run: the first round, traced or not, whose ||w_r||^2 is not
    finite or, for a flow, whose margins leave |g * a| <= 700, or the first traced
    round whose trace is not finite."""

    @given(
        seed=st.integers(0, 2**32 - 1), M=st.integers(1, 3), d=st.integers(2, 3),
        K=st.integers(1, 8), R=st.integers(1, 19), trace_every=st.integers(2, 6),
        log_eta=st.floats(-2.0, 308.0), log_scale=st.none() | st.floats(-3.0, 200.0),
    )
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:flow integration error estimate")
    def test_every_engine_and_flow_method_applies_one_rule(
        self, seed, M, d, K, R, trace_every, log_eta, log_scale
    ):
        rng = np.random.default_rng(seed)
        ds = separable_dataset(rng, M=M, n=1, d=d)
        w0 = None if log_scale is None else tuple(rng.normal(size=d) * 10.0 ** log_scale)
        cfg = dict(R=R, K=K, eta=10.0 ** log_eta, w0=w0)
        outcomes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for every in (1, trace_every):
                gd = {e: _outcome(run_local_gd, ds, RunConfig(engine=e, trace_every=every, **cfg))
                      for e in ENGINES}
                (stop, traces), (stop_mg, traces_mg) = gd.values()
                assert stop == stop_mg, every
                assert [t.r for t in traces] == [t.r for t in traces_mg], every
                outcomes += gd.values()
            for method in ("exact", "numeric"):
                flow = RunConfig(gf_method=method, gf_substeps=4, **cfg)
                runs = [_outcome(run_local_gf, ds, replace(flow, trace_every=every))
                        for every in (1, trace_every)]
                assert runs[0][0] == runs[1][0], method
                outcomes += runs
        for _stop, traces in outcomes:
            for t in traces:
                assert all(map(math.isfinite, _numbers(t))), t

    def test_drift_near_overflow_is_finite(self):
        # at eta = 5e154 round 0's client displacement has a finite norm, ~2.5e154,
        # whose square overflows; drift falls back to hypot instead of reading inf
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        with np.errstate(over="ignore"):
            res = run_local_gd(ds, RunConfig(R=5, K=2, eta=5e154, track_bounds=True))
        bounds = [v for t in res.traces if t.drift is not None for v in (*t.drift, *t.bias)]
        assert bounds and all(map(math.isfinite, bounds))
        assert max(res.traces[0].drift) > 1e154

    def test_start_with_overflowing_norm_diverges_at_round_zero_on_every_runner(self):
        # ||w0||^2 = 1e400 overflows while w0 and its margins are finite; the rule
        # sees it before any trace is built, and raises no overflow warning
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        cfg = dict(R=5, K=2, eta=1.0, w0=(1e200, 0.0))
        runs = [(run_local_gd, RunConfig(engine=engine, **cfg)) for engine in ENGINES]
        runs += [(run_local_gf, RunConfig(gf_method=m, **cfg)) for m in ("exact", "numeric")]
        for run, config in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergenceError) as err:
                    run(ds, config)
            assert (err.value.round_index, err.value.traces) == (0, []), config
