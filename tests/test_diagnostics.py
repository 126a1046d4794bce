import json
import math

import numpy as np
import pytest

from localgd import diagnostics, losses
from localgd.data import FederatedDataset, SyntheticSpec, compute_margin, gen_synthetic
from localgd.optim import RunConfig, run_local_gd, run_local_gf, run_two_stage
from localgd.schedules import theory_eta1, theory_r0

from conftest import random_dataset, separable_dataset


class TestEnvelopeTwoStage:
    def test_plugin_value(self):
        assert diagnostics.envelope_two_stage(1.0, 1.0, 1, 3, 1) == 1.0

    def test_doubling_K_halves(self):
        a = diagnostics.envelope_two_stage(1.0, 0.5, 8, 100, 10)
        b = diagnostics.envelope_two_stage(1.0, 0.5, 16, 100, 10)
        assert b == pytest.approx(a / 2, rel=1e-15)

    def test_requires_budget(self):
        with pytest.raises(ValueError):
            diagnostics.envelope_two_stage(1.0, 0.5, 8, 10, 10)


def baseline_oracle(kind, gamma, K, R):
    plog = lambda x: max(0.0, math.log(x))
    if kind == "global":
        t1, t2 = K * R * gamma**2, R ** (2 / 3) * gamma ** (4 / 3)
        return (2 + plog(t1) ** 2) / t1 + (2 + plog(t2) ** (4 / 3)) / t2
    return (1 + plog(R) ** 2) / (gamma**2 * R) + plog(R) ** (4 / 3) / (
        gamma ** (4 / 3) * R ** (4 / 3)
    )


class TestEnvelopeBaseline:
    def test_local_single_round(self):
        for gamma in (0.1, 0.5, 1.0):
            assert diagnostics.envelope_baseline("local", gamma, 4, 1) == pytest.approx(
                1 / gamma**2, rel=1e-15
            )

    def test_global_log_clamp(self):
        # K*R*gamma^2 <= 1 clamps the log and leaves 2/(K*R*gamma^2)
        gamma, K, R = 0.1, 2, 10
        assert K * R * gamma**2 <= 1
        value = diagnostics.envelope_baseline("global", gamma, K, R)
        first = 2 / (K * R * gamma**2)
        assert value >= first
        assert value - first == pytest.approx(baseline_oracle("global", gamma, K, R) - first)

    def test_matches_independent_evaluation(self):
        for kind in ("global", "local"):
            got = diagnostics.envelope_baseline(kind, 0.5, 8, 100)
            assert got == pytest.approx(baseline_oracle(kind, 0.5, 8, 100), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            diagnostics.envelope_baseline("local", 1.5, 4, 10)
        with pytest.raises(ValueError):
            diagnostics.envelope_baseline("median", 0.5, 4, 10)


class TestEnvelopeGf:
    def _constants(self):
        from localgd import specialfn

        U = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        state = specialfn.make_gf_state(np.array([1.0, 0.8]), U, 2.0)
        return specialfn.theory_constants(state, 2.0)

    def test_decreasing_and_positive(self):
        tc = self._constants()
        vals = [tc.envelope(tc.tau + 10 * k) for k in (1, 2, 4, 8)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_doubling_gap_halves(self):
        tc = self._constants()
        a = tc.envelope(tc.tau + 50)
        b = tc.envelope(tc.tau + 100)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_below_threshold_rejected(self):
        tc = self._constants()
        with pytest.raises(ValueError):
            tc.envelope(tc.tau)


class TestGradientObjectiveBounds:
    def test_lower_bound_needs_a_certified_margin(self, rng, no_solver):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        report = diagnostics.check_gradient_objective_bounds(ds, [np.zeros(4)])
        assert report.passed
        assert report.na_count == 1

    def test_at_origin(self, rng):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        report = diagnostics.check_gradient_objective_bounds(ds, [np.zeros(4)])
        assert report.passed
        assert report.instances_checked > 0

    def test_along_margin_direction(self, rng):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        _, w_star = compute_margin(ds)
        samples = [t * w_star for t in (1.0, 5.0, 25.0)]
        report = diagnostics.check_gradient_objective_bounds(ds, samples)
        assert report.passed
        assert report.na_count == 0

    def test_negative_margin_skips_lower_bound(self, rng):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        _, w_star = compute_margin(ds)
        report = diagnostics.check_gradient_objective_bounds(ds, [-5.0 * w_star])
        assert report.passed  # upper bounds still hold
        assert report.na_count == 1


class TestHessianGrowth:
    def test_coincident_points_reduce_to_basic_bound(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        w = rng.normal(size=4)
        report = diagnostics.check_local_hessian_growth(ds, w, w)
        assert report.passed

    def test_random_pairs(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        for _ in range(10):
            w1 = rng.normal(size=4)
            w2 = w1 + rng.normal(size=4) * 0.3
            report = diagnostics.check_local_hessian_growth(ds, w1, w2)
            assert report.passed
            assert report.min_slack >= 0

    def test_large_separation_still_holds(self, rng):
        ds = random_dataset(rng, M=2, n=3, d=4)
        w1 = rng.normal(size=4)
        direction = rng.normal(size=4)
        w2 = w1 + 3.0 * direction / np.linalg.norm(direction)
        assert diagnostics.check_local_hessian_growth(ds, w1, w2).passed

    def test_extreme_separation_saturates(self, rng):
        # past exp-overflow distances the bound is infinite and trivially holds
        ds = random_dataset(rng, M=2, n=2, d=3)
        w1 = rng.normal(size=3)
        w2 = w1 + 40.0 * np.array([1.0, 0.0, 0.0])
        report = diagnostics.check_local_hessian_growth(ds, w1, w2)
        assert report.passed


class TestCheckRun:
    def test_drift_and_bias_on_plain_run(self, rng):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        res = run_local_gd(ds, RunConfig(R=30, K=4, eta=2.0))
        reports = {r.name: r for r in diagnostics.check_run(res, ds)}
        assert reports["client-drift"].passed
        assert reports["client-drift"].instances_checked > 0
        assert reports["gradient-bias"].passed

    def test_bias_gate_engages_at_low_loss(self, rng):
        ds = separable_dataset(rng, M=2, n=3, d=4)
        _, w_star = compute_margin(ds)
        cfg = RunConfig(R=10, K=4, eta=2.0, w0=tuple(20.0 * w_star))
        res = run_local_gd(ds, cfg)
        reports = {r.name: r for r in diagnostics.check_run(res, ds)}
        assert reports["gradient-bias"].instances_checked > 0
        assert reports["gradient-bias"].passed

    def test_stable_rate_on_theorem_compliant_two_stage(self):
        ds = gen_synthetic(SyntheticSpec(delta=10.0, g=1))
        gamma, _ = compute_margin(ds)
        K, M = 4, 2
        r0 = theory_r0(1.0, K, M, gamma)
        eta1 = theory_eta1(1.0, K, M, gamma)
        cfg = RunConfig(
            R=r0 + 100, K=K, eta1=eta1, eta2=1.0, r0=r0,
            engine="margin", trace_every=997,
        )
        res = run_two_stage(ds, cfg)
        reports = {r.name: r for r in diagnostics.check_run(res, ds)}
        rate = reports["stable-rate"]
        assert rate.passed
        assert rate.instances_checked > 0
        assert reports["stable-monotone"].passed

    def test_eta_above_four_marks_rate_not_applicable(self, rng):
        ds = separable_dataset(rng, M=2, n=2, d=3)
        compute_margin(ds)  # a certified gamma, so only the eta > 4 gate can rule rounds out
        res = run_local_gd(ds, RunConfig(R=10, K=2, eta=6.0))
        reports = {r.name: r for r in diagnostics.check_run(res, ds)}
        assert reports["stable-rate"].instances_checked == 0
        assert reports["stable-rate"].na_count > 0
        assert reports["client-drift"].instances_checked > 0  # eta <= 8 still checked

    def test_rate_checks_without_margin_are_not_applicable(self, rng, no_solver):
        ds = separable_dataset(rng, M=2, n=2, d=3)
        res = run_local_gd(ds, RunConfig(R=10, K=2, eta=1.0))
        names = ["stable-rate", "stable-monotone", "stable-rate-strict"]
        for report in diagnostics.check_run(res, ds, checks=names):
            assert (report.passed, report.instances_checked, report.na_count) == (True, 0, 11)

    def test_lyapunov_checks_on_flow_run(self):
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        res = run_local_gf(ds, RunConfig(R=50, K=4, eta=1.0))
        reports = {r.name: r for r in diagnostics.check_run(res, ds)}
        assert reports["lyapunov-monotone"].passed
        assert reports["lyapunov-monotone"].instances_checked == 50
        assert reports["lyapunov-rate"].passed
        # the discrete-step rate claims are not auto-applied to flow runs
        assert "stable-rate" not in reports
        explicit = diagnostics.check_run(res, ds, checks=["stable-rate"])
        assert explicit[0].name == "stable-rate"

    def test_lyapunov_rate_needs_one_sample_per_client(self, rng):
        res = run_local_gf(gen_synthetic(SyntheticSpec(delta=0.1, g=5)), RunConfig(R=5, K=2, eta=1.0))
        multi = random_dataset(rng, M=2, n=3, d=2)
        with pytest.raises(ValueError, match="one sample per client"):
            diagnostics.check_run(res, multi, checks=["lyapunov-rate"])

    @pytest.mark.parametrize("second, eta", [([-1.0, 0.0], 1.0), ([1e-160, 0.0], 1e-5)])
    def test_lyapunov_rate_not_applicable_to_degenerate_geometry(self, second, eta):
        # antipodal clients, and a client whose etaK*gamma^2 underflows to 0
        ds = FederatedDataset(clients=[np.array([[1.0, 0.0]]), np.array([second])], d=2)
        res = run_local_gf(ds, RunConfig(R=6, K=2, eta=eta))
        (report,) = diagnostics.check_run(res, ds, checks=["lyapunov-rate"])
        assert report.passed
        assert report.instances_checked == 0
        assert report.na_count == len(res.traces)

    def test_explicit_request_without_data_is_not_applicable(self, rng):
        # a flow run records no drift or bias: the named checks report the whole run N/A
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        res = run_local_gf(ds, RunConfig(R=5, K=2, eta=1.0))
        reports = diagnostics.check_run(res, ds, checks=["drift", "bias"])
        assert [r.name for r in reports] == ["client-drift", "gradient-bias"]
        for report in reports:
            assert (report.passed, report.instances_checked, report.na_count) == (True, 0, 6)
        with pytest.raises(ValueError, match="unknown check"):
            diagnostics.check_run(res, ds, checks=["entropy"])

    def test_automatic_selection_order(self, rng):
        ds = separable_dataset(rng, M=2, n=2, d=3)
        res = run_local_gd(ds, RunConfig(R=5, K=2, eta=1.0))
        reports = diagnostics.check_run(res, ds)
        assert [r.name for r in reports] == [
            "client-drift", "gradient-bias", "stable-rate", "stable-monotone",
            "stable-rate-strict",
        ]
        assert [r.informational for r in reports] == [False] * 4 + [True]
        ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
        flow = run_local_gf(ds, RunConfig(R=5, K=2, eta=1.0))
        assert [r.name for r in diagnostics.check_run(flow, ds)] == [
            "lyapunov-monotone", "lyapunov-rate",
        ]

    def test_reports_serialize(self, rng):
        ds = separable_dataset(rng, M=2, n=2, d=3)
        res = run_local_gd(ds, RunConfig(R=5, K=2, eta=1.0))
        for report in diagnostics.check_run(res, ds):
            doc = json.dumps(report.to_dict())
            assert report.name in doc
