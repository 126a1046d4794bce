"""Executable checks of the convergence analysis along real trajectories.

Each check turns an inequality the analysis proves into a measurement on a
completed run and reports slack (bound minus quantity) rather than bare
pass/fail, so regressions surface as shrinking slack before they become
violations. Loss-scale comparisons use an absolute tolerance of 1e-9; Hessian
norms, which come out of an iterative solver, use 1e-8 relative.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, asdict

import numpy as np

from . import losses, specialfn
from .errors import DegenerateGeometryError
from .schedules import _pos_log

__all__ = [
    "CheckReport",
    "check_gradient_objective_bounds",
    "check_local_hessian_growth",
    "check_run",
    "envelope_two_stage",
    "envelope_baseline",
    "flow_constants",
    "RUN_CHECKS",
]

LOSS_TOL = 1e-9
HESS_RTOL = 1e-8
MONOTONE_TOL = 1e-12


@dataclass
class CheckReport:
    """Outcome of one check: violations are (round, quantity, bound, slack).

    ``passed`` is true exactly when no violation was recorded; ``na_count``
    counts the rounds the check cannot judge (every round when it cannot judge
    the run: no trace data, or no certified gamma in ``dataset.margin``), and
    ``min_slack`` is the smallest slack seen over all evaluated instances.
    Informational reports are recorded but never fail a run.
    """

    name: str
    instances_checked: int = 0
    violations: list = field(default_factory=list)
    passed: bool = True
    tolerance: float = LOSS_TOL
    na_count: int = 0
    min_slack: float | None = None
    informational: bool = False

    def record(self, round_index, quantity, bound, tol=None):
        tol = self.tolerance if tol is None else tol
        slack = bound - quantity
        self.instances_checked += 1
        if self.min_slack is None or slack < self.min_slack:
            self.min_slack = float(slack)
        if slack < -tol:
            self.violations.append(
                (round_index, float(quantity), float(bound), float(slack))
            )
            self.passed = False

    def to_dict(self):
        return asdict(self)


def check_gradient_objective_bounds(dataset, weight_samples) -> CheckReport:
    """Gradient and Hessian norms against the objective, at sample weights.

    Per client: ||grad F_m|| <= F_m and ||hess F_m|| <= F_m; globally
    ||hess F|| <= F; and at weights whose minimum margin is nonnegative,
    ||grad F|| >= (gamma/2) F with gamma the dataset's certified margin.
    """
    report = CheckReport(name="gradient-objective-bounds")
    gamma = dataset.margin[0] if dataset.margin else None
    for idx, w in enumerate(weight_samples):
        w = np.asarray(w, dtype=np.float64)
        rep = losses.objective(dataset, w)
        for m, (fm, grad_m) in enumerate(zip(rep.per_client_values, rep.per_client_grads)):
            report.record(idx, float(np.linalg.norm(grad_m)), fm)
            hm = losses.client_hessian_spectral_norm(dataset, m, w)
            report.record(idx, hm, fm, tol=HESS_RTOL * max(1.0, fm))
        h = losses.hessian_spectral_norm(dataset, w)
        report.record(idx, h, rep.value, tol=HESS_RTOL * max(1.0, rep.value))
        if rep.min_margin >= 0.0 and gamma is not None:
            # lower bound on the gradient: operands swapped so that positive
            # slack still means the inequality holds
            report.record(idx, (gamma / 2.0) * rep.value, rep.grad_norm)
        else:
            report.na_count += 1
    return report


def _hessian_growth_rhs(f1, dist):
    # exp(dist^2) overflows past ~26.6; the bound is then vacuously infinite
    if dist * dist > 700.0:
        return math.inf if f1 > 0.0 else 0.0
    return f1 * (1.0 + dist * (1.0 + math.exp(dist * dist) * (1.0 + 0.5 * dist * dist)))


def check_local_hessian_growth(dataset, w1, w2) -> CheckReport:
    """Per-client Hessian norm at w2 against the growth bound anchored at w1.

    The bound is F_m(w1) * (1 + t*(1 + exp(t^2)*(1 + t^2/2))) with
    t = ||w2 - w1||.
    """
    report = CheckReport(name="hessian-growth", tolerance=HESS_RTOL)
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    dist = float(np.linalg.norm(w2 - w1))
    for m in range(dataset.M):
        f1 = losses.client_value(dataset, m, w1)
        rhs = _hessian_growth_rhs(f1, dist)
        lhs = losses.client_hessian_spectral_norm(dataset, m, w2)
        report.record(m, lhs, rhs, tol=HESS_RTOL * max(1.0, rhs))
    return report


def _check_drift(run, dataset):
    report = CheckReport(name="client-drift")
    K = run.config.K
    for t in run.traces:
        if t.drift is None:
            continue
        if t.eta_used > 8.0:
            report.na_count += 1
            continue
        budget = t.eta_used * K
        for m, d in enumerate(t.drift):
            report.record(t.r, d, budget * t.client_losses[m])
    return report


def _check_bias(run, dataset):
    report = CheckReport(name="gradient-bias")
    K = run.config.K
    M = dataset.M
    for t in run.traces:
        if t.bias is None:
            continue
        if t.eta_used > 8.0 or t.global_loss > 1.0 / (t.eta_used * K * M):
            report.na_count += 1
            continue
        for m, b in enumerate(t.bias):
            report.record(t.r, b, 7.0 * t.eta_used * K * t.client_losses[m] ** 2)
    return report


def _stable_stretches(run, dataset, report):
    """Per stage, the traces from its stable-region entry on, the entry first.

    The entry is the stage's first trace with eta <= 4 and
    F <= gamma^2 / (42 * eta * K * M), gamma the dataset's certified margin;
    each trace before it, or every trace without a margin, counts as not
    applicable in ``report``. A stage that never enters yields nothing.
    """
    if dataset.margin is None:
        report.na_count = len(run.traces)
        return
    gamma = dataset.margin[0]
    K = run.config.K
    M = dataset.M
    by_stage: dict[int, list] = {}
    for t in run.traces:
        by_stage.setdefault(t.stage, []).append(t)
    for stage_traces in by_stage.values():
        for i, t in enumerate(stage_traces):
            if t.eta_used <= 4.0 and t.global_loss <= gamma**2 / (42.0 * t.eta_used * K * M):
                yield stage_traces[i:]
                break
            report.na_count += 1


def _check_stable_rate(run, dataset, strict=False):
    """Loss envelope after a constant-stepsize stretch enters the stable region.

    After a stage's entry round (see _stable_stretches) the loss must satisfy
    F(round r) <= 4 / (eta * gamma^2 * K * (r - entry)). The strict variant
    checks the factor-2 form and is informational.
    """
    name = "stable-rate-strict" if strict else "stable-rate"
    report = CheckReport(name=name, informational=strict)
    K = run.config.K
    factor = 2.0 if strict else 4.0
    for entry, *rest in _stable_stretches(run, dataset, report):
        for t in rest:
            bound = factor / (entry.eta_used * dataset.margin[0] ** 2 * K * (t.r - entry.r))
            report.record(t.r, t.global_loss, bound)
    return report


def _check_stable_monotone(run, dataset):
    """Loss is non-increasing once a stage has entered the stable region."""
    report = CheckReport(name="stable-monotone", tolerance=MONOTONE_TOL)
    for stretch in _stable_stretches(run, dataset, report):
        for prev, t in zip(stretch, stretch[1:]):
            report.record(t.r, t.global_loss, prev.global_loss)
    return report


def _check_lyapunov(run, dataset):
    report = CheckReport(name="lyapunov-monotone", tolerance=MONOTONE_TOL)
    prev = None
    for t in run.traces:
        if t.lyapunov is None:
            continue
        if prev is not None:
            report.record(t.r, t.lyapunov, prev)
        prev = t.lyapunov
    return report


def flow_constants(dataset, etaK):
    """TheoryConstants of a flow at eta*K = ``etaK`` on ``dataset``'s two one-sample clients,
    and the dict of them that a flow run's summary and ``envelope --kind gf`` print."""
    tc = specialfn.theory_constants(specialfn.make_gf_state(*dataset.sample_geometry(), etaK), etaK)
    return tc, {k: getattr(tc, k) for k in ("L0", "H0", "nu", "tau", "tau0", "tau1", "c")}


def _check_lyapunov_rate(run, dataset):
    """Lyapunov decay 1/(1/L_q + nu*(r-q)/2) with the observed projection floor.

    nu = (1+c)*gmin / (4*(L0+1)^2*(1+exp(-gmax*floor))) with the flow constants
    of ``specialfn.theory_constants``; the floor is the smallest worst-client
    projection seen along the traced rounds, so the check is meaningful for
    unthinned traces. Two clients only; not applicable to degenerate geometry.
    """
    report = CheckReport(name="lyapunov-rate")
    traced = [t for t in run.traces if t.lyapunov is not None and t.rho is not None]
    if not traced or len(traced[0].rho) != 2 or run.config.eta is None:
        report.na_count = len(run.traces)
        return report
    etaK = run.config.eta * run.config.K
    # floor over the trajectory of the worst client's projection
    a_floor = min(t.a[int(np.argmax(t.rho))] for t in traced)
    try:
        tc, _printed = flow_constants(dataset, etaK)
        exp_arg = -tc.gamma_max * a_floor
    except DegenerateGeometryError:
        exp_arg = math.inf
    if exp_arg > 700.0:
        report.na_count = len(traced)
        return report
    nu = (1.0 + tc.c) * tc.gamma_min / (4.0 * (tc.L0 + 1.0) ** 2 * (1.0 + math.exp(exp_arg)))
    Lq = traced[0].lyapunov
    q = traced[0].r
    for t in traced[1:]:
        bound = 1.0 / (1.0 / Lq + nu * (t.r - q) / 2.0)
        report.record(t.r, t.lyapunov, bound)
    return report


@dataclass(frozen=True)
class RunCheck:
    """A registered trajectory check.

    ``needs`` names the trace field the check reads (None: always
    applicable); ``discrete_only`` keeps automatic selection from running it on
    flow runs, since it is a claim about discrete local steps (flow runs can
    still request it explicitly).
    """

    fn: Callable
    needs: str | None = None
    discrete_only: bool = False

    def has_data(self, run):
        return self.needs is None or any(getattr(t, self.needs) is not None for t in run.traces)


RUN_CHECKS = {
    "drift": RunCheck(_check_drift, needs="drift"),
    "bias": RunCheck(_check_bias, needs="bias"),
    "stable-rate": RunCheck(_check_stable_rate, discrete_only=True),
    "stable-monotone": RunCheck(_check_stable_monotone, discrete_only=True),
    "lyapunov": RunCheck(_check_lyapunov, needs="lyapunov"),
    "lyapunov-rate": RunCheck(_check_lyapunov_rate, needs="lyapunov"),
    "stable-rate-strict": RunCheck(functools.partial(_check_stable_rate, strict=True),
                                   discrete_only=True),
}


def check_run(run, dataset, checks=None) -> list[CheckReport]:
    """Run trajectory checks against a completed run.

    With checks=None, every check whose required trace fields are present is
    executed. An explicitly requested check whose trace field the run lacks
    reports the whole run as not applicable; unknown names raise ValueError.
    """
    if checks is None:
        flow = run.optimizer == "local-gf"
        selected = [
            n for n, c in RUN_CHECKS.items()
            if c.has_data(run) and not (c.discrete_only and flow)
        ]
    else:
        selected = list(checks)
        for name in selected:
            if name not in RUN_CHECKS:
                raise ValueError(
                    f"unknown check {name!r}; available: {', '.join(RUN_CHECKS)}"
                )
    reports = [RUN_CHECKS[name].fn(run, dataset) for name in selected]
    for name, report in zip(selected, reports):
        if not RUN_CHECKS[name].has_data(run):
            report.na_count = len(run.traces)
    return reports


def _check_envelope_args(gamma, K, R):
    if not (0 < gamma <= 1 and K >= 1 and R >= 1):
        raise ValueError(f"need gamma in (0, 1] and K, R >= 1, got {gamma}, {K} and {R}")


def envelope_two_stage(eta2, gamma, K, R, r0) -> float:
    """Final-loss bound 2/(eta2 * gamma^2 * K * (R - r0)) of the two-stage rate."""
    _check_envelope_args(gamma, K, R)
    if not (eta2 > 0 and math.isfinite(eta2)):
        raise ValueError(f"eta2 must be positive and finite, got {eta2}")
    if not 0 <= r0 < R:
        raise ValueError(f"r0 must lie in [0, R) = [0, {R}), got {r0}")
    return 2.0 / (eta2 * gamma**2 * K * (R - r0))


def envelope_baseline(kind, gamma, K, R) -> float:
    """Explicit two-term baseline rate bounds for averaged-iterate local GD.

    kind="global": (2 + plog(K*R*g^2)^2)/(K*R*g^2)
                   + (2 + plog(R^(2/3)*g^(4/3))^(4/3))/(R^(2/3)*g^(4/3))
    kind="local":  (1 + plog(R)^2)/(g^2*R) + plog(R)^(4/3)/(g^(4/3)*R^(4/3))
    with plog(x) = max(0, log(x)).
    """
    _check_envelope_args(gamma, K, R)
    if kind == "global":
        t1_arg = K * R * gamma**2
        t2_arg = R ** (2.0 / 3.0) * gamma ** (4.0 / 3.0)
        return (2.0 + _pos_log(t1_arg) ** 2) / t1_arg + (
            2.0 + _pos_log(t2_arg) ** (4.0 / 3.0)
        ) / t2_arg
    if kind == "local":
        pl = _pos_log(R)
        return (1.0 + pl**2) / (gamma**2 * R) + pl ** (4.0 / 3.0) / (
            gamma ** (4.0 / 3.0) * R ** (4.0 / 3.0)
        )
    raise ValueError(f"kind must be 'global' or 'local', got {kind!r}")
