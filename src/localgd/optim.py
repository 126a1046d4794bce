"""The three optimizers: local GD, two-stage local GD, and local gradient flow.

Every runner starts from the zero vector unless the config overrides it,
records one trace per round (round 0 included), and is bitwise deterministic
for a fixed dataset, config, and engine. Client loops always reduce in
ascending client order. Every engine and flow method ends a run with
DivergenceError at the first round r, 0 included, where ||w_r||^2 is not
finite or a flow's margin leaves |gamma_m * a_m| <= 700 (log_phi's domain),
both checked every round, or where a traced round's trace would hold a
non-finite number.

Two engines are available for local GD. The default "numpy" engine runs the
generic d-dimensional recursion and collects the per-round drift/bias data the
diagnostic checks consume. The "margin" engine is restricted to datasets with one
sample per client; it runs the same recursion in the scalar margin
representation (see _kernels; compiled C on large runs), for warmup
studies whose round counts reach into the millions, and does not collect
drift/bias data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import losses, specialfn
from ._kernels import gf_numeric_margin, local_gd_margin
from .errors import DivergenceError, DomainError

__all__ = [
    "RunConfig",
    "RoundTrace",
    "RunResult",
    "run_local_gd",
    "run_two_stage",
    "run_local_gf",
]

AVERAGING_MODES = ("final_iterate", "uniform_average")
ENGINES = ("numpy", "margin")
GF_METHODS = ("auto", "exact", "numeric")
COUNT_MAX = 2**63 - 1  # the largest count the C kernels' int64 arguments hold


@dataclass(frozen=True)
class RunConfig:
    """Round/step counts, stepsizes, and run options shared by all optimizers.

    eta drives local GD and local GF; (eta1, eta2, r0) drive the two-stage
    runner; each one given must be positive and finite. R, K, gf_substeps and
    trace_every lie in [1, COUNT_MAX]. trace_every > 1 thins the recorded traces
    (round 0 and the final round are always kept) for very long runs.
    """

    R: int
    K: int
    eta: float | None = None
    eta1: float | None = None
    eta2: float | None = None
    r0: int | None = None
    averaging: str = "final_iterate"
    H: float = 0.25
    gf_substeps: int = 1000
    gf_method: str = "auto"
    engine: str = "numpy"
    w0: tuple[float, ...] | None = None
    track_bounds: bool = True
    trace_every: int = 1
    seed: int | None = None

    def __post_init__(self):
        for value in (self.eta, self.eta1, self.eta2):
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"stepsizes must be positive and finite, got {value}")
        for name in ("R", "K", "gf_substeps", "trace_every"):
            if not 1 <= getattr(self, name) <= COUNT_MAX:
                raise ValueError(f"{name} must lie in [1, 2^63 - 1], got {getattr(self, name)}")
        if self.averaging not in AVERAGING_MODES:
            raise ValueError(f"averaging must be one of {AVERAGING_MODES}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if self.gf_method not in GF_METHODS:
            raise ValueError(f"gf_method must be one of {GF_METHODS}")


@dataclass
class RoundTrace:
    """Measurements at one recorded round.

    drift[m]/bias[m] describe the round that STARTS here: the largest local
    iterate deviation resp. local gradient deviation of client m during it
    (None on the final trace and when not collected). The lyapunov triple
    (lyapunov, rho, a) is populated by gradient-flow runs on one-sample-per-
    client data.
    """

    r: int
    global_loss: float
    client_losses: list[float]
    grad_norm: float
    iterate_norm: float
    min_margin: float
    eta_used: float
    stage: int = 1
    lyapunov: float | None = None
    rho: list[float] | None = None
    a: list[float] | None = None
    drift: list[float] | None = None
    bias: list[float] | None = None


@dataclass
class RunResult:
    """Traces plus final (and, for uniform-average local GD, averaged) weights of one run.

    ``optimizer`` records which runner produced the result; descent-rate
    checks that only apply to the discrete-step family consult it.
    """

    traces: list[RoundTrace]
    final_weights: np.ndarray
    averaged_weights: np.ndarray | None
    config: RunConfig
    optimizer: str = "local-gd"


def _initial_weights(dataset, config):
    if config.w0 is None:
        return np.zeros(dataset.d)
    w0 = np.asarray(config.w0, dtype=np.float64)
    if w0.shape != (dataset.d,):
        raise ValueError(f"w0 has shape {w0.shape}, expected ({dataset.d},)")
    return w0.copy()


def _append_trace(traces, dataset, w, r, eta, lyap=None):
    """Append round r's trace of w, with ``lyap`` as its (lyapunov, rho, a), and return
    w's ObjectiveReport; raise DivergenceError(r, traces) instead if the trace would
    hold a non-finite number."""
    rep = losses.objective(dataset, w)
    trace = RoundTrace(
        r=r,
        global_loss=rep.value,
        client_losses=rep.per_client_values,
        grad_norm=rep.grad_norm,
        iterate_norm=math.sqrt(w @ w),
        min_margin=rep.min_margin,
        eta_used=eta,
    )
    fields = [rep.value, rep.grad_norm, trace.iterate_norm, rep.min_margin, eta,
              *rep.per_client_values]
    if lyap is not None:
        trace.lyapunov, trace.rho, trace.a = lyap
        fields += [lyap[0], *lyap[1], *lyap[2]]
    if not all(map(math.isfinite, fields)):
        raise DivergenceError(r, traces)
    traces.append(trace)
    return rep


def _gd_round(dataset, w_bar, rep, K, eta, collect, sums):
    """One local-GD round from w_bar: K full-gradient steps per client, averaged.

    rep is w_bar's ObjectiveReport, or None. Returns (w_next, drift, bias,
    iterate_sum), reduced in ascending client order. Per client, drift is
    max_k ||w_k - w_bar|| and bias max_k ||grad(w_k) - grad(w_bar)|| over
    k = 1..K (0.0 unless collect; only the bias needs grad(w_K)). iterate_sum
    adds up all clients' iterates w_0..w_{K-1} (None unless sums).
    """
    grads = (rep.per_client_grads if rep is not None
             else [losses.client_gradient(dataset, m, w_bar) for m in range(dataset.M)])
    finals, drift, bias = [], [], []
    iterate_sum = np.zeros_like(w_bar) if sums else None
    for Z, g_ref in zip(dataset.clients, grads):
        w, g = w_bar, g_ref
        client_sum = np.zeros_like(w_bar) if sums else None
        drift.append(0.0)
        bias.append(0.0)
        for k in range(K):
            if sums:
                client_sum = client_sum + w
            w = w - eta * g
            if collect or k + 1 < K:
                g = (Z.T @ losses.ell_prime(Z @ w)) / Z.shape[0]
            if collect:
                dw, dg = w - w_bar, g - g_ref
                sq = np.vdot(dw, dw)  # dw @ dw, warning-free; hypot where only sq overflows
                drift[-1] = max(drift[-1], math.sqrt(sq) if sq < math.inf else math.hypot(*dw))
                bias[-1] = max(bias[-1], math.sqrt(dg @ dg))
        finals.append(w)
        if sums:
            iterate_sum = iterate_sum + client_sum
    return sum(finals, np.zeros_like(w_bar)) / dataset.M, drift, bias, iterate_sum


def _round_loop(dataset, w, config, eta, step, lyap=None):
    """Rounds 0..R from w, traced as config.trace_every says, under the divergence rule.

    ``step(w, rep)`` runs one round and returns (w_next, bounds); rep is w's
    ObjectiveReport if w is traced, else None, and bounds, when not None, is
    the round's (drift, bias), which goes on w's trace. ``lyap()``, if given,
    returns the current (lyapunov, rho, a) triple. A step raises DomainError
    where the exact flow's margins leave the surrogate losses' domain. Returns
    (traces, final).
    """
    traces, rep = [], None
    for r in range(config.R + 1):
        bounds = None
        if r:
            try:
                w, bounds = step(w, rep)
            except DomainError as err:
                raise DivergenceError(r, traces) from err
        if not math.isfinite(np.vdot(w, w)):  # unlike w @ w, np.vdot warns of no overflow
            raise DivergenceError(r, traces)
        if bounds is not None:
            traces[-1].drift, traces[-1].bias = bounds
        rep = None
        if r % config.trace_every == 0 or r == config.R:
            rep = _append_trace(traces, dataset, w, r, eta, None if lyap is None else lyap())
    return traces, w


def run_local_gd(dataset, config: RunConfig) -> RunResult:
    """Local GD for R rounds from w0 (zero by default), with full tracing.

    With averaging="uniform_average" the result also carries the uniform
    average of all K*R client-averaged local iterates.
    """
    if config.eta is None:
        raise ValueError("run_local_gd requires config.eta")
    if config.engine == "margin":
        return _run_margin_engine(dataset, config)
    eta = config.eta
    w = _initial_weights(dataset, config)
    uniform = config.averaging == "uniform_average"
    avg_acc = np.zeros_like(w) if uniform else None

    def step(w, rep):
        nonlocal avg_acc
        # drift and bias are stored only on traces, so only traced rounds collect them
        collect = config.track_bounds and rep is not None
        w_next, drift, bias, iterate_sum = _gd_round(
            dataset, w, rep, config.K, eta, collect, uniform)
        if uniform:
            avg_acc = avg_acc + iterate_sum / dataset.M
        return w_next, ((drift, bias) if collect else None)

    traces, w = _round_loop(dataset, w, config, eta, step)
    averaged = avg_acc / (config.K * config.R) if uniform else None
    return RunResult(
        traces=traces,
        final_weights=w,
        averaged_weights=averaged,
        config=config,
    )


def _margin_traces(dataset, w0, U, rounds_traced, C_hist, stop, eta, lyap=None):
    """Traces of a margin-kernel history, whose slot idx holds w_r = w0 + U^T C / M.

    ``lyap(idx)``, if given, returns slot idx's (lyapunov, rho, a) triple.
    Raises DivergenceError at the kernel's stop round, if any; returns
    (traces, final), final being round R's.
    """
    traces = []
    for idx, r in enumerate(rounds_traced):
        w_r = w0 + (U.T @ C_hist[idx]) / dataset.M
        _append_trace(traces, dataset, w_r, int(r), eta, None if lyap is None else lyap(idx))
    if stop is not None:
        raise DivergenceError(stop, traces)
    return traces, w_r


def _run_margin_engine(dataset, config: RunConfig) -> RunResult:
    eta = config.eta
    gammas, U = dataset.sample_geometry()
    w0 = _initial_weights(dataset, config)
    rounds_traced, _a_hist, C_hist, stop, C_sum, S_local = local_gd_margin(
        gammas, U @ U.T, U @ w0, np.vdot(w0, w0), eta, config.K, config.R,
        stride=config.trace_every,
    )
    traces, final = _margin_traces(dataset, w0, U, rounds_traced, C_hist, stop, eta)
    averaged = None
    if config.averaging == "uniform_average":
        coef = (C_sum + S_local / config.K) / config.R
        averaged = w0 + (U.T @ coef) / dataset.M
    return RunResult(
        traces=traces,
        final_weights=final,
        averaged_weights=averaged,
        config=config,
    )


def run_two_stage(dataset, config: RunConfig) -> RunResult:
    """Warmup at eta1 for r0 rounds, restart at eta2, return the last iterate.

    Stage 1 runs local GD with uniform iterate averaging and hands its average
    to stage 2 as the initial point; stage 2's final iterate is the output.
    Traces carry stage labels, switching at round r0.
    """
    if config.eta1 is None or config.eta2 is None or config.r0 is None:
        raise ValueError("run_two_stage requires config.eta1, eta2 and r0")
    if config.averaging != "final_iterate":
        raise ValueError("run_two_stage returns its last iterate; averaging must be final_iterate")
    if not 0 <= config.r0 <= config.R:
        raise ValueError(f"r0 must lie in [0, R], got {config.r0}")
    if config.eta2 > 4.0:
        warnings.warn(
            f"eta2 = {config.eta2} exceeds 4 = 1/H; the two-stage rate "
            "guarantee does not apply",
            stacklevel=2,
        )
    r0, R = config.r0, config.R
    w0 = _initial_weights(dataset, config)
    traces: list[RoundTrace] = []
    if r0 > 0:
        stage1_cfg = replace(
            config, R=r0, eta=config.eta1, averaging="uniform_average", w0=tuple(w0)
        )
        res1 = run_local_gd(dataset, stage1_cfg)
        w_hat1 = res1.averaged_weights
        traces.extend(t for t in res1.traces if t.r < r0)
    else:
        w_hat1 = w0

    if r0 < R:
        stage2_cfg = replace(config, R=R - r0, eta=config.eta2, w0=tuple(w_hat1))
        try:
            res2 = run_local_gd(dataset, stage2_cfg)
        except DivergenceError as err:
            for t in err.traces:
                t.r += r0
                t.stage = 2
            raise DivergenceError(r0 + err.round_index, traces + err.traces) from None
        for t in res2.traces:
            t.r += r0
            t.stage = 2
        traces.extend(res2.traces)
        final = res2.final_weights
    else:
        final = np.asarray(w_hat1, dtype=np.float64)
        _append_trace(traces, dataset, final, r0, config.eta2)
        traces[-1].stage = 2
    return RunResult(
        traces=traces,
        final_weights=final,
        averaged_weights=None,
        config=config,
        optimizer="two-stage",
    )


def _lyap_fields(gammas, etaK, a):
    rho = [specialfn.surrogate_loss(g, etaK, ai) for g, ai in zip(gammas, a)]
    return (max(rho), rho, list(map(float, a)))


def _rk4_client_flow(Z, w_start, eta, t_total, substeps):
    n = Z.shape[0]

    def f(w):
        return -eta * (Z.T @ losses.ell_prime(Z @ w)) / n

    h = t_total / substeps
    w = w_start
    for _ in range(substeps):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def run_local_gf(dataset, config: RunConfig) -> RunResult:
    """Local gradient flow: each client follows its exact loss flow for K time
    units per round, then the averages are exchanged.

    With one sample per client the per-round flow has a closed form in the
    margin representation and the run is exact (gf_method="auto"/"exact");
    otherwise each flow is integrated by classical fixed-step RK4 with
    config.gf_substeps steps per round. Lyapunov trace fields are populated
    whenever every client has a single sample.
    """
    if config.eta is None:
        raise ValueError("run_local_gf requires config.eta")
    if config.averaging != "final_iterate":
        raise ValueError("run_local_gf has no iterate average; averaging must be final_iterate")
    eta = config.eta
    etaK = eta * config.K
    if not math.isfinite(etaK):  # no surrogate losses exist: refused before round 0
        raise ValueError(f"eta * K must be finite, got {etaK}")
    n1 = dataset.one_sample_per_client
    method = config.gf_method
    if method == "auto":
        method = "exact" if n1 else "numeric"

    M = dataset.M
    w = _initial_weights(dataset, config)
    err_max = 0.0  # RK4 error estimate; the exact flow has none

    if method == "exact":
        gammas, U = dataset.sample_geometry()
        try:
            state = specialfn.make_gf_state(gammas, U, etaK, a=U @ w)
        except DomainError as err:  # round 0's margins lie outside the surrogates' domain
            raise DivergenceError(0, []) from err

        def step(w, _rep):
            nonlocal state
            w_next = w + (U.T @ state.rho) / M
            state = specialfn.gf_round(state, etaK)
            return w_next, None

        def lyap():
            return (state.lyapunov, state.rho.tolist(), state.a.tolist())

        traces, final = _round_loop(dataset, w, config, eta, step, lyap)
    elif n1:
        gammas, U = dataset.sample_geometry()
        rounds_traced, a_hist, C_hist, stop, err_max = gf_numeric_margin(
            gammas, U @ U.T, U @ w, np.vdot(w, w), eta, config.K, config.R,
            config.gf_substeps, stride=config.trace_every,
        )
        traces, final = _margin_traces(
            dataset, w, U, rounds_traced, C_hist, stop, eta,
            lyap=lambda idx: _lyap_fields(gammas, etaK, a_hist[idx]),
        )
    else:
        coarse = config.gf_substeps // 2 or 2

        def step(w, _rep):
            nonlocal err_max
            acc = np.zeros_like(w)
            for Z in dataset.clients:
                w_end = _rk4_client_flow(Z, w, eta, float(config.K), config.gf_substeps)
                w_coarse = _rk4_client_flow(Z, w, eta, float(config.K), coarse)
                err_max = max(err_max, float(np.max(np.abs(w_end - w_coarse))))
                acc = acc + w_end
            return acc / M, None

        traces, final = _round_loop(dataset, w, config, eta, step)
    if err_max > 1e-6:
        warnings.warn(
            f"flow integration error estimate {err_max:.3e} exceeds 1e-6; "
            "increase gf_substeps",
            stacklevel=2,
        )
    return RunResult(
        traces=traces,
        final_weights=final,
        averaged_weights=None,
        config=config,
        optimizer="local-gf",
    )
