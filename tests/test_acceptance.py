"""Acceptance suite: every quantitative claim the package stands on, end to end.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all
even on success). Tolerances are fixed here and match the module contracts;
none are tuned at runtime.
"""

import math
import os
import time

import numpy as np
import pytest

from localgd import cli, diagnostics, losses, specialfn
from localgd.data import (
    FederatedDataset,
    PartitionSpec,
    RawSample,
    SyntheticSpec,
    compute_margin,
    gen_synthetic,
    load_mnist_idx,
    partition_heterogeneous,
    prepare,
)
from localgd.optim import RunConfig, run_local_gd, run_local_gf, run_two_stage
from localgd.schedules import make_policy, theory_eta1, theory_r0

from conftest import random_dataset, separable_dataset


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. scalar-loss and special-function property suites, >= 1000 instances each
# --------------------------------------------------------------------------


def test_criterion_1_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    failures = []

    # loss-derivative chain, both parts
    z = rng.uniform(-30, 30, size=1000)
    lpp, lp, l = losses.ell_double_prime(z), np.abs(losses.ell_prime(z)), losses.ell(z)
    if not (np.all(lpp > 0) and np.all(lpp <= lp + 1e-15) and np.all(lp <= l + 1e-15)):
        failures.append("derivative chain")
    nn = z >= 0
    if not np.all(l[nn] <= 2 * lp[nn] + 1e-15):
        failures.append("loss vs first derivative on nonnegative axis")

    # gradient/Hessian norms bounded by the objective
    rng2 = np.random.default_rng(1002)
    count = 0
    for _ in range(100):
        ds = random_dataset(rng2, M=2, n=2, d=3)
        for _ in range(10):
            w = rng2.normal(size=3) * rng2.uniform(0, 4)
            rep = losses.objective(ds, w)
            for m in range(ds.M):
                gm = float(np.linalg.norm(losses.client_gradient(ds, m, w)))
                if gm > rep.per_client_values[m] + 1e-12:
                    failures.append("gradient bound")
            h = losses.hessian_spectral_norm(ds, w)
            if h > rep.value + 1e-8:
                failures.append("hessian bound")
            count += 1
    assert count == 1000

    # gradient lower bound at nonnegative-margin weights
    rng3 = np.random.default_rng(1003)
    for _ in range(20):
        ds = separable_dataset(rng3, M=2, n=3, d=4)
        gamma, w_star = compute_margin(ds)
        for _ in range(50):
            w = rng3.uniform(0.1, 20) * w_star
            assert losses.min_margin(ds, w) >= 0
            rep = losses.objective(ds, w)
            if rep.grad_norm < (gamma / 2) * rep.value - 1e-9:
                failures.append("gradient lower bound")

    # amplification-factor properties on random grids
    rng4 = np.random.default_rng(1004)
    for _ in range(1000):
        b = float(rng4.uniform(1e-3, 20))
        x = float(rng4.uniform(-8, 8))
        a = float(rng4.uniform(-3, 3))
        lp_bx = specialfn.log_phi(b, x)
        phi = math.exp(lp_bx)
        if not lp_bx > 0:
            failures.append("positivity")
        if specialfn.log_phi(b, x + 1e-3) >= lp_bx:
            failures.append("monotonicity")
        rhs = phi * (1 + (math.exp(-a) - 1) * (phi - 1) / (phi + math.exp(-x)))
        if math.exp(specialfn.log_phi(b, x + a)) > rhs + 1e-10:
            failures.append("descent inequality")
        if a < 0 and math.exp(specialfn.log_phi(b, x + a)) > phi * math.exp(-a) + 1e-10:
            failures.append("descent inequality, negative shift")
        if phi <= 1 + b / (b + 2) and x < math.log1p(b) - 1e-12:
            failures.append("inverse bound")
        x2 = math.log1p(b) + abs(a)
        if math.exp(specialfn.log_phi(b, x2)) < math.sqrt(1 + b * math.exp(-x2)) - 1e-12:
            failures.append("asymptotic lower bound")
        # concavity of the substituted form
        t = float(rng4.uniform(0.05, 4))
        h = float(rng4.uniform(1e-4, 0.3))
        psi = lambda v: math.exp(specialfn.log_phi(b, math.log(1.0 / v)))
        if psi(t) - 2 * psi(t + h) + psi(t + 2 * h) > 1e-9:
            failures.append("concavity")

    # log-domain solver residuals: exp(x)*(exp(L) - 1) + L = b at L = log_phi(b, x)
    rng5 = np.random.default_rng(1005)
    for b, x in zip(rng5.uniform(0.01, 50, size=1000), rng5.uniform(-50, 50, size=1000)):
        L = specialfn.log_phi(float(b), float(x))
        if abs(math.exp(x) * math.expm1(L) + L - b) > 1e-12 * max(1.0, b):
            failures.append("solver residual")

    elapsed = time.perf_counter() - start
    report(1, not failures and elapsed < 10.0,
           f"property suites clean in {elapsed:.1f}s (budget 10s)"
           + (f"; failures: {sorted(set(failures))}" if failures else ""))


# --------------------------------------------------------------------------
# 2. single-local-step runs reduce to plain full-batch GD, bitwise
# --------------------------------------------------------------------------


def test_criterion_2_single_step_reduction():
    rng = np.random.default_rng(2002)
    cases = [
        (gen_synthetic(SyntheticSpec(delta=0.1, g=5)), 4.0),
        (gen_synthetic(SyntheticSpec(delta=1.0, g=2)), 0.5),
        (separable_dataset(rng, M=3, n=2, d=4), 2.0),
        (random_dataset(rng, M=2, n=3, d=5), 1.0),
    ]
    exact = 0
    for ds, eta in cases:
        res = run_local_gd(ds, RunConfig(R=200, K=1, eta=eta))
        w = np.zeros(ds.d)
        ok = True
        for r in range(200):
            acc = np.zeros(ds.d)
            for m in range(ds.M):
                acc = acc + (w - eta * losses.client_gradient(ds, m, w))
            w = acc / ds.M
        ok = bool(np.array_equal(res.final_weights, w))
        losses_match = all(
            t.global_loss == losses.objective(ds, wr).value
            for t, wr in ((res.traces[0], np.zeros(ds.d)), (res.traces[-1], w))
        )
        exact += ok and losses_match
    report(2, exact == len(cases), f"{exact}/{len(cases)} datasets bitwise-identical over 200 rounds")


# --------------------------------------------------------------------------
# 3. closed-form flow rounds match the fixed-step integrator
# --------------------------------------------------------------------------


def test_criterion_3_exact_vs_numeric_flow():
    start = time.perf_counter()
    ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
    worst = 0.0
    for etaK in (1.0, 4.0, math.e):
        exact = run_local_gf(ds, RunConfig(R=50, K=1, eta=etaK, gf_method="exact"))
        numeric = run_local_gf(
            ds, RunConfig(R=50, K=1, eta=etaK, gf_method="numeric", gf_substeps=10_000)
        )
        for a, b in zip(exact.traces, numeric.traces):
            worst = max(worst, float(np.max(np.abs(np.array(a.a) - np.array(b.a)))))
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-6 and elapsed < 30.0,
           f"max projection gap {worst:.2e} (tol 1e-6) in {elapsed:.1f}s (budget 30s)")


# --------------------------------------------------------------------------
# 4. two-stage rate guarantee with theory-derived warmup and stepsizes
# --------------------------------------------------------------------------


def test_criterion_4_two_stage_envelope():
    # the warmup length scales as K*M/gamma^4 * log^2, so the guarantee is only
    # runnable on a well-conditioned geometry; delta=10, g=1 gives gamma ~ 0.995
    start = time.perf_counter()
    ds = gen_synthetic(SyntheticSpec(delta=10.0, g=1))
    gamma, _ = compute_margin(ds)
    eta2, M = 1.0, ds.M
    cells = []
    for K in (4, 16, 64):
        r0 = theory_r0(eta2, K, M, gamma)
        eta1 = theory_eta1(eta2, K, M, gamma)
        R = r0 + 200
        cfg = RunConfig(
            R=R, K=K, eta1=eta1, eta2=eta2, r0=r0,
            engine="margin", trace_every=max(1, r0 // 4),
        )
        res = run_two_stage(ds, cfg)
        final = losses.objective(ds, res.final_weights).value
        bound = diagnostics.envelope_two_stage(eta2, gamma, K, R, r0)
        cells.append((K, r0, final, bound, final <= bound))
    elapsed = time.perf_counter() - start
    ok = all(c[-1] for c in cells) and elapsed < 120.0
    detail = "; ".join(f"K={K} r0={r0} F={f:.2e}<=bound {b:.2e}" for K, r0, f, b, _ in cells)
    report(4, ok, f"{detail}; {elapsed:.1f}s (budget 120s)")


# --------------------------------------------------------------------------
# 5. more local steps reach the loss threshold sooner under the two-stage rule
# --------------------------------------------------------------------------


def test_criterion_5_local_step_benefit():
    # heterogeneous-magnitude geometry (norm ratio 5) on which the threshold
    # is reachable within the budget for every K
    ds = gen_synthetic(SyntheticSpec(delta=1.0, g=5))
    R, eps = 2048, 1e-3
    firsts = []
    for K in (4, 16, 64):
        policy = make_policy("two_stage", K=K, H=0.25, lam=4)
        cfg = RunConfig(R=R, K=K, eta1=policy.eta1, eta2=policy.eta2, r0=policy.r0,
                        engine="margin")
        res = run_two_stage(ds, cfg)
        hit = next((t.r for t in res.traces if t.global_loss < eps), None)
        firsts.append(hit)
    ok = all(h is not None for h in firsts) and firsts[0] > firsts[1] > firsts[2]
    report(5, ok, f"first rounds below {eps:g}: K=4 -> {firsts[0]}, K=16 -> {firsts[1]}, K=64 -> {firsts[2]}")


# --------------------------------------------------------------------------
# 6. small-stepsize runs overlap across K
# --------------------------------------------------------------------------


def test_criterion_6_baseline_overlap():
    ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
    curves = {}
    for K in (1, 4, 16, 64):
        eta = make_policy("small", K=K, H=0.25).eta
        res = run_local_gd(ds, RunConfig(R=200, K=K, eta=eta, track_bounds=False))
        curves[K] = [t.global_loss for t in res.traces]
    worst = 0.0
    for r in range(10, 201):
        vals = [curves[K][r] for K in curves]
        worst = max(worst, max(vals) / min(vals))
    report(6, worst <= 1.5, f"max pointwise loss ratio {worst:.4f} over rounds 10..200 (tol 1.5)")


# --------------------------------------------------------------------------
# 7. large stepsize with many local steps destabilizes the early rounds
# --------------------------------------------------------------------------


def test_criterion_7_instability():
    ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
    eta = make_policy("large", K=1024, H=0.25).eta
    res = run_local_gd(ds, RunConfig(R=50, K=1024, eta=eta, track_bounds=False))
    peak = max(t.global_loss for t in res.traces)
    report(7, peak > math.log(2), f"peak loss {peak:.3f} exceeds initial {math.log(2):.3f}")


# --------------------------------------------------------------------------
# 8. Lyapunov suite on random two-client flow instances
# --------------------------------------------------------------------------


def test_criterion_8_lyapunov_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(8008)
    R = 500
    mono_bad = env_bad = 0
    env_rounds = 0
    for _ in range(100):
        g1, g2 = rng.uniform(0.1, 1.0, size=2)
        c = float(rng.uniform(-0.99, 0.99))
        etaK = float(rng.uniform(0.5, 8.0))
        u1 = np.array([1.0, 0.0])
        u2 = np.array([c, math.sqrt(1 - c * c)])
        ds = FederatedDataset(
            clients=[np.array([g1 * u1]), np.array([g2 * u2])], d=2
        )
        res = run_local_gf(ds, RunConfig(R=R, K=1, eta=etaK, gf_method="exact"))
        lyap = [t.lyapunov for t in res.traces]
        mono_bad += sum(b > a + 1e-12 for a, b in zip(lyap, lyap[1:]))
        state = specialfn.make_gf_state(np.array([g1, g2]), np.vstack([u1, u2]), etaK)
        tc = specialfn.theory_constants(state, etaK)
        for t in res.traces:
            if math.isfinite(tc.tau) and t.r > tc.tau:
                env_rounds += 1
                if t.global_loss > tc.envelope(t.r, "main"):
                    env_bad += 1
            if math.isfinite(tc.tau1) and t.r >= tc.tau1 and t.r > tc.tau0:
                env_rounds += 1
                if t.global_loss > tc.envelope(t.r, "warm"):
                    env_bad += 1
    elapsed = time.perf_counter() - start
    ok = mono_bad == 0 and env_bad == 0 and elapsed < 120.0
    report(8, ok,
           f"monotonicity violations {mono_bad}, envelope violations {env_bad} "
           f"({env_rounds} envelope rounds checked) in {elapsed:.1f}s (budget 120s)")


# --------------------------------------------------------------------------
# 9. margin certification: synthetic, grid oracle, and (optional) MNIST
# --------------------------------------------------------------------------


def test_criterion_9_margin_certification():
    from test_data import margin_grid_oracle

    ds = gen_synthetic(SyntheticSpec(delta=0.1, g=5))
    gamma, w_star = compute_margin(ds)
    margins = np.concatenate([Z @ w_star for Z in ds.clients])
    cert_ok = (
        abs(np.linalg.norm(w_star) - 1.0) <= 1e-12
        and gamma - 1e-8 <= margins.min() <= gamma + 1e-8
    )
    oracle = margin_grid_oracle(ds)
    grid_ok = abs(gamma - oracle) <= 1e-5

    mnist_dir = os.environ.get("LOCALGD_MNIST_DIR")
    mnist_note = "MNIST skipped (set LOCALGD_MNIST_DIR to run)"
    mnist_ok = True
    if mnist_dir:
        raw = load_mnist_idx(
            os.path.join(mnist_dir, "train-images-idx3-ubyte"),
            os.path.join(mnist_dir, "train-labels-idx1-ubyte"),
        )
        spec = PartitionSpec(n_total=1000, M=5, n_per_client=200, similarity_s=0.05, seed=1)
        mds = partition_heterogeneous(raw, spec)
        mg, mw = compute_margin(mds)
        mmargins = np.concatenate([Z @ mw for Z in mds.clients])
        mnist_ok = mg > 0 and mg - 1e-8 <= mmargins.min() <= mg + 1e-8
        mnist_note = f"MNIST gamma={mg:.4g} certified"
    report(9, cert_ok and grid_ok and mnist_ok,
           f"synthetic gamma={gamma:.6g} certified, grid gap {abs(gamma - oracle):.1e}; {mnist_note}")


# --------------------------------------------------------------------------
# 10. byte-identical artifacts under repetition
# --------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    data_file = tmp_path / "syn.json"
    assert cli.main(["gen-data", "synthetic", "--delta", "0.1", "--g", "5",
                     "--out", str(data_file)]) == 0
    runs = [
        ["run", "--dataset", str(data_file), "--optimizer", "two-stage",
         "--policy", "two-stage", "--lambda", "4", "--K", "4", "--R", "64", "--seed", "5"],
        ["run", "--dataset", str(data_file), "--optimizer", "local-gf",
         "--eta", "2.0", "--K", "8", "--R", "40", "--seed", "5"],
    ]
    identical = True
    for i, argv in enumerate(runs):
        paths = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{i}_{attempt}"
            assert cli.main(argv + ["--out-dir", str(out), "--name", "run"]) == 0
            paths.append(out / "run.csv")
        identical &= paths[0].read_bytes() == paths[1].read_bytes()
    report(10, identical, "repeated runs produced byte-identical CSV traces")
