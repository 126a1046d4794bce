"""The margin-space kernels, on every path they run, bitwise against a reference.

Each kernel body runs in two representations: lists of Python floats (the
fallback the public wrappers use without numba) and float64 arrays (what
numba compiles). Both must reproduce, bit for bit, a plain-Python reference
written straight from the recurrence, so a body that reorders its arithmetic
fails here even when numba is absent.
"""

import math

import numpy as np

from localgd import _kernels

# (M, K, rounds, stride): two and three clients, a single local step, and
# strides that do not divide the number of rounds or exceed it
CASES = [(2, 8, 40, 1), (3, 1, 50, 7), (3, 5, 23, 1000), (2, 3, 30, 4)]


def _py_func(fn):
    # numba-compiled dispatchers expose the original function as py_func;
    # if numba is absent the fallback decorator left the function bare
    return getattr(fn, "py_func", fn)


def _geometry(M, seed):
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.2, 1.2, M)
    U = rng.normal(size=(M, 3))
    U /= np.linalg.norm(U, axis=1)[:, None]
    return gammas, U @ U.T, rng.normal(size=M)


def _reference_rounds(gammas, G, a0, rounds, stride, local):
    """Rounds of ``local(m, a_m) -> end point`` then Gram averaging, in plain Python."""
    M = len(gammas)
    a, C, C_sum = list(map(float, a0)), [0.0] * M, [0.0] * M
    r_hist, a_hist, C_hist = [0], [a[:]], [C[:]]
    for r in range(rounds):
        C_sum = [s + c for s, c in zip(C_sum, C)]
        delta = [local(m, a[m]) - a[m] for m in range(M)]
        for m in range(M):
            upd = 0.0
            for mm in range(M):
                upd += G[m][mm] * delta[mm]
            a[m] = a[m] + upd / M
        C = [c + d for c, d in zip(C, delta)]
        if (r + 1) % stride == 0 or r + 1 == rounds:
            r_hist.append(r + 1)
            a_hist.append(a[:])
            C_hist.append(C[:])
    return r_hist, a_hist, C_hist, C_sum


def _exp(x):
    """math.exp, or inf where it overflows (what compiled code computes)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _reference_local_gd(gammas, G, a0, eta, K, rounds, stride):
    S_local = [0.0] * len(gammas)

    def local(m, am):
        g, al, acc = gammas[m], am, 0.0
        for _ in range(K):
            acc += al - am
            al = al + eta * g / (1.0 + _exp(g * al))
        S_local[m] += acc
        return al

    out = _reference_rounds(gammas, G, a0, rounds, stride, local)
    return out + (S_local,)


def _reference_rk4(a, g, eta, t_total, substeps):
    h = t_total / substeps
    for _ in range(substeps):
        k1 = eta * g / (1.0 + math.exp(g * a))
        k2 = eta * g / (1.0 + math.exp(g * (a + 0.5 * h * k1)))
        k3 = eta * g / (1.0 + math.exp(g * (a + 0.5 * h * k2)))
        k4 = eta * g / (1.0 + math.exp(g * (a + h * k3)))
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def _reference_gf(gammas, G, a0, eta, K, rounds, substeps, stride):
    err = [0.0]

    def local(m, am):
        end = _reference_rk4(am, gammas[m], eta, float(K), substeps)
        if substeps >= 2:
            half = _reference_rk4(am, gammas[m], eta, float(K), substeps // 2)
            err[0] = max(err[0], abs(end - half))
        return end

    r_hist, a_hist, C_hist, _ = _reference_rounds(gammas, G, a0, rounds, stride, local)
    return r_hist, a_hist, C_hist, err[0]


def _array_body(core, gammas, G, a0, rounds, stride, n_work, *scalars):
    """Run a kernel body on float64 arrays, as numba compiles it."""
    M, slots = len(gammas), _kernels._trace_slots(rounds, stride)
    work = [np.zeros(M) for _ in range(n_work)]
    hist = (np.zeros((slots, M)), np.zeros((slots, M)), np.zeros(slots, dtype=np.int64))
    out = _py_func(core)(gammas.copy(), G.copy(), a0.copy(), *scalars, *work, *hist)
    used = out[0] if isinstance(out, tuple) else out
    return [h[:used] for h in (hist[2], hist[0], hist[1])], work, out


def _fallback(monkeypatch, name, seen):
    """Bind the plain body under ``name`` and record the element types it is fed."""
    body = _py_func(getattr(_kernels, name))

    def spy(gammas, G, a, *rest):
        seen.update({type(gammas), type(G[0]), type(a), type(a[0]), type(G[0][0])})
        return body(gammas, G, a, *rest)

    monkeypatch.setattr(_kernels, name, spy)


def _assert_bitwise(got, want, case):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape, case
        assert g.tobytes() == w.astype(g.dtype).tobytes(), case


def test_local_gd_kernel_matches_python_body(monkeypatch):
    for seed, (M, K, rounds, stride) in enumerate(CASES):
        case = (M, K, rounds, stride)
        gammas, G, a0 = _geometry(M, seed)
        eta = 1.7  # not a power of two, so eta * g rounds
        a0_before = a0.copy()
        bound = _kernels.local_gd_margin(gammas, G, a0, eta, K, rounds, stride)
        seen = set()
        with monkeypatch.context() as mp:
            _fallback(mp, "_local_gd_margin_core", seen)
            lists = _kernels.local_gd_margin(gammas, G, a0, eta, K, rounds, stride)
        assert seen == {list, float}, case
        hist, work, _ = _array_body(
            _kernels._local_gd_margin_core, gammas, G, a0, rounds, stride, 4, eta, K, rounds, stride
        )
        arrays = hist + [work[1], work[2]]
        reference = _reference_local_gd(gammas, G, a0, eta, K, rounds, stride)
        np.testing.assert_array_equal(a0, a0_before)
        assert lists[0].dtype == np.int64 and lists[1].dtype == np.float64
        for other in (bound, arrays, reference):
            _assert_bitwise(lists, other, case)


def test_local_gd_kernel_overflowing_step_adds_zero():
    # exp(g * a) overflows past g * a > 709: from a start that far out
    # (client 0), and after a first step at eta = 1e300 (every client)
    gammas, G, _ = _geometry(3, 7)
    for eta, a0 in ((1.7, np.array([1000.0, -0.2, 0.4])), (1e300, np.array([0.1, -0.3, 0.2]))):
        K, rounds, stride = 4, 6, 1
        lists = _kernels.local_gd_margin(gammas, G, a0, eta, K, rounds, stride)
        hist, work, _ = _array_body(
            _kernels._local_gd_margin_core, gammas, G, a0, rounds, stride, 4, eta, K, rounds, stride
        )
        reference = _reference_local_gd(gammas, G, a0, eta, K, rounds, stride)
        for other in (hist + [work[1], work[2]], reference):
            _assert_bitwise(lists, other, eta)
        assert np.all(np.isfinite(lists[2])), eta


def test_gf_kernel_matches_python_body(monkeypatch):
    for seed, (M, K, rounds, stride) in enumerate(CASES):
        substeps = 16 if K > 1 else 1
        case = (M, K, rounds, stride, substeps)
        gammas, G, a0 = _geometry(M, seed)
        eta = 1.3  # not a power of two, so eta * g rounds
        bound = _kernels.gf_numeric_margin(gammas, G, a0, eta, K, rounds, substeps, True, stride)
        seen = set()
        with monkeypatch.context() as mp:
            _fallback(mp, "_gf_numeric_margin_core", seen)
            lists = _kernels.gf_numeric_margin(gammas, G, a0, eta, K, rounds, substeps, True, stride)
        assert seen == {list, float}, case
        hist, _, (_, err) = _array_body(
            _kernels._gf_numeric_margin_core, gammas, G, a0, rounds, stride, 2,
            eta, K, rounds, substeps, True, stride,
        )
        reference = _reference_gf(gammas, G, a0, eta, K, rounds, substeps, stride)
        for other in (bound, hist + [err], reference):
            _assert_bitwise(lists[:3], other[:3], case)
            assert lists[3] == other[3], case
        assert (lists[3] > 0.0) == (substeps >= 2), case


def test_trace_slots_cover_all_strides():
    for rounds in (1, 7, 10, 997):
        for stride in (1, 2, 3, 10, 1000):
            traced = {0, rounds} | {r for r in range(1, rounds + 1) if r % stride == 0}
            assert _kernels._trace_slots(rounds, stride) >= len(traced)


def test_scalar_flow_matches_full_dimensional_integrator():
    # the per-client flow is confined to the sample's direction, so the scalar
    # integration must reproduce the d-dimensional one up to rounding
    from localgd.optim import _rk4_client_flow

    gamma = 0.7
    u = np.array([0.6, 0.8])
    Z = np.array([gamma * u])
    w0 = np.array([0.2, -0.1])
    eta, K, substeps = 1.5, 3, 256
    w_end = _rk4_client_flow(Z, w0, eta, float(K), substeps)
    a_end = _kernels._rk4_flow(float(w0 @ u), gamma, eta, float(K), substeps)
    np.testing.assert_allclose(w_end, w0 + (a_end - w0 @ u) * u, atol=1e-12)
