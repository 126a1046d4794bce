"""The margin-space kernels, on both backends, bitwise against a reference.

Each kernel runs as compiled C or as its plain-Python body (lists of Python
floats). Both must reproduce, bit for bit, a plain-Python reference written
straight from the recurrence, so a port that reorders its arithmetic fails
here. The ``c_switch`` fixture sends every wrapper call to one of them.
"""

import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localgd
from localgd import _kernels, specialfn

# (M, K, rounds, stride): two and three clients, a single local step, and
# strides that do not divide the number of rounds or exceed it
CASES = [(2, 8, 40, 1), (3, 1, 50, 7), (3, 5, 23, 1000), (2, 3, 30, 4)]


# the Python leg first, so it runs even where the C leg skips
BACKENDS = ("python", "c")


def _geometry(M, seed):
    """(gammas, G, a0, w0_sq) of M random unit directions in R^3 and a random w0."""
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.2, 1.2, M)
    U = rng.normal(size=(M, 3))
    U /= np.linalg.norm(U, axis=1)[:, None]
    w0 = rng.normal(size=3)
    return gammas, U @ U.T, U @ w0, float(w0 @ w0)


def _reference_rounds(gammas, G, a0, w0_sq, rounds, stride, local, flow=False):
    """Rounds of ``local(m, a_m) -> end point`` then Gram averaging, in plain Python,
    up to the first round, 0 included, whose average iterate w = w0 + U^T C / M has a
    non-finite ||w||^2 = ||w0||^2 + sum_m (C_m / M)(a0_m + a_m), or (``flow``) a
    margin with |gamma_m a_m| > 700. Returns (r_hist, a_hist, C_hist, stop, C_sum):
    the traced rounds before that round, and that round (None if there is none)."""
    M = len(gammas)
    a0 = list(map(float, a0))
    a, C, C_sum = a0[:], [0.0] * M, [0.0] * M
    r_hist, a_hist, C_hist = [], [], []
    for r in range(rounds + 1):
        if r:
            C_sum = [s + c for s, c in zip(C_sum, C)]
            delta = [local(m, a[m]) - a[m] for m in range(M)]
            for m in range(M):
                upd = 0.0
                for mm in range(M):
                    upd += G[m][mm] * delta[mm]
                a[m] = a[m] + upd / M
            C = [c + d for c, d in zip(C, delta)]
        s = 0.0
        for c, x0, x in zip(C, a0, a):
            s += c / M * (x0 + x)
        in_range = all(abs(g * x) <= 700.0 for g, x in zip(gammas, a))
        if not (math.isfinite(w0_sq + s) and (in_range or not flow)):
            break
        if r % stride == 0 or r == rounds:
            r_hist.append(r)
            a_hist.append(a[:])
            C_hist.append(C[:])
    else:
        r = None
    shape = (len(r_hist), M)
    return r_hist, np.reshape(a_hist, shape), np.reshape(C_hist, shape), r, C_sum


def _exp(x):
    """math.exp, or inf where it overflows (what C's exp returns)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _reference_local_gd(gammas, G, a0, w0_sq, eta, K, rounds, stride):
    S_local = [0.0] * len(gammas)

    def local(m, am):
        g, al, acc = gammas[m], am, 0.0
        for _ in range(K):
            acc += al - am
            al = al + eta * g / (1.0 + _exp(g * al))
        S_local[m] += acc
        return al

    out = _reference_rounds(gammas, G, a0, w0_sq, rounds, stride, local)
    return out + (S_local,)


def _reference_rk4(a, g, eta, t_total, substeps):
    h = t_total / substeps
    for _ in range(substeps):
        k1 = eta * g / (1.0 + _exp(g * a))
        k2 = eta * g / (1.0 + _exp(g * (a + 0.5 * h * k1)))
        k3 = eta * g / (1.0 + _exp(g * (a + 0.5 * h * k2)))
        k4 = eta * g / (1.0 + _exp(g * (a + h * k3)))
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def _reference_gf(gammas, G, a0, w0_sq, eta, K, rounds, substeps, stride):
    err = [0.0]

    def local(m, am):
        end = _reference_rk4(am, gammas[m], eta, float(K), substeps)
        coarse = _reference_rk4(am, gammas[m], eta, float(K), substeps // 2 or 2)
        err[0] = max(err[0], abs(end - coarse))
        return end

    out = _reference_rounds(gammas, G, a0, w0_sq, rounds, stride, local, flow=True)
    return out[:4] + (err[0],)


def _spy(monkeypatch, name, seen):
    """Wrap the Python body ``name`` to record the types of the inputs it is fed."""
    body = getattr(_kernels, name)

    def spy(gammas, G, a, *rest):
        seen.update(map(type, (gammas, gammas[0], G, G[0], G[0][0], a, a[0])))
        return body(gammas, G, a, *rest)

    monkeypatch.setattr(_kernels, name, spy)


# what the Python bodies must be fed: lists of Python floats, several times
# faster to step through than numpy scalars; the C path never calls them
FED = {"python": {list, float}, "c": set()}


def _assert_bitwise(got, want, case):
    assert len(got) == len(want), case
    for g, w in zip(got, want):
        if g is None or w is None:  # the stop round of a run that ran every round
            assert g is w, case
            continue
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape, case
        assert g.tobytes() == w.astype(g.dtype).tobytes(), case


def test_local_gd_kernel_matches_python_body(monkeypatch, c_switch):
    for backend in BACKENDS:
        for seed, (M, K, rounds, stride) in enumerate(CASES):
            case = (backend, M, K, rounds, stride)
            gammas, G, a0, w0_sq = _geometry(M, seed)
            eta = 1.7  # not a power of two, so eta * g rounds
            a0_before = a0.copy()
            seen = set()
            with c_switch(backend), monkeypatch.context() as mp:
                _spy(mp, "_local_gd_margin_core", seen)
                got = _kernels.local_gd_margin(gammas, G, a0, w0_sq, eta, K, rounds, stride)
            assert seen == FED[backend], case
            np.testing.assert_array_equal(a0, a0_before)
            assert got[0].dtype == np.int64 and got[1].dtype == np.float64
            want = _reference_local_gd(gammas, G, a0, w0_sq, eta, K, rounds, stride)
            _assert_bitwise(got, want, case)


def test_local_gd_kernel_overflowing_step_adds_zero(c_switch):
    # exp(g * a) overflows past g * a > 709: from a start that far out
    # (client 0), where local GD runs every round (the flow, whose margins
    # must stay within |g * a| <= 700, stops at round 0), and after a first
    # step at eta = 1e300 (every client), which moves the margins to about
    # 1e299, so both kernels stop at round 1 with C_sum and S_local kept
    gammas, G, _, _ = _geometry(3, 7)
    K, rounds, stride, substeps = 4, 6, 1, 4
    for eta, a0, stops in ((1.7, np.array([1000.0, -0.2, 0.4]), (None, 0)),
                           (1e300, np.array([0.1, -0.3, 0.2]), (1, 1))):
        w0_sq = float(a0 @ a0)
        with np.errstate(over="ignore"):
            lgd = _reference_local_gd(gammas, G, a0, w0_sq, eta, K, rounds, stride)
            gf = _reference_gf(gammas, G, a0, w0_sq, eta, K, rounds, substeps, stride)
        for backend in BACKENDS:
            with c_switch(backend):
                got = _kernels.local_gd_margin(gammas, G, a0, w0_sq, eta, K, rounds, stride)
                got_gf = _kernels.gf_numeric_margin(gammas, G, a0, w0_sq, eta, K, rounds,
                                                    substeps, stride)
            _assert_bitwise(got, lgd, (backend, eta))
            assert np.all(np.isfinite(got[2])) and np.all(np.isfinite(got[4])), (backend, eta)
            _assert_bitwise(got_gf, gf, (backend, eta, "gf"))
            assert (got[3], got_gf[3]) == stops, (backend, eta)


def test_kernels_stop_at_the_first_non_finite_round(c_switch):
    # three identical clients each step to 8.5e307, so the averaged margin
    # overflows in round 1 while C stays finite; later rounds would be NaN.
    # Round 1 is the stop round and no history slot; a non-finite ||w0||^2
    # stops a run at round 0
    gammas, G, a0 = np.ones(3), np.ones((3, 3)), np.zeros(3)
    for stride, w0_sq, stop in ((1, 0.0, 1), (4, 0.0, 1), (1, math.inf, 0)):
        case = (stride, w0_sq)
        with np.errstate(over="ignore", invalid="ignore"):
            lgd = _reference_local_gd(gammas, G, a0, w0_sq, 1.7e308, 1, 10, stride)
            gf = _reference_gf(gammas, G, a0, w0_sq, 1.7e308, 1, 10, 1, stride)
        for backend in BACKENDS:
            with c_switch(backend):
                got = _kernels.local_gd_margin(gammas, G, a0, w0_sq, 1.7e308, 1, 10, stride)
                got_gf = _kernels.gf_numeric_margin(gammas, G, a0, w0_sq, 1.7e308, 1, 10, 1,
                                                    stride)
            _assert_bitwise(got, lgd, (backend, *case))
            _assert_bitwise(got_gf, gf, (backend, *case, "gf"))
            assert got[0].tolist() == got_gf[0].tolist() == [0] * stop, (backend, *case)
            assert got[3] == got_gf[3] == stop, (backend, *case)


def test_gf_kernel_matches_python_body(monkeypatch, c_switch):
    for backend in BACKENDS:
        for seed, (M, K, rounds, stride) in enumerate(CASES):
            substeps = 16 if K > 1 else 1
            case = (backend, M, K, rounds, stride, substeps)
            gammas, G, a0, w0_sq = _geometry(M, seed)
            eta = 1.3  # not a power of two, so eta * g rounds
            seen = set()
            with c_switch(backend), monkeypatch.context() as mp:
                _spy(mp, "_gf_numeric_margin_core", seen)
                got = _kernels.gf_numeric_margin(gammas, G, a0, w0_sq, eta, K, rounds, substeps,
                                                 stride)
            assert seen == FED[backend], case
            want = _reference_gf(gammas, G, a0, w0_sq, eta, K, rounds, substeps, stride)
            _assert_bitwise(got, want, case)
            assert got[3] is None and got[4] > 0.0, case


def _both(c_switch, fn, *args):
    """``fn(*args)`` on C and on the Python body."""
    out = []
    for backend in ("c", "python"):
        with c_switch(backend):
            out.append(fn(*args))
    return out


# M up to 9: two full blocks of the clients the C kernels step side by side, then a
# partial one
_RUN = dict(
    seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), K=st.integers(1, 19),
    rounds=st.integers(0, 199), stride=st.integers(1, 6), eta=st.floats(1e-3, 1e300),
)


@given(**_RUN)
@settings(max_examples=60, deadline=None)
def test_local_gd_c_matches_python(c_switch, seed, M, K, rounds, stride, eta):
    gammas, G, a0, w0_sq = _geometry(M, seed)
    c, py = _both(c_switch, _kernels.local_gd_margin, gammas, G, a0, w0_sq, eta, K, rounds,
                  stride)
    _assert_bitwise(c, py, (seed, M, K, rounds, stride, eta))


@given(substeps=st.integers(1, 8), **_RUN)
@settings(max_examples=60, deadline=None)
def test_gf_c_matches_python(c_switch, seed, M, K, rounds, stride, eta, substeps):
    gammas, G, a0, w0_sq = _geometry(M, seed)
    c, py = _both(c_switch, _kernels.gf_numeric_margin, gammas, G, a0, w0_sq, eta, K, rounds,
                  substeps, stride)
    _assert_bitwise(c, py, (seed, M, K, rounds, stride, eta, substeps))


@pytest.fixture
def fresh_library(monkeypatch, tmp_path):
    """An empty kernel cache, and no library loaded before or after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernels._library.cache_clear()
    yield tmp_path
    _kernels._library.cache_clear()


def test_library_is_built_once_into_the_cache(fresh_library):
    if _kernels._library() is None:
        pytest.skip("the C kernels cannot be built here")
    built = sorted(p.name for p in (fresh_library / "localgd").iterdir())
    assert len(built) == 1 and built[0].startswith("kernels-") and built[0].endswith(".so")
    _kernels._library.cache_clear()
    assert _kernels._library() is not None
    assert sorted(p.name for p in (fresh_library / "localgd").iterdir()) == built


def test_without_a_compiler_the_python_body_runs_and_warns_once(fresh_library, monkeypatch,
                                                                 c_switch):
    gammas, G, a0, w0_sq = _geometry(3, 0)
    with c_switch("python"):
        want = _kernels.local_gd_margin(gammas, G, a0, w0_sq, 1.7, 4, 30, 3)
    # no compiler on PATH, and one that fails (``false`` exits 1 at once), in a process
    # whose steps have reached C_MIN_WORK
    for cc in ("localgd-no-such-compiler", "false"):
        monkeypatch.setattr(_kernels, "_CC", cc)
        _kernels._library.cache_clear()
        with warnings.catch_warnings(record=True) as caught, \
                c_switch(steps=_kernels.C_MIN_WORK):
            warnings.simplefilter("always")
            for _ in range(2):
                got = _kernels.local_gd_margin(gammas, G, a0, w0_sq, 1.7, 4, 30, 3)
                _assert_bitwise(got, want, cc)
        assert [w.category for w in caught] == [RuntimeWarning], cc
    assert list(fresh_library.glob("localgd/*")) == []


def test_small_runs_never_load_the_library(monkeypatch, c_switch):
    def unreachable():
        raise AssertionError("a run below C_MIN_WORK reached the C library")

    monkeypatch.setattr(_kernels, "_library", unreachable)
    gammas, G, a0, w0_sq = _geometry(2, 0)
    with c_switch(steps=0):
        _kernels.local_gd_margin(gammas, G, a0, w0_sq, 1.0, 1, 1)
        _kernels.gf_numeric_margin(gammas, G, a0, w0_sq, 1.0, 1, 1, 8)
        assert _kernels._python_steps == 2 + 16


def test_kernels_and_log_phi_share_one_switch(monkeypatch, c_switch):
    # one tally: a kernel call brings the process to 1 step short of C_MIN_WORK, a
    # log_phi solve crosses it and runs in C, and so does every later call, however small
    if _kernels._library() is None:
        pytest.skip("the C kernels cannot be built here")
    asked, library = [], _kernels._library
    monkeypatch.setattr(_kernels, "_library", lambda: asked.append(1) or library())
    monkeypatch.setattr(specialfn, "_log_phi", lambda *_: pytest.fail("log_phi ran in Python"))
    gammas, G, a0, w0_sq = _geometry(2, 0)
    with c_switch(steps=_kernels.C_MIN_WORK - 17):
        seen = set()
        with monkeypatch.context() as mp:
            _spy(mp, "_local_gd_margin_core", seen)
            _spy(mp, "_gf_numeric_margin_core", seen)
            _kernels.local_gd_margin(gammas, G, a0, w0_sq, 1.0, 8, 1)
            assert seen == FED["python"] and not asked
            seen.clear()
            assert specialfn.log_phi(2.0, 0.5) == library().localgd_log_phi(2.0, 0.5)
            assert len(asked) == 1
            _kernels.local_gd_margin(gammas, G, a0, w0_sq, 1.0, 1, 1)
            _kernels.gf_numeric_margin(gammas, G, a0, w0_sq, 1.0, 1, 1, 1)
            assert seen == FED["c"] and len(asked) == 3
        assert _kernels._python_steps == _kernels.C_MIN_WORK + 15


def test_small_runs_in_a_fresh_process_never_ask_for_the_library():
    # the small runs perfbench's set-up processes make (margin local GD and an exact
    # flow, one round each) stay below C_MIN_WORK, so no set-up builds the library
    code = textwrap.dedent("""
        from localgd import _kernels, data, optim
        def unreachable():
            raise AssertionError("a process below C_MIN_WORK asked for the library")
        _kernels._library = unreachable
        ds = data.gen_synthetic(data.SyntheticSpec(delta=0.1, g=5.0))
        data.compute_margin(ds)
        optim.run_local_gd(ds, optim.RunConfig(R=1, K=1, eta=1.0, engine="margin"))
        optim.run_local_gf(ds, optim.RunConfig(R=1, K=1, eta=1.0, gf_method="exact"))
        print(_kernels._python_steps)
    """)
    src = str(pathlib.Path(localgd.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    # 2 local steps, and 6 log_phi solves of 16 steps: 2 at round 0, 4 in round 1
    assert int(proc.stdout) == 2 + 6 * 16


def test_trace_slots_cover_all_strides():
    # exactly: a run that finishes fills every slot, and one that stops marks its stop
    # round in the first slot left
    for rounds in (0, 1, 7, 10, 997):
        for stride in (1, 2, 3, 10, 1000):
            traced = {0, rounds} | {r for r in range(1, rounds + 1) if r % stride == 0}
            assert _kernels._trace_slots(rounds, stride) == len(traced)


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


def test_mismatched_shapes_are_rejected(c_switch):
    # the C kernels index G and a by len(gammas); a wrong shape must not reach them
    gammas, G, a0, w0_sq = _geometry(3, 0)
    for bad in ((gammas, G[:, :2], a0), (gammas, G, a0[:2]), (gammas[:2], G, a0)):
        for backend in BACKENDS:
            with c_switch(backend), pytest.raises(ValueError, match="Gram matrix"):
                _kernels.local_gd_margin(*bad, w0_sq, 1.0, 2, 3)
