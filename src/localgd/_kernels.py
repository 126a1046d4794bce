"""Margin-space inner loops for datasets with one sample per client.

When every client holds a single folded point z_m = gamma_m * u_m, local
updates move each client iterate only along u_m, so a whole run is determined
by the scalar projections a_m = <w, u_m> and the Gram matrix of the
directions. These kernels run the (rounds x K) recurrences; histories are
sampled every ``stride`` rounds (round 0 and the final round always
included). Every round, 0 included, the kernels check the ||w||^2 and
flow-range parts of optim's divergence rule for w = w0 + U^T C / M, summing
||w||^2 = ||w0||^2 + (C.a0 + C.a) / M as (C_m / M) * (a0_m + a_m) so that no
partial sum overflows where the total does not. A stop round goes to r_hist's
first unused slot, which a run that finishes does not have.

Each kernel has two backends that agree bitwise:

* C: ``_kernels.c`` in this package, compiled with the system ``cc`` on the
  first run large enough to repay the build (``C_MIN_WORK``), cached under
  ``$XDG_CACHE_HOME/localgd`` (``~/.cache/localgd``) and loaded with ctypes;
* Python: the ``_*_core`` bodies below, stepping through lists of Python
  floats. They are the reference the C port is tested against, and run
  below ``C_MIN_WORK`` and wherever the library cannot be built (with one
  RuntimeWarning per process).

Both perform the same IEEE double operations in the same order; an
overflowing exp counts as inf, so the local step from there is e / inf = 0.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import tempfile
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np

# Scalar steps (local GD: M*K*rounds; flow: M*rounds*substeps RK4 steps) from
# which a run goes to C. A cold build of the library takes about as long as
# this many Python steps, so no run pays more than twice its Python time.
C_MIN_WORK = 1 << 18

_SOURCE = Path(__file__).with_name("_kernels.c")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _build(cc, out):
    """Compile the C source into ``out``, via a temporary file so concurrent builds are safe."""
    import subprocess

    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode:
            raise OSError(f"{cc} exited with {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _library():
    """The compiled kernels as a ctypes library, or None (with a warning) if it cannot be had."""
    cc = shutil.which(_CC)
    if cc is None:
        warnings.warn(f"no C compiler ({_CC!r} not on PATH); margin kernels run as plain "
                      "Python", RuntimeWarning, stacklevel=3)
        return None
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "localgd"
    import ctypes

    try:
        key = sha256(_SOURCE.read_bytes() + "\0".join((cc, *_CFLAGS)).encode()).hexdigest()
        path = cache / f"kernels-{key[:16]}.so"
        if not path.exists():
            _build(cc, path)
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        warnings.warn(f"could not build the C margin kernels ({err}); they run as plain "
                      "Python", RuntimeWarning, stacklevel=3)
        return None
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    n, x = ctypes.c_int64, ctypes.c_double
    lib.localgd_local_gd_margin.argtypes = (
        [n, f64, f64, f64, x, f64, x, n, n, n] + [f64] * 6 + [i64])
    lib.localgd_local_gd_margin.restype = n
    lib.localgd_gf_numeric_margin.argtypes = (
        [n, f64, f64, f64, x, f64, x, n, n, n, n] + [f64] * 4 + [i64, f64])
    lib.localgd_gf_numeric_margin.restype = n
    return lib


def _trace_slots(rounds, stride):
    return rounds // stride + (1 if rounds % stride else 0) + 1


def _kernel_args(c, slots, n_work, gammas, G, a0, w0_sq):
    """The buffers a kernel runs on: float64 arrays for C, else lists of Python floats.

    Returns ``(start, work, hist)``: ``start`` is (gammas, G, a0, w0_sq, a), ``a``
    a fresh copy of ``a0``, ``work`` holds ``n_work`` zeroed length-M buffers and
    ``hist`` the (a_hist, C_hist, r_hist) histories with ``slots`` rows.
    """
    gammas = np.ascontiguousarray(gammas, dtype=np.float64)
    G = np.ascontiguousarray(G, dtype=np.float64)
    a0 = np.ascontiguousarray(a0, dtype=np.float64)
    M = len(gammas)
    if gammas.shape != (M,) or G.shape != (M, M) or a0.shape != (M,):
        raise ValueError(f"need M gammas, an M x M Gram matrix and M projections, got "
                         f"shapes {gammas.shape}, {G.shape} and {a0.shape}")
    if c:
        work = [np.zeros(M) for _ in range(n_work)]
        hist = (np.zeros((slots, M)), np.zeros((slots, M)), np.zeros(slots, dtype=np.int64))
        return (gammas, G, a0, float(w0_sq), a0.copy()), work, hist
    work = [[0.0] * M for _ in range(n_work)]
    hist = ([None] * slots, [None] * slots, [0] * slots)
    return (gammas.tolist(), G.tolist(), a0.tolist(), float(w0_sq), a0.tolist()), work, hist


def _traced(hist, used, M):
    """(rounds_traced, a_hist, C_hist, stop) cut to the ``used`` slots; ``stop`` is the
    round the run stopped at, or None if it filled every slot."""
    a_hist, C_hist, r_hist = hist
    return (
        np.asarray(r_hist[:used], dtype=np.int64),
        np.asarray(a_hist[:used], dtype=np.float64).reshape(used, M),
        np.asarray(C_hist[:used], dtype=np.float64).reshape(used, M),
        int(r_hist[used]) if used < len(r_hist) else None,
    )


def _rule_holds(gammas, a0, w0_sq, a, C):
    """Whether ||w||^2 is finite and, for the flow (gammas), every |gamma_m a_m| <= 700.
    The bodies call it at round 0 and apply it inline, in its order, after each averaging."""
    s = 0.0  # summed in order, as C does (sum() compensates from Python 3.12 on)
    for m in range(len(a)):
        s += C[m] / len(a) * (a0[m] + a[m])
    return math.isfinite(w0_sq + s) and (
        gammas is None or all(abs(g * am) <= 700.0 for g, am in zip(gammas, a)))


def _local_gd_margin_core(gammas, G, a0, w0_sq, a, eta, K, rounds, stride, C, C_sum, S_local,
                          delta, a_hist, C_hist, r_hist):
    M = len(gammas)
    r = slot = 0
    holds = _rule_holds(None, a0, w0_sq, a, C)
    while holds:
        if r % stride == 0 or r == rounds:
            a_hist[slot], C_hist[slot], r_hist[slot] = a[:], C[:], r
            slot += 1
        if r == rounds:
            return slot
        for m in range(M):
            C_sum[m] += C[m]
            am = a[m]
            g = gammas[m]
            e = eta * g
            al = am
            acc = 0.0
            for _k in range(K):
                acc += al - am
                try:
                    al = al + e / (1.0 + math.exp(g * al))
                except OverflowError:  # what C computes: e / inf
                    al = al + e / (1.0 + math.inf)
            S_local[m] += acc
            delta[m] = al - am
        # averaging and the rule inline, as in the flow body: a call per round costs ~5% at K=4
        s = 0.0
        for m in range(M):
            Gm = G[m]
            upd = 0.0
            for mm in range(M):
                upd += Gm[mm] * delta[mm]
            a[m] = am = a[m] + upd / M
            C[m] = cm = C[m] + delta[m]
            s += cm / M * (a0[m] + am)
        holds = math.isfinite(w0_sq + s)
        r += 1
    r_hist[slot] = r
    return slot


def local_gd_margin(gammas, G, a0, w0_sq, eta, K, rounds, stride=1):
    """Run ``rounds`` local-GD rounds of K steps each in margin space from w0,
    whose projections are a0 and whose squared norm is w0_sq.

    Returns (rounds_traced, a_hist, C_hist, stop, C_sum, S_local) where C_hist
    holds cumulative client displacements (the average iterate is
    w0 + (1/M) * sum_m C[m] * u_m), stop is the round the run stopped at (None
    if it ran every round), C_sum accumulates C over round starts and S_local
    the within-round partial sums needed for uniform iterate averaging.
    """
    M, eta, K, rounds, stride = len(gammas), float(eta), int(K), int(rounds), int(stride)
    lib = _library() if M * K * rounds >= C_MIN_WORK else None
    start, work, hist = _kernel_args(
        lib is not None, _trace_slots(rounds, stride), 4, gammas, G, a0, w0_sq)
    if lib is None:
        used = _local_gd_margin_core(*start, eta, K, rounds, stride, *work, *hist)
    else:
        used = lib.localgd_local_gd_margin(M, *start, eta, K, rounds, stride, *work, *hist)
    _C, C_sum, S_local, _delta = work
    return _traced(hist, used, M) + (
        np.asarray(C_sum, dtype=np.float64),
        np.asarray(S_local, dtype=np.float64),
    )


def _exp(x):
    """math.exp, with inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _rk4_flow(a, g, eta, t_total, substeps):
    exp = _exp  # an overflowing exp is inf, as in C, so its step adds e / inf = 0
    h = t_total / substeps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    e = eta * g
    for _ in range(substeps):
        k1 = e / (1.0 + exp(g * a))
        a2 = a + half_h * k1
        k2 = e / (1.0 + exp(g * a2))
        a3 = a + half_h * k2
        k3 = e / (1.0 + exp(g * a3))
        a4 = a + h * k3
        k4 = e / (1.0 + exp(g * a4))
        a = a + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def _gf_numeric_margin_core(gammas, G, a0, w0_sq, a, eta, K, rounds, substeps, stride, C,
                            delta, a_hist, C_hist, r_hist):
    M = len(gammas)
    T = float(K)
    r = slot = 0
    err_max = 0.0
    holds = _rule_holds(gammas, a0, w0_sq, a, C)
    while holds:
        if r % stride == 0 or r == rounds:
            a_hist[slot], C_hist[slot], r_hist[slot] = a[:], C[:], r
            slot += 1
        if r == rounds:
            return slot, err_max
        for m in range(M):
            am = a[m]
            g = gammas[m]
            end = _rk4_flow(am, g, eta, T, substeps)
            if substeps >= 2:
                half = _rk4_flow(am, g, eta, T, substeps // 2)
                diff = abs(end - half)
                if diff > err_max:
                    err_max = diff
            delta[m] = end - am
        s, in_range = 0.0, True
        for m in range(M):
            Gm = G[m]
            upd = 0.0
            for mm in range(M):
                upd += Gm[mm] * delta[mm]
            a[m] = am = a[m] + upd / M
            C[m] = cm = C[m] + delta[m]
            s += cm / M * (a0[m] + am)
            in_range = in_range and abs(gammas[m] * am) <= 700.0
        holds = in_range and math.isfinite(w0_sq + s)
        r += 1
    r_hist[slot] = r
    return slot, err_max


def gf_numeric_margin(gammas, G, a0, w0_sq, eta, K, rounds, substeps, stride=1):
    """Classical fixed-step RK4 integration of the local flows in margin space,
    from w0 with projections a0 and squared norm w0_sq.

    Each round integrates every client's scalar flow for K time units with
    ``substeps`` steps, then averages through the Gram matrix. Returns
    (rounds_traced, a_hist, C_hist, stop, err_max) where stop is as in
    local_gd_margin and err_max is the largest endpoint discrepancy against a
    half-resolution integration (0.0 when substeps is 1).
    """
    M, eta, K, rounds = len(gammas), float(eta), int(K), int(rounds)
    substeps, stride = int(substeps), int(stride)
    lib = _library() if M * rounds * substeps >= C_MIN_WORK else None
    start, work, hist = _kernel_args(
        lib is not None, _trace_slots(rounds, stride), 2, gammas, G, a0, w0_sq)
    if lib is None:
        used, err_max = _gf_numeric_margin_core(
            *start, eta, K, rounds, substeps, stride, *work, *hist)
    else:
        err = np.zeros(1)
        used = lib.localgd_gf_numeric_margin(
            M, *start, eta, K, rounds, substeps, stride, *work, *hist, err)
        err_max = err[0]
    return _traced(hist, used, M) + (float(err_max),)
