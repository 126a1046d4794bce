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

* C: ``_kernels.c`` in this package, compiled with the system ``cc`` when the
  process switches to C (``_c_library``), cached under
  ``$XDG_CACHE_HOME/localgd`` (``~/.cache/localgd``) and loaded with ctypes;
* Python: the ``_*_core`` bodies below, each a per-client step inside the one
  round loop ``_rounds``, on lists of Python floats. They are the reference
  the C port is tested against, and run until the process switches to C and
  wherever the library cannot be built (with one RuntimeWarning per process).

They agree client by client: each client's chain of local steps (or RK4
substeps) performs the same IEEE double operations in the same order on both,
and the averaging and the divergence rule sum over clients in ascending order.
Only the chains of different clients, which share no data, may interleave: the
C kernels step a block of clients side by side so that their chains overlap.
An overflowing exp counts as inf, so the local step from there is e / inf = 0.

Both wrappers enter through ``_run``, which picks the backend, lays out the
buffers and cuts the histories. A kernel writes only to its buffers and
histories, the flow's RK4 error estimate to a per-client work buffer ``err``.

The library also holds ``localgd_log_phi``, the C port of ``specialfn``'s
``log_phi`` solve (Newton, then bisection). It is bitwise equal to the Python
body by construction: it calls the libm functions behind ``math.exp``,
``expm1``, ``log1p`` and ``log`` in the same order on the same doubles, takes
the overflow branch where ``math`` would raise OverflowError, and returns NaN
where the Python body raises (see the header of ``_kernels.c``). ``log_phi``
switches to it by the kernels' rule.
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

# Python scalar steps (local GD: M*K*rounds; flow: M*rounds*substeps; log_phi:
# 16 a solve) after which a process runs C: a cold build of the library takes
# about as long, so no process pays more than twice its Python time.
C_MIN_WORK = 1 << 18
_python_steps = 0  # this process's, counted until they reach C_MIN_WORK

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
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "localgd"
    import ctypes

    try:
        if cc is None:
            raise OSError(f"no C compiler: {_CC!r} is not on PATH")
        key = sha256(_SOURCE.read_bytes() + "\0".join((cc, *_CFLAGS)).encode()).hexdigest()
        path = cache / f"kernels-{key[:16]}.so"
        if not path.exists():
            _build(cc, path)
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        warnings.warn(f"could not build the C kernels ({err}); the margin kernels and "
                      "log_phi run as plain Python", RuntimeWarning, stacklevel=4)
        return None
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    n, x = ctypes.c_int64, ctypes.c_double
    lib.localgd_local_gd_margin.argtypes = (
        [n, f64, f64, f64, x, f64, x, n, n, n] + [f64] * 6 + [i64])
    lib.localgd_local_gd_margin.restype = n
    lib.localgd_gf_numeric_margin.argtypes = (
        [n, f64, f64, f64, x, f64, x, n, n, n, n] + [f64] * 5 + [i64])
    lib.localgd_gf_numeric_margin.restype = n
    lib.localgd_log_phi.argtypes = (x, x)
    lib.localgd_log_phi.restype = x
    return lib


def _c_library(steps):
    """``_library()`` once this process's Python steps and ``steps`` reach C_MIN_WORK, else None."""
    global _python_steps
    if _python_steps < C_MIN_WORK:
        _python_steps += steps
        if _python_steps < C_MIN_WORK:
            return None
    return _library()


def _trace_slots(rounds, stride):
    return rounds // stride + (1 if rounds % stride else 0) + 1


def _run(name, body, steps, gammas, G, a0, w0_sq, rounds, stride, n_work, *params):
    """Run kernel ``name`` of the C library, or its Python ``body`` where ``_c_library(steps)``
    is None, from w0, whose projections are a0 and whose squared norm is w0_sq.

    Both get (gammas, G, a0, w0_sq, a, *params, rounds, stride, *work, a_hist, C_hist,
    r_hist), C with M first: float64 arrays for C, else lists of Python floats. ``a`` is a
    fresh copy of a0, ``work`` holds ``n_work`` zeroed length-M buffers and the histories
    have a slot per traced round. Returns ((rounds_traced, a_hist, C_hist, stop), work), the
    histories cut to the slots used; ``stop`` is the round the run stopped at, or None if it
    filled every slot.
    """
    lib = _c_library(steps)
    gammas, G, a0 = (np.ascontiguousarray(x, dtype=np.float64) for x in (gammas, G, a0))
    M = len(gammas)
    if gammas.shape != (M,) or G.shape != (M, M) or a0.shape != (M,):
        raise ValueError(f"need M gammas, an M x M Gram matrix and M projections, got "
                         f"shapes {gammas.shape}, {G.shape} and {a0.shape}")
    slots = _trace_slots(rounds, stride)
    if lib is None:
        gammas, G, a0, a = (x.tolist() for x in (gammas, G, a0, a0))
        work = [[0.0] * M for _ in range(n_work)]
        hist = ([None] * slots, [None] * slots, [0] * slots)
    else:
        a = a0.copy()
        work = [np.zeros(M) for _ in range(n_work)]
        hist = (np.zeros((slots, M)), np.zeros((slots, M)), np.zeros(slots, dtype=np.int64))
    args = (gammas, G, a0, float(w0_sq), a, *params, rounds, stride, *work, *hist)
    used = body(*args) if lib is None else getattr(lib, name)(M, *args)
    a_hist, C_hist, r_hist = hist
    return (
        np.asarray(r_hist[:used], dtype=np.int64),
        np.asarray(a_hist[:used], dtype=np.float64).reshape(used, M),
        np.asarray(C_hist[:used], dtype=np.float64).reshape(used, M),
        int(r_hist[used]) if used < slots else None,
    ), work


def _rule_holds(gammas, a0, w0_sq, a, C):
    """Whether ||w||^2 is finite and, for the flow (gammas), every |gamma_m a_m| <= 700.
    ``_rounds`` checks it at round 0 and fuses it, in its order, into each averaging."""
    s = 0.0  # summed in order, as C does (sum() compensates from Python 3.12 on)
    for m in range(len(a)):
        s += C[m] / len(a) * (a0[m] + a[m])
    return math.isfinite(w0_sq + s) and (
        gammas is None or all(abs(g * am) <= 700.0 for g, am in zip(gammas, a)))


def _rounds(gammas, G, a0, w0_sq, a, rounds, stride, C, delta, a_hist, C_hist, r_hist, step):
    """The round loop of both Python bodies, as in C: the rule at round 0, a record every
    ``stride`` rounds and at the last, and each round ``step()``, which fills ``delta``, then
    the Gram averaging with the rule fused in (the range test if ``gammas`` is given)."""
    M = len(a)
    ranged = gammas is not None
    r = slot = 0
    holds = _rule_holds(gammas, a0, w0_sq, a, C)
    while holds:
        if r % stride == 0 or r == rounds:
            a_hist[slot], C_hist[slot], r_hist[slot] = a[:], C[:], r
            slot += 1
        if r == rounds:
            return slot
        step()
        s, in_range = 0.0, True
        for m in range(M):
            Gm = G[m]
            upd = 0.0
            for mm in range(M):
                upd += Gm[mm] * delta[mm]
            a[m] = am = a[m] + upd / M
            C[m] = cm = C[m] + delta[m]
            s += cm / M * (a0[m] + am)
            if ranged and not abs(gammas[m] * am) <= 700.0:
                in_range = False
        holds = in_range and math.isfinite(w0_sq + s)
        r += 1
    r_hist[slot] = r
    return slot


def _local_gd_margin_core(gammas, G, a0, w0_sq, a, eta, K, rounds, stride, C, C_sum, S_local,
                          delta, a_hist, C_hist, r_hist):
    M = len(a)

    def step():
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

    return _rounds(None, G, a0, w0_sq, a, rounds, stride, C, delta, a_hist, C_hist, r_hist, step)


def local_gd_margin(gammas, G, a0, w0_sq, eta, K, rounds, stride=1):
    """Run ``rounds`` local-GD rounds of K steps each in margin space from w0,
    whose projections are a0 and whose squared norm is w0_sq.

    Returns (rounds_traced, a_hist, C_hist, stop, C_sum, S_local) where C_hist
    holds cumulative client displacements (the average iterate is
    w0 + (1/M) * sum_m C[m] * u_m), stop is the round the run stopped at (None
    if it ran every round), C_sum accumulates C over round starts and S_local
    the within-round partial sums needed for uniform iterate averaging.
    """
    K, rounds = int(K), int(rounds)
    traced, (_C, C_sum, S_local, _delta) = _run(
        "localgd_local_gd_margin", _local_gd_margin_core, len(gammas) * K * rounds,
        gammas, G, a0, w0_sq, rounds, int(stride), 4, float(eta), K)
    return traced + (np.asarray(C_sum, dtype=np.float64), np.asarray(S_local, dtype=np.float64))


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


def _gf_numeric_margin_core(gammas, G, a0, w0_sq, a, eta, K, substeps, rounds, stride, C,
                            delta, err, a_hist, C_hist, r_hist):
    M, T = len(a), float(K)
    coarse = substeps // 2 or 2

    def step():
        for m in range(M):
            am = a[m]
            g = gammas[m]
            end = _rk4_flow(am, g, eta, T, substeps)
            diff = abs(end - _rk4_flow(am, g, eta, T, coarse))
            if diff > err[m]:
                err[m] = diff
            delta[m] = end - am

    return _rounds(gammas, G, a0, w0_sq, a, rounds, stride, C, delta, a_hist, C_hist, r_hist, step)


def gf_numeric_margin(gammas, G, a0, w0_sq, eta, K, rounds, substeps, stride=1):
    """Classical fixed-step RK4 integration of the local flows in margin space,
    from w0 with projections a0 and squared norm w0_sq.

    Each round integrates every client's scalar flow for K time units with
    ``substeps`` steps, then averages through the Gram matrix. Returns
    (rounds_traced, a_hist, C_hist, stop, err_max) where stop is as in
    local_gd_margin and err_max is the largest endpoint discrepancy against an
    integration with ``substeps // 2 or 2`` steps.
    """
    rounds, substeps = int(rounds), int(substeps)
    traced, (_C, _delta, err) = _run(
        "localgd_gf_numeric_margin", _gf_numeric_margin_core, len(gammas) * rounds * substeps,
        gammas, G, a0, w0_sq, rounds, int(stride), 3, float(eta), int(K), substeps)
    return traced + (float(max(err, default=0.0)),)
