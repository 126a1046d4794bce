"""Margin-space inner loops for datasets with one sample per client.

When every client holds a single folded point z_m = gamma_m * u_m, local
updates move each client iterate only along u_m, so a whole run is determined
by the scalar projections a_m = <w, u_m> and the Gram matrix of the
directions. These kernels run the (rounds x K) recurrences; histories are
sampled every ``stride`` rounds (round 0 and the final round always
included).

Each kernel has one body and two ways to run it:

* compiled: with numba installed, the bodies are compiled in nopython mode
  and the wrappers hand them float64 arrays;
* fallback: without numba, the bodies stay plain Python functions and the
  wrappers hand them lists of Python floats, which the interpreter steps
  through several times faster than numpy scalars.

The wrappers allocate every work buffer and history, and the bodies touch
them only through ``len``, indexing (``x[i]``, ``x[i][j]``) and row copies
(``x[:]``), which mean the same on arrays and on lists. Both ways perform
the same IEEE double operations in the same order, so they agree bitwise.
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - exercised implicitly by import
    from numba import njit as _njit

    def _jit(func):
        return _njit(cache=True)(func)

except ImportError:  # pragma: no cover

    def _jit(func):
        return func


def _trace_slots(rounds, stride):
    return rounds // stride + (1 if rounds % stride else 0) + 1


def _kernel_args(core, slots, n_work, gammas, G, a0):
    """The arguments ``core`` runs on, as arrays if it is compiled, else lists.

    Returns ``(gammas, G, a, work, hist)``: ``a`` is a fresh copy of ``a0``,
    ``work`` holds ``n_work`` zeroed length-M buffers and ``hist`` the
    (a_hist, C_hist, r_hist) histories with ``slots`` rows.
    """
    M = len(gammas)
    gammas = np.asarray(gammas, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    a = np.array(a0, dtype=np.float64)
    if hasattr(core, "py_func"):  # a numba dispatcher
        work = [np.zeros(M) for _ in range(n_work)]
        hist = (np.zeros((slots, M)), np.zeros((slots, M)), np.zeros(slots, dtype=np.int64))
        return gammas, G, a, work, hist
    work = [[0.0] * M for _ in range(n_work)]
    hist = ([None] * slots, [None] * slots, [0] * slots)
    return gammas.tolist(), G.tolist(), a.tolist(), work, hist


def _traced(hist, used):
    """(rounds_traced, a_hist, C_hist) as arrays, cut to the ``used`` slots."""
    a_hist, C_hist, r_hist = hist
    return (
        np.asarray(r_hist[:used], dtype=np.int64),
        np.asarray(a_hist[:used], dtype=np.float64),
        np.asarray(C_hist[:used], dtype=np.float64),
    )


@_jit
def _local_gd_margin_core(
    gammas, G, a, eta, K, rounds, stride, C, C_sum, S_local, delta, a_hist, C_hist, r_hist
):
    M = len(gammas)
    a_hist[0] = a[:]
    C_hist[0] = C[:]
    r_hist[0] = 0
    slot = 1
    for r in range(rounds):
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
                except Exception:  # OverflowError; numba compiles no narrower clause
                    pass  # the step is e / inf = 0, which the compiled body computes
            S_local[m] += acc
            delta[m] = al - am
        for m in range(M):
            Gm = G[m]
            upd = 0.0
            for mm in range(M):
                upd += Gm[mm] * delta[mm]
            a[m] = a[m] + upd / M
            C[m] += delta[m]
        if (r + 1) % stride == 0 or r + 1 == rounds:
            a_hist[slot] = a[:]
            C_hist[slot] = C[:]
            r_hist[slot] = r + 1
            slot += 1
    return slot


def local_gd_margin(gammas, G, a0, eta, K, rounds, stride=1):
    """Run ``rounds`` local-GD rounds of K steps each in margin space.

    Returns (rounds_traced, a_hist, C_hist, C_sum, S_local) where C_hist holds
    cumulative client displacements (the average iterate is
    w0 + (1/M) * sum_m C[m] * u_m), C_sum accumulates C over round starts and
    S_local the within-round partial sums needed for uniform iterate averaging.
    """
    core = _local_gd_margin_core
    gammas, G, a, work, hist = _kernel_args(core, _trace_slots(rounds, stride), 4, gammas, G, a0)
    used = core(gammas, G, a, float(eta), int(K), int(rounds), int(stride), *work, *hist)
    _C, C_sum, S_local, _delta = work
    return _traced(hist, used) + (
        np.asarray(C_sum, dtype=np.float64),
        np.asarray(S_local, dtype=np.float64),
    )


@_jit
def _rk4_flow(a, g, eta, t_total, substeps):
    h = t_total / substeps
    half_h = 0.5 * h
    sixth_h = h / 6.0
    e = eta * g
    for _ in range(substeps):
        k1 = e / (1.0 + math.exp(g * a))
        a2 = a + half_h * k1
        k2 = e / (1.0 + math.exp(g * a2))
        a3 = a + half_h * k2
        k3 = e / (1.0 + math.exp(g * a3))
        a4 = a + h * k3
        k4 = e / (1.0 + math.exp(g * a4))
        a = a + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


@_jit
def _gf_numeric_margin_core(
    gammas, G, a, eta, K, rounds, substeps, probe, stride, C, delta, a_hist, C_hist, r_hist
):
    M = len(gammas)
    T = float(K)
    a_hist[0] = a[:]
    C_hist[0] = C[:]
    r_hist[0] = 0
    slot = 1
    err_max = 0.0
    for r in range(rounds):
        for m in range(M):
            am = a[m]
            g = gammas[m]
            end = _rk4_flow(am, g, eta, T, substeps)
            if probe and substeps >= 2:
                half = _rk4_flow(am, g, eta, T, substeps // 2)
                diff = abs(end - half)
                if diff > err_max:
                    err_max = diff
            delta[m] = end - am
        for m in range(M):
            Gm = G[m]
            upd = 0.0
            for mm in range(M):
                upd += Gm[mm] * delta[mm]
            a[m] = a[m] + upd / M
            C[m] += delta[m]
        if (r + 1) % stride == 0 or r + 1 == rounds:
            a_hist[slot] = a[:]
            C_hist[slot] = C[:]
            r_hist[slot] = r + 1
            slot += 1
    return slot, err_max


def gf_numeric_margin(gammas, G, a0, eta, K, rounds, substeps, probe=True, stride=1):
    """Classical fixed-step RK4 integration of the local flows in margin space.

    Each round integrates every client's scalar flow for K time units with
    ``substeps`` steps, then averages through the Gram matrix. Returns
    (rounds_traced, a_hist, C_hist, err_max) where err_max is the largest
    endpoint discrepancy against a half-resolution integration (0.0 when the
    probe is disabled).
    """
    core = _gf_numeric_margin_core
    gammas, G, a, work, hist = _kernel_args(core, _trace_slots(rounds, stride), 2, gammas, G, a0)
    used, err_max = core(
        gammas, G, a, float(eta), int(K), int(rounds), int(substeps), bool(probe), int(stride),
        *work, *hist,
    )
    return _traced(hist, used) + (float(err_max),)
