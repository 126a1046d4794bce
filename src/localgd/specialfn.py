"""The exact local-gradient-flow round map, in log space, and its rate constants.

The flow of a single folded sample z = gamma * u (u a unit vector) moves the
margin projection a = <w, u> along a separable ODE whose solution is
expressible through the principal Lambert W branch. ``log_phi`` gives the
logarithm of the round's amplification factor from the residual equation of
that solution, without ever forming exp(.) of its argument, so arguments far
beyond the overflow threshold of float64 are handled exactly in log space.
The surrogate client losses, the margin-space round map and the closed-form
rate constants of two-client runs are built on it.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateGeometryError, DomainError

__all__ = [
    "log_phi",
    "surrogate_loss",
    "GfState",
    "make_gf_state",
    "gf_round",
    "TheoryConstants",
    "theory_constants",
]

_NEWTON_STALL = 50
_c_log_phi = None  # the C port, once _kernels has switched the process to C


def _stalled_iterate(i, new, old):
    """The iterate Newton would hold after _NEWTON_STALL steps, given that
    step i (from 0) closed a two-cycle between ``old`` and ``new``."""
    return new if (_NEWTON_STALL - 1 - i) % 2 == 0 else old


def log_phi(b: float, x: float) -> float:
    """log of the round-amplification factor W(exp(b + exp(x) + x)) / exp(x).

    With u = b + exp(x) + x and w = W(exp(u)), the result is u - w - x. That
    difference is obtained directly by Newton on its residual equation
    exp(x)*(exp(L) - 1) + L = b, which is cancellation-free even when exp(x)
    dwarfs the result. Nonnegative, and zero when b = 0; for b > 0 the true
    value is positive but rounds to 0.0 where it lies below the smallest
    subnormal (as at b = 5e-324, x = 0 or b = 1e-300, x = 700). Finite for
    every finite b >= 0 and |x| <= 700, also where the root L lies past exp's
    overflow threshold (large b with very negative x). A NaN or infinite b
    raises ValueError; an x that is not finite or has |x| > 700, DomainError.

    Newton stops when a step moves L by at most 1e-16 relative, which is
    below half an ulp, so it can instead settle into a 1-ulp two-cycle;
    bisection (``_bisect_log_phi``) then finishes. That happened on 5538 of
    40080 calls (13.8%) of the exact flow on 20 random two-client geometries,
    and on 6-11% of calls with random (b, x). Two early exits keep the
    result bitwise what the full 50 Newton steps and 200 halvings would give:
    a two-cycle hands bisection at once the iterate the 50th step would
    hold, and bisection stops once its midpoint equals an endpoint. Longer
    cycles are rarer (about 1 in 200 fallbacks) and still run all 50 steps.

    The solve has two backends that give the same bits: the Python body
    ``_log_phi``, which is the reference, and its C port ``localgd_log_phi``
    in ``_kernels.c``, which calls the same libm functions as ``math`` in the
    same order (see that file's header). Calls run where ``_kernels._c_library``
    puts 16 scalar steps, and all go to C once it has. A NaN from the C port,
    which it returns wherever the Python body raises, sends the call to the
    Python body, which raises.
    """
    global _c_log_phi
    if _c_log_phi is None:
        lib = _kernels._c_library(16)
        if lib is None:
            return _log_phi(b, x)
        _c_log_phi = lib.localgd_log_phi
    try:
        L = _c_log_phi(b, x)
    except ctypes.ArgumentError:  # not a number ctypes converts: float() decides
        L = math.nan
    if L == L:
        return L
    return _log_phi(b, x)


def _log_phi(b, x):
    """The Python body of log_phi, and the reference its C port reproduces."""
    b = float(b)
    x = float(x)
    if not 0.0 <= b < math.inf:
        raise ValueError(f"b must be finite and nonnegative, got {b}")
    if not math.isfinite(x) or abs(x) > 700.0:
        raise DomainError(f"x={x} outside representable range (|x| <= 700)")
    if b == 0.0:
        return 0.0
    y = math.exp(x)
    # Newton on g(L) = y*expm1(L) + L - b; g is convex and increasing, and
    # both b/(y+1) (linearization) and log1p(b/y) (exponential branch) sit at
    # or above the root, so starting from their minimum keeps the iteration
    # monotone from above and within a few steps of the root.
    ratio = b / y
    exp_branch = math.log1p(ratio) if math.isfinite(ratio) else math.log(b) - x
    L = min(b / (y + 1.0), exp_branch)
    L_prev = math.nan
    for i in range(_NEWTON_STALL):
        try:
            g = y * math.expm1(L) + L - b
            dg = y * math.exp(L) + 1.0
            Ln = L - g / dg
        except OverflowError:
            # L is past exp's range, where y*expm1(L) = exp(x + L) to within
            # a factor 1 - e^-L: take the step with g and dg divided by it
            q = math.exp(-(x + L))
            Ln = L - (1.0 + (L - b) * q) / (1.0 + q)
        if Ln < 0.0:
            Ln = L * 0.5
        if abs(Ln - L) <= 1e-16 * max(abs(Ln), 1e-300):
            return max(Ln, 0.0)
        if Ln == L_prev:
            # two-cycle: the stop test above fails on both of its pairs
            return _bisect_log_phi(b, x, y, _stalled_iterate(i, Ln, L))
        L_prev, L = L, Ln
    return _bisect_log_phi(b, x, y, L)


def _below_root(b, x, y, L):
    """Whether g(L) = y*expm1(L) + L - b is negative, also past exp's range."""
    try:
        return y * math.expm1(L) + L < b
    except OverflowError:
        return (b - L) * math.exp(-(x + L)) > 1.0


def _bisect_log_phi(b, x, y, hint):
    lo, hi = 0.0, max(hint, 1e-300)
    while _below_root(b, x, y, hi):
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # lo and hi are equal or adjacent floats: the loop would end
            # returning this same mid
            return mid
        if _below_root(b, x, y, mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


def surrogate_loss(gamma_m: float, etaK: float, a_m: float) -> float:
    """Surrogate client loss: log_phi(etaK*gamma^2, gamma*a) / gamma.

    Decreasing in the margin projection a_m, and positive for etaK > 0 except
    where log_phi's value underflows to 0.0 (see log_phi).
    """
    if not gamma_m > 0.0:
        raise ValueError(f"gamma_m must be positive, got {gamma_m}")
    if not etaK > 0.0:
        raise ValueError(f"etaK must be positive, got {etaK}")
    return log_phi(etaK * gamma_m * gamma_m, gamma_m * a_m) / gamma_m


@dataclass(frozen=True)
class GfState:
    """Margin-space state of an exact local-gradient-flow run with n=1 clients.

    gammas[m] is the norm of client m's folded sample, gram the M x M Gram
    matrix of the unit vectors u_m along the samples, a[m] the projection of
    the current average iterate onto u_m, rho[m] the surrogate loss, and
    lyapunov = max(rho).
    """

    gammas: np.ndarray
    gram: np.ndarray
    a: np.ndarray
    rho: np.ndarray
    lyapunov: float


def make_gf_state(gammas, directions, etaK, a=None) -> GfState:
    """Assemble a GfState, computing the Gram matrix of the unit vectors
    ``directions`` and the surrogates at etaK (which refuse a gamma that is not > 0)."""
    gammas = np.asarray(gammas, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    M = gammas.shape[0]
    if directions.shape[0] != M:
        raise ValueError("gammas and directions disagree on the client count")
    gram = directions @ directions.T
    if a is None:
        a = np.zeros(M)
    a = np.asarray(a, dtype=np.float64)
    rho = np.array([surrogate_loss(g, etaK, ai) for g, ai in zip(gammas, a)])
    return GfState(
        gammas=gammas,
        gram=gram,
        a=a,
        rho=rho,
        lyapunov=float(rho.max()),
    )


def gf_round(state: GfState, etaK: float) -> GfState:
    """One averaging round of exact local gradient flow in margin space.

    The projections advance by (1/M) * G @ rho where rho are the surrogate
    losses at the current state; surrogates and the Lyapunov value are then
    recomputed. Valid for any number of clients with one sample each.
    """
    gammas = state.gammas.tolist()
    rho = [surrogate_loss(g, etaK, ai) for g, ai in zip(gammas, state.a.tolist())]
    a_next = state.a + (state.gram @ rho) / len(gammas)
    rho_next = np.array(
        [surrogate_loss(g, etaK, ai) for g, ai in zip(gammas, a_next.tolist())]
    )
    return GfState(state.gammas, state.gram, a_next, rho_next, float(rho_next.max()))


@dataclass(frozen=True)
class TheoryConstants:
    """Rate constants and envelope evaluators for two-client exact flow runs.

    L0 and H0 are the max resp. min over clients of log(1 + etaK*gamma^2)/gamma.
    tau is the main transition time; tau0/tau1 belong to the variant envelope
    with its warm-in threshold; nu is the per-two-rounds contraction constant
    used by the variant form. Any of tau, tau0, tau1 may be +inf when the
    geometry makes the closed-form constants overflow, in which case the
    corresponding envelope is never applicable.
    """

    L0: float
    H0: float
    nu: float
    tau: float
    c: float
    gamma_min: float
    gamma_max: float
    etaK: float
    tau0: float
    tau1: float

    def envelope(self, r: float, variant: str = "main") -> float:
        """Loss bound at round r; r must exceed the variant's threshold.

        "main": 32*(1+log(1+etaK))^2 / ((1+c)*gamma_min^4*etaK*(r - tau)),
        valid for r > tau. "warm": 64*(L0+1)^2 / ((1+c)*gamma_min^2*etaK*
        (r - tau0)), valid for r >= tau1.
        """
        if variant == "main":
            if not r > self.tau:
                raise ValueError(f"round {r} not past threshold tau={self.tau}")
            num = 32.0 * (1.0 + math.log1p(self.etaK)) ** 2
            return num / ((1.0 + self.c) * self.gamma_min**4 * self.etaK * (r - self.tau))
        if variant == "warm":
            if not (r >= self.tau1 and r > self.tau0):
                raise ValueError(f"round {r} not past threshold tau1={self.tau1}")
            num = 64.0 * (self.L0 + 1.0) ** 2
            return num / ((1.0 + self.c) * self.gamma_min**2 * self.etaK * (r - self.tau0))
        raise ValueError(f"unknown envelope variant {variant!r}")


def theory_constants(state: GfState, etaK: float) -> TheoryConstants:
    """Rate constants for a two-client, one-sample-per-client flow run.

    Exponentials that would overflow are mapped to +inf transition times, which
    downstream envelope checks treat as "never applicable". Antipodal clients,
    and an etaK*gamma^2 that underflows to 0, raise DegenerateGeometryError.
    """
    if len(state.gammas) != 2:
        raise ValueError("theory constants are defined for exactly two clients")
    c = float(state.gram[0, 1])
    if c <= -1.0:
        raise DegenerateGeometryError(f"antipodal client directions (c={c})")
    if etaK <= 0.0:
        raise ValueError(f"etaK must be positive, got {etaK}")
    g1, g2 = float(state.gammas[0]), float(state.gammas[1])
    gmin, gmax = min(g1, g2), max(g1, g2)
    vals = [math.log1p(etaK * g * g) / g for g in (g1, g2)]
    L0, H0 = max(vals), min(vals)
    if H0 == 0.0:
        raise DegenerateGeometryError(f"etaK*gamma^2 underflows to 0 (gamma_min={gmin})")
    lead = 16.0 * (L0 + 1.0) ** 2 / ((1.0 + c) * gmin)

    # tau's first term is (1/H0 - 1/L0) * (L0/H0)^p, evaluated in log space.
    gap = 1.0 / H0 - 1.0 / L0
    p = 3.0 * (L0 + 1.0) ** 2 * (1.0 - c) * gmax / ((1.0 + c) * gmin)
    if gap > 0.0:
        log_term = math.log(gap) + p * math.log(L0 / H0)
        first = math.exp(log_term) if log_term < 709.0 else math.inf
    else:
        first = 0.0
    tau = lead * (first + 4.0 * gmax + 2.0 / H0)

    # Floor on the projections, and the transition times of the variant form.
    a_floor = (
        -3.0 * (1.0 - c) * (L0 + 1.0) ** 2 / ((1.0 + c) * gmin) * math.log(L0 / H0)
        if L0 > H0
        else 0.0
    )
    exp_arg = -gmax * a_floor
    if exp_arg < 709.0:
        nu0 = (1.0 + c) * gmin / (4.0 * (L0 + 1.0) ** 2 * (1.0 + math.exp(exp_arg)))
        tau0 = 2.0 / nu0 * gap
    else:
        tau0 = math.inf
    nu = (1.0 + c) * gmin / (16.0 * (L0 + 1.0) ** 2)
    tau1 = tau0 + 32.0 * (L0 + 1.0) ** 2 / ((1.0 + c) * gmin) * (2.0 * gmax + 1.0 / H0)

    return TheoryConstants(
        L0=L0,
        H0=H0,
        nu=nu,
        tau=tau,
        c=c,
        gamma_min=gmin,
        gamma_max=gmax,
        etaK=etaK,
        tau0=tau0,
        tau1=tau1,
    )
