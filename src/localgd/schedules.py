"""Stepsize policies and warmup-length rules.

After unit-norm scaling the objective is H-smooth with H = 1/4, and the three
experimental policies follow from it: "small" eta = 1/(K*H), "large"
eta = 1/H, and "two_stage" which warms up at 1/(K*H) for r0 = floor(lambda*K)
rounds before switching to 1/H. The theory_* functions give the warmup length
and first-stage stepsize under which the two-stage rate guarantee applies,
with the constants hidden by the guarantee's asymptotic notation fixed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["StepsizePolicy", "make_policy", "theory_r0", "theory_eta1"]

POLICY_KINDS = ("small", "large", "two_stage")


@dataclass(frozen=True)
class StepsizePolicy:
    """A resolved stepsize rule: either a single eta or an (eta1, eta2, r0) pair."""

    eta: float | None = None
    eta1: float | None = None
    eta2: float | None = None
    r0: int | None = None


def make_policy(kind, K, H=0.25, lam=None):
    """Resolve a policy name into concrete stepsizes.

    small  -> eta = 1/(K*H)
    large  -> eta = 1/H
    two_stage -> eta1 = 1/(K*H), eta2 = 1/H, r0 = floor(lam*K) (lam required)
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not H > 0:
        raise ValueError(f"H must be positive, got {H}")
    if kind == "small":
        return StepsizePolicy(eta=1.0 / (K * H))
    if kind == "large":
        return StepsizePolicy(eta=1.0 / H)
    if kind == "two_stage":
        if lam is None:
            raise ValueError("two_stage policy requires lam")
        if not math.isfinite(lam):
            raise ValueError(f"lam must be finite, got {lam}")
        return StepsizePolicy(
            eta1=1.0 / (K * H),
            eta2=1.0 / H,
            r0=int(math.floor(lam * K)),
        )
    raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")


def _pos_log(x):
    """log clamped at zero for arguments below 1."""
    return max(0.0, math.log(x)) if x > 0 else 0.0


def theory_r0(eta2, K, M, gamma) -> int:
    """Warmup length under which the two-stage rate guarantee holds.

    Ceiling of max{2, 126*e/g4, (252*e/g4)*log^2(504*e/g4),
    (76*e^(3/4)/g52)*log(38*e^(3/4)/g52)} with e = eta2*K*M, g4 = gamma^4 and
    g52 = gamma^(5/2); the logs are clamped at 0 when their argument is < 1.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    et = eta2 * K * M
    g4 = gamma**4
    g52 = gamma**2.5
    terms = (
        2.0,
        126.0 * et / g4,
        252.0 * et / g4 * _pos_log(504.0 * et / g4) ** 2,
        76.0 * et**0.75 / g52 * _pos_log(38.0 * et**0.75 / g52),
    )
    return int(math.ceil(max(terms)))


def theory_eta1(eta2, K, M, gamma) -> float:
    """First-stage stepsize for the two-stage guarantee.

    min of 1/(4K) and eta2^(1/3) * M^(1/3) / (gamma^2 * K^(2/3)); the first
    branch keeps eta1 <= 1/(K*H) at H = 1/4.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if eta2 < 0:
        raise ValueError(f"eta2 must be nonnegative, got {eta2}")
    return min(1.0 / (4.0 * K), eta2 ** (1.0 / 3.0) * M ** (1.0 / 3.0) / (gamma**2 * K ** (2.0 / 3.0)))
