"""Numerically stable logistic loss, client/global objectives, and Hessian tools.

All data is assumed folded: every sample is a vector z with implicit label +1,
so the per-sample loss at weights w is ``ell(<w, z>)``. Reductions over clients
are always performed in ascending client order so results are bitwise
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "ell",
    "ell_prime",
    "ell_double_prime",
    "ObjectiveReport",
    "objective",
    "client_value",
    "client_gradient",
    "min_margin",
    "hessian_vector_product",
    "hessian_spectral_norm",
    "client_hessian_spectral_norm",
]


def ell(z):
    """Logistic loss log(1 + exp(-z)), overflow-free for any float64 input.

    Computed as max(-z, 0) + log1p(exp(-|z|)).
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def ell_prime(z):
    """First derivative -1/(exp(z) + 1), always in (-1, 0)."""
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))
    out = np.where(z >= 0, -t, -1.0) / (1.0 + t)
    return out if out.ndim else float(out)


def ell_double_prime(z):
    """Second derivative exp(z)/(exp(z) + 1)^2, always in (0, 1/4].

    Symmetric in z, so it is evaluated at -|z| to avoid overflow.
    """
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))
    out = t / (1.0 + t) ** 2
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ObjectiveReport:
    """Value and gradient, per-client values and gradients, and min margin at w."""

    value: float
    grad: np.ndarray
    grad_norm: float
    per_client_values: list[float]
    per_client_grads: list[np.ndarray]
    min_margin: float


def _check_dim(dataset, w, name="w"):
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (dataset.d,):
        raise ValueError(f"{name} has shape {w.shape}, expected ({dataset.d},)")
    return w


def client_value(dataset, m, w):
    """Loss of client m at w: mean of ell over its folded samples."""
    w = _check_dim(dataset, w)
    return float(np.mean(ell(dataset.clients[m] @ w)))


def client_gradient(dataset, m, w):
    """Gradient of client m's loss at w."""
    w = _check_dim(dataset, w)
    Z = dataset.clients[m]
    return (Z.T @ ell_prime(Z @ w)) / Z.shape[0]


def min_margin(dataset, w):
    """Smallest inner product <w, z> over all folded samples of all clients."""
    w = _check_dim(dataset, w)
    return float(min(np.min(Z @ w) for Z in dataset.clients))


def objective(dataset, w) -> ObjectiveReport:
    """Global loss, gradient, per-client losses and gradients, and min margin at w.

    Each client's scores ``Z @ w`` are computed once. The global objective is
    the mean over clients of the per-client mean losses; its gradient is
    accumulated client by client in ascending order.
    """
    w = _check_dim(dataset, w)
    M = len(dataset.clients)
    values, grads, margins = [], [], []
    grad = np.zeros(dataset.d)
    for Z in dataset.clients:
        scores = Z @ w
        # np.mean's and np.min's own reductions, without their wrappers
        values.append(float(np.add.reduce(ell(scores)) / Z.shape[0]))
        grads.append((Z.T @ ell_prime(scores)) / Z.shape[0])
        grad += grads[-1]
        margins.append(np.minimum.reduce(scores))
    grad /= M
    return ObjectiveReport(
        value=float(sum(values) / M),
        grad=grad,
        grad_norm=math.sqrt(grad @ grad),  # np.linalg.norm's own formula
        per_client_values=values,
        per_client_grads=grads,
        min_margin=float(min(margins)),
    )


def _hessian_operator(clients, w):
    """v -> (mean of the ``clients``' Hessians at w) @ v, with ell''(Z @ w) formed once."""
    curvatures = [ell_double_prime(Z @ w) for Z in clients]

    def matvec(v):
        out = np.zeros(len(w))
        for Z, c in zip(clients, curvatures):
            out += (Z.T @ (c * (Z @ v))) / Z.shape[0]
        return out / len(clients)

    return matvec


def hessian_vector_product(dataset, w, v):
    """Product of the global Hessian at w with a vector v, without forming it."""
    w = _check_dim(dataset, w)
    v = _check_dim(dataset, v, name="v")
    return _hessian_operator(dataset.clients, w)(v)


def _power_iteration(matvec, d, tol, max_iter):
    """Largest eigenvalue of a PSD operator with deterministic start vectors."""
    starts = [np.ones(d), None]
    for attempt, v in enumerate(starts):
        if v is None:
            v = np.zeros(d)
            v[0] = 1.0
        v = v / np.linalg.norm(v)
        lam_prev = None
        for _ in range(max_iter):
            hv = matvec(v)
            lam = float(v @ hv)
            nrm = float(np.linalg.norm(hv))
            if nrm <= 1e-300:
                if attempt + 1 < len(starts):
                    break  # start vector annihilated; retry with the next one
                return 0.0
            if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
                return lam
            lam_prev = lam
            v = hv / nrm
        else:
            raise ConvergenceError(
                f"power iteration did not converge in {max_iter} iterations",
                estimate=lam_prev,
            )


def hessian_spectral_norm(dataset, w, tol=1e-8, max_iter=10000):
    """Largest eigenvalue of the (PSD) global Hessian at w via power iteration.

    Starts from the normalized all-ones vector; raises ConvergenceError
    carrying the last estimate if the iteration cap is reached.
    """
    w = _check_dim(dataset, w)
    return _power_iteration(_hessian_operator(dataset.clients, w), dataset.d, tol, max_iter)


def client_hessian_spectral_norm(dataset, m, w, tol=1e-8, max_iter=10000):
    """Largest eigenvalue of client m's Hessian at w."""
    w = _check_dim(dataset, w)
    return _power_iteration(_hessian_operator([dataset.clients[m]], w), dataset.d, tol, max_iter)
