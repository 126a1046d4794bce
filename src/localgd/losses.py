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

__all__ = [
    "ell",
    "ell_prime",
    "ell_double_prime",
    "ObjectiveReport",
    "objective",
    "client_value",
    "client_gradient",
    "min_margin",
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


def _check_dim(dataset, w):
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (dataset.d,):
        raise ValueError(f"w has shape {w.shape}, expected ({dataset.d},)")
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


def _hessian_rows(clients, w):
    """The matrix A whose row i is sqrt(ell''(z_i . w) / (M n_m)) z_i, over the rows of all
    M ``clients``, so that the mean of their Hessians at w is A^T A."""
    return np.concatenate([Z * np.sqrt(ell_double_prime(Z @ w) / (len(clients) * len(Z)))[:, None]
                           for Z in clients])


def hessian_spectral_norm(dataset, w):
    """Largest eigenvalue of the (PSD) global Hessian A^T A at w, as the square of the largest
    singular value of the N x d matrix A from a dense SVD: exact to rounding, at O(N d min(N, d))
    cost, small on the checks' datasets but about 0.2 s per call on a 1000 x 784 pixel split
    (one x86-64 core)."""
    w = _check_dim(dataset, w)
    return float(np.linalg.norm(_hessian_rows(dataset.clients, w), 2)) ** 2


def client_hessian_spectral_norm(dataset, m, w):
    """Largest eigenvalue of client m's Hessian at w, computed as hessian_spectral_norm's."""
    w = _check_dim(dataset, w)
    return float(np.linalg.norm(_hessian_rows([dataset.clients[m]], w), 2)) ** 2
