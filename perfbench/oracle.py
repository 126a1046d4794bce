"""Reference final losses, computed independently of the localgd package.

Each function re-derives a workload's final losses from the dataset files
with its own plain implementation: hand-written local GD loops in numpy, a
scalar margin-space two-stage recursion on Python floats, and the exact flow
round map solved by bisection instead of Newton. The benchmark compares the
program's final losses with these within the relative tolerance RTOL.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RTOL = 1e-8
H = 0.25


def _clients(path):
    with open(path) as f:
        doc = json.load(f)
    return [np.array(Z, dtype=np.float64).reshape(len(Z), doc["d"]) for Z in doc["clients"]], doc


def _loss(clients, w):
    return float(np.mean([np.mean(np.logaddexp(0.0, -(Z @ w))) for Z in clients]))


def _scalar_loss(z):
    return math.log1p(math.exp(-z)) if z > -30 else -z + math.log1p(math.exp(z))


def hetero_sweep(inputs):
    """Final loss of every (K, policy) cell: R rounds of K local GD steps."""
    clients, doc = _clients(os.path.join(inputs["dir"], inputs["dataset"]))
    out = {}
    for K in inputs["K_grid"]:
        for policy, eta in (("small", 1.0 / (K * H)), ("large", 1.0 / H)):
            w = np.zeros(doc["d"])
            for _ in range(inputs["R"]):
                finals = []
                for Z in clients:
                    v = w
                    for _ in range(K):
                        # ell'(z) = -1 / (1 + exp(z)) = -(1 - tanh(z/2)) / 2
                        v = v + eta * (Z.T @ (0.5 * (1.0 - np.tanh(0.5 * (Z @ v))))) / Z.shape[0]
                    finals.append(v)
                w = sum(finals) / len(finals)
            out[f"cell_K{K}_{policy}"] = _loss(clients, w)
    return out


def warmup_margin(state):
    """Two-stage local GD on one point per client, in margin coordinates.

    Stage 1 runs r0 rounds at eta1 and returns the uniform average of all
    client-averaged local iterates; stage 2 runs R - r0 rounds at eta2 from it.
    """
    clients, _doc = _clients(os.path.join(state["dir"], state["dataset"]))
    points = [Z[0] for Z in clients]
    gammas = [float(np.linalg.norm(p)) for p in points]
    units = [p / g for p, g in zip(points, gammas)]
    M, K = len(points), state["K"]

    def stage(w, eta, rounds, average):
        acc = np.zeros_like(w)
        for _ in range(rounds):
            step = np.zeros_like(w)
            for g, u in zip(gammas, units):
                a = float(w @ u)
                al, local_sum, c = a, 0.0, eta * g
                for _ in range(K):
                    local_sum += al
                    al += c / (1.0 + math.exp(g * al))
                if average:
                    acc += K * w + (local_sum - K * a) * u
                step += (al - a) * u
            w = w + step / M
        return acc / (M * K * rounds) if average else w

    w = np.zeros(len(points[0]))
    if state["r0"] > 0:
        w = stage(w, state["eta1"], state["r0"], True)
    w = stage(w, 1.0, state["R"] - state["r0"], False)
    return {"run": float(np.mean([_scalar_loss(g * float(w @ u)) for g, u in zip(gammas, units)]))}


def _flow_increment(b, y):
    """Root L >= 0 of y*expm1(L) + L = b, by bisection on [0, b]."""
    lo, hi = 0.0, b
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if y * math.expm1(mid) + mid < b:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 2e-16 * hi:
            break
    return 0.5 * (lo + hi)


def flow_lyapunov(inputs):
    """Final loss of every instance under the exact flow round map.

    A round moves each projection a_m by (1/M) sum_k <u_m, u_k> rho_k with
    rho_k = L_k / gamma_k, where L_k solves exp(x)*expm1(L) + L = etaK*gamma_k^2
    at x = gamma_k * a_k.
    """
    out = {}
    for i, inst in enumerate(inputs["instances"]):
        clients, _doc = _clients(os.path.join(inputs["dir"], inst["dataset"]))
        points = [Z[0] for Z in clients]
        gammas = [float(np.linalg.norm(p)) for p in points]
        units = [p / g for p, g in zip(points, gammas)]
        M, etaK = len(points), inst["etaK"]
        gram = [[float(u @ v) for v in units] for u in units]
        a = [0.0] * M
        for _ in range(inputs["R"]):
            rho = [_flow_increment(etaK * g * g, math.exp(g * am)) / g for g, am in zip(gammas, a)]
            a = [a[m] + sum(gram[m][k] * rho[k] for k in range(M)) / M for m in range(M)]
        out[f"instance_{i:03d}"] = float(np.mean([_scalar_loss(g * am) for g, am in zip(gammas, a)]))
    return out


REFERENCES = {"hetero_sweep": hetero_sweep, "warmup_margin": warmup_margin,
              "flow_lyapunov": flow_lyapunov}


def mismatches(reference, finals):
    """Names whose program value is missing or off by more than RTOL."""
    return sorted(name for name, ref in reference.items()
                  if name not in finals or not math.isclose(finals[name], ref, rel_tol=RTOL, abs_tol=0.0))
