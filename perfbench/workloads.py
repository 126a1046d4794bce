"""The benchmark workloads: inputs made from a seed, one timed iteration, checks.

Each workload has three parts:

- ``make_inputs(seed, size, out)`` generates the input files from the seed
  through the package's public functions and returns the inputs record;
- ``run(state, out, tracer)`` is one timed iteration, from the first call
  into the package to the last output written;
- ``verify(state, out, raw)`` checks that iteration's outputs (untimed) and
  returns an Outcome.

The program receives only the generated files; the seed stays here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from localgd import cli, data, diagnostics, losses, optim, schedules, specialfn
from localgd.errors import LocalGDError

H = 0.25
MONOTONE_TOL = 1e-12

SIZES = {
    "full": {
        "pool": 2000, "M": 5, "n": 200, "s": 0.05, "R": 100, "K_grid": (1, 4, 16),
        "warm_K": 4, "flow_instances": 20, "flow_R": 500, "probe_R": 2000,
    },
    "tiny": {
        "pool": 300, "M": 5, "n": 20, "s": 0.05, "R": 3, "K_grid": (1, 4),
        "warm_K": 1, "flow_instances": 3, "flow_R": 20, "probe_R": 20,
    },
}


@dataclass
class Outcome:
    """What one iteration produced and which of its operations failed.

    An operation is one sweep cell, run or flow instance; ``ops`` names them,
    and ``finals``, ``digests`` and ``failed`` are keyed by those names.
    """

    ops: list
    rounds: int
    clients: int
    finals: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    failed: set = field(default_factory=set)
    traces: int = 0
    artifact_bytes: int = 0
    check_instances: int = 0


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _begin(tracer):
    if tracer is not None:
        tracer.begin_operation()


def _write_inputs(out, record):
    with open(os.path.join(out, "inputs.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return record


def read_inputs(inputs_dir):
    with open(os.path.join(inputs_dir, "inputs.json")) as f:
        record = json.load(f)
    record["dir"] = inputs_dir
    return record


# --------------------------------------------------------------------------
# hetero_sweep: the CLI sweep over K x policy on an MNIST-shaped split
# --------------------------------------------------------------------------


def pixel_pool(seed, count):
    """Seeded 10-class pool of 28x28 pixel-like images with values k/255.

    Each class has a prototype of four Gaussian blobs plus a 2x2 signature
    patch in the top rows that no other class writes to. The signature
    patches make the even/odd labelling separable for every seed: weights +1
    on even-class patches and -1 on odd-class ones separate the folded pool.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    side = 28
    yy, xx = np.mgrid[0:side, 0:side]
    signature = np.zeros((10, side, side), dtype=bool)
    for c in range(10):
        signature[c, 0:2, 4 + 2 * c: 6 + 2 * c] = True
    reserved = signature.any(axis=0).ravel()
    protos = np.zeros((10, side * side))
    for c in range(10):
        img = np.zeros((side, side))
        for _ in range(4):
            cy, cx = rng.uniform(6, 22, size=2)
            sy, sx = rng.uniform(1.5, 4.0, size=2)
            img += np.exp(-((yy - cy) ** 2 / (2 * sy * sy) + (xx - cx) ** 2 / (2 * sx * sx)))
        protos[c] = img.ravel() / img.max()
    labels = rng.integers(0, 10, size=count)
    intensity = rng.uniform(0.6, 1.0, size=(count, 1))
    noise = rng.normal(0.0, 0.15, size=(count, side * side))
    X = np.clip(protos[labels] * intensity + noise * (protos[labels] > 0.1), 0.0, 1.0)
    X[:, reserved] = 0.0
    patch = rng.uniform(0.5, 1.0, size=count)
    for i, c in enumerate(labels):
        X[i, signature[c].ravel()] = patch[i]
    X = np.round(X * 255.0) / 255.0
    return [data.RawSample(X[i], int(labels[i])) for i in range(count)]


class HeteroSweep:
    name = "hetero_sweep"
    policies = ("small", "large")
    checks = "drift,bias,stable-rate"

    @staticmethod
    def make_inputs(seed, size, out):
        sz = SIZES[size]
        raw = pixel_pool(seed, sz["pool"])
        spec = data.PartitionSpec(n_total=sz["M"] * sz["n"], M=sz["M"], n_per_client=sz["n"],
                                  similarity_s=sz["s"], seed=seed)
        ds = data.partition_heterogeneous(raw, spec)
        data.compute_margin(ds)
        data.save_dataset(ds, os.path.join(out, "dataset.json"),
                          extra={"source": {"kind": "pixel-pool", "pool": sz["pool"]}, "seed": seed})
        optim.run_local_gd(ds, optim.RunConfig(R=1, K=1, eta=1.0))
        return _write_inputs(out, {
            "workload": HeteroSweep.name, "dataset": "dataset.json", "fingerprint": ds.fingerprint(),
            "R": sz["R"], "K_grid": list(sz["K_grid"]), "M": ds.M,
        })

    @staticmethod
    def load(inputs):
        return dict(inputs, path=os.path.join(inputs["dir"], inputs["dataset"]))

    @staticmethod
    def run(state, out, tracer=None):
        argv = ["sweep", "--dataset", state["path"], "--optimizer", "local-gd",
                "--K-grid", ",".join(map(str, state["K_grid"])),
                "--policy-grid", ",".join(HeteroSweep.policies), "--R", str(state["R"]),
                "--checks", HeteroSweep.checks, "--emit", "csv,json", "--out-dir", out]
        return cli.main(argv)

    @staticmethod
    def verify(state, out, code):
        names = [f"cell_K{K}_{p}" for K in state["K_grid"] for p in HeteroSweep.policies]
        res = Outcome(ops=names, rounds=len(names) * state["R"], clients=state["M"])
        if code != 0:
            res.errors.append(f"sweep exited {code}")
        try:
            with open(os.path.join(out, "index.json")) as f:
                index = {c["name"]: c for c in json.load(f)["cells"]}
        except (OSError, ValueError, KeyError) as err:
            res.errors.append(f"index.json unreadable: {err}")
            res.failed.update(names)
            return res
        for name in names:
            cell = index.get(name)
            if cell is None or cell.get("exit") != 0:
                res.errors.append(f"{name}: exit {None if cell is None else cell.get('exit')}")
                res.failed.add(name)
                continue
            summary_path = os.path.join(out, cell["summary"])
            csv_path = os.path.join(out, cell["csv"])
            with open(summary_path) as f:
                summary = json.load(f)
            bad = [c["name"] for c in summary["checks"] if not c["passed"] and not c["informational"]]
            if summary["result"]["diverged"] or bad or not summary["checks"]:
                res.errors.append(f"{name}: diverged={summary['result']['diverged']} failed checks={bad}")
                res.failed.add(name)
            res.finals[name] = summary["result"]["final_loss"]
            res.digests[name] = _sha(csv_path) + _sha(summary_path)
            res.traces += len(summary["traces"])
            res.check_instances += sum(c["instances_checked"] for c in summary["checks"])
        res.artifact_bytes = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        return res


# --------------------------------------------------------------------------
# warmup_margin: theory-warmup two-stage local GD on the margin engine
# --------------------------------------------------------------------------


class WarmupMargin:
    name = "warmup_margin"
    eta2 = 1.0
    stage2_rounds = 200

    @staticmethod
    def make_inputs(seed, size, out):
        # criterion 4's geometry (delta=10, g=1) with delta drawn around 10, so
        # every seed gives its own dataset at nearly the same warmup length
        rng = np.random.Generator(np.random.PCG64(seed))
        delta = float(rng.uniform(9.0, 11.0))
        ds = data.gen_synthetic(data.SyntheticSpec(delta=delta, g=1.0))
        data.compute_margin(ds)
        data.save_dataset(ds, os.path.join(out, "dataset.json"),
                          extra={"source": {"kind": "synthetic", "delta": delta, "g": 1.0}})
        optim.run_local_gd(ds, optim.RunConfig(R=1, K=1, eta=1.0, engine="margin"))
        return _write_inputs(out, {
            "workload": WarmupMargin.name, "dataset": "dataset.json",
            "fingerprint": ds.fingerprint(), "K": SIZES[size]["warm_K"],
        })

    @staticmethod
    def load(inputs):
        ds = data.load_dataset(os.path.join(inputs["dir"], inputs["dataset"]))
        gamma = ds.margin[0]
        K, eta2 = inputs["K"], WarmupMargin.eta2
        r0 = schedules.theory_r0(eta2, K, ds.M, gamma)
        return dict(inputs, ds=ds, gamma=gamma, r0=r0, R=r0 + WarmupMargin.stage2_rounds,
                    eta1=schedules.theory_eta1(eta2, K, ds.M, gamma))

    @staticmethod
    def run(state, out, tracer=None):
        ds, K, r0, R = state["ds"], state["K"], state["r0"], state["R"]
        cfg = optim.RunConfig(R=R, K=K, eta1=state["eta1"], eta2=WarmupMargin.eta2, r0=r0,
                              engine="margin", trace_every=max(1, r0 // 4))
        _begin(tracer)
        try:
            res = optim.run_two_stage(ds, cfg)
        except LocalGDError as err:
            return {"error": str(err)}
        final = losses.objective(ds, res.final_weights).value
        bound = diagnostics.envelope_two_stage(WarmupMargin.eta2, state["gamma"], K, R, r0)
        lines = ["r,stage,F"] + [f"{t.r},{t.stage},{t.global_loss:.17g}" for t in res.traces]
        lines.append(f"# final={final:.17g} bound={bound:.17g}")
        with open(os.path.join(out, "warmup.csv"), "w") as f:
            f.write("\n".join(lines) + "\n")
        return {"final": final, "bound": bound, "traces": len(res.traces)}

    @staticmethod
    def verify(state, out, raw):
        res = Outcome(ops=["run"], rounds=state["R"], clients=2)
        if "error" in raw:
            res.errors.append(f"two-stage run failed: {raw['error']}")
            res.failed.add("run")
            return res
        if not (math.isfinite(raw["final"]) and raw["final"] <= raw["bound"]):
            res.errors.append(f"final loss {raw['final']!r} above envelope {raw['bound']!r}")
            res.failed.add("run")
        res.finals["run"] = raw["final"]
        res.traces = raw["traces"]
        path = os.path.join(out, "warmup.csv")
        res.digests["run"] = _sha(path)
        res.artifact_bytes = os.path.getsize(path)
        return res


# --------------------------------------------------------------------------
# flow_lyapunov: exact local gradient flow on random two-client geometries
# --------------------------------------------------------------------------


def _flow_geometry(ds):
    points = np.array([Z[0] for Z in ds.clients])
    gammas = np.linalg.norm(points, axis=1)
    return gammas, points / gammas[:, None]


class FlowLyapunov:
    name = "flow_lyapunov"

    @staticmethod
    def make_inputs(seed, size, out):
        # criterion 8's distribution of geometries and flow stepsizes
        sz = SIZES[size]
        rng = np.random.Generator(np.random.PCG64(seed))
        instances, prints = [], []
        for i in range(sz["flow_instances"]):
            g1, g2 = rng.uniform(0.1, 1.0, size=2)
            c = float(rng.uniform(-0.99, 0.99))
            etaK = float(rng.uniform(0.5, 8.0))
            u1 = np.array([1.0, 0.0])
            u2 = np.array([c, math.sqrt(1.0 - c * c)])
            ds = data.FederatedDataset(clients=[np.array([g1 * u1]), np.array([g2 * u2])], d=2)
            data.compute_margin(ds)
            name = f"flow_{i:03d}.json"
            data.save_dataset(ds, os.path.join(out, name), extra={"source": {"kind": "two-client"}})
            instances.append({"dataset": name, "etaK": etaK})
            prints.append((ds.fingerprint(), etaK.hex()))
            if i == 0:
                optim.run_local_gf(ds, optim.RunConfig(R=1, K=1, eta=etaK, gf_method="exact"))
        return _write_inputs(out, {
            "workload": FlowLyapunov.name, "instances": instances, "R": sz["flow_R"],
            "fingerprint": hashlib.sha256(repr(prints).encode()).hexdigest(),
        })

    @staticmethod
    def load(inputs):
        loaded = [(data.load_dataset(os.path.join(inputs["dir"], inst["dataset"])), inst["etaK"])
                  for inst in inputs["instances"]]
        return dict(inputs, loaded=loaded)

    @staticmethod
    def run(state, out, tracer=None):
        R = state["R"]
        rows, results = ["instance,r,F,L,env_main,env_warm"], []
        for i, (ds, etaK) in enumerate(state["loaded"]):
            _begin(tracer)
            try:
                res = optim.run_local_gf(ds, optim.RunConfig(R=R, K=1, eta=etaK, gf_method="exact"))
            except LocalGDError as err:
                results.append({"error": str(err)})
                continue
            report = diagnostics.check_run(res, ds, checks=["lyapunov"])[0]
            gammas, U = _flow_geometry(ds)
            tc = specialfn.theory_constants(specialfn.make_gf_state(gammas, U, etaK), etaK)
            for t in res.traces:
                env_main = tc.envelope(t.r, "main") if math.isfinite(tc.tau) and t.r > tc.tau else None
                env_warm = (tc.envelope(t.r, "warm")
                            if math.isfinite(tc.tau1) and t.r >= tc.tau1 and t.r > tc.tau0 else None)
                rows.append(",".join([str(i), str(t.r), f"{t.global_loss:.17g}", f"{t.lyapunov:.17g}",
                                      "" if env_main is None else f"{env_main:.17g}",
                                      "" if env_warm is None else f"{env_warm:.17g}"]))
            results.append({"traces": res.traces, "check_passed": report.passed,
                            "check_instances": report.instances_checked})
        with open(os.path.join(out, "flow.csv"), "w") as f:
            f.write("\n".join(rows) + "\n")
        return results

    @staticmethod
    def verify(state, out, results):
        names = [f"instance_{i:03d}" for i in range(len(state["loaded"]))]
        res = Outcome(ops=names, rounds=len(names) * state["R"], clients=2)
        path = os.path.join(out, "flow.csv")
        envelopes, rows = {}, {}
        with open(path) as f:
            next(f)
            for line in f:
                i, r, _F, _L, env_main, env_warm = line.rstrip("\n").split(",")
                envelopes[(int(i), int(r))] = [float(v) for v in (env_main, env_warm) if v]
                rows.setdefault(int(i), []).append(line)
        for i, (name, item) in enumerate(zip(names, results)):
            if "error" in item:
                res.errors.append(f"{name}: {item['error']}")
                res.failed.add(name)
                continue
            traces = item["traces"]
            lyap = [t.lyapunov for t in traces]
            rises = sum(b > a + MONOTONE_TOL for a, b in zip(lyap, lyap[1:]))
            over = sum(t.global_loss > env for t in traces for env in envelopes.get((i, t.r), []))
            if rises or over or not item["check_passed"] or len(traces) != state["R"] + 1:
                res.errors.append(f"{name}: lyapunov rises {rises}, envelope violations {over}, "
                                  f"check passed {item['check_passed']}")
                res.failed.add(name)
            res.finals[name] = traces[-1].global_loss
            res.digests[name] = hashlib.sha256("".join(rows.get(i, [])).encode()).hexdigest()
            res.traces += len(traces)
            res.check_instances += item["check_instances"]
        res.artifact_bytes = os.path.getsize(path)
        return res


WORKLOADS = {w.name: w for w in (HeteroSweep, WarmupMargin, FlowLyapunov)}


# --------------------------------------------------------------------------
# baseline probes: the four fixed runs of the ROADMAP baseline table
# --------------------------------------------------------------------------


def run_probes(size):
    """Yield (label, thunk) for the synthetic delta=0.1, g=5, K=16 baseline runs."""
    ds = data.gen_synthetic(data.SyntheticSpec(delta=0.1, g=5.0))
    R, K = SIZES[size]["probe_R"], 16
    eta = schedules.make_policy("small", K=K, H=H).eta
    yield "numpy", lambda: optim.run_local_gd(ds, optim.RunConfig(R=R, K=K, eta=eta))
    yield "numpy_untracked", lambda: optim.run_local_gd(
        ds, optim.RunConfig(R=R, K=K, eta=eta, track_bounds=False))
    yield "margin", lambda: optim.run_local_gd(ds, optim.RunConfig(R=R, K=K, eta=eta, engine="margin"))
    yield "exact_flow", lambda: optim.run_local_gf(
        ds, optim.RunConfig(R=R, K=K, eta=eta, gf_method="exact"))
