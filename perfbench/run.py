"""localgd benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hetero_sweep --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``hetero_sweep``: ``localgd sweep`` through ``cli.main`` on an MNIST-shaped
  heterogeneous split of a seeded pixel-like pool;
- ``warmup_margin``: ``optim.run_two_stage`` with the theory warmup on the
  margin engine;
- ``flow_lyapunov``: exact local gradient flow on random two-client
  geometries, with Lyapunov and envelope checks.

One invocation runs the set-up several times in fresh processes, then one
measuring process repeats the workload for ``--seconds`` and reports medians.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the measuring process alternates untraced and
traced iterations and reports the per-layer metrics of the median traced one.
Every iteration's outputs are checked, repeated iterations must write
byte-identical outputs, and final losses are compared with an independent
reference implementation (``oracle.py``). A failed check prints the result
with ``"correct": false`` and exits 1. Everything is written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hetero_sweep", "warmup_margin", "flow_lyapunov")
SETUP_REPEATS = 3
# every process this benchmark starts has ended by then
TOTAL_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="workload size; tiny is for the benchmark's self-tests")
    p.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    p.add_argument("--inputs", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and localgd

    return workloads


def _peak_rss_mb():
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _kernel_backend():
    """Which margin-kernel backend the package bound, judged from outside."""
    import types

    from localgd import _kernels

    core = getattr(_kernels, "_local_gd_margin_core", None)
    if core is None:
        return "unknown"
    if hasattr(core, "py_func") or type(core).__module__.startswith("numba"):
        return "numba"
    if isinstance(core, types.FunctionType):
        return "python"
    return type(core).__module__ + "." + type(core).__name__


# --------------------------------------------------------------------------
# set-up process: make the inputs from the seed and call each engine once
# --------------------------------------------------------------------------


def setup_child(args):
    wl = _import_package()
    import layers
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    inputs = wl.WORKLOADS[args.workload].make_inputs(args.seed, args.scale, args.dir)
    report = {"fingerprint": inputs["fingerprint"]}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = layers.setup_metrics(layers.summarize(tracer.names, tracer.spans))
    with open(os.path.join(args.dir, "setup.json"), "w") as f:
        json.dump(report, f)
    return 0


# --------------------------------------------------------------------------
# measuring process: repeat the workload for --seconds
# --------------------------------------------------------------------------


class Iterations:
    """Runs iterations into fresh directories and compares their outputs."""

    def __init__(self, wl, state, out_dir):
        self.wl, self.state, self.out_dir = wl, state, out_dir
        self.outcomes = []

    def run(self, tracer=None):
        out = os.path.join(self.out_dir, f"it{len(self.outcomes):03d}")
        os.makedirs(out)
        start = time.perf_counter_ns()
        raw = self.wl.run(self.state, out, tracer)
        wall_ns = time.perf_counter_ns() - start
        outcome = self.wl.verify(self.state, out, raw)
        if self.outcomes:
            # repeated iterations must write byte-identical outputs
            first = self.outcomes[0]
            for name in outcome.ops:
                if outcome.digests.get(name) != first.digests.get(name):
                    outcome.errors.append(f"{name}: output differs from the first iteration")
                    outcome.failed.add(name)
            shutil.rmtree(out)
        self.outcomes.append(outcome)
        return wall_ns, outcome

    def totals(self):
        errors = [f"iteration {k}: {e}" for k, o in enumerate(self.outcomes) for e in o.errors]
        return {"attempted": sum(len(o.ops) for o in self.outcomes),
                "failed": sum(len(o.failed) for o in self.outcomes),
                "errors": errors, "iterations": len(self.outcomes)}


def measure_child(args):
    wl_mod = _import_package()
    import oracle
    wl = wl_mod.WORKLOADS[args.workload]
    state = wl.load(wl_mod.read_inputs(args.inputs))
    its = Iterations(wl, state, args.dir)
    report = {"kernel_backend": _kernel_backend()}
    deadline = time.monotonic() + args.seconds
    if not args.trace:
        walls = []
        while not walls or time.monotonic() < deadline:
            wall_ns, outcome = its.run()
            walls.append(wall_ns / 1e9)
        report.update(walls=walls, rounds=outcome.rounds, peak_rss_mb=_peak_rss_mb())
    else:
        report["layers"], report["walls"] = _traced_measure(args, wl_mod, its, deadline)
    # the first iteration's final losses against the independent reference
    first = its.outcomes[0]
    for name in oracle.mismatches(oracle.REFERENCES[args.workload](state), first.finals):
        first.errors.append(f"{name}: final loss differs from the reference by more than "
                            f"{oracle.RTOL:g}")
        first.failed.add(name)
    report.update(its.totals())
    with open(os.path.join(args.dir, "measure.json"), "w") as f:
        json.dump(report, f)
    return 0


def _traced_measure(args, wl_mod, its, deadline):
    """Alternate untraced and traced iterations. Returns the per-layer metrics
    of the median traced iteration and the baseline probes, and the untraced
    walls."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    metrics = {}
    tracer.install()
    for label, thunk in wl_mod.run_probes(args.scale):
        tracer.clear()
        thunk()
        metrics[f"optim.us_per_round.{label}"] = layers.probe_us_per_round(
            layers.summarize(tracer.names, tracer.spans))
    tracer.uninstall()

    untraced, traced = [], []
    while not traced or time.monotonic() < deadline:
        untraced.append(its.run()[0])
        tracer.clear()
        tracer.install()
        try:
            wall_ns, outcome = its.run(tracer)
        finally:
            tracer.uninstall()
        traced.append((wall_ns, layers.summarize(tracer.names, tracer.spans), outcome,
                       list(tracer.spans)))
    traced.sort(key=lambda item: item[0])
    wall_ns, summary, outcome, spans = traced[(len(traced) - 1) // 2]
    metrics.update(layers.workload_metrics(summary, wall_ns, outcome.clients, outcome.traces,
                                           outcome.artifact_bytes, outcome.check_instances))
    metrics["trace.overhead_s"] = (wall_ns - statistics.median_low(untraced)) / 1e9
    _write_spans(os.path.join(args.dir, "spans.json.gz"), tracer.names, spans)
    return metrics, [w / 1e9 for w in untraced]


def _write_spans(path, names, spans):
    with gzip.open(path, "wt", compresslevel=1) as f:
        json.dump({"names": names,
                   "fields": ["name", "start_ns", "end_ns", "parent", "run_id", "work"],
                   "spans": spans}, f, separators=(",", ":"))


# --------------------------------------------------------------------------
# main process: set-up repetitions, then one measuring process
# --------------------------------------------------------------------------


def machine_facts():
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.machine(),
             "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in f
                                      if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import importlib.util

    import numpy as np

    facts["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    facts["numba_importable"] = importlib.util.find_spec("numba") is not None
    return facts


def _child_env(cache_dir, threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # compile caches stay inside the checkout; each set-up gets a fresh one
    env["XDG_CACHE_HOME"] = str(cache_dir)
    env["NUMBA_CACHE_DIR"] = str(Path(cache_dir) / "numba")
    env["LOCALGD_THREADS"] = str(threads)
    return env


def _descendants(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            children = [int(c) for c in f.read().split()]
    except OSError:
        return []
    return children + [d for c in children for d in _descendants(c)]


def _kill_tree(proc):
    """Kill a child and the sweep workers it started, then reap the child."""
    for pid in [*_descendants(proc.pid), proc.pid]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.communicate()


def _child(role, args, env, deadline, **paths):
    """Run one set-up or measuring process; on timeout kill it and its workers."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    for key, value in paths.items():
        cmd += [f"--{key}", str(value)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_tree(proc)
        raise RuntimeError(f"{role} process did not finish in time") from None
    except BaseException:
        _kill_tree(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n{err[-4000:]}")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.role == "setup":
        return setup_child(args)
    if args.role == "measure":
        return measure_child(args)
    if not (SRC / "localgd" / "__init__.py").is_file():
        return _fail(f"no localgd sources under {SRC}; run from the root of a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # on SIGTERM, unwind so that running children are killed and work files removed
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    nproc = len(os.sched_getaffinity(0))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _orchestrate(args, work, nproc)
    except RuntimeError as err:
        return _fail(str(err))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _orchestrate(args, work, nproc):
    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    threads = 1 if args.trace else nproc
    setups = []
    for i in range(1 if args.trace else SETUP_REPEATS):
        out = work / f"setup{i}"
        out.mkdir(parents=True)
        start = time.perf_counter()
        _child("setup", args, _child_env(out / "cache", threads), deadline, dir=out)
        setups.append((time.perf_counter() - start, json.loads((out / "setup.json").read_text())))
    measure_dir = work / "measure"
    measure_dir.mkdir()
    _child("measure", args, _child_env(work / "setup0" / "cache", threads), deadline,
           dir=measure_dir, inputs=work / "setup0")
    measured = json.loads((measure_dir / "measure.json").read_text())

    errors = list(measured["errors"])
    fingerprints = {s["fingerprint"] for _, s in setups}
    if len(fingerprints) != 1:
        errors.append(f"set-up repetitions made different inputs: {sorted(fingerprints)}")

    if args.trace:
        metrics = {**setups[0][1]["layers"], **measured["layers"]}
        results = ROOT / ".bench_work" / "results"
        results.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(measure_dir / "spans.json.gz",
                        results / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        wall = statistics.median(measured["walls"])
        metrics = {
            "setup_s": statistics.median(t for t, _ in setups),
            "wall_s": wall,
            "rounds_per_s": measured["rounds"] / wall,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    units = _units(args.trace)
    facts = machine_facts()
    facts.update(kernel_backend=measured["kernel_backend"], sweep_workers=threads,
                 fingerprint=next(iter(fingerprints)), iterations=measured["iterations"],
                 iteration_walls_s=[round(w, 4) for w in measured["walls"]],
                 workload=args.workload, seed=args.seed)
    print("facts " + json.dumps(facts, sort_keys=True))
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not errors and measured["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}


def _units(trace):
    if not trace:
        return END_TO_END_UNITS
    import layers

    return {name: unit for name, (unit, _better, _moves) in layers.LAYER_METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
