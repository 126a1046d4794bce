"""Per-layer metrics: their declarations and their computation from spans.

The layers are localgd's modules. ``LAYER_METRICS`` records, for each metric,
the end-to-end metric and workload a change to that layer should move; later
performance claims cite these names. Rates of a layer that made no calls in a
workload read 0 (for example ``kernels.*`` on ``hetero_sweep``).
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

# name -> (unit, better, moves); moves is "<end-to-end metric> on <workload>".
LAYER_METRICS = {
    "kernels.local_gd_margin.ns_per_step": ("ns", "lower", "rounds_per_s on warmup_margin"),
    "kernels.local_gd_margin.busy_share": ("ratio", "lower", "rounds_per_s on warmup_margin"),
    "kernels.local_gd_margin.steps": ("count", "higher", "rounds_per_s on warmup_margin"),
    "kernels.self_s": ("s", "lower", "wall_s on warmup_margin"),
    "losses.ell_prime.calls_per_round": ("count", "lower", "wall_s on hetero_sweep and flow_lyapunov"),
    "losses.objective.calls_per_round": ("count", "lower", "wall_s on hetero_sweep and flow_lyapunov"),
    "losses.objective.us_per_call": ("us", "lower", "wall_s on hetero_sweep and flow_lyapunov"),
    "losses.min_margin.us_per_call": ("us", "lower", "wall_s on hetero_sweep and flow_lyapunov"),
    "losses.self_s": ("s", "lower", "wall_s on hetero_sweep and flow_lyapunov"),
    "optim.us_per_round": ("us", "lower", "wall_s on hetero_sweep"),
    "optim.client_pass_s": ("s", "lower", "wall_s on hetero_sweep"),
    "optim.trace_build_s": ("s", "lower", "wall_s on hetero_sweep"),
    "optim.traces": ("count", "higher", "wall_s on hetero_sweep"),
    "optim.self_s": ("s", "lower", "wall_s on hetero_sweep"),
    "specialfn.log_phi.us_per_call": ("us", "lower", "wall_s on flow_lyapunov"),
    "specialfn.gf_round.us_per_call": ("us", "lower", "wall_s on flow_lyapunov"),
    "specialfn.surrogate_loss.calls_per_round": ("count", "lower", "wall_s on flow_lyapunov"),
    "specialfn.surrogate_loss.useful_ratio": ("ratio", "higher", "wall_s on flow_lyapunov"),
    "specialfn.self_s": ("s", "lower", "wall_s on flow_lyapunov"),
    "data.load_dataset.s": ("s", "lower", "wall_s on hetero_sweep"),
    "data.load_dataset.calls": ("count", "lower", "wall_s on hetero_sweep"),
    "data.partition_heterogeneous.s": ("s", "lower", "setup_s on every workload"),
    "data.compute_margin.s": ("s", "lower", "setup_s on every workload"),
    "data.save_dataset.s": ("s", "lower", "setup_s on every workload"),
    "data.self_s": ("s", "lower", "wall_s on hetero_sweep"),
    "diagnostics.check_run.s": ("s", "lower", "wall_s on hetero_sweep"),
    "diagnostics.check_run.instances": ("count", "higher", "wall_s on hetero_sweep"),
    "diagnostics.self_s": ("s", "lower", "wall_s on hetero_sweep"),
    "cli.self_s": ("s", "lower", "wall_s on hetero_sweep"),
    "cli.artifact_bytes": ("bytes", "lower", "wall_s on hetero_sweep"),
    "bench.self_s": ("s", "lower", "none; traced wall time outside every span"),
    "trace.wall_s": ("s", "lower", "none; traced wall_s of the median traced iteration"),
    "trace.overhead_s": ("s", "lower", "none; traced minus untraced wall_s"),
    "optim.us_per_round.numpy": ("us", "lower", "wall_s on hetero_sweep"),
    "optim.us_per_round.numpy_untracked": ("us", "lower", "wall_s on hetero_sweep"),
    "optim.us_per_round.margin": ("us", "lower", "rounds_per_s on warmup_margin"),
    "optim.us_per_round.exact_flow": ("us", "lower", "wall_s on flow_lyapunov"),
}

MODULES = ("cli", "optim", "kernels", "losses", "specialfn", "data", "diagnostics")
RUNNERS = frozenset({"optim.run_local_gd", "optim.run_two_stage", "optim.run_local_gf"})


def _layer(name):
    return name.split(".", 1)[0].lstrip("_")


def _div(num, den):
    return num / den if den else 0.0


def summarize(names, spans):
    """Aggregate one traced iteration: per-name calls and times, per-layer self
    times, and the runner-level quantities the optim metrics need (all in ns)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    work = defaultdict(int)
    layer_self = dict.fromkeys(MODULES, 0)
    roots = runner_ns = runner_rounds = client_pass = trace_build = 0
    surrogate_in_round = 0
    for (idx, start, end, parent, _run, count), own in zip(spans, selfs):
        name = names[idx]
        dur = end - start
        calls[name] += 1
        total[name] += dur
        work[name] += count
        layer_self[_layer(name)] = layer_self.get(_layer(name), 0) + own
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        if parent < 0:
            roots += dur
        if name in RUNNERS and parent_name not in RUNNERS:
            runner_ns += dur
            runner_rounds += count
        if parent_name in RUNNERS:
            if name == "losses.ell_prime":
                client_pass += dur
            elif name in ("losses.objective", "losses.min_margin"):
                trace_build += dur
        if name == "specialfn.surrogate_loss" and parent_name == "specialfn.gf_round":
            surrogate_in_round += 1
    return {
        "calls": dict(calls), "total": dict(total), "work": dict(work),
        "layer_self": layer_self, "roots": roots, "runner_ns": runner_ns,
        "runner_rounds": runner_rounds, "client_pass": client_pass,
        "trace_build": trace_build, "surrogate_in_round": surrogate_in_round,
    }


def workload_metrics(s, wall_ns, clients, traces, artifact_bytes, check_instances):
    """Per-layer metrics of one traced workload iteration (``s`` from summarize).

    ``clients``, ``traces``, ``artifact_bytes`` and ``check_instances`` are
    read from the iteration's outputs rather than from spans.
    """
    calls, total, work = s["calls"], s["total"], s["work"]
    rounds = s["runner_rounds"]
    kernel = "_kernels.local_gd_margin"
    gf_rounds = calls.get("specialfn.gf_round", 0)

    def us_per_call(name):
        return _div(total.get(name, 0), calls.get(name, 0)) / 1e3

    out = {
        "kernels.local_gd_margin.ns_per_step": _div(total.get(kernel, 0), work.get(kernel, 0)),
        "kernels.local_gd_margin.busy_share": _div(total.get(kernel, 0), wall_ns),
        "kernels.local_gd_margin.steps": work.get(kernel, 0),
        "losses.ell_prime.calls_per_round": _div(calls.get("losses.ell_prime", 0), rounds),
        "losses.objective.calls_per_round": _div(calls.get("losses.objective", 0), rounds),
        "losses.objective.us_per_call": us_per_call("losses.objective"),
        "losses.min_margin.us_per_call": us_per_call("losses.min_margin"),
        "optim.us_per_round": _div(s["runner_ns"], rounds) / 1e3,
        "optim.client_pass_s": s["client_pass"] / 1e9,
        "optim.trace_build_s": s["trace_build"] / 1e9,
        "optim.traces": traces,
        "specialfn.log_phi.us_per_call": us_per_call("specialfn.log_phi"),
        "specialfn.gf_round.us_per_call": us_per_call("specialfn.gf_round"),
        "specialfn.surrogate_loss.calls_per_round": _div(s["surrogate_in_round"], gf_rounds),
        "specialfn.surrogate_loss.useful_ratio": _div(clients * gf_rounds, s["surrogate_in_round"]),
        "data.load_dataset.s": total.get("data.load_dataset", 0) / 1e9,
        "data.load_dataset.calls": calls.get("data.load_dataset", 0),
        "diagnostics.check_run.s": total.get("diagnostics.check_run", 0) / 1e9,
        "diagnostics.check_run.instances": check_instances,
        "cli.artifact_bytes": artifact_bytes,
        "bench.self_s": (wall_ns - s["roots"]) / 1e9,
        "trace.wall_s": wall_ns / 1e9,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = s["layer_self"][module] / 1e9
    return out


def setup_metrics(s):
    """Set-up layer times from a traced set-up process (``s`` from summarize)."""
    total = s["total"]
    return {
        "data.partition_heterogeneous.s": total.get("data.partition_heterogeneous", 0) / 1e9,
        "data.compute_margin.s": total.get("data.compute_margin", 0) / 1e9,
        "data.save_dataset.s": total.get("data.save_dataset", 0) / 1e9,
    }


def probe_us_per_round(s):
    """Runner time per round of one traced baseline probe."""
    return _div(s["runner_ns"], s["runner_rounds"]) / 1e3
