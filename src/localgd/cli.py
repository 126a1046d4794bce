"""Command-line front end: dataset generation, runs, sweeps, checks, envelopes.

Exit codes: 0 success, 1 usage or invalid input, 2 divergence (see optim's rule;
partial traces are still written), 3 check violation, 4 I/O or file-format
failure. A sweep cell records the code `run` would return with the same flags.

A sweep reads, verifies and fingerprints its dataset once, in the parent
process, and hands every cell the parsed dataset and its fingerprint. The
environment variable LOCALGD_THREADS caps sweep parallelism (default: machine
cores; never more workers than cells); a value that is not an integer >= 1 is
a usage error. Every cell is internally deterministic either way.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, diagnostics, optim, schedules, specialfn
from .data import (
    PartitionSpec,
    SyntheticSpec,
    compute_margin,
    gen_synthetic,
    load_dataset,
    load_mnist_idx,
    partition_heterogeneous,
    save_dataset,
    write_json,
)
from .errors import DivergenceError, IdxFormatError
from .optim import RoundTrace, RunConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGENCE = 2
EXIT_VIOLATION = 3
EXIT_IO = 4

OPTIMIZERS = ("local-gd", "two-stage", "local-gf")
POLICIES = ("small", "large", "two-stage", "explicit")


class UsageError(Exception):
    pass


# Exception -> exit code for `main` and for each sweep cell; the first matching
# entry wins (JSONDecodeError and IdxFormatError are ValueErrors too).
EXIT_CODES = {
    UsageError: EXIT_USAGE,
    DivergenceError: EXIT_DIVERGENCE,
    OSError: EXIT_IO,
    json.JSONDecodeError: EXIT_IO,
    IdxFormatError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _exit_code(err):
    return next(code for cls, code in EXIT_CODES.items() if isinstance(err, cls))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _comma_list(noun, convert=str, choices=None, empty_is_none=True):
    """argparse type of a comma-separated flag: a tuple of entries through ``convert`` (None
    if empty and ``empty_is_none``); with ``choices``, blanks are dropped and the rest checked."""
    def parse(text):
        if empty_is_none and not text:
            return None
        try:
            entries = tuple(e for e in map(convert, text.split(",")) if choices is None or e)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}") from None
        unknown = [e for e in entries if choices is not None and e not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {noun}(s) {', '.join(unknown)}; available: {', '.join(choices)}")
        return entries
    return parse


_check_names = _comma_list("check", str.strip, diagnostics.RUN_CHECKS)


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def _csv_meta_line(config, fingerprint, seed):
    """One comment line carrying provenance; parsers skip lines starting '#'."""
    echo = {k: v for k, v in asdict(config).items() if v is not None}
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return f"# localgd {__version__} seed={seed} dataset={fingerprint} config={blob}"


def _write_csv(path, traces, M, meta=None):
    cols = ["r", "stage", "eta", "F"]
    cols += [f"F_{m + 1}" for m in range(M)]
    cols += ["grad_norm", "w_norm", "min_margin", "L"]
    cols += [f"rho_{m + 1}" for m in range(M)]
    cols += [f"a_{m + 1}" for m in range(M)]
    lines = ([meta] if meta else []) + [",".join(cols)]
    for t in traces:
        row = [str(t.r), str(t.stage), _fmt(t.eta_used), _fmt(t.global_loss)]
        row += [_fmt(v) for v in t.client_losses]
        row += [_fmt(t.grad_norm), _fmt(t.iterate_norm), _fmt(t.min_margin), _fmt(t.lyapunov)]
        row += [_fmt(v) for v in (t.rho if t.rho is not None else [None] * M)]
        row += [_fmt(v) for v in (t.a if t.a is not None else [None] * M)]
        lines.append(",".join(row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _add_run_flags(p, command, required=True):
    """`run`'s or `sweep`'s flags; required=False gives the --config finder the same ones."""
    p.add_argument("--dataset", required=required, help="dataset JSON file")
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="local-gd")
    p.add_argument("--policy", choices=POLICIES, default="explicit")
    p.add_argument("--R", type=int, required=required)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--H", type=float, default=0.25)
    p.add_argument("--eta", type=float)
    p.add_argument("--eta1", type=float)
    p.add_argument("--eta2", type=float)
    p.add_argument("--r0", type=int)
    p.add_argument("--lambda", dest="lam", type=float, help="two-stage r0 = floor(lambda*K)")
    p.add_argument("--averaging", choices=optim.AVERAGING_MODES, default="final_iterate")
    p.add_argument("--gf-substeps", type=int, default=1000)
    p.add_argument("--gf-method", choices=optim.GF_METHODS, default="auto")
    p.add_argument("--engine", choices=optim.ENGINES, default="numpy")
    p.add_argument("--trace-every", type=int, default=1)
    p.add_argument("--w0", type=_comma_list("number", float),
                   help="comma-separated initial weights (default: zeros)")
    p.add_argument("--seed", type=int)
    p.add_argument("--checks", type=_check_names,
                   help="comma-separated check names to run afterwards")
    p.add_argument("--emit", type=_comma_list("artifact", str.strip, ("csv", "json"), empty_is_none=False),
                   default="csv,json", help="artifacts to write (csv,json)")
    p.add_argument("--out-dir", required=required)
    p.add_argument("--name", default="run", help="basename for output files")
    p.add_argument("--config", help="JSON file with defaults for these flags")
    if command == "sweep":
        p.add_argument("--K-grid", type=_comma_list("integer", int, empty_is_none=False),
                       help="comma-separated K values (overrides --K)")
        p.add_argument("--policy-grid", type=_comma_list("policy", str.strip, POLICIES),
                       help="comma-separated policies (overrides --policy)")


def build_parser():
    parser = _Parser(prog="localgd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"localgd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a dataset file")
    gen_sub = gen.add_subparsers(dest="source", required=True)
    g_syn = gen_sub.add_parser("synthetic")
    g_syn.add_argument("--delta", type=float, required=True)
    g_syn.add_argument("--g", type=float, required=True)
    g_syn.add_argument("--out", required=True)
    g_mn = gen_sub.add_parser("mnist")
    g_mn.add_argument("--images", required=True, help="IDX image file")
    g_mn.add_argument("--labels", required=True, help="IDX label file")
    g_mn.add_argument("--M", type=int, default=5)
    g_mn.add_argument("--n", type=int, default=200, help="samples per client")
    g_mn.add_argument("--s", type=float, default=0.05, help="uniform share of each client")
    g_mn.add_argument("--seed", type=int, default=0)
    g_mn.add_argument("--out", required=True)

    _add_run_flags(sub.add_parser("run", help="run one optimizer and export traces"), "run")
    _add_run_flags(sub.add_parser("sweep", help="run a (K x policy) grid"), "sweep")

    chk = sub.add_parser("check", help="re-verify analysis checks on run artifacts")
    chk.add_argument("--run", required=True, help="summary JSON written by `run`")
    chk.add_argument("--dataset", required=True)
    chk.add_argument("--checks", type=_check_names,
                     help="comma-separated check names (default: all applicable)")
    chk.add_argument("--out", help="write the report JSON here instead of stdout")

    env = sub.add_parser("envelope", help="evaluate a closed-form rate envelope")
    env.add_argument("--kind", required=True,
                     choices=("two-stage", "baseline-global", "baseline-local", "gf"))
    env.add_argument("--gamma", type=float)
    env.add_argument("--K", type=int)
    env.add_argument("--R", type=int)
    env.add_argument("--r0", type=int)
    env.add_argument("--eta2", type=float)
    env.add_argument("--eta", type=float)
    env.add_argument("--r", type=float)
    env.add_argument("--variant", choices=("main", "warm"), default="main")
    env.add_argument("--dataset", help="dataset file (gf kind)")
    return parser


def _resolve_policy(args):
    """Map CLI policy flags onto concrete stepsizes for the chosen optimizer."""
    kind = args.policy.replace("-", "_")
    policy = schedules.make_policy(
        kind, args.K, H=args.H, lam=args.lam,
        eta=args.eta, eta1=args.eta1, eta2=args.eta2, r0=args.r0,
    )
    if args.optimizer == "two-stage":
        if policy.kind in ("small", "large"):
            raise UsageError("two-stage optimizer needs a two-stage or explicit policy")
        if policy.eta1 is None or policy.eta2 is None or policy.r0 is None:
            raise UsageError("two-stage runs need eta1, eta2 and r0 (or --policy two-stage --lambda)")
        return {"eta1": policy.eta1, "eta2": policy.eta2, "r0": policy.r0}
    if policy.eta is None:
        raise UsageError(f"optimizer {args.optimizer} needs a single stepsize policy")
    return {"eta": policy.eta}


def _run_config(args):
    stepsizes = _resolve_policy(args)
    return RunConfig(
        R=args.R,
        K=args.K,
        averaging=args.averaging,
        H=args.H,
        gf_substeps=args.gf_substeps,
        gf_method=args.gf_method,
        engine=args.engine,
        trace_every=args.trace_every,
        w0=args.w0,
        seed=args.seed,
        **stepsizes,
    )


def _flow_constants(dataset, etaK):
    """TheoryConstants of a two-client flow run, and the dict of them that is printed."""
    tc = specialfn.theory_constants(specialfn.make_gf_state(*dataset.sample_geometry(), etaK), etaK)
    return tc, {k: getattr(tc, k) for k in ("L0", "H0", "nu", "tau", "tau0", "tau1", "c")}


def _envelope_block(dataset, args, config):
    """Envelope values relevant to this run; entries are None when inapplicable."""
    out = {}
    gamma = dataset.margin[0] if dataset.margin else None
    if gamma is None:
        return out
    out["gamma"] = gamma
    if args.optimizer == "two-stage" and config.R > config.r0:
        out["two_stage_final"] = diagnostics.envelope_two_stage(
            config.eta2, gamma, config.K, config.R, config.r0
        )
    if args.optimizer == "local-gd":
        out["baseline_global"] = diagnostics.envelope_baseline("global", gamma, config.K, config.R)
        out["baseline_local"] = diagnostics.envelope_baseline("local", gamma, config.K, config.R)
    if args.optimizer == "local-gf" and dataset.M == 2 and dataset.one_sample_per_client:
        tc, out["gf_constants"] = _flow_constants(dataset, config.eta * config.K)
        if math.isfinite(tc.tau) and config.R > tc.tau:
            out["gf_final"] = tc.envelope(config.R, "main")
    return out


def _summary_doc(args, config, dataset, fingerprint, traces, diverged_at, checks):
    return {
        "artifact": {"name": "localgd", "version": __version__},
        "command": args.command,
        "config": {
            "optimizer": args.optimizer,
            "policy": args.policy,
            **{k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()},
        },
        "dataset": {
            "path": str(args.dataset),
            "fingerprint": fingerprint,
            "gamma": dataset.margin[0] if dataset.margin else None,
        },
        "seed": args.seed,
        "result": {
            "rounds_completed": traces[-1].r if traces else 0,
            "diverged": diverged_at is not None,
            "divergence_round": diverged_at,
            "final_loss": traces[-1].global_loss if traces else None,
            "final_grad_norm": traces[-1].grad_norm if traces else None,
        },
        "envelopes": _envelope_block(dataset, args, config) if diverged_at is None else {},
        "checks": [r.to_dict() for r in checks],
        "traces": [asdict(t) for t in traces],
    }


def _load_fingerprinted(path):
    dataset = load_dataset(path)
    return dataset, dataset.fingerprint()


def _cmd_run(args, loaded=None):
    """Run one optimizer; ``loaded`` is ``args.dataset`` and its fingerprint, if loaded."""
    dataset, fingerprint = loaded or _load_fingerprinted(args.dataset)
    config = _run_config(args)
    runner = {"local-gd": optim.run_local_gd, "two-stage": optim.run_two_stage,
              "local-gf": optim.run_local_gf}[args.optimizer]
    diverged_at, checks = None, []
    try:
        result = runner(dataset, config)
    except DivergenceError as err:
        diverged_at, traces = err.round_index, err.traces
    else:
        traces = result.traces
        if args.checks:
            checks = diagnostics.check_run(result, dataset, checks=args.checks)

    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, args.name)
    if "csv" in args.emit:
        meta = _csv_meta_line(config, fingerprint, args.seed)
        _write_csv(base + ".csv", traces, dataset.M, meta=meta)
    if "json" in args.emit:
        write_json(base + ".json", _summary_doc(args, config, dataset, fingerprint, traces, diverged_at, checks))
    if diverged_at is not None:
        print(f"divergence at round {diverged_at}; partial traces written", file=sys.stderr)
        return EXIT_DIVERGENCE
    if any(not r.passed and not r.informational for r in checks):
        print("check violation; see summary JSON", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# The (dataset, fingerprint) every cell of the running sweep shares: set by
# _init_sweep_worker in each pool worker, or around a serial sweep and cleared after.
_sweep_dataset = None


def _init_sweep_worker(loaded):
    global _sweep_dataset
    _sweep_dataset = loaded


def _sweep_cell(args):
    """Run one sweep cell (a `run` Namespace) on the shared dataset; return its index entry."""
    name = args.name
    try:
        code = _cmd_run(args, loaded=_sweep_dataset)
        return {"name": name, "exit": code, "csv": name + ".csv", "summary": name + ".json"}
    except tuple(EXIT_CODES) as err:
        return {"name": name, "exit": _exit_code(err), "error": str(err)}


def _sweep_workers(n_cells):
    """Sweep worker count: LOCALGD_THREADS (default: machine cores), at most n_cells."""
    raw = os.environ.get("LOCALGD_THREADS")
    if raw is None:
        return min(os.cpu_count() or 1, n_cells)
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"LOCALGD_THREADS must be an integer >= 1, got {raw!r}")
    return min(workers, n_cells)


def _cmd_sweep(args):
    ks = args.K_grid or [args.K]
    policies = args.policy_grid or [args.policy]
    cells = [
        argparse.Namespace(**{**vars(args), "command": "run", "K": K, "policy": policy,
                              "name": f"cell_K{K}_{policy.replace('-', '_')}"})
        for K in ks for policy in policies
    ]
    workers = _sweep_workers(len(cells))
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        loaded = _load_fingerprinted(args.dataset)
    except (OSError, ValueError) as err:
        results = [{"name": c.name, "exit": EXIT_IO, "error": str(err)} for c in cells]
    else:
        if workers > 1:
            # under fork the workers inherit the dataset; other start methods
            # pickle it once per worker, not once per cell
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_sweep_worker, initargs=(loaded,)
            ) as pool:
                results = list(pool.map(_sweep_cell, cells))
        else:
            _init_sweep_worker(loaded)
            try:
                results = [_sweep_cell(c) for c in cells]
            finally:
                _init_sweep_worker(None)
    index = {
        "artifact": {"name": "localgd", "version": __version__},
        "dataset": args.dataset,
        "grid": {"K": ks, "policy": policies},
        "cells": results,
    }
    write_json(os.path.join(args.out_dir, "index.json"), index)
    codes = [r["exit"] for r in results]
    return max(codes) if codes else EXIT_OK


def _cmd_gen_data(args):
    if args.source == "synthetic":
        ds = gen_synthetic(SyntheticSpec(delta=args.delta, g=args.g))
        compute_margin(ds)
        extra = {"source": {"kind": "synthetic", "delta": args.delta, "g": args.g},
                 "seed": None}
    else:
        raw = load_mnist_idx(args.images, args.labels)
        spec = PartitionSpec(n_total=args.M * args.n, M=args.M, n_per_client=args.n,
                             similarity_s=args.s, seed=args.seed)
        ds = partition_heterogeneous(raw, spec)
        compute_margin(ds)
        extra = {"source": {"kind": "mnist", "M": args.M, "n": args.n,
                            "n_total": spec.n_total, "s": args.s},
                 "seed": args.seed}
    extra["artifact"] = {"name": "localgd", "version": __version__}
    save_dataset(ds, args.out, extra=extra)
    print(f"wrote {args.out} (gamma={ds.margin[0]:.6g})")
    return EXIT_OK


def _load_run_artifacts(path):
    """The RunResult a summary file records, and its dataset's fingerprint."""
    with open(path) as f:
        doc = json.load(f)
    try:
        traces = [RoundTrace(**t) for t in doc["traces"]]
        cfg_doc = {k: v for k, v in doc["config"].items() if k not in ("optimizer", "policy")}
        config = RunConfig(**cfg_doc)
        fingerprint = doc["dataset"]["fingerprint"]
        if not isinstance(fingerprint, str):
            raise TypeError("dataset fingerprint is not a string")
    except (KeyError, TypeError, AttributeError, ValueError) as err:
        raise IdxFormatError(f"{path}: not a run summary file ({err})") from None
    return optim.RunResult(
        traces=traces,
        final_weights=np.zeros(0),
        averaged_weights=None,
        config=config,
        optimizer=doc["config"].get("optimizer", "local-gd"),
    ), fingerprint


def _cmd_check(args):
    result, run_fingerprint = _load_run_artifacts(args.run)
    dataset, fingerprint = _load_fingerprinted(args.dataset)
    if fingerprint != run_fingerprint:
        raise UsageError(f"{args.dataset} has fingerprint {fingerprint}, "
                         f"but {args.run} ran on {run_fingerprint}")
    reports = diagnostics.check_run(result, dataset, checks=args.checks)
    doc = {
        "artifact": {"name": "localgd", "version": __version__},
        "run": str(args.run),
        "dataset_fingerprint": fingerprint,
        "reports": [r.to_dict() for r in reports],
    }
    if args.out:
        write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2))
    if any(not r.passed and not r.informational for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_envelope(args):
    if args.kind == "two-stage":
        for flag in ("gamma", "K", "R", "r0", "eta2"):
            if getattr(args, flag) is None:
                raise UsageError(f"envelope --kind two-stage needs --{flag}")
        value = diagnostics.envelope_two_stage(args.eta2, args.gamma, args.K, args.R, args.r0)
        doc = {"kind": args.kind, "value": value}
    elif args.kind in ("baseline-global", "baseline-local"):
        for flag in ("gamma", "K", "R"):
            if getattr(args, flag) is None:
                raise UsageError(f"envelope --kind {args.kind} needs --{flag}")
        value = diagnostics.envelope_baseline(args.kind.split("-")[1], args.gamma, args.K, args.R)
        doc = {"kind": args.kind, "value": value}
    else:
        if args.dataset is None or args.eta is None or args.K is None or args.r is None:
            raise UsageError("envelope --kind gf needs --dataset, --eta, --K and --r")
        tc, constants = _flow_constants(load_dataset(args.dataset), args.eta * args.K)
        value = tc.envelope(args.r, variant=args.variant)
        doc = {"kind": args.kind, "variant": args.variant, "value": value,
               "constants": constants}
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _apply_config_file(argv):
    """``argv`` with its --config entries as --flag=value tokens after the subcommand."""
    finder = _Parser(add_help=False)
    _add_run_flags(finder, argv[0], required=False)
    path = finder.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    with open(path) as f:
        entries = json.load(f)
    if not isinstance(entries, dict):
        raise UsageError("config file must hold a JSON object")
    tokens = []
    for key, value in entries.items():
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, (list, dict)) for v in items):
            raise UsageError(f"config entry {key!r} must be a number, a string or a flat list")
        if value is not None:
            tokens.append(f"--{key.replace('_', '-')}={','.join(map(str, items))}")
    # argparse keeps the last value of a flag, so the command line wins
    return [argv[0], *tokens, *argv[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and argv[0] in ("run", "sweep"):
            argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_envelope(args)
    except tuple(EXIT_CODES) as err:
        prefix = "usage error" if isinstance(err, UsageError) else "error"
        print(f"{prefix}: {err}", file=sys.stderr)
        return _exit_code(err)


if __name__ == "__main__":
    sys.exit(main())
