"""Command-line front end: dataset generation, runs, sweeps, checks, envelopes.

Exit codes: 0 success, 1 usage or invalid input (an uncertified margin, or a
synthetic geometry whose margin cannot reach 1e-6), 2 divergence (see optim's
rule; partial traces are still written), 3 check violation, 4 I/O or file-format
failure (any input file json cannot read). A sweep cell records, through
EXIT_CODES, the code `run` would return with the same flags.

A sweep reads and verifies its dataset once, in the parent process, and hands
every cell the parsed dataset, whose fingerprint load_dataset recorded. The
environment variable LOCALGD_THREADS caps sweep parallelism (default: machine
cores; never more workers than cells); a value that is not an integer >= 1 is
a usage error. Every cell is internally deterministic either way.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__, diagnostics, optim, schedules
from .data import (
    PartitionSpec,
    SyntheticSpec,
    compute_margin,
    gen_synthetic,
    load_dataset,
    load_mnist_idx,
    partition_heterogeneous,
    read_json,
    save_dataset,
    write_json,
)
from .errors import ConvergenceError, DivergenceError, IdxFormatError
from .optim import RoundTrace, RunConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGENCE = 2
EXIT_VIOLATION = 3
EXIT_IO = 4

# Each optimizer and the name of its runner in optim, looked up when a run starts, so a
# wrapper put in place of an optim runner sees the call
RUNNERS = {"local-gd": "run_local_gd", "two-stage": "run_two_stage", "local-gf": "run_local_gf"}
POLICIES = (*(kind.replace("_", "-") for kind in schedules.POLICY_KINDS), "explicit")
ARTIFACT = {"name": "localgd", "version": __version__}  # every JSON artifact's header


class UsageError(Exception):
    pass


# Exception -> exit code for `main` and for each sweep cell; the first matching
# entry wins (IdxFormatError is a ValueError too).
EXIT_CODES = {
    UsageError: EXIT_USAGE,
    DivergenceError: EXIT_DIVERGENCE,
    ConvergenceError: EXIT_USAGE,
    OSError: EXIT_IO,
    IdxFormatError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _exit_code(err):
    return next(code for cls, code in EXIT_CODES.items() if isinstance(err, cls))


# Each envelope kind and the flags it needs.
ENVELOPE_FLAGS = {
    "two-stage": ("gamma", "K", "R", "r0", "eta2"),
    "baseline-global": ("gamma", "K", "R"),
    "baseline-local": ("gamma", "K", "R"),
    "gf": ("dataset", "eta", "K", "r"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _comma_list(noun, convert=str, choices=None, empty_is_none=True, repeats=False):
    """argparse type of a comma-separated flag: a tuple of entries through ``convert`` (None
    if empty and ``empty_is_none``); with ``choices``, blanks are dropped and the rest checked.
    An entry equal to an earlier one after ``convert`` is refused unless ``repeats``."""
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
        if not repeats and len(set(entries)) < len(entries):
            first = next(e for i, e in enumerate(entries) if e in entries[:i])
            raise argparse.ArgumentTypeError(f"repeated {noun} {first}")
        return entries
    return parse


_check_names = _comma_list("check", str.strip, diagnostics.RUN_CHECKS)


def _count(text):
    """argparse type of a count flag: an integer in [0, optim.COUNT_MAX]."""
    if not 0 <= (value := int(text)) <= optim.COUNT_MAX:
        raise argparse.ArgumentTypeError("must be at least 0 and at most 2^63 - 1, the largest count")
    return value


_count.__name__ = "int"  # argparse's message for text int() refuses: "invalid int value: 'x'"


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def _write_csv(path, traces, M, config, fingerprint):
    """The trace CSV after one comment line carrying provenance; parsers skip lines starting '#'."""
    echo = {k: v for k, v in asdict(config).items() if v is not None}
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    cols = ["r", "stage", "eta", "F"]
    cols += [f"F_{m + 1}" for m in range(M)]
    cols += ["grad_norm", "w_norm", "min_margin", "L"]
    cols += [f"rho_{m + 1}" for m in range(M)]
    cols += [f"a_{m + 1}" for m in range(M)]
    lines = [f"# localgd {__version__} seed={config.seed} dataset={fingerprint} config={blob}",
             ",".join(cols)]
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
    p.add_argument("--optimizer", choices=tuple(RUNNERS), default="local-gd")
    p.add_argument("--policy", choices=POLICIES, default="explicit")
    p.add_argument("--R", type=_count, required=required)
    p.add_argument("--K", type=_count, default=1)
    p.add_argument("--eta", type=float)
    p.add_argument("--eta1", type=float)
    p.add_argument("--eta2", type=float)
    p.add_argument("--r0", type=_count)
    p.add_argument("--lambda", dest="lam", type=float, help="two-stage r0 = floor(lambda*K)")
    p.add_argument("--averaging", choices=optim.AVERAGING_MODES, default="final_iterate")
    p.add_argument("--gf-substeps", type=_count, default=1000)
    p.add_argument("--gf-method", choices=optim.GF_METHODS, default="auto")
    p.add_argument("--engine", choices=optim.ENGINES, default="numpy")
    p.add_argument("--trace-every", type=_count, default=1)
    p.add_argument("--w0", type=_comma_list("number", float, repeats=True),
                   help="comma-separated initial weights (default: zeros)")
    p.add_argument("--seed", type=int)
    p.add_argument("--checks", type=_check_names,
                   help="comma-separated check names to run afterwards")
    p.add_argument("--emit", type=_comma_list("artifact", str.strip, ("csv", "json"), empty_is_none=False),
                   default="csv,json", help="artifacts to write (csv,json)")
    p.add_argument("--out-dir", required=required)
    p.add_argument("--config", help="JSON file with defaults for these flags")
    if command == "run":
        p.add_argument("--name", default="run", help="basename for output files")
    else:
        p.add_argument("--K-grid", type=_comma_list("integer", _count, empty_is_none=False),
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
    g_mn.add_argument("--M", type=_count, default=5)
    g_mn.add_argument("--n", type=_count, default=200, help="samples per client")
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
    env.add_argument("--kind", required=True, choices=tuple(ENVELOPE_FLAGS))
    env.add_argument("--gamma", type=float)
    env.add_argument("--K", type=_count)
    env.add_argument("--R", type=_count)
    env.add_argument("--r0", type=_count)
    env.add_argument("--eta2", type=float)
    env.add_argument("--eta", type=float)
    env.add_argument("--r", type=float)
    env.add_argument("--variant", choices=("main", "warm"), default="main")
    env.add_argument("--dataset", help="dataset file (gf kind)")
    return parser


def _run_config(args):
    """The run's RunConfig from the run flags, each named as its field. Under --policy explicit
    the stepsize flags go in as given, else the named policy's stepsizes replace them; the
    runner refuses a run that lacks one it reads."""
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    if args.policy != "explicit":
        values.update(asdict(schedules.make_policy(args.policy.replace("-", "_"), args.K, lam=args.lam)))
    return RunConfig(**values)


def _envelope_block(dataset, args, config):
    """The certified gamma and the envelopes of the run's optimizer, leaving out each one whose
    function refuses the run's values with a ValueError (r0 >= R, clients other than two with one
    sample each or antipodal ones, R not past tau, a denominator that underflows to 0)."""
    if not dataset.margin:
        return {}
    gamma, K, R = dataset.margin[0], config.K, config.R
    out = {"gamma": gamma}
    if args.optimizer == "two-stage":
        with contextlib.suppress(ValueError):
            out["two_stage_final"] = diagnostics.envelope_two_stage(config.eta2, gamma, K, R, config.r0)
    if args.optimizer == "local-gd":
        for kind in ("global", "local"):
            with contextlib.suppress(ValueError):
                out[f"baseline_{kind}"] = diagnostics.envelope_baseline(kind, gamma, K, R)
    if args.optimizer == "local-gf":
        with contextlib.suppress(ValueError):  # gf_constants stays where gf_final is undefined
            tc, out["gf_constants"] = diagnostics.flow_constants(dataset, config.eta * K)
            out["gf_final"] = tc.envelope(R, "main")
    return out


def _summary_doc(args, config, dataset, traces, diverged_at, checks, averaged):
    """The summary JSON; ``averaged`` is a finished run's averaged iterate, if it has one."""
    return {
        "artifact": ARTIFACT,
        "command": args.command,
        "config": {
            "optimizer": args.optimizer,
            "policy": args.policy,
            **asdict(config),
        },
        "dataset": {
            "path": str(args.dataset),
            "fingerprint": dataset.file_fingerprint,
            "gamma": dataset.margin[0] if dataset.margin else None,
        },
        "seed": args.seed,
        "result": {
            "rounds_completed": traces[-1].r if traces else 0,
            "diverged": diverged_at is not None,
            "divergence_round": diverged_at,
            "final_loss": traces[-1].global_loss if traces else None,
            "final_grad_norm": traces[-1].grad_norm if traces else None,
            **({} if averaged is None else {"averaged_weights": averaged}),
        },
        "envelopes": _envelope_block(dataset, args, config) if diverged_at is None else {},
        "checks": [asdict(r) for r in checks],
        "traces": [asdict(t) for t in traces],
    }


def _cmd_run(args, dataset=None):
    """Run one optimizer; ``dataset`` is ``args.dataset`` already loaded, if given."""
    dataset = dataset or load_dataset(args.dataset)
    config = _run_config(args)
    runner = getattr(optim, RUNNERS[args.optimizer])
    diverged_at, checks, averaged = None, [], None
    try:
        result = runner(dataset, config)
    except DivergenceError as err:
        diverged_at, traces = err.round_index, err.traces
    else:
        traces, averaged = result.traces, result.averaged_weights
        if args.checks:
            checks = diagnostics.check_run(result, dataset, checks=args.checks)

    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, args.name)
    if "csv" in args.emit:
        _write_csv(base + ".csv", traces, dataset.M, config, dataset.file_fingerprint)
    if "json" in args.emit:
        write_json(base + ".json",
                   _summary_doc(args, config, dataset, traces, diverged_at, checks, averaged))
    if diverged_at is not None:
        print(f"divergence at round {diverged_at}; partial traces written", file=sys.stderr)
        return EXIT_DIVERGENCE
    if any(not r.passed and not r.informational for r in checks):
        print("check violation; see summary JSON", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# The dataset every cell of the running sweep shares: set by _init_sweep_worker
# in each pool worker, or around a serial sweep and cleared after.
_sweep_dataset = None


def _init_sweep_worker(dataset):
    global _sweep_dataset
    _sweep_dataset = dataset


def _sweep_cell(args):
    """Run one sweep cell (a `run` Namespace) on the shared dataset; return its index entry,
    which names the artifacts the cell wrote."""
    name = args.name
    try:
        code = _cmd_run(args, dataset=_sweep_dataset)
        entry = {"name": name, "exit": code}
        if "csv" in args.emit:
            entry["csv"] = name + ".csv"
        if "json" in args.emit:
            entry["summary"] = name + ".json"
        return entry
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
        dataset = load_dataset(args.dataset)
    except tuple(EXIT_CODES) as err:
        results = [{"name": c.name, "exit": _exit_code(err), "error": str(err)} for c in cells]
    else:
        if workers > 1:
            # under fork the workers inherit the dataset; other start methods
            # pickle it once per worker, not once per cell
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_sweep_worker, initargs=(dataset,)
            ) as pool:
                results = list(pool.map(_sweep_cell, cells))
        else:
            _init_sweep_worker(dataset)
            try:
                results = [_sweep_cell(c) for c in cells]
            finally:
                _init_sweep_worker(None)
    index = {
        "artifact": ARTIFACT,
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
    extra["artifact"] = ARTIFACT
    save_dataset(ds, args.out, extra=extra)
    print(f"wrote {args.out} (gamma={ds.margin[0]:.6g})")
    return EXIT_OK


def _typed(record):
    """``record``, a RoundTrace or RunConfig read from a summary, if each field holds the JSON
    type the summary writer puts there, else a TypeError. The fields' annotations (strings,
    as optim postpones them) name it: an integer, a float (finite or not), a string, a
    boolean, or a list of floats for a list or tuple; null where the annotation allows None."""
    for f in fields(record):
        value = getattr(record, f.name)
        kind, _, none = f.type.partition(" | ")
        if value is None and none == "None":
            continue
        if kind in ("list[float]", "tuple[float, ...]"):
            holds = type(value) is list and all(type(v) is float for v in value)
        else:
            holds = type(value) is {"int": int, "float": float, "str": str, "bool": bool}[kind]
        if not holds:
            raise TypeError(f"{f.name} = {value!r} is not a JSON {f.type}")
    return record


def _load_run_artifacts(path):
    """The RunResult a summary file records, and its dataset's fingerprint."""
    doc = read_json(path)
    try:
        traces = [_typed(RoundTrace(**t)) for t in doc["traces"]]
        cfg_doc = {k: v for k, v in doc["config"].items() if k not in ("optimizer", "policy")}
        config = _typed(RunConfig(**cfg_doc))
        optimizer = doc["config"].get("optimizer", "local-gd")
        fingerprint = doc["dataset"]["fingerprint"]
        if not isinstance(optimizer, str) or not isinstance(fingerprint, str):
            raise TypeError("optimizer or dataset fingerprint is not a string")
    except (KeyError, TypeError, AttributeError, ValueError) as err:
        raise IdxFormatError(f"{path}: not a run summary file ({err})") from None
    return optim.RunResult(
        traces=traces,
        final_weights=np.zeros(0),
        averaged_weights=None,
        config=config,
        optimizer=optimizer,
    ), fingerprint


def _cmd_check(args):
    result, run_fingerprint = _load_run_artifacts(args.run)
    dataset = load_dataset(args.dataset)
    if dataset.file_fingerprint != run_fingerprint:
        raise UsageError(f"{args.dataset} has fingerprint {dataset.file_fingerprint}, "
                         f"but {args.run} ran on {run_fingerprint}")
    reports = diagnostics.check_run(result, dataset, checks=args.checks)
    doc = {
        "artifact": ARTIFACT,
        "run": str(args.run),
        "dataset_fingerprint": run_fingerprint,
        "reports": [asdict(r) for r in reports],
    }
    if args.out:
        write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2))
    if any(not r.passed and not r.informational for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_envelope(args):
    for flag in ENVELOPE_FLAGS[args.kind]:
        if getattr(args, flag) is None:
            raise UsageError(f"envelope --kind {args.kind} needs --{flag}")
    doc = {"kind": args.kind}
    if args.kind == "two-stage":
        doc["value"] = diagnostics.envelope_two_stage(args.eta2, args.gamma, args.K, args.R, args.r0)
    elif args.kind in ("baseline-global", "baseline-local"):
        doc["value"] = diagnostics.envelope_baseline(args.kind.split("-")[1], args.gamma, args.K, args.R)
    else:
        tc, constants = diagnostics.flow_constants(load_dataset(args.dataset), args.eta * args.K)
        doc.update(variant=args.variant, value=tc.envelope(args.r, variant=args.variant),
                   constants=constants)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _apply_config_file(argv):
    """``argv`` with its --config entries as --flag=value tokens after the subcommand."""
    finder = _Parser(add_help=False)
    _add_run_flags(finder, argv[0], required=False)
    path = finder.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    entries = read_json(path)
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
