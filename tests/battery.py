"""The byte battery: CLI commands whose exit codes and artifact bytes are pinned.

Each command runs in-process through ``cli.main`` in one working directory
that starts with copies of the datasets below, with relative paths only, so
no recorded byte depends on where the directory lies. A command's artifacts
are the files it creates or changes there, plus its stdout; each is pinned by
its SHA-256 in ``data/battery.json``. Commands run in the listed order, so a
``check`` can read the summary an earlier ``run`` wrote.

Regenerate the manifest (only for a behaviour change that is meant, and named
in CHANGES.md) with::

    PYTHONPATH=src python tests/battery.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

from localgd import cli

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
MANIFEST = DATA_DIR / "battery.json"
SYN = "golden_synthetic.json"
MULTI = "golden_multi_sample.json"


def _run(out, *flags, dataset=SYN, name="run"):
    return ["run", "--dataset", dataset, *flags, "--out-dir", out, "--name", name]


_SWEEP = ["sweep", "--dataset", SYN, "--optimizer", "local-gd", "--K-grid", "1,4",
          "--policy-grid", "small,large,explicit", "--eta", "2", "--R", "12",
          "--checks", "stable-rate"]

# (argv, environment entries); the margin runs stay below _kernels.C_MIN_WORK
# scalar steps, so they run the Python bodies, except where noted
COMMANDS = [
    (["gen-data", "synthetic", "--delta", "0.1", "--g", "5", "--out", "syn.json"], {}),
    (["gen-data", "synthetic", "--delta", "0.5", "--g", "2", "--out", "syn2.json"], {}),
    # two close directions, whose flow envelope threshold tau is finite (about 369 at eta K = 2)
    (["gen-data", "synthetic", "--delta", "3", "--g", "1.5", "--out", "close.json"], {}),
    # local GD and two-stage on the margin engine
    (_run("margin", "--engine", "margin", "--eta", "1", "--K", "4", "--R", "40",
          name="lgd"), {}),
    (_run("margin", "--engine", "margin", "--eta", "3", "--K", "16", "--R", "45",
          "--trace-every", "7", name="lgd_thin"), {}),
    (_run("margin", "--engine", "margin", "--eta", "2", "--K", "4", "--R", "30",
          "--averaging", "uniform_average", name="lgd_uniform"), {}),
    (_run("margin", "--engine", "margin", "--eta", "0.5", "--K", "1", "--R", "25",
          "--w0=0.5,-0.25", "--checks", "stable-rate,stable-monotone", name="lgd_w0"), {}),
    (_run("margin", "--engine", "margin", "--optimizer", "two-stage", "--policy", "two-stage",
          "--lambda", "4", "--K", "4", "--R", "60", name="two_stage"), {}),
    (_run("margin", "--engine", "margin", "--optimizer", "two-stage", "--eta1", "20",
          "--eta2", "2", "--r0", "9", "--K", "8", "--R", "40", "--trace-every", "4",
          name="two_stage_explicit"), {}),
    (_run("margin", "--engine", "margin", "--policy", "small", "--K", "4", "--R", "20",
          name="small"), {}),
    (_run("margin", "--engine", "margin", "--policy", "large", "--K", "4", "--R", "20",
          name="large"), {}),
    (_run("margin", "--engine", "margin", "--eta", "1", "--K", "2", "--R", "30",
          dataset="syn2.json", name="syn2"), {}),
    (_run("margin", "--engine", "margin", "--eta", "6", "--K", "5", "--R", "50",
          "--trace-every", "3", dataset="close.json", name="close"), {}),
    # at or above C_MIN_WORK: the C kernel, where it builds
    (_run("margin", "--engine", "margin", "--eta", "4", "--K", "4", "--R", "40000",
          "--trace-every", "997", name="lgd_c"), {}),
    # the numpy engine
    (_run("numpy", "--eta", "1", "--K", "4", "--R", "40", "--checks", "drift,bias",
          name="lgd"), {}),
    (_run("numpy", "--eta", "2", "--K", "4", "--R", "30", "--averaging", "uniform_average",
          "--trace-every", "4", name="lgd_uniform"), {}),
    (_run("numpy", "--optimizer", "two-stage", "--policy", "two-stage", "--lambda", "4",
          "--K", "4", "--R", "60", name="two_stage"), {}),
    (_run("numpy", "--eta", "1", "--K", "3", "--R", "20", dataset=MULTI, name="multi"), {}),
    (_run("numpy", "--optimizer", "two-stage", "--eta1", "8", "--eta2", "1", "--r0", "5",
          "--K", "2", "--R", "15", dataset=MULTI, name="multi_two_stage"), {}),
    # flows on one-sample clients: the numeric (margin-kernel) and exact methods
    (_run("flow", "--optimizer", "local-gf", "--gf-method", "numeric", "--gf-substeps", "1",
          "--eta", "1", "--K", "2", "--R", "25", name="numeric_1"), {}),
    (_run("flow", "--optimizer", "local-gf", "--gf-method", "numeric", "--gf-substeps", "8",
          "--eta", "2", "--K", "3", "--R", "30", "--trace-every", "4",
          "--checks", "lyapunov,lyapunov-rate", name="numeric_8"), {}),
    (_run("flow", "--optimizer", "local-gf", "--gf-method", "numeric", "--gf-substeps", "5",
          "--eta", "1", "--K", "1", "--R", "20", "--w0=-1,0.5", name="numeric_w0"), {}),
    (_run("flow", "--optimizer", "local-gf", "--eta", "1", "--K", "2", "--R", "25",
          "--checks", "lyapunov,lyapunov-rate", name="exact"), {}),
    (_run("flow", "--optimizer", "local-gf", "--gf-method", "numeric", "--gf-substeps", "3",
          "--eta", "1", "--K", "2", "--R", "400", "--trace-every", "50", dataset="close.json",
          name="close_numeric"), {}),
    (_run("flow", "--optimizer", "local-gf", "--eta", "1", "--K", "2", "--R", "400",
          "--trace-every", "50", dataset="close.json", name="close_exact"), {}),
    (_run("flow", "--optimizer", "local-gf", "--gf-substeps", "4", "--eta", "1", "--K", "1",
          "--R", "6", dataset=MULTI, name="multi"), {}),
    # divergence: exit 2 with the rounds before it written
    (_run("diverge", "--engine", "margin", "--eta", "1e300", "--K", "2", "--R", "10",
          name="margin"), {}),
    (_run("diverge", "--eta", "1e300", "--K", "2", "--R", "10", name="numpy"), {}),
    (_run("diverge", "--engine", "margin", "--optimizer", "two-stage", "--eta1", "1",
          "--eta2", "1e300", "--r0", "3", "--K", "2", "--R", "10", name="two_stage"), {}),
    (_run("diverge", "--optimizer", "local-gf", "--gf-method", "numeric", "--gf-substeps", "2",
          "--eta", "1e300", "--K", "2", "--R", "10", name="numeric"), {}),
    (_run("diverge", "--optimizer", "local-gf", "--eta", "1e300", "--K", "2", "--R", "10",
          name="exact"), {}),
    # client 1 starts at gamma a = -690: the numeric flow leaves |gamma a| <= 700 in round 1
    # with ||w||^2 finite, and the exact flow runs every round
    (_run("diverge", "--optimizer", "local-gf", "--gf-method", "numeric", "--eta", "5e9",
          "--K", "2", "--R", "5", "--w0=-693.5,0", name="numeric_range"), {}),
    (_run("diverge", "--optimizer", "local-gf", "--gf-method", "exact", "--eta", "5e9",
          "--K", "2", "--R", "5", "--w0=-693.5,0", name="exact_range"), {}),
    # refusals: exit 1 (usage) and exit 4 (I/O or format)
    (["run", "--dataset", SYN, "--out-dir", "refused"], {}),
    (_run("refused", "--optimizer", "local-gf", "--eta", "1e308", "--K", "10", "--R", "3"), {}),
    (["gen-data", "synthetic", "--delta", "-1", "--g", "5", "--out", "refused.json"], {}),
    (["envelope", "--kind", "two-stage", "--gamma", "0.1"], {}),
    (["check", "--run", "margin/lgd.json", "--dataset", MULTI], {}),
    (_run("refused", "--eta", "1", "--R", "3", dataset="missing.json"), {}),
    (["check", "--run", SYN, "--dataset", SYN], {}),
    (["sweep", "--dataset", "missing.json", "--eta", "1", "--R", "3", "--K-grid", "1,2",
      "--out-dir", "sweep_missing"], {}),
    # sweeps, serial and on two worker processes
    ([*_SWEEP, "--out-dir", "sweep_1"], {"LOCALGD_THREADS": "1"}),
    ([*_SWEEP, "--out-dir", "sweep_2"], {"LOCALGD_THREADS": "2"}),
    (["sweep", "--dataset", SYN, "--engine", "margin", "--optimizer", "two-stage",
      "--policy-grid", "two-stage", "--lambda", "2", "--K-grid", "2,8", "--R", "30",
      "--out-dir", "sweep_margin"], {"LOCALGD_THREADS": "1"}),
    # checks on stored summaries, to stdout or to a file
    (["check", "--run", "margin/lgd.json", "--dataset", SYN], {}),
    (["check", "--run", "numpy/lgd.json", "--dataset", SYN,
      "--checks", "drift,bias,stable-rate", "--out", "check_numpy.json"], {}),
    (["check", "--run", "flow/numeric_8.json", "--dataset", SYN], {}),
    (["check", "--run", "flow/exact.json", "--dataset", SYN, "--checks", "lyapunov-rate"], {}),
    (["check", "--run", "flow/close_numeric.json", "--dataset", "close.json"], {}),
    (["check", "--run", "numpy/multi.json", "--dataset", MULTI], {}),
    (["check", "--run", "margin/two_stage.json", "--dataset", SYN,
      "--checks", "stable-rate-strict"], {}),
    # every envelope kind
    (["envelope", "--kind", "two-stage", "--gamma", "0.033", "--K", "16", "--R", "2048",
      "--r0", "64", "--eta2", "4"], {}),
    (["envelope", "--kind", "baseline-global", "--gamma", "0.033", "--K", "16",
      "--R", "2048"], {}),
    (["envelope", "--kind", "baseline-local", "--gamma", "0.033", "--K", "16",
      "--R", "2048"], {}),
    (["envelope", "--kind", "gf", "--dataset", "close.json", "--eta", "1", "--K", "2",
      "--r", "500"], {}),
    (["envelope", "--kind", "gf", "--dataset", "close.json", "--eta", "1", "--K", "2",
      "--r", "500", "--variant", "warm"], {}),
    # tau is infinite on this geometry, so no round is past it: exit 1
    (["envelope", "--kind", "gf", "--dataset", SYN, "--eta", "1", "--K", "4",
      "--r", "5000"], {}),
]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _files(root):
    return {p.relative_to(root).as_posix(): _digest(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_command(argv, env, root):
    """Run one command in ``root``; returns (exit code, {artifact: sha256})."""
    before = _files(root)
    saved = {key: os.environ.get(key) for key in env}
    cwd = os.getcwd()
    stdout = io.StringIO()
    try:
        os.environ.update(env)
        os.chdir(root)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    artifacts = {name: h for name, h in _files(root).items() if before.get(name) != h}
    artifacts["<stdout>"] = _digest(stdout.getvalue().encode())
    return code, artifacts


def prepare(root):
    """Copy the battery's input datasets into the empty directory ``root``."""
    for name in (SYN, MULTI):
        shutil.copyfile(DATA_DIR / name, root / name)


def main():
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        prepare(root)
        for argv, env in COMMANDS:
            code, artifacts = run_command(argv, env, root)
            entries.append({"argv": argv, "env": env, "exit": code, "artifacts": artifacts})
    MANIFEST.write_text(json.dumps({"commands": entries}, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(entries)} commands)", file=sys.stderr)


if __name__ == "__main__":
    main()
