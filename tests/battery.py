"""The byte battery: CLI commands whose exit codes and artifact bytes are pinned.

Each command runs in-process through ``cli.main`` in one working directory
that starts with copies of the datasets below, the config files and the IDX
pair that ``prepare`` writes, with relative paths only, so no recorded byte
depends on where the directory lies. A command's artifacts
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
import struct
import sys
import tempfile

from localgd import cli

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
MANIFEST = DATA_DIR / "battery.json"
SYN = "golden_synthetic.json"
MULTI = "golden_multi_sample.json"
IMAGES, LABELS = "images-idx3-ubyte", "labels-idx1-ubyte"
# an IDX pair whose split is not separable and whose folded points do not sum to zero
NONSEP_IMAGES, NONSEP_LABELS = "nonsep-images-idx3-ubyte", "nonsep-labels-idx1-ubyte"
# SYN with the first client's row removed, unsigned so that the empty client, not the fingerprint,
# is what load_dataset refuses
EMPTY_CLIENT = "empty_client.json"
# arrays nested past Python's recursion limit, which json cannot decode
DEEP = "deep.json"
# SYN with its stored margin set to 2.0, past the norm bound 1 of every row; the fingerprint
# covers only the clients, so it still matches
GAMMA_2 = "gamma_2.json"
# --config files: a run's R and eta, and a sweep whose grids are JSON lists
CONFIGS = {
    "run_config.json": {"R": 30, "eta": 2},
    "sweep_config.json": {"optimizer": "local-gd", "eta": 1.5, "R": 12, "K_grid": [1, 3],
                          "policy_grid": ["explicit", "small"], "checks": ["stable-rate"]},
}


def _run(out, *flags, dataset=SYN, name="run"):
    return ["run", "--dataset", dataset, *flags, "--out-dir", out, "--name", name]


_SWEEP = ["sweep", "--dataset", SYN, "--optimizer", "local-gd", "--K-grid", "1,4",
          "--policy-grid", "small,large,explicit", "--eta", "2", "--R", "12",
          "--checks", "stable-rate"]

# (argv, environment entries). A process runs the margin kernels and log_phi in
# Python until the scalar steps it has run reach _kernels.C_MIN_WORK, then in C;
# in a fresh process the commands before ``lgd_c`` run Python and most after it
# C. Both give the same bytes, which test_battery also checks with no compiler.
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
    # at or above C_MIN_WORK on its own: from here on the process runs C, where it builds
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
    # --config: the file supplies R and eta, a flag on the command line beats its eta,
    # the --config=path spelling, and list entries for a sweep's grids
    (_run("config", "--config", "run_config.json", "--engine", "margin", "--K", "4",
          name="file"), {}),
    (_run("config", "--config", "run_config.json", "--engine", "margin", "--K", "4",
          "--eta", "0.5", name="flag"), {}),
    (_run("config", "--config=run_config.json", "--optimizer", "local-gf", "--K", "2",
          name="equals"), {}),
    (["sweep", "--dataset", SYN, "--config", "sweep_config.json", "--out-dir", "sweep_config"],
     {"LOCALGD_THREADS": "1"}),
    # gen-data mnist on the IDX pair prepare writes, and a run on its split
    (["gen-data", "mnist", "--images", IMAGES, "--labels", LABELS, "--M", "2", "--n", "6",
      "--s", "0.34", "--seed", "3", "--out", "mnist.json"], {}),
    (_run("mnist", "--eta", "1", "--K", "2", "--R", "10", "--checks", "drift,stable-rate",
          dataset="mnist.json"), {}),
    # a genuine check violation, exit 3: one RK4 step for each round's K = 4 time units at
    # eta 20 overshoots the flow, and the Lyapunov value rises; in a sweep, the K = 4 cell
    (_run("violation", "--optimizer", "local-gf", "--gf-method", "numeric", "--gf-substeps",
          "1", "--eta", "20", "--K", "4", "--R", "20", "--checks", "lyapunov"), {}),
    (["sweep", "--dataset", SYN, "--optimizer", "local-gf", "--gf-method", "numeric",
      "--gf-substeps", "1", "--eta", "20", "--K-grid", "1,4", "--R", "20",
      "--checks", "lyapunov", "--out-dir", "sweep_violation"], {"LOCALGD_THREADS": "1"}),
    # --averaging uniform_average where a run has no average: exit 1
    (_run("refused", "--optimizer", "two-stage", "--eta1", "2", "--eta2", "1", "--r0", "3",
          "--K", "2", "--R", "6", "--averaging", "uniform_average"), {}),
    (_run("refused", "--optimizer", "local-gf", "--eta", "1", "--K", "2", "--R", "6",
          "--averaging", "uniform_average"), {}),
    # refusals that once printed a traceback: a zero gamma in the two-stage envelope and an
    # infinite --lambda (exit 1), and a dataset with a client that has no rows (exit 4)
    (["envelope", "--kind", "two-stage", "--gamma", "0", "--K", "16", "--R", "2048",
      "--r0", "64", "--eta2", "4"], {}),
    (_run("refused", "--optimizer", "two-stage", "--policy", "two-stage", "--lambda", "inf",
          "--K", "4", "--R", "10"), {}),
    (_run("refused", "--eta", "1", "--R", "3", dataset=EMPTY_CLIENT), {}),
    # a dataset json cannot decode exits 4 in `run` and in every sweep cell
    (_run("refused", "--eta", "1", "--R", "3", dataset=DEEP), {}),
    (["sweep", "--dataset", DEEP, "--eta", "1", "--R", "3", "--K-grid", "1,2",
      "--out-dir", "sweep_deep"], {"LOCALGD_THREADS": "1"}),
    # delta^2 overflows, yet the geometry is fine (exit 0); g = 1e7 bounds the margin
    # by 1e-7, refused before the solver runs (exit 1)
    (["gen-data", "synthetic", "--delta", "1e200", "--g", "1", "--out", "wide.json"], {}),
    (["gen-data", "synthetic", "--delta", "1", "--g", "1e7", "--out", "refused.json"], {}),
    # a flow whose rate constants are undefined (eta K gamma^2 underflows): both artifacts,
    # the summary without gf_constants
    (_run("flow", "--optimizer", "local-gf", "--eta", "5e-324", "--K", "1", "--R", "4",
          name="tiny_eta"), {}),
    # envelopes whose denominators underflow to 0: exit 1; a two-stage run whose envelope
    # does: both artifacts, the summary without two_stage_final
    (["envelope", "--kind", "baseline-global", "--gamma", "1e-300", "--K", "1", "--R", "1"], {}),
    (["envelope", "--kind", "baseline-local", "--gamma", "1e-300", "--K", "1", "--R", "1"], {}),
    (["envelope", "--kind", "two-stage", "--gamma", "1e-200", "--eta2", "1e-200", "--K", "1",
      "--R", "2", "--r0", "0"], {}),
    (_run("numpy", "--optimizer", "two-stage", "--eta1", "1", "--eta2", "5e-324", "--r0", "1",
          "--R", "3", name="tiny_eta2"), {}),
    # a stored margin outside (0, 1]: exit 4
    (_run("refused", "--eta", "1", "--R", "3", dataset=GAMMA_2), {}),
    # counts past 2^63 - 1, which the C kernels' int64 arguments would wrap (2^64 + 4 to 4)
    # and float conversion would overflow: exit 1
    (_run("refused", "--engine", "margin", "--eta", "1", "--K", "18446744073709551620",
          "--R", "300000", "--trace-every", "100000"), {}),
    (["envelope", "--kind", "baseline-global", "--gamma", "0.5", "--K", "1" + "0" * 400,
      "--R", "1"], {}),
    # a start of another dimension than the dataset's: exit 1
    (_run("refused", "--eta", "1", "--R", "3", "--w0=1,2,3"), {}),
    # a negative count, and a gen-data mnist --M past 2^63 - 1, refused at parsing: exit 1
    (_run("refused", "--eta", "1", "--R", "3", "--K", "-1" + "0" * 400), {}),
    (["gen-data", "mnist", "--images", IMAGES, "--labels", LABELS, "--M", "1" + "0" * 400,
      "--n", "2", "--out", "refused.json"], {}),
    # a repeated list entry, whose sweep cells would write the same files: exit 1
    (["sweep", "--dataset", SYN, "--eta", "1", "--R", "5", "--K-grid", "1,1",
      "--out-dir", "sweep_repeat"], {"LOCALGD_THREADS": "2"}),
    (_run("refused", "--eta", "1", "--R", "3", "--checks", "drift,drift"), {}),
    # a non-separable split: the margin solver's bound refuses it at once (exit 1)
    (["gen-data", "mnist", "--images", NONSEP_IMAGES, "--labels", NONSEP_LABELS, "--M", "2",
      "--n", "2", "--s", "0.5", "--seed", "1", "--out", "refused.json"], {}),
    # under --policy explicit a stepsize given is checked though local GD does not read it: exit 1
    (_run("refused", "--eta", "1", "--eta1", "-1", "--R", "3"), {}),
    # a sweep that emits only summaries, whose index names no CSV
    (["sweep", "--dataset", SYN, "--eta", "1", "--R", "3", "--K-grid", "1,2", "--emit", "json",
      "--out-dir", "sweep_json"], {"LOCALGD_THREADS": "1"}),
    # a sweep names its cells itself and has no --name: exit 1
    (["sweep", "--dataset", SYN, "--eta", "1", "--R", "3", "--name", "x",
      "--out-dir", "sweep_name"], {}),
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


def _idx_bytes(pixels, labels):
    """IDX image and label bytes of 1 x 2 images with these ``pixels`` and ``labels``."""
    n = len(labels)
    return (struct.pack(">IIII", 0x803, n, 1, 2) + bytes(pixels),
            struct.pack(">II", 0x801, n) + bytes(labels))


def _idx_pair(n=24):
    """IDX bytes of ``n`` images of digits 0-9: an even digit's first pixel is the brighter,
    an odd digit's the second, so the split is separable."""
    labels = [k % 10 for k in range(n)]
    pixels = []
    for k, digit in enumerate(labels):
        bright, dim = 150 + 7 * k % 100, 11 * k % 120
        pixels += (bright, dim) if digit % 2 == 0 else (dim, bright)
    return _idx_bytes(pixels, labels)


def _nonseparable_idx_pair():
    """IDX bytes of four images: a 0 and a 1 with the same pixels, whose folded points are
    opposite, so no split of them is separable; with a 2 and a 3 the folded points sum to
    (70, -100) / 255."""
    return _idx_bytes([200, 10, 200, 10, 100, 50, 30, 150], [0, 1, 2, 3])


def prepare(root):
    """Write the battery's inputs into the empty directory ``root``: copies of the
    datasets, the config files and the IDX pair."""
    for name in (SYN, MULTI):
        shutil.copyfile(DATA_DIR / name, root / name)
    for name, entries in CONFIGS.items():
        (root / name).write_text(json.dumps(entries))
    for name, data in zip((IMAGES, LABELS, NONSEP_IMAGES, NONSEP_LABELS),
                          _idx_pair() + _nonseparable_idx_pair()):
        (root / name).write_bytes(data)
    doc = json.loads((DATA_DIR / SYN).read_text())
    del doc["fingerprint"]
    doc.update(clients=[[], doc["clients"][1]], n=[0, 1])
    (root / EMPTY_CLIENT).write_text(json.dumps(doc))
    (root / DEEP).write_text("[" * 100_000 + "]" * 100_000)
    doc = json.loads((DATA_DIR / SYN).read_text())
    doc["margin"]["gamma"] = 2.0
    (root / GAMMA_2).write_text(json.dumps(doc))


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
