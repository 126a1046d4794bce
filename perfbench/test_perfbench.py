"""Self-tests of the benchmark at its tiny size.

Run from the root of the checkout:

    python3 -m pytest perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = ("hetero_sweep", "warmup_margin", "flow_lyapunov")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
_runs = {}


def bench(workload, seed, trace, repeat=0, cwd=ROOT):
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[-2].startswith("facts ")
        _runs[key] = (json.loads(lines[-2][len("facts "):]), json.loads(lines[-1]))
    return _runs[key]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_declared(workload, trace):
    facts, result = bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert math.isfinite(metric["value"]), name
    assert facts["kernel_backend"] in ("python", "numba") or "." in facts["kernel_backend"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    first = bench(workload, 1, 1)[1]["metrics"]
    second = bench(workload, 1, 1, repeat=1)[1]["metrics"]
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_not_metric_set(workload):
    facts1, result1 = bench(workload, 1, 0)
    facts2, result2 = bench(workload, 2, 0)
    assert facts1["fingerprint"] != facts2["fingerprint"]
    assert set(result1["metrics"]) == set(result2["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_traced_wall(workload):
    metrics = {n: m["value"] for n, m in bench(workload, 1, 1)[1]["metrics"].items()}
    parts = sum(metrics[f"{module}.self_s"] for module in layers.MODULES) + metrics["bench.self_s"]
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)


def test_flow_surrogate_counts():
    metrics = bench("flow_lyapunov", 1, 1)[1]["metrics"]
    assert metrics["specialfn.surrogate_loss.calls_per_round"]["value"] == 4
    assert metrics["specialfn.surrogate_loss.useful_ratio"]["value"] == 0.5


def test_layer_table_matches_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert declared == {name: (unit, better) for name, (unit, better, _moves)
                        in layers.LAYER_METRICS.items()}
    assert all(moves for _unit, _better, moves in layers.LAYER_METRICS.values())


def test_oracle_flags_a_wrong_final_loss():
    reference = {"a": 0.125, "b": 0.5}
    assert oracle.mismatches(reference, {"a": 0.125, "b": 0.5 * (1 + 1e-10)}) == []
    assert oracle.mismatches(reference, {"a": 0.125 * (1 + 1e-6), "b": 0.5}) == ["a"]
    assert oracle.mismatches(reference, {"a": 0.125}) == ["b"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hetero_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
