import json
import os
import pathlib
import re
import shlex

import numpy as np
import pytest

from localgd import cli, optim
from localgd.data import FederatedDataset, compute_margin, save_dataset

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def synthetic_file(tmp_path):
    out = tmp_path / "syn.json"
    assert cli.main(["gen-data", "synthetic", "--delta", "0.1", "--g", "5", "--out", str(out)]) == 0
    return out


class TestGenData:
    def test_synthetic_records_geometry(self, synthetic_file):
        doc = json.loads(synthetic_file.read_text())
        assert doc["M"] == 2 and doc["n"] == 1 and doc["d"] == 2
        assert doc["margin"]["gamma"] == pytest.approx(0.0330944, abs=1e-6)
        z1 = np.array(doc["clients"][0][0])
        z2 = np.array(doc["clients"][1][0])
        c = z1 @ z2 / (np.linalg.norm(z1) * np.linalg.norm(z2))
        assert c == pytest.approx(-0.980198, abs=1e-6)

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            cli.main(["gen-data", "synthetic", "--delta", "0.5", "--g", "2", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_synthetic_reproduces_golden_file(self, tmp_path):
        out = tmp_path / "syn.json"
        assert cli.main(["gen-data", "synthetic", "--delta", "0.1", "--g", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_synthetic.json").read_bytes()

    @pytest.mark.parametrize("flags", [("inf", "5"), ("0.1", "inf")],
                             ids=lambda f: f"delta={f[0]},g={f[1]}")
    def test_synthetic_refuses_non_finite_geometry(self, tmp_path, capsys, no_solver, flags):
        out = tmp_path / "syn.json"
        assert cli.main(["gen-data", "synthetic", "--delta", flags[0], "--g", flags[1],
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_mnist_partition_file(self, tmp_path, rng):
        from test_data import write_idx_pair

        # one distinct pixel per digit keeps the even/odd fold separable
        labels = np.repeat(np.arange(10, dtype=np.uint8), 6)
        onehot = np.zeros((60, 4, 3), dtype=np.uint8)
        for i, lab in enumerate(labels):
            onehot[i].flat[lab] = 200 + (i % 5)
        img, lbl = write_idx_pair(tmp_path, onehot, labels)
        out = tmp_path / "mnist.json"
        code = cli.main([
            "gen-data", "mnist", "--images", str(img), "--labels", str(lbl),
            "--M", "5", "--n", "8", "--s", "0.25", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["M"] == 5 and doc["n"] == 8
        # same seed twice gives identical bytes
        out2 = tmp_path / "mnist2.json"
        cli.main([
            "gen-data", "mnist", "--images", str(img), "--labels", str(lbl),
            "--M", "5", "--n", "8", "--s", "0.25", "--seed", "1", "--out", str(out2),
        ])
        assert out.read_bytes() == out2.read_bytes()
        assert doc["source"]["n_total"] == 40
        # the pool is always M*n samples, so there is no flag to set it
        assert cli.main([
            "gen-data", "mnist", "--images", str(img), "--labels", str(lbl),
            "--M", "5", "--n", "8", "--n-total", "40", "--out", str(out2),
        ]) == cli.EXIT_USAGE


GOLDEN_RUNS = {
    "small_run": ["--optimizer", "local-gd", "--policy", "small", "--K", "4", "--R", "12"],
    "two_stage_margin": ["--optimizer", "two-stage", "--policy", "two-stage", "--lambda", "2",
                         "--K", "4", "--R", "40", "--engine", "margin", "--trace-every", "3"],
    "gf_exact": ["--optimizer", "local-gf", "--eta", "1", "--K", "2", "--R", "12"],
    "gf_numeric": ["--optimizer", "local-gf", "--gf-method", "numeric", "--eta", "1",
                   "--K", "2", "--R", "12"],
    "two_stage_numpy": ["--optimizer", "two-stage", "--policy", "two-stage", "--lambda", "2",
                        "--K", "4", "--R", "40", "--trace-every", "3"],
    "multi_sample": ["--optimizer", "local-gd", "--policy", "small", "--K", "3", "--R", "10",
                     "--checks", "drift,bias"],
}
# runs on another dataset than golden_synthetic.json
GOLDEN_DATASETS = {"multi_sample": "golden_multi_sample.json"}
# runs whose summary traces and checks are pinned too (drift and bias are not in the CSV)
GOLDEN_SUMMARIES = ("multi_sample",)


class TestRun:
    @pytest.mark.parametrize("golden", GOLDEN_RUNS)
    def test_golden_csv(self, tmp_path, golden):
        # not the whole summary JSON: it embeds the dataset path
        dataset = DATA_DIR / GOLDEN_DATASETS.get(golden, "golden_synthetic.json")
        code = cli.main([
            "run", "--dataset", str(dataset), *GOLDEN_RUNS[golden],
            "--out-dir", str(tmp_path), "--name", "golden",
        ])
        assert code == 0
        got = (tmp_path / "golden.csv").read_bytes()
        expected = (DATA_DIR / f"golden_{golden}.csv").read_bytes()
        assert got == expected
        if golden in GOLDEN_SUMMARIES:
            doc = json.loads((tmp_path / "golden.json").read_text())
            pinned = json.loads((DATA_DIR / f"golden_{golden}_summary.json").read_text())
            assert {"checks": doc["checks"], "traces": doc["traces"]} == pinned

    def test_repeat_runs_byte_identical(self, synthetic_file, tmp_path):
        args = ["run", "--dataset", str(synthetic_file), "--optimizer", "two-stage",
                "--policy", "two-stage", "--lambda", "2", "--K", "4", "--R", "40",
                "--seed", "7"]
        cli.main(args + ["--out-dir", str(tmp_path / "a"), "--name", "r"])
        cli.main(args + ["--out-dir", str(tmp_path / "b"), "--name", "r"])
        assert (tmp_path / "a/r.csv").read_bytes() == (tmp_path / "b/r.csv").read_bytes()
        assert (tmp_path / "a/r.json").read_bytes() == (tmp_path / "b/r.json").read_bytes()

    @pytest.mark.parametrize("engine", ("numpy", "margin"))
    def test_uniform_average_summary_holds_the_average(self, synthetic_file, tmp_path, engine):
        from localgd.data import load_dataset

        flags = ["--engine", engine, "--eta", "2", "--K", "4", "--R", "30"]
        docs = {}
        for averaging in optim.AVERAGING_MODES:
            cli.main(["run", "--dataset", str(synthetic_file), *flags, "--averaging", averaging,
                      "--out-dir", str(tmp_path), "--name", averaging])
            docs[averaging] = json.loads((tmp_path / f"{averaging}.json").read_text())
        want = optim.run_local_gd(load_dataset(synthetic_file), optim.RunConfig(
            R=30, K=4, eta=2.0, engine=engine, averaging="uniform_average")).averaged_weights
        assert docs["uniform_average"]["result"]["averaged_weights"] == want.tolist()
        assert "averaged_weights" not in docs["final_iterate"]["result"]
        # a run that diverges has no average to write
        assert cli.main([
            "run", "--dataset", str(synthetic_file), "--engine", engine, "--eta", "1e300",
            "--K", "2", "--R", "10", "--averaging", "uniform_average",
            "--out-dir", str(tmp_path), "--name", "diverged"]) == cli.EXIT_DIVERGENCE
        assert "averaged_weights" not in json.loads(
            (tmp_path / "diverged.json").read_text())["result"]

    def test_check_violation_exits_3_with_both_artifacts(self, synthetic_file, tmp_path,
                                                         monkeypatch, capsys):
        # one RK4 step for each round's K = 4 time units at eta 20 overshoots the flow, so
        # its Lyapunov value rises: the lyapunov check fails on an honest run
        flags = ["--dataset", str(synthetic_file), "--optimizer", "local-gf", "--gf-method",
                 "numeric", "--gf-substeps", "1", "--eta", "20", "--R", "20",
                 "--checks", "lyapunov"]
        code = cli.main(["run", *flags, "--K", "4", "--out-dir", str(tmp_path), "--name", "v"])
        assert code == cli.EXIT_VIOLATION
        assert capsys.readouterr().err == "check violation; see summary JSON\n"
        assert (tmp_path / "v.csv").read_text().count("\n") == 1 + 1 + 21  # meta, header
        checks = json.loads((tmp_path / "v.json").read_text())["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [("lyapunov-monotone", False)]
        # a sweep cell records the same exit code, and the sweep returns it
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        sweep = tmp_path / "sweep"
        code = cli.main(["sweep", *flags, "--K-grid", "1,4", "--out-dir", str(sweep)])
        assert code == cli.EXIT_VIOLATION
        cells = json.loads((sweep / "index.json").read_text())["cells"]
        assert [(c["name"], c["exit"]) for c in cells] == [
            ("cell_K1_explicit", cli.EXIT_OK), ("cell_K4_explicit", cli.EXIT_VIOLATION)]
        assert (sweep / "cell_K4_explicit.json").read_bytes() == \
            (tmp_path / "v.json").read_bytes()

    def test_single_step_matches_reference_gd_column(self, synthetic_file, tmp_path):
        # K=1 run and an explicitly-coded GD loop produce identical F columns
        from localgd import losses
        from localgd.data import load_dataset

        cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gd",
                  "--eta", "1.0", "--K", "1", "--R", "15",
                  "--out-dir", str(tmp_path), "--name", "k1"])
        rows = (tmp_path / "k1.csv").read_text().strip().split("\n")[2:]
        ds = load_dataset(synthetic_file)
        w = np.zeros(ds.d)
        for row in rows:
            F = row.split(",")[3]
            assert F == f"{losses.objective(ds, w).value:.17g}"
            acc = np.zeros(ds.d)
            for m in range(ds.M):
                acc = acc + (w - 1.0 * losses.client_gradient(ds, m, w))
            w = acc / ds.M

    def test_two_stage_csv_stage_column(self, synthetic_file, tmp_path):
        cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "two-stage",
                  "--policy", "two-stage", "--lambda", "1", "--K", "4", "--R", "12",
                  "--out-dir", str(tmp_path), "--name", "ts"])
        rows = (tmp_path / "ts.csv").read_text().strip().split("\n")[2:]
        stages = [int(r.split(",")[1]) for r in rows]
        assert stages[:4] == [1] * 4
        assert stages[4:] == [2] * 9

    def test_gf_run_populates_lyapunov_columns(self, synthetic_file, tmp_path):
        cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gf",
                  "--eta", "1.0", "--K", "4", "--R", "6",
                  "--out-dir", str(tmp_path), "--name", "gf"])
        header, first = (tmp_path / "gf.csv").read_text().split("\n")[1:3]
        cols = header.split(",")
        row = first.split(",")
        L = row[cols.index("L")]
        assert L != "" and float(L) > 0

    def test_large_stepsize_instability_recorded(self, synthetic_file, tmp_path):
        import math

        cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gd",
                  "--policy", "large", "--K", "1024", "--R", "30",
                  "--out-dir", str(tmp_path), "--name", "big"])
        rows = (tmp_path / "big.csv").read_text().strip().split("\n")[2:]
        losses_col = [float(r.split(",")[3]) for r in rows]
        assert max(losses_col) > math.log(2)

    def test_divergence_exit_code_and_partial_trace(self, tmp_path):
        z = np.array([[1.0, 0.0]])
        ds = FederatedDataset(clients=[z.copy(), z.copy(), z.copy()], d=2)
        path = tmp_path / "triple.json"
        save_dataset(ds, path)
        with np.errstate(over="ignore"):
            code = cli.main(["run", "--dataset", str(path), "--optimizer", "local-gd",
                             "--eta", "1.7e308", "--K", "1", "--R", "5",
                             "--out-dir", str(tmp_path), "--name", "div"])
        assert code == cli.EXIT_DIVERGENCE
        doc = json.loads((tmp_path / "div.json").read_text())
        assert doc["result"]["diverged"] is True
        assert doc["result"]["divergence_round"] == 1
        assert len(doc["traces"]) == 1

    def test_margin_engine_overflowing_step_is_divergence(self, synthetic_file, tmp_path):
        # exp overflows inside the margin kernel once eta2 = 1e308 has moved the margins
        with np.errstate(over="ignore"), pytest.warns(UserWarning, match="exceeds 4"):
            code = cli.main(["run", "--dataset", str(synthetic_file), "--engine", "margin",
                             "--optimizer", "two-stage", "--eta1", "0.2", "--eta2", "1e308",
                             "--r0", "3", "--K", "4", "--R", "15",
                             "--out-dir", str(tmp_path), "--name", "ovf"])
        assert code == cli.EXIT_DIVERGENCE
        doc = json.loads((tmp_path / "ovf.json").read_text())
        assert doc["result"]["diverged"] is True
        assert [t["stage"] for t in doc["traces"][:4]] == [1, 1, 1, 2]

    def test_roadmap_two_stage_example_diverges_at_round_5_on_both_engines(
            self, synthetic_file, tmp_path, capsys):
        # eta2 = 1e308 overflows ||w||^2 in the first stage-2 round; the numpy engine
        # used to finish with w_norm = inf in its CSV, the margin engine to stop at round 12
        def refuse(name):
            raise AssertionError(f"{name} in the summary JSON")

        for engine in optim.ENGINES:
            with np.errstate(over="ignore"), pytest.warns(UserWarning, match="exceeds 4"):
                code = cli.main(["run", "--dataset", str(synthetic_file), "--engine", engine,
                                 "--optimizer", "two-stage", "--eta1", "0.7", "--eta2", "1e308",
                                 "--r0", "4", "--K", "4", "--R", "13",
                                 "--out-dir", str(tmp_path), "--name", engine])
            assert code == cli.EXIT_DIVERGENCE, engine
            assert "divergence at round 5" in capsys.readouterr().err, engine
            csv = (tmp_path / f"{engine}.csv").read_text().lower()
            assert "inf" not in csv and "nan" not in csv, engine
            doc = json.loads((tmp_path / f"{engine}.json").read_text(), parse_constant=refuse)
            assert doc["result"]["divergence_round"] == 5, engine
            assert [t["r"] for t in doc["traces"]] == [0, 1, 2, 3, 4], engine

    def test_flow_margins_out_of_range_end_the_run_with_partial_traces(self, synthetic_file,
                                                                        tmp_path, capsys):
        # at eta = 1e300 round 1 moves the margins to about 3e297: the iterate
        # is finite (every RK4 substep after the first overflows exp and adds
        # e / inf = 0), but g * a lies far outside the surrogate losses' range
        # (|g * a| <= 700), so the run ends at round 1 with round 0's trace
        for method in ("numeric", "exact"):
            code = cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gf",
                             "--gf-method", method, "--eta", "1e300", "--K", "2", "--R", "5",
                             "--out-dir", str(tmp_path), "--name", method])
            assert code == cli.EXIT_DIVERGENCE, method
            assert "divergence at round 1" in capsys.readouterr().err, method
            doc = json.loads((tmp_path / f"{method}.json").read_text())
            assert doc["result"]["divergence_round"] == 1, method
            assert [t["r"] for t in doc["traces"]] == [0], method
            rows = (tmp_path / f"{method}.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in rows if row[:1].isdigit()] == ["0"], method

    def test_flow_surrogate_past_exp_range_is_traced(self, synthetic_file, tmp_path, capsys):
        # w0 = (-693.5, 0) puts client 1 (gamma 1) at g * a = -690 with
        # b = eta*K*g^2 = 1e10, so its surrogate loss L ~ 713 lies past exp's
        # overflow threshold; the exact flow runs all rounds, and RK4 at
        # eta = 5e9 blows up in round 1, which the numeric flow reports as
        # divergence after round 0's trace
        for method, code, rounds in (("exact", cli.EXIT_OK, 6), ("numeric", cli.EXIT_DIVERGENCE, 1)):
            got = cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gf",
                            "--gf-method", method, "--eta", "5e9", "--K", "2", "--R", "5",
                            "--w0=-693.5,0", "--out-dir", str(tmp_path), "--name", method])
            assert got == code, (method, capsys.readouterr().err)
            doc = json.loads((tmp_path / f"{method}.json").read_text())
            assert len(doc["traces"]) == rounds, method
            lyap = doc["traces"][0]["lyapunov"]
            assert 709.78 < lyap < 714.0, method
            assert (tmp_path / f"{method}.csv").exists(), method


class TestSweep:
    def test_grid_and_index(self, synthetic_file, tmp_path):
        os.environ["LOCALGD_THREADS"] = "1"
        try:
            code = cli.main(["sweep", "--dataset", str(synthetic_file),
                             "--optimizer", "local-gd", "--K-grid", "1,4",
                             "--policy-grid", "small,large", "--R", "10",
                             "--out-dir", str(tmp_path)])
        finally:
            del os.environ["LOCALGD_THREADS"]
        assert code == 0
        index = json.loads((tmp_path / "index.json").read_text())
        assert len(index["cells"]) == 4
        for cell in index["cells"]:
            assert cell["exit"] == 0
            assert (tmp_path / cell["csv"]).exists()

    def test_parallel_matches_serial(self, synthetic_file, tmp_path):
        outs = {}
        for workers, sub in (("1", "serial"), ("2", "par")):
            os.environ["LOCALGD_THREADS"] = workers
            try:
                cli.main(["sweep", "--dataset", str(synthetic_file),
                          "--optimizer", "local-gd", "--K-grid", "1,4",
                          "--policy-grid", "small", "--R", "8",
                          "--out-dir", str(tmp_path / sub)])
            finally:
                del os.environ["LOCALGD_THREADS"]
            outs[sub] = sorted(p.name for p in (tmp_path / sub).glob("*.csv"))
        assert outs["serial"] == outs["par"]
        for name in outs["serial"]:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    def test_empty_grid_is_usage_error(self, synthetic_file, tmp_path, capsys):
        for flag, grid in (("--K-grid", "x"), ("--K-grid", "1,,2"), ("--K-grid", ""),
                           ("--K-grid", "1,x"), ("--policy-grid", "small,bogus")):
            code = cli.main(["sweep", "--dataset", str(synthetic_file), "--R", "5",
                             flag, grid, "--out-dir", str(tmp_path / "out")])
            assert code == cli.EXIT_USAGE
            assert f"argument {flag}:" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cells_match_standalone_run(self, synthetic_file, tmp_path, monkeypatch, capsys,
                                        threads):
        monkeypatch.setenv("LOCALGD_THREADS", threads)
        flags = ["--dataset", str(synthetic_file), "--optimizer", "local-gd", "--R", "12",
                 "--H", "0.3", "--seed", "5", "--checks", "drift,bias"]
        # the explicit policy without --eta fails in each of its cells alone
        code = cli.main(["sweep", *flags, "--K-grid", "1,4", "--policy-grid", "small,large,explicit",
                         "--out-dir", str(tmp_path / "sweep")])
        assert code == cli.EXIT_USAGE
        cells = {c["name"]: c for c in json.loads((tmp_path / "sweep/index.json").read_text())["cells"]}
        assert len(cells) == 6
        capsys.readouterr()
        assert cli.main(["run", *flags, "--policy", "explicit", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        run_error = capsys.readouterr().err
        for K in (1, 4):
            explicit = cells[f"cell_K{K}_explicit"]
            assert explicit["exit"] == cli.EXIT_USAGE
            assert run_error == f"error: {explicit['error']}\n"
            for policy in ("small", "large"):
                name = f"cell_K{K}_{policy}"
                assert cells[name]["exit"] == 0
                assert cli.main(["run", *flags, "--K", str(K), "--policy", policy,
                                 "--out-dir", str(tmp_path / "run"), "--name", name]) == 0
                for ext in (".csv", ".json"):
                    assert ((tmp_path / "sweep" / (name + ext)).read_bytes()
                            == (tmp_path / "run" / (name + ext)).read_bytes())

    def test_serial_sweep_loads_dataset_once(self, synthetic_file, tmp_path, monkeypatch):
        calls = []
        load = cli.load_dataset
        monkeypatch.setattr(cli, "load_dataset", lambda path: calls.append(path) or load(path))
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        code = cli.main(["sweep", "--dataset", str(synthetic_file), "--optimizer", "local-gd",
                         "--K-grid", "1,2,4", "--policy-grid", "small,large", "--R", "5",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert calls == [str(synthetic_file)]
        assert cli._sweep_dataset is None

    def test_sweep_fingerprints_dataset_once(self, synthetic_file, tmp_path, monkeypatch):
        # load_dataset's verifying hash is the only one, however many cells run
        calls = []
        fingerprint = FederatedDataset.fingerprint
        monkeypatch.setattr(FederatedDataset, "fingerprint",
                            lambda ds: calls.append(1) or fingerprint(ds))
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        flags = ["--dataset", str(synthetic_file), "--eta", "1", "--R", "3"]
        for argv in (["sweep", *flags, "--K-grid", "1"], ["sweep", *flags, "--K-grid", "1,2,3,4"],
                     ["run", *flags]):
            calls.clear()
            assert cli.main([*argv, "--out-dir", str(tmp_path / str(len(argv)))]) == 0
            assert len(calls) == 1, argv

    def test_worker_count(self, synthetic_file, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LOCALGD_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._sweep_workers(3) == 3
        assert cli._sweep_workers(12) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._sweep_workers(4) == 1
        for value, cells, expected in (("1", 4, 1), ("2", 4, 2), ("6", 4, 4), (" 3 ", 5, 3)):
            monkeypatch.setenv("LOCALGD_THREADS", value)
            assert cli._sweep_workers(cells) == expected
        for bad in ("abc", "0", "-2", "", "1.5"):
            monkeypatch.setenv("LOCALGD_THREADS", bad)
            with pytest.raises(cli.UsageError, match="LOCALGD_THREADS"):
                cli._sweep_workers(4)
        # a bad value stops the sweep before any cell runs
        code = cli.main(["sweep", "--dataset", str(synthetic_file), "--eta", "1", "--R", "3",
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "LOCALGD_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cell_exit_codes_match_run(self, synthetic_file, tmp_path, monkeypatch):
        # invalid input exits 1 in a cell as in `run`, through the same table
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        cases = (["--policy", "two-stage", "--K", "2"],
                 ["--eta", "1", "--K", "0"],
                 ["--optimizer", "two-stage", "--eta1", "0.2", "--eta2", "3", "--r0", "5",
                  "--K", "2"],
                 # runs that have no iterate average refuse to write one
                 ["--optimizer", "two-stage", "--eta1", "0.2", "--eta2", "3", "--r0", "2",
                  "--K", "2", "--averaging", "uniform_average"],
                 ["--optimizer", "local-gf", "--eta", "1", "--averaging", "uniform_average"])
        for i, flags in enumerate(cases):
            common = ["--dataset", str(synthetic_file), "--R", "3", *flags]
            run_code = cli.main(["run", *common, "--out-dir", str(tmp_path / f"run{i}")])
            assert run_code == cli.EXIT_USAGE
            assert cli.main(["sweep", *common, "--out-dir", str(tmp_path / f"sweep{i}")]) == run_code
            cells = json.loads((tmp_path / f"sweep{i}/index.json").read_text())["cells"]
            assert [c["exit"] for c in cells] == [run_code]

    def test_cell_failures_are_isolated(self, synthetic_file, tmp_path):
        # the two-stage policy cell cannot drive the local-gd optimizer; its
        # failure must not stop the small-policy cells
        os.environ["LOCALGD_THREADS"] = "1"
        try:
            code = cli.main(["sweep", "--dataset", str(synthetic_file),
                             "--optimizer", "local-gd", "--K-grid", "1,2",
                             "--policy-grid", "small,two-stage", "--lambda", "1",
                             "--R", "5", "--out-dir", str(tmp_path)])
        finally:
            del os.environ["LOCALGD_THREADS"]
        index = json.loads((tmp_path / "index.json").read_text())
        by_name = {c["name"]: c for c in index["cells"]}
        assert by_name["cell_K1_small"]["exit"] == 0
        assert by_name["cell_K1_two_stage"]["exit"] != 0
        assert "error" in by_name["cell_K1_two_stage"]
        assert code != 0  # worst cell status propagates


class TestCheckCommand:
    def _run(self, synthetic_file, tmp_path, extra=()):
        cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gf",
                  "--eta", "1.0", "--K", "4", "--R", "20",
                  "--out-dir", str(tmp_path), "--name", "gf", *extra])
        return tmp_path / "gf.json"

    def test_passes_on_flow_run(self, synthetic_file, tmp_path):
        summary = self._run(synthetic_file, tmp_path)
        out = tmp_path / "report.json"
        code = cli.main(["check", "--run", str(summary), "--dataset", str(synthetic_file),
                         "--checks", "lyapunov", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["passed"] is True

    def test_violation_exit_code(self, synthetic_file, tmp_path):
        summary = self._run(synthetic_file, tmp_path)
        doc = json.loads(summary.read_text())
        doc["traces"][-1]["lyapunov"] = doc["traces"][0]["lyapunov"] * 10
        summary.write_text(json.dumps(doc))
        code = cli.main(["check", "--run", str(summary), "--dataset", str(synthetic_file),
                         "--checks", "lyapunov"])
        assert code == cli.EXIT_VIOLATION

    def test_unknown_check_is_usage_error(self, synthetic_file, tmp_path, monkeypatch, capsys):
        summary = self._run(synthetic_file, tmp_path)
        code = cli.main(["check", "--run", str(summary), "--dataset", str(synthetic_file),
                         "--checks", "entropy"])
        assert code == cli.EXIT_USAGE
        assert "available" in capsys.readouterr().err

        # run and sweep reject the name before the optimizer runs
        def runner(*_args):
            raise AssertionError("the optimizer ran")

        monkeypatch.setattr(cli.optim, "run_local_gd", runner)
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        for command in ("run", "sweep"):
            code = cli.main([command, "--dataset", str(synthetic_file), "--eta", "1", "--R", "3",
                             "--checks", "drift,entropy", "--out-dir", str(tmp_path / "out")])
            assert code == cli.EXIT_USAGE
            assert "available" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_dataset_must_be_the_runs(self, synthetic_file, tmp_path, capsys):
        summary = self._run(synthetic_file, tmp_path)
        other = tmp_path / "other.json"
        assert cli.main(["gen-data", "synthetic", "--delta", "10", "--g", "1", "--out", str(other)]) == 0
        capsys.readouterr()
        code = cli.main(["check", "--run", str(summary), "--dataset", str(other)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        for path in (synthetic_file, other):
            assert json.loads(path.read_text())["fingerprint"] in err

    # a value of another JSON type than the summary writer puts there
    WRONG_TYPES = {
        "string-loss": lambda doc: doc["traces"][1].update(global_loss="0.5"),
        "number-client-losses": lambda doc: doc["traces"][1].update(client_losses=0.5),
        "string-round": lambda doc: doc["traces"][1].update(r="3"),
        "string-eta": lambda doc: doc["config"].update(eta="1"),
        "float-K": lambda doc: doc["config"].update(K=2.5),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_summary_value_of_the_wrong_type_is_format_error(self, synthetic_file, tmp_path,
                                                             capsys, case):
        summary = self._run(synthetic_file, tmp_path)
        doc = json.loads(summary.read_text())
        self.WRONG_TYPES[case](doc)
        summary.write_text(json.dumps(doc))
        code = cli.main(["check", "--run", str(summary), "--dataset", str(synthetic_file)])
        assert code == cli.EXIT_IO
        assert "not a run summary file" in capsys.readouterr().err

    def test_corrupted_summary_is_format_error(self, synthetic_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traces": "nope"}')
        code = cli.main(["check", "--run", str(bad), "--dataset", str(synthetic_file)])
        assert code == cli.EXIT_IO
        bad.write_text("{broken")
        assert cli.main(["check", "--run", str(bad), "--dataset", str(synthetic_file)]) == cli.EXIT_IO
        # a config that is not an object, or that RunConfig rejects
        summary = json.loads(self._run(synthetic_file, tmp_path).read_text())
        for config in ([], {**summary["config"], "R": 0}, {**summary["config"], "engine": "gpu"}):
            bad.write_text(json.dumps({**summary, "config": config}))
            code = cli.main(["check", "--run", str(bad), "--dataset", str(synthetic_file)])
            assert code == cli.EXIT_IO, config
        # a summary that does not say which dataset it ran on
        for dataset in ({}, {**summary["dataset"], "fingerprint": None}):
            bad.write_text(json.dumps({**summary, "dataset": dataset}))
            code = cli.main(["check", "--run", str(bad), "--dataset", str(synthetic_file)])
            assert code == cli.EXIT_IO, dataset


class TestNotApplicable:
    """A check that cannot judge a run reports it N/A; the command goes on."""

    MULTI = DATA_DIR / "golden_multi_sample.json"  # stores no margin

    @staticmethod
    def _stable_reports_na(reports, n_traces):
        stable = [r for r in reports if r["name"].startswith("stable-")]
        assert stable
        for r in stable:
            assert (r["passed"], r["instances_checked"], r["na_count"]) == (True, 0, n_traces)

    def test_data_without_margin_never_runs_the_solver(self, tmp_path, capsys, no_solver):
        code = cli.main(["run", "--dataset", str(self.MULTI), "--policy", "small", "--K", "3", "--R", "10",
                         "--checks", "drift,bias,stable-rate", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out/run.csv").exists()
        summary = json.loads((tmp_path / "out/run.json").read_text())
        assert [r["name"] for r in summary["checks"]] == ["client-drift", "gradient-bias", "stable-rate"]
        self._stable_reports_na(summary["checks"], len(summary["traces"]))
        capsys.readouterr()
        code = cli.main(["check", "--run", str(tmp_path / "out/run.json"), "--dataset", str(self.MULTI)])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert len(reports) == 5
        self._stable_reports_na(reports, len(summary["traces"]))

    def test_named_check_without_trace_data(self, synthetic_file, tmp_path):
        # a flow run records no drift: the named check reports every round N/A
        code = cli.main(["run", "--dataset", str(synthetic_file), "--optimizer", "local-gf",
                         "--eta", "1", "--K", "2", "--R", "5", "--checks", "drift",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        (drift,) = json.loads((tmp_path / "run.json").read_text())["checks"]
        assert (drift["name"], drift["instances_checked"], drift["na_count"]) == ("client-drift", 0, 6)


class TestExitCodes:
    def test_usage(self):
        assert cli.main(["run", "--nonsense"]) == cli.EXIT_USAGE
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_file_is_io(self, tmp_path):
        code = cli.main(["run", "--dataset", str(tmp_path / "absent.json"),
                         "--eta", "1", "--R", "3", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_IO

    def test_malformed_dataset_is_format_error(self, synthetic_file, tmp_path, monkeypatch):
        doc = json.loads(synthetic_file.read_text())
        no_d = tmp_path / "no_d.json"
        no_d.write_text(json.dumps({k: v for k, v in doc.items() if k != "d"}))
        wrong_format = tmp_path / "wrong_format.json"
        wrong_format.write_text(json.dumps(dict(doc, format="other-dataset")))
        for path in (no_d, wrong_format):
            code = cli.main(["run", "--dataset", str(path), "--eta", "1", "--R", "3",
                             "--out-dir", str(tmp_path / "run")])
            assert code == cli.EXIT_IO
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        code = cli.main(["sweep", "--dataset", str(no_d), "--eta", "1", "--R", "3",
                         "--K-grid", "1,2", "--out-dir", str(tmp_path / "sweep")])
        assert code == cli.EXIT_IO
        cells = json.loads((tmp_path / "sweep/index.json").read_text())["cells"]
        assert [c["exit"] for c in cells] == [cli.EXIT_IO] * 2
        assert all(str(no_d) in c["error"] for c in cells)

    @pytest.mark.parametrize("argv", [
        ["run", "--dataset", "BAD", "--eta", "1", "--R", "3", "--out-dir", "OUT"],
        ["run", "--config", "BAD", "--dataset", "GOOD", "--eta", "1", "--R", "3", "--out-dir", "OUT"],
        ["check", "--run", "BAD", "--dataset", "GOOD"],
    ])
    def test_file_that_is_not_utf8_is_format_error(self, synthetic_file, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        paths = {"BAD": bad, "GOOD": synthetic_file, "OUT": tmp_path / "run"}
        assert cli.main([str(paths.get(a, a)) for a in argv]) == cli.EXIT_IO

    def test_non_numeric_entry_is_format_error(self, synthetic_file, tmp_path):
        # without a fingerprint only the entry check stands between null and NaN
        doc = json.loads(synthetic_file.read_text())
        del doc["fingerprint"]
        doc["clients"][0][0][0] = None
        path = tmp_path / "null.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", "--dataset", str(path), "--eta", "1", "--R", "3",
                         "--out-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_IO

    def test_envelope_command(self, capsys):
        assert cli.main(["envelope", "--kind", "two-stage", "--gamma", "0.5",
                         "--K", "8", "--R", "100", "--r0", "10", "--eta2", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(2 / (1 * 0.25 * 8 * 90))

    @pytest.mark.parametrize("flag", [("--gamma", "0"), ("--gamma", "1.5"), ("--K", "0"),
                                      ("--eta2", "0"), ("--eta2", "inf"), ("--r0", "-10"),
                                      ("--r0", "100")], ids="=".join)
    def test_envelope_two_stage_refuses_bad_arguments(self, flag, capsys):
        args = {"--gamma": "0.5", "--K": "8", "--R": "100", "--r0": "10", "--eta2": "1"}
        args.update([flag])
        assert cli.main(["envelope", "--kind", "two-stage",
                         *(t for item in args.items() for t in item)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_envelope_gf_kind(self, synthetic_file, capsys):
        code = cli.main(["envelope", "--kind", "gf", "--dataset", str(synthetic_file),
                         "--eta", "1", "--K", "4", "--r", "1e120"])
        # tau for this geometry overflows, so no round is past the threshold
        assert code == cli.EXIT_USAGE

    def test_envelope_gf_prints_the_run_summary_constants(self, tmp_path, capsys):
        # two close directions keep tau finite
        ds = FederatedDataset(clients=[np.array([[1.0, 0.0]]), np.array([[0.9, 0.05]])], d=2)
        compute_margin(ds)
        path = tmp_path / "close.json"
        save_dataset(ds, path)
        assert cli.main(["run", "--dataset", str(path), "--optimizer", "local-gf", "--eta", "1",
                         "--K", "2", "--R", "300", "--trace-every", "100",
                         "--out-dir", str(tmp_path), "--name", "gf"]) == 0
        summary = json.loads((tmp_path / "gf.json").read_text())["envelopes"]
        capsys.readouterr()
        assert cli.main(["envelope", "--kind", "gf", "--dataset", str(path), "--eta", "1",
                         "--K", "2", "--r", "300"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["constants"]) == ["L0", "H0", "nu", "tau", "tau0", "tau1", "c"]
        assert doc["constants"] == summary["gf_constants"]
        assert doc["value"] == summary["gf_final"]

    def test_config_file_supplies_defaults(self, synthetic_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"R": 6, "K": 2, "eta": 0.5, "out_dir": str(tmp_path)}))
        forms = (("fromcfg", ["--config", str(cfg)]), ("eqform", [f"--config={cfg}"]),
                 ("abbrev", ["--conf", str(cfg)]), ("abbrev_eq", [f"--conf={cfg}"]),
                 ("last", ["--config", str(tmp_path / "absent.json"), "--config", str(cfg)]))
        for name, form in forms:
            code = cli.main(["run", "--dataset", str(synthetic_file), *form, "--name", name])
            assert code == 0, name
            rows = (tmp_path / f"{name}.csv").read_text().strip().split("\n")[2:]
            assert [int(r.split(",")[0]) for r in rows] == list(range(7))

    def test_ambiguous_config_abbreviation_is_usage_error(self, synthetic_file, tmp_path, capsys):
        # --c could be --checks or --config; the config finder reads flags as argparse
        # does, so the file is never opened (a missing one would exit 4)
        missing = str(tmp_path / "missing.json")
        for command in ("run", "sweep"):
            for form in (["--c", missing], [f"--c={missing}"]):
                code = cli.main([command, "--dataset", str(synthetic_file), "--R", "3", *form,
                                 "--out-dir", str(tmp_path / "out")])
                assert code == cli.EXIT_USAGE, (command, form)
                assert "ambiguous option: --c" in capsys.readouterr().err, (command, form)
                assert not (tmp_path / "out").exists()

    def test_command_line_beats_config_in_equals_form(self, synthetic_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"R": 10, "K": 2, "eta": 0.5, "out_dir": str(tmp_path / "cfg")}))
        out = str(tmp_path / "cli")
        # every spelling argparse accepts beats the config, abbreviations included
        for i, flags in enumerate((["--R=3", "--out-dir", out], ["--R", "3", "--out", out],
                                   ["--R", "3", f"--out={out}"], ["--R=3", "--out-d", out])):
            code = cli.main(["run", "--dataset", str(synthetic_file), *flags, "--config", str(cfg),
                             "--name", f"eq{i}"])
            assert code == 0, flags
            assert not (tmp_path / "cfg").exists(), flags
            rows = (tmp_path / "cli" / f"eq{i}.csv").read_text().strip().split("\n")[2:]
            assert [int(r.split(",")[0]) for r in rows] == [0, 1, 2, 3]

    def test_config_values_parse_like_flags(self, synthetic_file, tmp_path, monkeypatch):
        # a JSON list is the comma-separated flag value; a string may start with "-"
        monkeypatch.setenv("LOCALGD_THREADS", "1")
        common = ["--dataset", str(synthetic_file), "--eta", "0.5", "--R", "3"]
        cases = (
            ("sweep", {"K_grid": [1, 2], "w0": [0.1, 0.2], "checks": ["drift", "bias"]},
             ["--K-grid", "1,2", "--w0", "0.1,0.2", "--checks", "drift,bias"]),
            ("run", {"w0": "-1,2", "checks": "drift", "seed": None}, ["--w0=-1,2", "--checks", "drift"]),
            ("run", {"w0": [-1, 2.5], "emit": ["json"]}, ["--w0=-1,2.5", "--emit", "json"]),
        )
        for i, (command, entries, flags) in enumerate(cases):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(entries))
            a, b = tmp_path / f"cfg{i}", tmp_path / f"flags{i}"
            assert cli.main([command, *common, "--config", str(cfg), "--out-dir", str(a)]) == 0
            assert cli.main([command, *common, *flags, "--out-dir", str(b)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir()), i
            for name in names:
                if name.endswith(".json"):
                    assert json.loads((a / name).read_text()) == json.loads((b / name).read_text())
                else:
                    assert (a / name).read_bytes() == (b / name).read_bytes()
        # nested values, a file that is not an object, and a bare --config
        for i, bad in enumerate(({"w0": [[1, 2]]}, {"K": {"value": 2}}, [1, 2])):
            cfg = tmp_path / f"bad{i}.json"
            cfg.write_text(json.dumps(bad))
            assert cli.main(["run", *common, "--config", str(cfg),
                             "--out-dir", str(tmp_path / "bad")]) == cli.EXIT_USAGE
        assert cli.main(["run", *common, "--out-dir", str(tmp_path / "bad"), "--config"]) == cli.EXIT_USAGE
        assert not (tmp_path / "bad").exists()

    def test_list_flag_values_are_checked_before_anything_runs(self, synthetic_file, tmp_path, capsys):
        common = ["--dataset", str(synthetic_file), "--eta", "0.5", "--R", "3",
                  "--out-dir", str(tmp_path / "out")]
        for flags, flag in ((["--emit", "cvs"], "--emit"), (["--emit", "csv,cvs"], "--emit"),
                            (["--w0", "1,x"], "--w0"), (["--w0=1,,2"], "--w0")):
            assert cli.main(["run", *common, *flags]) == cli.EXIT_USAGE, flags
            assert f"argument {flag}:" in capsys.readouterr().err, flags
            assert not (tmp_path / "out").exists()
        # blank --emit entries are skipped, and an empty --emit writes nothing
        assert cli.main(["run", *common, "--emit", " csv,,", "--name", "c"]) == 0
        assert cli.main(["run", *common, "--emit", "", "--name", "none"]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["c.csv"]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_parse():
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert {c[0] for c in commands} == {"localgd"}
    assert {c[1] for c in commands} == {"gen-data", "run", "sweep", "check", "envelope"}
    parser = cli.build_parser()
    for command in commands:
        parser.parse_args(command[1:])
