import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nfgaps.cli import run


def read_artifacts(out_dir):
    """All emitted bytes except the manifest's timestamp field."""
    result = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        if path.name == "manifest.json":
            payload = json.loads(path.read_text())
            payload.pop("started")
            result[path.name] = json.dumps(payload, sort_keys=True)
        else:
            result[str(path.relative_to(out_dir))] = path.read_bytes()
    return result


class TestCurveCommand:
    def test_centered_and_raw(self, tmp_path):
        assert run(["curve", "--q", "7", "--h", "1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "curve_q7_h1_centered.csv").exists()
        meta = json.loads((tmp_path / "curve_q7_h1_centered.json").read_text())
        assert meta["count"] == 5

        assert run(["curve", "--q", "7", "--h", "0", "--raw", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "curve_q7_h0_raw.csv").exists()

    def test_union(self, tmp_path):
        assert run(["curve", "--q", "9", "--union", "--out", str(tmp_path)]) == 0
        files = sorted((tmp_path / "union_q9").glob("h*.csv"))
        assert len(files) == 9

    def test_missing_shift_is_validation_error(self, tmp_path, capsys):
        assert run(["curve", "--q", "7", "--out", str(tmp_path)]) == 2
        assert "--h is required" in capsys.readouterr().err

    def test_even_modulus_is_validation_error(self, tmp_path, capsys):
        assert run(["curve", "--q", "8", "--h", "1", "--out", str(tmp_path)]) == 2
        assert "odd integer" in capsys.readouterr().err


class TestGapsCommand:
    def test_outputs_and_rerun_identical(self, tmp_path):
        args = ["gaps", "--q", "101", "--h", "1", "--t", "2.76",
                "--grid", "0:3:0.01", "--per-point", "--out", str(tmp_path)]
        assert run(args) == 0
        first = read_artifacts(tmp_path)
        assert "gaps_q101_h1.csv" in first
        assert "gaps_q101_h1_points.csv" in first
        header = json.loads((tmp_path / "gaps_q101_h1.json").read_text())
        assert header["q"] == 101 and header["n"] == 99

        assert run(args) == 0
        assert read_artifacts(tmp_path) == first

    def test_observer_validation(self, tmp_path, capsys):
        assert run(["gaps", "--q", "101", "--h", "1", "--t", "1/50",
                    "--out", str(tmp_path)]) == 2
        assert "strictly left" in capsys.readouterr().err

    def test_large_t_in_float_range(self, tmp_path):
        # t*J^2 = 2.5e307 at q = 101 (J = 50) is still a finite float
        assert run(["gaps", "--q", "101", "--h", "1", "--t", "1e304", "--per-point",
                    "--out", str(tmp_path)]) == 0


class TestLimitCommand:
    def test_curve_and_tiles(self, tmp_path):
        assert run(["limit", "--t", "2.76", "--grid", "0:2:0.5",
                    "--tile-t", "1:3:0.5", "--tile-lambda", "0:2:0.5",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "limit_t2.76.csv").read_text().splitlines()
        assert lines[0] == "lambda,G_limit,g_limit,region"
        assert (tmp_path / "tiles.csv").exists()

    def test_unpaired_tile_flags(self, tmp_path):
        assert run(["limit", "--t", "2.76", "--tile-t", "1:3:0.5",
                    "--out", str(tmp_path)]) == 2

    def test_huge_t(self, tmp_path):
        # 1 +- 2/t rounds to 1: G steps from 1 through Phi(0) = 1/2 to 0 at lambda = 1
        assert run(["limit", "--t", "1e100", "--grid", "0:2:0.5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "limit_t1e+100.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "1", "0.5", "0", "0"]

    def test_t_below_one_rejected(self, tmp_path, capsys):
        assert run(["limit", "--t", "0.5", "--out", str(tmp_path)]) == 2
        assert "t < 1" in capsys.readouterr().err


class TestOmegaCommand:
    def test_monte_carlo_row(self, tmp_path):
        assert run(["omega", "--t", "2.76", "--lambda", "0.8", "--samples",
                    "100000", "--seed", "42", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "omega.csv").read_text().splitlines()
        assert lines[0] == "t,lambda,D,samples,seed,estimate,std_error"
        assert len(lines) == 2

    def test_quadrature_rows(self, tmp_path):
        assert run(["omega", "--t", "3", "--lambda", "0.5", "1.5", "--samples",
                    "100000", "--quadrature", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "omega.csv").read_text().splitlines()
        assert len(lines) == 5  # two lambdas x (monte carlo + quadrature)

    def test_sample_floor_validation(self, tmp_path):
        assert run(["omega", "--t", "2.76", "--lambda", "0.5", "--samples",
                    "10", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_validation(self, threads, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr("nfgaps.omega.ThreadPoolExecutor", no_pool)
        assert run(["omega", "--t", "2.76", "--lambda", "0.5", "--samples", "100000",
                    "--threads", threads, "--out", str(tmp_path)]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_sample_count_bound(self, tmp_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        # t = 2.76 draws 3 coordinates per sample: 3 * (2**64 // 3 + 1) > 2**64
        monkeypatch.setattr("nfgaps.omega.ThreadPoolExecutor", no_pool)
        assert run(["omega", "--t", "2.76", "--lambda", "0.5", "--samples",
                    str(2 ** 64 // 3 + 1), "--out", str(tmp_path)]) == 2
        assert "--samples" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExpsumCommand:
    def test_sum_and_box(self, tmp_path):
        assert run(["expsum", "--p", "101", "--h", "1", "--D", "1",
                    "--sum-a", "1", "--sum-b", "2,3",
                    "--box", "0:50", "0:50", "0:50", "--out", str(tmp_path)]) == 0
        sums = (tmp_path / "sums.csv").read_text().splitlines()
        assert sums[0] == "p,d,a,b1,b2,re,im,bound_ratio"
        boxes = (tmp_path / "boxes.csv").read_text().splitlines()
        assert boxes[0] == "p,d,count,main_term,normalized_error"

    def test_requires_work(self, tmp_path):
        assert run(["expsum", "--p", "101", "--out", str(tmp_path)]) == 2

    def test_graph_over_the_cell_cap(self, tmp_path, capsys, monkeypatch):
        # about 4e9 int64 cells: refused before any map or array is built
        def no_map(**kwargs):
            raise AssertionError("a map was built")

        monkeypatch.setattr("nfgaps.expsum.FracLinear", no_map)
        assert run(["expsum", "--p", "2000003", "--D", "1000", "--sum-b", "1",
                    "--out", str(tmp_path)]) == 2
        assert "--D" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_box_window_arity(self, tmp_path, capsys):
        assert run(["expsum", "--p", "101", "--box", "0:50", "0:50",
                    "--out", str(tmp_path)]) == 2
        assert "value windows" in capsys.readouterr().err


class TestScanCommand:
    def test_convergence_with_curves(self, tmp_path):
        assert run(["scan", "--kind", "convergence", "--t", "2.76", "--h", "1",
                    "--q", "101", "211", "--grid", "0:3:0.1", "--curves",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["cells"]) == 2
        assert (tmp_path / "curve_q101_h1_t2.76.csv").exists()

    def test_equidistribution(self, tmp_path):
        assert run(["scan", "--kind", "equidistribution", "--q", "101",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "ks_statistic" in report["config"]

    def test_exponential(self, tmp_path):
        assert run(["scan", "--kind", "exponential", "--q", "101", "--h", "1",
                    "--t", "3", "1/2", "--grid", "0:3:0.1",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["cells"]) == 2

    def test_missing_moduli(self, tmp_path):
        assert run(["scan", "--kind", "convergence", "--out", str(tmp_path)]) == 2

    def test_composite_curves_skip_even_moduli(self, tmp_path):
        assert run(["scan", "--kind", "composite", "--q", "25", "26", "27",
                    "--t", "1.5", "--h", "2", "--curves", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [cell["q"] for cell in report["cells"]] == [25, 27]
        curves = sorted(path.name for path in tmp_path.glob("curve_*.csv"))
        assert curves == ["curve_q25_h2_t1.5.csv", "curve_q27_h2_t1.5.csv"]


class TestValidationErrors:
    @pytest.mark.parametrize("argv", [
        ["limit", "--t", "2.76", "--tile-t", "1:3:0.5"],
        ["limit", "--t", "2.76", "--tile-t", "0.5:1:0.5", "--tile-lambda", "0:1:0.5"],
        ["expsum", "--p", "101", "--sum-b", "2,3", "--box", "0:50", "0:50"],
        ["expsum", "--p", "101", "--sum-b", "2,3", "--box", "0:50", "0:50", "0:500"],
        ["curve", "--q", "4", "--union"],
        ["curve", "--q", "3037000501", "--union"],
    ], ids=["unpaired-tiles", "tile-t-below-one", "box-arity", "box-window",
            "union-even-q", "union-q-beyond-int64"])
    def test_no_partial_artifacts(self, argv, tmp_path):
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["expsum", "--p", "101", "--sum-b", "2,x"], "--sum-b"),
        (["scan", "--kind", "convergence", "--q", "101", "--h", "1", "2"], "--h"),
        (["scan", "--kind", "convergence", "--q", "101", "--t", "2.76", "3"], "--t"),
        (["scan", "--kind", "h-independence", "--q", "101", "103", "--h", "1", "2"], "--q"),
        (["scan", "--kind", "h-independence", "--q", "101", "--h", "1", "2",
          "--t", "2.76", "3"], "--t"),
        (["scan", "--kind", "composite", "--q", "25", "27", "--h", "1", "2"], "--h"),
        (["scan", "--kind", "composite", "--q", "25", "27", "--t", "1.5", "2"], "--t"),
        (["scan", "--kind", "equidistribution", "--q", "101", "103"], "--q"),
        (["scan", "--kind", "equidistribution", "--q", "101", "--h", "1", "2"], "--h"),
        (["scan", "--kind", "equidistribution", "--q", "101", "--t", "2.76", "3"], "--t"),
        (["scan", "--kind", "exponential", "--q", "101", "103", "--t", "3", "1/2"], "--q"),
        (["scan", "--kind", "exponential", "--q", "101", "--h", "1", "2", "--t", "3"], "--h"),
        (["scan", "--kind", "exponential", "--q", "101", "--h", "1", "--t", "1/3", "0.333333",
          "--curves"], "--t"),
        (["omega", "--t", "2.76", "--lambda", "nan", "--samples", "10000", "--quadrature"],
         "--lambda"),
        (["omega", "--t", "1.45", "--lambda", "nan", "--samples", "10000"], "--lambda"),
        (["omega", "--t", "1/20", "--lambda", "1", "--samples", "10000", "--quadrature"],
         "--t"),
        (["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--grid", "0:nan:0.01"], "--grid"),
        (["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--grid", "0:1e9:1e-3"], "--grid"),
        (["limit", "--t", "2.76", "--grid", "0:1:0.5", "--tile-t", "1:inf:0.5",
          "--tile-lambda", "0:1:0.5"], "--tile-t"),
        (["limit", "--t", "2.76", "--grid", "0:1:0.5", "--tile-t", "1:3:0.5",
          "--tile-lambda", "0:1:nan"], "--tile-lambda"),
        (["limit", "--t", "1e400", "--grid", "0:2:1"], "--t"),
        (["omega", "--t", "1e400", "--lambda", "1", "--samples", "10000"], "--t"),
        (["gaps", "--q", "101", "--h", "1", "--t", "1e400"], "--t"),
        (["scan", "--kind", "exponential", "--q", "101", "--h", "1", "--t", "1e400"], "--t"),
        (["omega", "--t", "1e-310", "--lambda", "1", "--samples", "10000"], "--t"),
        (["curve", "--q", "101", "--h", "5", "--union"], "--h"),
        (["gaps", "--q", "101", "--h", "1", "--t", "1e306"], "--t"),
        (["scan", "--kind", "exponential", "--q", "101", "--h", "1", "--t", "1e306"], "--t"),
        (["scan", "--kind", "equidistribution", "--q", "101", "--h", "1", "--t", "1e306"],
         "--t"),
        (["expsum", "--p", "101", "--box", "0:50", "0:50", "0:50", "--interval", "0:10"],
         "--interval"),
        (["expsum", "--p", "101", "--box", "0:50", "0:50", "0:50", "--sum-a", "3"], "--sum-a"),
        (["scan", "--kind", "equidistribution", "--q", "3", "--h", "1", "--t", "2.76"], "--q"),
        (["omega", "--t", "2.76", "--lambda", "inf", "--samples", "10000"], "--lambda"),
        (["omega", "--t", "1.45", "--lambda", "1", "inf", "--samples", "10000",
          "--quadrature"], "--lambda"),
    ], ids=["sum-b-literal", "convergence-h", "convergence-t", "h-independence-q",
            "h-independence-t", "composite-h", "composite-t", "equidistribution-q",
            "equidistribution-h", "equidistribution-t", "exponential-q", "exponential-h",
            "exponential-curve-names",
            "omega-nan-lambda-d1", "omega-nan-lambda-d2", "omega-quadrature-below-floor",
            "grid-nan", "grid-too-many-points", "tile-t-inf", "tile-lambda-nan",
            "limit-t-overflow", "omega-t-overflow", "gaps-t-overflow", "scan-t-overflow",
            "omega-t-subnormal", "curve-union-h", "gaps-t-float-overflow",
            "exponential-t-float-overflow", "equidistribution-t-float-overflow",
            "expsum-interval-without-sum", "expsum-sum-a-without-sum",
            "equidistribution-one-angle", "omega-inf-lambda", "omega-inf-lambda-quadrature"])
    def test_flag_value_named(self, argv, flag, tmp_path, capsys):
        # usage errors stop in argparse, before the output directory exists
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["curve", "--q", "3037000501", "--h", "1"], "--q"),
        (["gaps", "--q", "3037000501", "--h", "1", "--t", "3"], "--q"),
        (["expsum", "--p", "3037000507", "--sum-b", "1,2"], "--p"),
    ], ids=["curve", "gaps", "expsum"])
    def test_modulus_beyond_int64(self, argv, flag, tmp_path, capsys, monkeypatch):
        def no_table(q):
            raise AssertionError("an inverse table was built")

        monkeypatch.setattr("nfgaps.modcurve._inverse_table", no_table)
        monkeypatch.setattr("nfgaps.expsum._inverse_table", no_table)
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err


class TestManifest:
    def test_schema_and_artifact_listing(self, tmp_path):
        run(["gaps", "--q", "101", "--h", "1", "--t", "3", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {"command", "flags", "seed", "version",
                                 "started", "artifacts"}
        assert manifest["command"] == "gaps"
        assert manifest["seed"] == 42
        assert manifest["flags"]["t"] == "3"
        for name in manifest["artifacts"]:
            assert (tmp_path / name).exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NFGAPS_OUT", str(tmp_path / "from_env"))
        assert run(["limit", "--t", "3", "--grid", "0:1:0.5"]) == 0
        assert (tmp_path / "from_env" / "limit_t3.csv").exists()


class TestProcessLevel:
    def test_module_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nfgaps.cli", "limit", "--t", "2.76",
             "--grid", "0:1:0.5", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "limit_t2.76.csv" in proc.stdout

    def test_unknown_flag_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nfgaps.cli", "limit", "--t", "2.76",
             "--frobnicate", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_overflowing_lambda_warns_nothing(self, tmp_path):
        # lam = 1e308 puts window ends past the float range; with warnings as
        # errors the run must still succeed and print nothing to stderr
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nfgaps.cli", "omega", "--t", "2.76",
             "--lambda", "1e308", "--samples", "10000", "--quadrature", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = (tmp_path / "omega.csv").read_text().splitlines()[1:]
        assert [row.split(",")[5] for row in rows] == ["0", "0"]

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test-only dependency: the package must not import it.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, nfgaps.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
