import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import nfgaps.modcurve
import nfgaps.omega
from nfgaps import build_curve
from nfgaps.cli import _write_points, run
from nfgaps.experiments import h_independence
from nfgaps.modcurve import POINTS_MAX, UNION_MODULUS_MAX


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

    def test_union(self, tmp_path, monkeypatch):
        tables = []
        inverse_table = nfgaps.modcurve._inverse_table
        monkeypatch.setattr("nfgaps.modcurve._inverse_table",
                            lambda q: tables.append(q) or inverse_table(q))
        assert run(["curve", "--q", "9", "--union", "--out", str(tmp_path)]) == 0
        files = sorted((tmp_path / "union_q9").glob("h*.csv"))
        assert len(files) == 9
        assert tables == [9] * 9         # one curve per shift, none built to check q

    def test_union_memory_holds_one_shift(self, tmp_path):
        # all 1009 shifts at once trace about 16 MB
        tracemalloc.start()
        try:
            assert run(["curve", "--q", "1009", "--union", "--out", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "union_q1009").glob("h*.csv"))) == 1009
        assert peak < 2 << 20

    def test_missing_shift_is_validation_error(self, tmp_path, capsys):
        assert run(["curve", "--q", "7", "--out", str(tmp_path)]) == 2
        assert "--h is required" in capsys.readouterr().err

    def test_even_modulus_is_validation_error(self, tmp_path, capsys):
        assert run(["curve", "--q", "8", "--h", "1", "--out", str(tmp_path)]) == 2
        assert "odd integer" in capsys.readouterr().err

    def test_export_memory_holds_one_batch_of_rows(self, tmp_path):
        ps = build_curve(100003, 1)
        tracemalloc.start()
        try:
            _write_points(tmp_path / "curve.csv", ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20


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

    def test_tiny_t_message_is_short(self, tmp_path, capsys):
        # the exact t = 10**-300 has a 301-digit denominator; the message prints float(t)
        assert run(["gaps", "--q", "101", "--h", "1", "--t", "1e-300",
                    "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "t=1e-300, J=50" in err and len(err) < 120

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

    @pytest.mark.parametrize("argv, flag", [
        (["--t", "0.05", "--lambda", "1", "--quadrature"], "--t"),
        (["--t", "1.45", "--lambda", "1", "inf"], "--lambda"),
    ], ids=["quadrature-below-floor", "second-lambda"])
    def test_every_precondition_before_sampling(self, argv, flag, tmp_path, capsys,
                                                monkeypatch):
        def no_volume(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr("nfgaps.cli.omega_volume", no_volume)
        assert run(["omega", *argv, "--samples", "10000", "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err

    def test_windows_built_once_per_evaluator_call(self, tmp_path, monkeypatch):
        # the up-front checks count the region's coordinates without its windows
        calls = []
        windows = nfgaps.omega._windows
        monkeypatch.setattr("nfgaps.omega._windows",
                            lambda *args: calls.append(args) or windows(*args))
        assert run(["omega", "--t", "2.76", "--lambda", "1", "0.5", "--samples", "10000",
                    "--threads", "1", "--quadrature", "--out", str(tmp_path)]) == 0
        assert len(calls) == 4           # two lambdas, Monte Carlo and quadrature each

    def test_region_row_cap(self, tmp_path, capsys, monkeypatch):
        # t = 1e-6 needs about 4e6 rows, over _MAX_ROWS: refused before any window array
        def no_windows(*args):
            raise AssertionError("window arrays were built")

        monkeypatch.setattr("nfgaps.omega._windows", no_windows)
        assert run(["omega", "--t", "1e-6", "--lambda", "1", "--samples", "10000",
                    "--out", str(tmp_path)]) == 2
        assert "--t" in capsys.readouterr().err
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
        # about 4e9 uint32 cells: refused before any map or array is built
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

    @pytest.mark.parametrize("argv", [
        ["--sum-b", "1,x"], ["--sum-b", "1,2,3"], ["--sum-a", "3", "--box", "0:50"] + ["0:9"] * 2,
        ["--sum-b", "1,2", "--box", "0:50"], ["--sum-b", "1,2", "--interval", "0:101"],
        ["--box", "0:50", "0:101", "0:50"],
    ], ids=["sum-b-literal", "sum-b-arity", "sum-a-without-sum", "box-arity",
            "interval-past-p", "box-window-past-p"])
    def test_failed_validation_builds_no_graph(self, argv, tmp_path, monkeypatch):
        # every column of a sum or box is read off the inverse table, so no table, no column
        def no_table(p):
            raise AssertionError("an inverse table was built")

        monkeypatch.setattr("nfgaps.expsum.inverse_table", no_table)
        assert run(["expsum", "--p", "101", "--D", "1", *argv, "--out", str(tmp_path)]) == 2


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

    def test_h_independence(self, tmp_path):
        assert run(["scan", "--kind", "h-independence", "--q", "1009", "--h", "1", "2", "500",
                    "--t", "2.76", "--out", str(tmp_path)]) == 0
        cells = json.loads((tmp_path / "report.json").read_text())["cells"]
        reports, _ = h_independence(Fraction("2.76"), 1009, [1, 2, 500])
        assert [(cell["h"], cell["h2"]) for cell in cells] == [(1, 2), (1, 500), (2, 500)]
        assert all({"q", "h", "h2", "t"} <= set(cell) and cell["q"] == 1009 for cell in cells)
        assert [cell["sup_distance"] for cell in cells] == [r["sup_distance"] for r in reports]

    def test_missing_moduli(self, tmp_path):
        assert run(["scan", "--kind", "convergence", "--out", str(tmp_path)]) == 2

    def test_composite_curves_skip_even_moduli(self, tmp_path):
        assert run(["scan", "--kind", "composite", "--q", "25", "26", "27",
                    "--t", "1.5", "--h", "2", "--curves", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [cell["q"] for cell in report["cells"]] == [25, 27]
        curves = sorted(path.name for path in tmp_path.glob("curve_*.csv"))
        assert curves == ["curve_q25_h2_t1.5.csv", "curve_q27_h2_t1.5.csv"]

    def test_curve_names_checked_before_the_scan(self, tmp_path, capsys, monkeypatch):
        # 1/3 and 0.333333 both name curve_q1000003_h1_t0.333333.csv
        def no_scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr("nfgaps.cli.exponential_limit_scan", no_scan)
        out = tmp_path / "out"
        assert run(["scan", "--kind", "exponential", "--q", "1000003", "--h", "1",
                    "--t", "1/3", "0.333333", "--curves", "--out", str(out)]) == 2
        assert "first 6 significant digits" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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
        (["expsum", "--p", "101", "--D", "1", "--sum-b", "1,2,3"], "--sum-b"),
        (["omega", "--t", "2.76", "--lambda", "1", "--samples", "10000", "--seed", "-1"],
         "--seed"),
        (["omega", "--t", "2.76", "--lambda", "1", "--samples", "10000",
          "--seed", str(2 ** 64)], "--seed"),
        (["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--grid", "0:1e-10:1e-13"], "--grid"),
        (["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--grid",
          "1e15:1000000000000001:0.01"], "--grid"),
        (["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--grid", "1e299:1e300:1e299"],
         "--grid"),
        (["limit", "--t", "0.5"], "--t"),
        (["limit", "--t", "2.76", "--tile-t", "0.5:2:0.5", "--tile-lambda", "0:1:0.5"],
         "--tile-t"),
        (["scan", "--kind", "exponential", "--q", "9975", "--h", "1", "--t", "2"], "--q"),
        (["scan", "--kind", "exponential", "--q", "10007", "--h", "10007", "--t", "2"], "--h"),
        (["scan", "--kind", "equidistribution", "--q", "10007", "--h", "0", "--t", "2.76"],
         "--h"),
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
            "equidistribution-one-angle", "omega-inf-lambda", "omega-inf-lambda-quadrature",
            "sum-b-arity", "omega-negative-seed", "omega-seed-past-64-bits",
            "grid-step-below-rounding", "grid-step-below-spacing", "grid-overflow",
            "limit-t-below-one", "tile-t-below-one", "exponential-composite-q",
            "exponential-h-multiple-of-q", "equidistribution-h-zero"])
    def test_flag_value_named(self, argv, flag, tmp_path, capsys):
        # usage errors stop in argparse, before the output directory exists
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--interval", "5:3"],
        ["--box", "5:3", "0:10", "0:10"],
    ], ids=["interval", "box"])
    def test_reversed_interval_message(self, argv, tmp_path, capsys):
        # the window's own precondition reaches stderr, not argparse's generic text
        out = tmp_path / "out"
        assert run(["expsum", "--p", "101", "--sum-b", "1,2", *argv, "--out", str(out)]) == 2
        assert "invalid interval [5, 3]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gaps", "--q", "101", "--h", "1"],
        ["limit"],
        ["omega", "--lambda", "1", "--samples", "10000"],
    ], ids=["gaps", "limit", "omega"])
    def test_underflowing_t_named(self, argv, tmp_path, capsys):
        # a positive --t whose float is 0 stops in argparse, quoting the text given
        out = tmp_path / "out"
        assert run([*argv, "--t", "1e-400", "--out", str(out)]) == 2
        assert "1e-400" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["curve", "--q", "11", "--h", "1"],
        ["gaps", "--q", "11", "--h", "1", "--t", "2.76"],
        ["limit", "--t", "2.76"],
        ["omega", "--t", "2.76", "--lambda", "1", "--samples", "10000"],
        ["expsum", "--p", "11", "--sum-b", "1,2"],
        ["scan", "--kind", "composite", "--q", "10", "12"],
    ], ids=["curve", "gaps", "limit", "omega", "expsum", "scan"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_cap_below_one(self, argv, threads, tmp_path, capsys):
        # every command rejects the cap before it makes the output directory
        out = tmp_path / "out"
        assert run([*argv, "--threads", threads, "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["curve", "--q", str(POINTS_MAX + 1), "--h", "1"],
        ["gaps", "--q", str(POINTS_MAX + 1), "--h", "1", "--t", "3"],
        ["curve", "--q", str(UNION_MODULUS_MAX + 2), "--union"],
    ], ids=["curve", "gaps", "union"])
    def test_size_caps(self, argv, tmp_path, capsys, monkeypatch):
        # a curve past POINTS_MAX points, or a union past POINTS_MAX rows, exits 2
        # before any table or file
        def no_table(q):
            raise AssertionError("an inverse table was built")

        monkeypatch.setattr("nfgaps.modcurve._inverse_table", no_table)
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        assert "--q" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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

    def test_runtime_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def boom(q, h):
            raise RuntimeError("boom")

        monkeypatch.setattr("nfgaps.cli.build_curve", boom)
        assert run(["curve", "--q", "7", "--h", "1", "--out", str(tmp_path)]) == 1
        assert "failure: boom" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

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

    def test_package_import_leaves_output_out(self):
        # only the CLI writes files: the library modules never import the writer
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, nfgaps; print('nfgaps.output' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test-only dependency: the package must not import it.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, nfgaps.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_numpy_polynomial_out(self):
        # the quadrature's Gauss-Legendre nodes are computed when it runs, so
        # a CLI start (--version included) does not import numpy.polynomial
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, nfgaps.cli; print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
