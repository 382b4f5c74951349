import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nfgaps import (LambdaGrid, PreconditionError, composite_contrast, convergence_scan,
                    empirical_gap_curve, equidistribution_check, exponential_limit_scan,
                    h_independence, sup_distance, uniform_ks_statistic)
from nfgaps.cli import run
from nfgaps.experiments import DEFAULT_GRID


class TestLambdaGrid:
    def test_default_shape(self):
        values = DEFAULT_GRID.values()
        assert values[0] == 0.0 and values[-1] == 4.0
        assert len(values) == 401

    def test_from_spec(self):
        grid = LambdaGrid.from_spec("0:3:0.5")
        assert grid.values().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_stops_at_hi(self):
        assert LambdaGrid.from_spec("0:1:0.35").values().tolist() == [0.0, 0.35, 0.7]
        assert LambdaGrid.from_spec("0:4:0.7").values()[-1] == 3.5
        # hi stays when the step divides the range up to rounding
        for spec, n in (("0:4:0.01", 401), ("0:0.7:0.1", 8), ("1:3:0.05", 41)):
            values = LambdaGrid.from_spec(spec).values()
            assert len(values) == n and values[-1] == float(spec.split(":")[1])

    def test_bad_specs(self):
        for spec in ("0:3", "a:b:c", "1:0:0.1", "0:1:0"):
            with pytest.raises(PreconditionError):
                LambdaGrid.from_spec(spec)

    @settings(max_examples=300, deadline=None)
    @given(hi=st.floats(1e-12, 1e300), exponent=st.floats(-16.0, 0.0),
           points=st.integers(1, 10 ** 4))
    @example(hi=1e-10, exponent=-13.0, points=1000)      # steps below 12 decimals
    @example(hi=1e12, exponent=-16.0, points=100)        # steps below the float spacing
    @example(hi=1e300, exponent=-1.0, points=9)          # values past the float range
    def test_accepted_grids_strictly_increase(self, hi, exponent, points):
        # every accepted grid of at most 1e4 points has finite, strictly
        # increasing rounded values; one well above the step floor and below
        # the top bound is accepted
        step = 10.0 ** exponent * max(1.0, hi)
        lo = max(hi - step * points, 0.0)
        assume(lo < hi)
        try:
            values = LambdaGrid(lo, hi, step).values()
        except PreconditionError:
            assert exponent < -10.0 or hi > 1e12
            return
        assert np.isfinite(values).all() and (np.diff(values) > 0).all()


class TestSupDistance:
    def test_basic(self):
        grid = np.array([0.0, 1.0, 2.0])
        dist, arg = sup_distance(np.array([1.0, 0.6, 0.0]),
                                 np.array([1.0, 0.4, 0.1]), grid)
        assert dist == pytest.approx(0.2)
        assert arg == 1.0


class TestKS:
    def test_equally_spaced_sample(self):
        n = 100
        values = (np.arange(n) + 0.5) / n
        assert uniform_ks_statistic(values) == pytest.approx(0.5 / n)

    def test_includes_endpoints(self):
        assert uniform_ks_statistic([0.0, 0.5, 1.0]) == pytest.approx(1 / 3)

    def test_matches_scipy(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(7)
        sample = np.sort(rng.random(500))
        ours = uniform_ks_statistic(sample)
        assert ours == pytest.approx(kstest(sample, "uniform").statistic, abs=1e-12)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            uniform_ks_statistic([])
        with pytest.raises(PreconditionError):
            uniform_ks_statistic([-0.1, 0.5])
        with pytest.raises(PreconditionError):
            uniform_ks_statistic([0.5, math.nan])


class TestConvergenceScan:
    def test_small_primes_report(self):
        reports, curves = convergence_scan("2.76", 1, [101, 211, 1009])
        assert [r["q"] for r in reports] == [101, 211, 1009]
        assert list(curves) == [(q, 1, Fraction(69, 25)) for q in (101, 211, 1009)]
        np.testing.assert_array_equal(curves[101, 1, Fraction(69, 25)],
                                      empirical_gap_curve(101, 1, "2.76"))
        assert all(0.0 <= r["sup_distance"] <= 1.0 for r in reports)
        # larger primes track the limit more closely on this range
        assert reports[-1]["sup_distance"] < reports[0]["sup_distance"]

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            convergence_scan("2.76", 1, [100])

    def test_t_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            convergence_scan("0.5", 1, [101])


class TestHIndependence:
    def test_identical_shifts_zero_distance(self):
        reports, _ = h_independence("1.5", 101, [3, 3])
        assert reports[0]["sup_distance"] == 0.0

    def test_pair_count(self):
        reports, curves = h_independence("1.5", 101, [1, 2, 5])
        assert len(reports) == 3
        assert list(curves) == [(101, h, Fraction(3, 2)) for h in (1, 2, 5)]
        assert {(r["h"], r["h2"]) for r in reports} == {(1, 2), (1, 5), (2, 5)}

    def test_zero_shift_rejected(self):
        with pytest.raises(PreconditionError):
            h_independence("1.5", 101, [1, 101])


class TestCompositeContrast:
    def test_flags_primality_and_skips_even(self):
        reports, curves = composite_contrast(range(25, 32), "1.5", 2)
        flags = {r["q"]: r["prime"] for r in reports}
        assert flags == {25: False, 27: False, 29: True, 31: True}
        assert [q for q, _, _ in curves] == [25, 27, 29, 31]

    def test_empty_composite_set(self):
        reports, _ = composite_contrast([29, 31], "1.5", 2)
        assert all(r["prime"] for r in reports)


class TestEquidistribution:
    def test_small_prime_loose_bound(self):
        assert equidistribution_check(101, 1, "2.76") <= 0.15

    def test_one_angle_curve_rejected(self):
        # q = 3 leaves one point, so the angle span is 0
        with pytest.raises(PreconditionError, match="--q"):
            equidistribution_check(3, 1, "2.76")

    def test_large_prime_tight_bound(self):
        assert equidistribution_check(10007, 1, "2.76") <= 0.02

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            equidistribution_check(100, 1, "2.76")


class TestExponentialScan:
    def test_reports_per_t(self):
        reports, curves = exponential_limit_scan(1009, 1, ["3", "1/2"])
        assert len(reports) == 2
        assert list(curves) == [(1009, 1, Fraction(3)), (1009, 1, Fraction(1, 2))]
        assert reports[0]["t"] == 3.0
        # the far observer is far from the exponential law; closer is closer
        assert reports[1]["sup_distance"] < reports[0]["sup_distance"]

    def test_observer_inside_rejected(self):
        with pytest.raises(PreconditionError):
            exponential_limit_scan(1009, 1, [Fraction(1, 504 * 2)])


class TestGridResolution:
    def test_refinement_stability(self):
        # halving the grid step moves reported distances by at most 0.005
        coarse = LambdaGrid(0.0, 4.0, 0.01)
        fine = LambdaGrid(0.0, 4.0, 0.005)
        d_coarse = convergence_scan("2.76", 1, [1009], coarse)[0][0]["sup_distance"]
        d_fine = convergence_scan("2.76", 1, [1009], fine)[0][0]["sup_distance"]
        assert abs(d_coarse - d_fine) <= 0.005


class TestReportFiles:
    def test_json_roundtrip(self, tmp_path):
        assert run(["scan", "--kind", "convergence", "--t", "2.76", "--h", "1",
                    "--q", "101", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["kind"] == "convergence"
        assert payload["cells"][0]["q"] == 101
        assert set(payload["cells"][0]) == {"q", "h", "t", "sup_distance", "argmax_lambda"}

    def test_curve_csv(self, tmp_path):
        assert run(["scan", "--kind", "convergence", "--t", "2.76", "--h", "1",
                    "--q", "101", "--grid", "0:1:0.5", "--curves",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "curve_q101_h1_t2.76.csv").read_text().splitlines()
        assert lines[0] == "lambda,G_emp"
        assert len(lines) == 4
        assert lines[1] == "0,1"
