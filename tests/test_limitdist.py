import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfgaps import (PreconditionError, Region, branch_derivative,
                    branch_value, classify_region, integral_of_G, limit_G,
                    limit_density, thresholds, tile_map)
from nfgaps.cli import run

from conftest import quad_integral_of_G, region_volume_G

T_SWEEP = [1.05, 1.12, 1.3, 4 / 3, 1.45, 1.9, 2.0, 2.76, 5.0, 22.0]


def boundary_pairs(t: float):
    """(left region, threshold, right region) triples for a given t."""
    eps = 1e-9
    pairs = []
    for tau in thresholds(t):
        left = classify_region(t, tau - eps)
        right = classify_region(t, tau + eps)
        if left is not right:
            pairs.append((left, tau, right))
    return pairs


class TestClassify:
    def test_interference_free_row(self):
        assert classify_region(2.76, 0.1) is Region.ONE
        assert classify_region(2.76, 0.5) is Region.C2
        assert classify_region(2.76, 1.2) is Region.C3
        assert classify_region(2.76, 2.0) is Region.ZERO

    def test_mid_band_rows(self):
        assert classify_region(1.45, 1.2) is Region.H4
        assert classify_region(1.12, 0.3) is Region.H7
        assert classify_region(1.45, 0.2) is Region.H1
        assert classify_region(1.45, 0.5) is Region.H2
        assert classify_region(1.45, 0.8) is Region.H3
        assert classify_region(1.45, 1.7) is Region.H5
        assert classify_region(1.45, 2.2) is Region.H6

    def test_degenerate_cell_at_four_thirds(self):
        # 2/t - 1 and 2 - 2/t coincide at 1/2: the H2 cell is empty
        t = 4 / 3
        assert classify_region(t, 0.5) is Region.H1
        assert classify_region(t, 0.5 + 1e-12) is Region.H3

    def test_row_t_equal_one(self):
        assert classify_region(1.0, 0.0) is Region.H1
        assert classify_region(1.0, 0.5) is Region.H7
        assert classify_region(1.0, 1.5) is Region.H5
        assert classify_region(1.0, 2.5) is Region.H6
        assert classify_region(1.0, 3.0) is Region.ZERO

    def test_domain_errors(self):
        with pytest.raises(PreconditionError):
            classify_region(0.9, 0.5)
        with pytest.raises(PreconditionError):
            classify_region(2.0, -0.1)
        with pytest.raises(PreconditionError):
            limit_G(2.76, math.nan)
        with pytest.raises(PreconditionError):
            limit_G(math.nan, 0.5)
        for t in (0.9, math.nan):
            with pytest.raises(PreconditionError):
                thresholds(t)


class TestLimitG:
    def test_plateau_and_tail(self):
        assert limit_G(3.0, 0.2) == 1.0
        assert limit_G(2.76, 2.0) == 0.0

    def test_value_at_two_half(self):
        expected = (4 + 4 - 4 + 1 + 4 * math.log(2)) / 8
        assert limit_G(2.0, 0.5) == pytest.approx(expected, abs=1e-15)
        assert limit_G(2.0, 0.5) == pytest.approx(0.9715735902799727, abs=1e-12)

    def test_half_at_spike(self):
        for t in (2.0, 2.76, 5.0, 22.0):
            assert abs(limit_G(t, 1.0) - 0.5) < 1e-12

    def test_edges(self):
        for t in T_SWEEP:
            assert limit_G(t, 0.0) == 1.0
            assert limit_G(t, 1.0 + 2.0 / t) == 0.0
            assert limit_G(t, 5.0) == 0.0

    def test_monotone_in_lambda(self):
        lams = np.arange(0.0, 3.2, 0.004)
        for t in T_SWEEP:
            values = [limit_G(t, lam) for lam in lams]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_branch_continuity(self):
        for t in T_SWEEP:
            for left, tau, right in boundary_pairs(t):
                assert abs(branch_value(left, t, tau) - branch_value(right, t, tau)) < 1e-10

    def test_derivative_continuity_except_spike(self):
        for t in T_SWEEP:
            for left, tau, right in boundary_pairs(t):
                if abs(tau - 1.0) < 1e-12:
                    continue
                dl = branch_derivative(left, t, tau)
                dr = branch_derivative(right, t, tau)
                assert abs(dl - dr) < 1e-8, (t, tau, left, right)


class TestDensity:
    def test_zero_on_flat_branches(self):
        assert limit_density(3.0, 0.1) == 0.0
        assert limit_density(2.76, 2.0) == 0.0

    def test_finite_difference_oracle(self):
        step = 1e-6
        for t, lam in ((2.0, 0.5), (2.76, 0.8), (1.45, 1.25), (1.12, 0.5), (5.0, 1.3)):
            fd = -(limit_G(t, lam + step) - limit_G(t, lam - step)) / (2 * step)
            assert limit_density(t, lam) == pytest.approx(fd, rel=1e-6)

    def test_nonnegative(self):
        for t in T_SWEEP:
            for lam in np.arange(0.0, 3.2, 0.01):
                if abs(lam - 1.0) < 1e-9:
                    continue
                assert limit_density(t, float(lam)) >= -1e-12

    def test_spike_is_inf(self):
        for t in (1.0, 1.12, 4 / 3, 1.45, 2.0, 2.76, 30.0):
            assert limit_density(t, 1.0) == math.inf, t


class TestMass:
    def test_unit_mass_interference_free(self):
        # the mean normalized gap forces unit mass; exact for t >= 2
        for t in (1.9, 2.0, 2.76, 5.0, 22.0):
            assert abs(integral_of_G(t) - 1.0) < 1e-8

    def test_small_t_mass_defect_is_characterized(self):
        # Earlier H5/H6 formulas left out row j = 3 of the region, whose
        # window meets the cube once lam > 3 - 2/t, and integrated to
        # 1 + 4.2e-4 at t = 1.05 (2.4e-4 at 1.12, 4.9e-5 at 1.3, 9.9e-6 at
        # 1.45).  The region volume over rows {-1, 1, 2, 3} integrates to 1
        # within 2e-12 and a row 4 adds under 1e-17; at t = 21/20 six primes
        # near 1e6 give 6.0e6 gaps with G(1.88) = 0.03014 +- 0.00007, where
        # the old H5 gave 0.03088 and the full region gives 0.03018.
        for t in (1.05, 1.12, 1.3, 1.45):
            assert abs(integral_of_G(t) - 1.0) < 1e-8, t


class TestExactMass:
    """integral_of_G sums table antiderivatives over the tiles."""

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(1.0, 30.0))
    @example(t=1.0)          # the H1, H3 and H4 tiles are empty
    @example(t=4 / 3)        # the H2 tile is empty
    @example(t=2.0)          # the ONE tile is empty
    def test_matches_quad_oracle(self, t):
        assert abs(integral_of_G(t) - quad_integral_of_G(t)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(1.0, 30.0))
    @example(t=1.0)
    @example(t=4 / 3)
    @example(t=2.0)
    def test_unit_mass(self, t):
        assert abs(integral_of_G(t) - 1.0) <= 1e-12

    def test_infinite_t(self):
        # G(inf, .) is 1 up to lambda = 1; the C2 and C3 tiles are empty
        assert integral_of_G(math.inf) == 1.0


def _classify_oracle(t: float, lam: float) -> Region:
    """The tessellation as explicit threshold comparisons, row by row."""
    if t >= 2.0:
        if lam <= 1.0 - 2.0 / t:
            return Region.ONE
        return Region.C2 if lam < 1.0 else Region.C3 if lam < 1.0 + 2.0 / t else Region.ZERO
    if t >= 4.0 / 3.0:
        if lam <= 2.0 / t - 1.0:
            return Region.H1
        if lam < 2.0 - 2.0 / t:
            return Region.H2
    else:
        if lam <= 2.0 - 2.0 / t:
            return Region.H1
        if lam < 2.0 / t - 1.0:
            return Region.H7
    for end, region in ((1.0, Region.H3), (3.0 - 2.0 / t, Region.H4), (2.0, Region.H5),
                        (1.0 + 2.0 / t, Region.H6)):
        if lam < end:
            return region
    return Region.ZERO


class TestTileList:
    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(st.floats(1.0, 2.5), st.floats(1.0, 1000.0)),
           lam=st.floats(0.0, 4.0))
    @example(t=1.0, lam=1.0)
    @example(t=4 / 3, lam=0.5)
    @example(t=2.0, lam=0.0)
    def test_classify_matches_oracle(self, t, lam):
        assert classify_region(t, lam) is _classify_oracle(t, lam)

    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(st.floats(1.0, 2.5), st.floats(1.0, 1000.0)))
    @example(t=1.0)
    @example(t=4 / 3)
    @example(t=2.0)
    def test_thresholds_classify_like_oracle(self, t):
        cuts = ([1.0 - 2.0 / t, 1.0, 1.0 + 2.0 / t] if t >= 2.0 else
                [2.0 / t - 1.0, 2.0 - 2.0 / t, 1.0, 3.0 - 2.0 / t, 2.0, 1.0 + 2.0 / t])
        assert thresholds(t) == tuple(sorted({c for c in cuts if c > 0.0}))
        for tau in (0.0, *thresholds(t)):
            assert classify_region(t, tau) is _classify_oracle(t, tau)


class TestRegionOracle:
    """limit_G against twice the region volume by nested quadrature."""

    @pytest.mark.parametrize("t", [1.05, 1.3, 1.45, 1.9])
    def test_rows_three_tiles(self, t):
        # H5 spans (3 - 2/t, 2) and H6 spans (2, 1 + 2/t), where row 3 counts
        for region, lo, hi in ((Region.H5, 3 - 2 / t, 2.0), (Region.H6, 2.0, 1 + 2 / t)):
            for frac in (0.1, 0.5, 0.9):
                lam = lo + frac * (hi - lo)
                assert classify_region(t, lam) is region
                assert abs(limit_G(t, lam) - region_volume_G(t, lam)) <= 1e-9, (t, lam)

    def test_other_tiles_unchanged(self):
        for t, lam in ((1.45, 0.2), (1.45, 0.5), (1.45, 0.8), (1.45, 1.3),
                       (1.12, 0.3), (2.76, 0.5), (2.76, 1.2)):
            assert abs(limit_G(t, lam) - region_volume_G(t, lam)) <= 1e-9, (t, lam)


class TestTiles:
    def test_row_partition_matches_thresholds(self):
        lams = np.round(np.arange(0.0, 2.0001, 0.0001), 10)
        row = tile_map([2.76], lams)[0]
        changes = [float(lams[i]) for i in range(1, len(row)) if row[i] is not row[i - 1]]
        assert changes == pytest.approx([1 - 2 / 2.76, 1.0, 1 + 2 / 2.76], abs=2e-4)

    def test_csv_exports(self, tmp_path):
        assert run(["limit", "--t", "2.76", "--grid", "0:2:0.5",
                    "--tile-t", "1.45:2.76:1.31", "--tile-lambda", "0.1:1.2:1.1",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "limit_t2.76.csv").read_text().splitlines()
        assert lines[0] == "lambda,G_limit,g_limit,region"
        assert lines[1].endswith(",ONE")
        assert "inf" in lines[3]  # density column at lambda = 1

        tiles = (tmp_path / "tiles.csv").read_text().splitlines()
        assert tiles[0] == "t,lambda,region"
        assert len(tiles) == 5


class TestThresholds:
    def test_interference_free(self):
        assert thresholds(2.76) == pytest.approx((1 - 2 / 2.76, 1.0, 1 + 2 / 2.76))

    def test_t_two_drops_zero(self):
        assert thresholds(2.0) == pytest.approx((1.0, 2.0))

    def test_mid_band_count(self):
        assert len(thresholds(1.45)) == 6
