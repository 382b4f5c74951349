import gc
import inspect
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfgaps import (AngleSequence, GapSample, ObserverFrame, PreconditionError,
                    angle_sequence, build_curve, empirical_G, gap_per_point,
                    normalized_gaps)
from nfgaps.angles import _separable
from nfgaps.output import write_csv

from conftest import cached_gap_sample, per_point_rows


def slope_order_oracle(points, t: Fraction, J: int):
    """Independent ordering oracle: sort by exact rational slope."""
    a, b = t.numerator, t.denominator
    return sorted(points, key=lambda p: Fraction(p[1], b * p[0] + a * J * J))


# q = 3 leaves one curve point, which has no gap.
ODD_PRIMES = [q for q in range(5, 3000, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]


@st.composite
def random_point_sets(draw):
    """Small point sets in the square with a random rational t > 1/J."""
    J = draw(st.integers(1, 60))
    b = draw(st.integers(1, 30))
    a = draw(st.integers(b // J + 1, 200))
    coord = st.integers(-J, J)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    return points, Fraction(a, b), J


@st.composite
def collinear_point_sets(draw):
    """Points (x, s*k) on one line through the observer (-J^2/b, 0), t = 1/b,
    among random points; returns the set, t, J and the collinear points.

    From the observer the line runs along (P/b, s), so x = (k*P - J^2)/b,
    an integer when k = J^2/P (mod b).  For J >= 2^27 the float x + t*J^2 is
    inexact, and about a quarter of these tied groups get distinct float keys.
    """
    J = draw(st.one_of(st.integers(60, 10 ** 4), st.integers(2 ** 27, 1_500_000_000)))
    b = draw(st.integers(1, 50))
    P = draw(st.integers(J, 2 * J))
    assume(math.gcd(P, b) == 1)
    N = J * J
    k_lo = -(-(N - b * J) // P)
    k = k_lo + (N * pow(P, -1, b) - k_lo) % b
    ks = list(range(k, min(J, (N + b * J) // P) + 1, b))
    assume(len(ks) >= 2)
    s = draw(st.sampled_from([-1, 1]))
    tied = [((k * P - N) // b, s * k)
            for k in draw(st.lists(st.sampled_from(ks), min_size=2, max_size=6, unique=True))]
    coord = st.integers(-J, J)
    others = draw(st.lists(st.tuples(coord, coord), max_size=10))
    points = draw(st.permutations(tied + others))
    return points, Fraction(1, b), J, set(tied)


@st.composite
def near_tie_point_sets(draw):
    """Pairs whose cross product about the observer is +-1, for J so large
    that their float keys coincide or cross."""
    J = draw(st.integers(2 ** 26, 1_500_000_000))
    s = draw(st.sampled_from([-1, 1]))
    if draw(st.booleans()):
        # Same y = s, adjacent x: cross product -s for any integer t.
        t = Fraction(draw(st.integers(1, 5)))
        x = draw(st.integers(-J, J - 2))
        pairs = [(x, s), (x + 1, s), (x + 2, s)]
    else:
        # t = 1, y and y + 1: (y + 1)(x1 + J^2) - y(x2 + J^2) = s.
        t = Fraction(1)
        y = draw(st.integers(J // 2, J - 1))
        dx = -(-(J * J - J - s) // y)
        x1 = y * dx + s - J * J
        assume(x1 + dx <= J)
        pairs = [(x1, y), (x1 + dx, y + 1)]
    coord = st.integers(-J, J)
    others = draw(st.lists(st.tuples(coord, coord), max_size=5))
    return draw(st.permutations(pairs + others)), t, J


def ordered_points(points, t, J):
    return [points[i] for i in angle_sequence(points, t, J=J).order]


class TestFloatFilteredOrder:
    """The float key plus exact re-check against the rational sort."""

    @settings(max_examples=200, deadline=None)
    @given(random_point_sets())
    def test_random_sets_match_oracle(self, case):
        points, t, J = case
        assert ordered_points(points, t, J) == slope_order_oracle(points, t, J)

    @settings(max_examples=200, deadline=None)
    @given(collinear_point_sets())
    def test_observer_collinear_ties_keep_input_order(self, case):
        points, t, J, tied = case
        got = ordered_points(points, t, J)
        assert got == slope_order_oracle(points, t, J)
        assert [p for p in got if p in tied] == [p for p in points if p in tied]

    @settings(max_examples=200, deadline=None)
    @given(near_tie_point_sets())
    def test_near_ties_one_unit_apart(self, case):
        points, t, J = case
        assert ordered_points(points, t, J) == slope_order_oracle(points, t, J)

    def test_observer_just_left_of_square(self):
        # x + t*J^2 = 1e-24 at x = -J: the float denominator rounds to 0, so
        # the filter must fall back to the exact order for every point.
        J = 1000
        t = Fraction(1, J) + Fraction(1, 10 ** 30)
        points = [(-J, 1), (-J, -1), (0, 5), (3, -7), (-J, 2), (J, J)]
        assert ordered_points(points, t, J) == slope_order_oracle(points, t, J)

    @pytest.mark.parametrize("T", [9e307, 1e308, 1.7e308])
    def test_no_overflow_near_float_max(self, T):
        # t*J^2 just below the float limit: the filter must not form T + d.
        ps = build_curve(101, 1)
        t = Fraction(T) / ps.J ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ordered_points(ps.points, t, ps.J)
        assert got == slope_order_oracle(ps.points, t, ps.J)

    def test_oversized_coordinates_rejected(self):
        with pytest.raises(PreconditionError):
            angle_sequence([(2 ** 53 + 1, 0), (0, 1)], 3, J=10)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(st.floats(-1e300, 1e300),
                                    st.one_of(st.floats(0.0, 1e300), st.just(math.inf))),
                          min_size=1, max_size=40),
           ascending=st.booleans())
    def test_separable_matches_out_of_place_reference(self, cells, ascending):
        # the in-place running bounds against the expression they replaced
        if ascending:
            cells = sorted(cells)
        key = np.array([k for k, _ in cells])
        err = np.array([e for _, e in cells])
        key_in, err_in = key.copy(), err.copy()
        want = (np.maximum.accumulate(key + err)[:-1]
                < np.minimum.accumulate((key - err)[::-1])[::-1][1:])
        np.testing.assert_array_equal(_separable(key, err), want)
        np.testing.assert_array_equal(key, key_in)
        np.testing.assert_array_equal(err, err_in)

    def test_curve_coordinates_unchanged(self):
        ps = build_curve(1009, 3)
        xs, ys = ps.x.copy(), ps.y.copy()
        angle_sequence(ps, Fraction("2.76"))
        np.testing.assert_array_equal(ps.x, xs)
        np.testing.assert_array_equal(ps.y, ys)


class TestObserverFrame:
    def test_observer_inside_rejected(self):
        with pytest.raises(PreconditionError):
            ObserverFrame(t=Fraction(1, 10), J=10)  # t = 1/J exactly
        with pytest.raises(PreconditionError):
            angle_sequence([(0, 1)], Fraction(1, 20), J=10)


class TestAngleSequence:
    def test_symmetric_pair(self):
        seq = angle_sequence([(0, 1), (0, -1)], 3, J=2)
        theta = math.atan(1.0 / 12.0)
        assert seq.angles == pytest.approx([-theta, theta])
        assert seq.alpha_min == -seq.alpha_max

    def test_seven_one_order(self):
        ps = build_curve(7, 1)
        seq = angle_sequence(ps, 3)
        got = [ps.points[i] for i in seq.order]
        assert got == slope_order_oracle(ps.points, Fraction(3), 3)
        assert got == [(1, -3), (-3, -2), (3, -1), (-2, 2), (2, 3)]

    def test_angles_ascending_and_bounded(self):
        seq = angle_sequence(build_curve(1009, 3), Fraction("1.5"))
        assert np.all(np.diff(seq.angles) >= 0)
        assert seq.alpha_min > -math.pi / 2 and seq.alpha_max < math.pi / 2

    def test_alpha_max_asymptotics(self):
        # alpha_max = 1/(tJ) up to an O(1/J^2) correction
        seq, _ = cached_gap_sample(10007, 1, "2.76")
        J = 5003
        assert abs(seq.alpha_max - 1.0 / (2.76 * J)) <= 10.0 / J ** 2

    def test_raw_points_rejected(self):
        from nfgaps import build_nf_curve

        with pytest.raises(PreconditionError):
            angle_sequence(build_nf_curve(7, 1), 3)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            angle_sequence([], 3, J=5)


class TestNormalizedGaps:
    def test_two_points_single_unit_gap(self):
        seq = angle_sequence([(0, 1), (0, -1)], 3, J=2)
        gaps = normalized_gaps(seq)
        assert gaps.gaps.tolist() == [1.0]

    def test_equally_spaced_angles(self):
        angles = np.linspace(-0.4, 0.4, 9)
        seq = AngleSequence(angles=angles, order=np.arange(9),
                            frame=ObserverFrame(t=Fraction(3), J=5))
        gaps = normalized_gaps(seq)
        assert gaps.gaps == pytest.approx(np.ones(8))

    def test_mean_identity_large_prime(self):
        _, gaps = cached_gap_sample(10007, 1, "2.76")
        assert gaps.n == 10004
        assert abs(gaps.mean - 1.0) < 1e-12
        assert abs(float(np.sum(gaps.gaps)) - gaps.n) < 1e-9 * gaps.n

    def test_zero_gap_for_collinear_points(self):
        # (0,2) and (-2,1) are collinear with the observer at (-4, 0)
        seq = angle_sequence([(0, 2), (-2, 1), (1, -1)], 1, J=2)
        gaps = normalized_gaps(seq)
        assert np.min(gaps.gaps) == 0.0

    def test_single_point_rejected(self):
        seq = angle_sequence([(0, 1)], 3, J=2)
        with pytest.raises(PreconditionError):
            normalized_gaps(seq)

    def test_reflection_symmetry(self):
        ps = build_curve(101, 3)
        flipped = [(x, -y) for x, y in ps.points]
        g1 = normalized_gaps(angle_sequence(ps, Fraction("1.5")))
        g2 = normalized_gaps(angle_sequence(flipped, Fraction("1.5"), J=ps.J))
        assert np.array_equal(np.sort(g1.gaps), np.sort(g2.gaps))


class TestEmpiricalG:
    def test_at_zero(self):
        _, gaps = cached_gap_sample(101, 1, "3")
        assert empirical_G(gaps, 0.0) == 1.0

    def test_single_gap_threshold(self):
        seq = angle_sequence([(0, 1), (0, -1)], 3, J=2)
        gaps = normalized_gaps(seq)
        assert empirical_G(gaps, 1.0) == 1.0
        assert empirical_G(gaps, 1.0001) == 0.0

    def test_monotone_and_vanishing(self, lambda_grid):
        _, gaps = cached_gap_sample(1009, 2, "1.5")
        curve = empirical_G(gaps, lambda_grid)
        assert np.all(np.diff(curve) <= 0)
        assert empirical_G(gaps, gaps.max + 1e-9) == 0.0
        assert empirical_G(gaps, gaps.max) > 0.0

    def test_step_integral_equals_mean(self):
        # exact integral of the right-closed step function is the gap mean
        _, gaps = cached_gap_sample(1009, 2, "1.5")
        assert float(np.sum(gaps.gaps)) / gaps.n == pytest.approx(1.0, abs=1e-12)

    def test_negative_lambda_rejected(self):
        _, gaps = cached_gap_sample(101, 1, "3")
        with pytest.raises(PreconditionError):
            empirical_G(gaps, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=60),
           st.floats(0.0, 60.0), st.floats(0.0, 60.0))
    def test_monotone_property(self, raw, lam1, lam2):
        gaps = GapSample(gaps=np.asarray(raw))
        lo, hi = sorted((lam1, lam2))
        assert empirical_G(gaps, lo) >= empirical_G(gaps, hi)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=50, unique=True))
    def test_gap_sum_identity_property(self, raw):
        angles = np.sort(np.asarray(raw))
        if angles[-1] - angles[0] < 1e-9:
            return
        seq = AngleSequence(angles=angles, order=np.arange(len(angles)),
                            frame=ObserverFrame(t=Fraction(3), J=2))
        gaps = normalized_gaps(seq)
        assert float(np.sum(gaps.gaps)) == pytest.approx(gaps.n, rel=1e-9)


class TestGapPerPoint:
    def test_two_points(self):
        rows = list(gap_per_point([(0, 1), (0, -1)], 3, J=2))
        assert rows == [(0, 1, None), (0, -1, 1.0)]

    def test_symmetric_fan_unit_gaps(self):
        rows = gap_per_point([(0, -5), (0, 0), (0, 5)], 2, J=5)
        gaps = [g for (_, _, g) in rows]
        assert gaps[:2] == pytest.approx([1.0, 1.0]) and gaps[2] is None

    def test_order_matches_input(self):
        ps = build_curve(101, 1)
        rows = list(gap_per_point(ps, 3))
        assert [(x, y) for x, y, _ in rows] == list(ps.points)
        assert sum(g is None for _, _, g in rows) == 1

    def test_one_shot_iterator_from_a_plain_function(self):
        # a generator function's resumptions would show up as traced calls
        assert not inspect.isgeneratorfunction(gap_per_point)
        rows = gap_per_point(build_curve(101, 1), 3)
        assert len(list(rows)) == 99 and list(rows) == []

    def test_observer_in_square_raises_at_call_time(self):
        # q = 7: J = 3 and t*J = 1, so the observer is not left of the square;
        # the call orders the points, so it raises before any row is taken
        with pytest.raises(PreconditionError, match="left of the square"):
            gap_per_point(build_curve(7, 1), Fraction(1, 3))

    def test_collector_state_untouched(self):
        ps = build_curve(101, 1)
        try:
            for collecting in (True, False):
                (gc.enable if collecting else gc.disable)()
                rows = gap_per_point(ps, 3)
                assert gc.isenabled() == collecting
                list(rows)
                assert gc.isenabled() == collecting
        finally:
            gc.enable()

    def test_export_memory_holds_one_batch_of_rows(self, tmp_path):
        # about 6 MiB streamed; a list of the 100,001 row tuples peaks near 20 MiB
        tracemalloc.start()
        try:
            write_csv(tmp_path / "points.csv", ["x", "y", "gap"],
                      gap_per_point(build_curve(100003, 1), Fraction("2.76")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20

    @settings(max_examples=60, deadline=None)
    @given(q=st.sampled_from(ODD_PRIMES), h=st.integers(1, 2 ** 16),
           t=st.sampled_from([Fraction("2.76"), Fraction("1.45"), Fraction(1, 3)]))
    def test_rows_match_per_row_oracle(self, q, h, t):
        assume(t * ((q - 1) // 2) > 1)     # the observer must lie left of the square
        ps = build_curve(q, h % (q - 1) + 1)
        rows = list(gap_per_point(ps, t))
        assert rows == per_point_rows(ps, t)
        # the angularly last point: largest exact slope key, the later one on a tie
        key = lambda i: Fraction(rows[i][1], t.denominator * rows[i][0] + t.numerator * ps.J ** 2)
        last = max(reversed(range(len(rows))), key=key)
        assert [i for i, (_, _, g) in enumerate(rows) if g is None] == [last]

    def test_close_observer_shifts_gaps_small(self):
        # near observer: small gaps dominate; median drops versus a far observer
        far = list(gap_per_point(build_curve(5003, 1), 5))
        near = list(gap_per_point(build_curve(5003, 1), Fraction(1, 3)))
        med_far = np.median([g for *_, g in far if g is not None])
        med_near = np.median([g for *_, g in near if g is not None])
        assert med_near < med_far


class TestEquidistribution:
    def test_ks_moderate_prime(self):
        from nfgaps import equidistribution_check

        assert equidistribution_check(5003, 1, Fraction("2.76")) <= 0.02
