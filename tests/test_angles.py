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
from nfgaps import angles
from nfgaps.angles import _separable
from nfgaps.output import write_csv

from conftest import cached_gap_sample, per_point_columns


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
           ascending=st.booleans(), block=st.sampled_from([1, 2, 7, angles._BLOCK]))
    def test_separable_matches_out_of_place_reference(self, cells, ascending, block):
        # the blocked running bounds, carried across blocks, against the
        # whole-array expression they replaced
        if ascending:
            cells = sorted(cells)
        key = np.array([k for k, _ in cells])
        err = np.array([e for _, e in cells])
        want = (np.maximum.accumulate(key + err)[:-1]
                < np.minimum.accumulate((key - err)[::-1])[::-1][1:])
        asked = []

        def bounds(s, e):
            asked.append((s, e))
            return key[s:e].copy(), err[s:e].copy()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(angles, "_BLOCK", block)
            got = _separable(bounds, len(key), np.empty(len(key)))
        np.testing.assert_array_equal(got, want)
        assert all(0 <= s < e <= min(s + block, len(key)) for s, e in asked)

    def test_curve_coordinates_unchanged(self):
        ps = build_curve(1009, 3)
        xs, ys = ps.x.copy(), ps.y.copy()
        angle_sequence(ps, Fraction("2.76"))
        np.testing.assert_array_equal(ps.x, xs)
        np.testing.assert_array_equal(ps.y, ys)


def order_with_block(points, t, J, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(angles, "_BLOCK", block)
        return angle_sequence(points, t, J=J)


def joined_positions(points, t, J=None) -> int:
    """How many adjacent sorted positions the float filter could not separate."""
    separable, joined = angles._separable, []

    def counting(*args):
        result = separable(*args)
        joined.append(int(np.count_nonzero(~result)))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(angles, "_separable", counting)
        angle_sequence(points, t, J=J)
    return joined[0]


class TestBlockBoundaries:
    """Orders, stretches and angles whose passes cross block boundaries."""

    @settings(max_examples=100, deadline=None)
    @given(random_point_sets(), st.sampled_from([1, 2, 7]))
    def test_random_sets_match_oracle(self, case, block):
        points, t, J = case
        seq = order_with_block(points, t, J, block)
        assert [points[i] for i in seq.order] == slope_order_oracle(points, t, J)

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("q, h, t, joined", [(10007, 1, Fraction(3, 5003), 2),
                                                 (10005, 1, Fraction(5003, 25020004), 5)])
    def test_close_observer_stretches(self, q, h, t, joined, block):
        # observers just left of the square: float keys that the filter joins
        ps = build_curve(q, h)
        assert joined_positions(ps, t) == joined
        seq = order_with_block(ps, t, None, block)
        points = ps.points
        assert [points[i] for i in seq.order] == slope_order_oracle(points, t, ps.J)
        whole = angle_sequence(ps, t)
        np.testing.assert_array_equal(seq.order, whole.order)
        assert seq.angles.tobytes() == whole.angles.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_infinite_bounds(self, block):
        # the cases of test_observer_just_left_of_square and
        # test_no_overflow_near_float_max, whose keys are not trusted
        J = 1000
        t = Fraction(1, J) + Fraction(1, 10 ** 30)
        points = [(-J, 1), (-J, -1), (0, 5), (3, -7), (-J, 2), (J, J)]
        seq = order_with_block(points, t, J, block)
        assert [points[i] for i in seq.order] == slope_order_oracle(points, t, J)
        ps = build_curve(101, 1)
        for T in (9e307, 1e308, 1.7e308):
            t = Fraction(T) / ps.J ** 2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                seq = order_with_block(ps.points, t, ps.J, block)
            assert ([ps.points[i] for i in seq.order]
                    == slope_order_oracle(ps.points, t, ps.J))


class TestMemory:
    Q = 100003

    def test_exact_resort_converts_only_the_stretches(self):
        # t = 1/16667 joins 3 sorted positions; converting the whole curve to
        # Python ints for them traces about 95 bytes per point
        ps = build_curve(self.Q, 1)
        t = Fraction(1, 16667)
        assert joined_positions(ps, t) == 3
        tracemalloc.start()
        try:
            seq = angle_sequence(ps, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * ps.count
        points = ps.points
        assert [points[i] for i in seq.order] == slope_order_oracle(points, t, ps.J)

    def test_gaps_stages_per_point(self):
        # the stages of `gaps --per-point` in the command's order, each dropping
        # what the next one does not read: 66 bytes per point when every stage
        # held whole-curve temporaries
        t = Fraction("2.76")
        tracemalloc.start()
        try:
            ps = build_curve(self.Q, 1)
            seq = angle_sequence(ps, t)
            gaps = normalized_gaps(seq)
            del seq
            empirical_G(gaps, np.linspace(0.0, 3.0, 301))
            del gaps
            columns = gap_per_point(ps, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns[2]) == ps.count == self.Q - 2
        assert peak <= 44 * ps.count


class TestObserverFrame:
    def test_observer_inside_rejected(self):
        with pytest.raises(PreconditionError):
            ObserverFrame(t=Fraction(1, 10), J=10)  # t = 1/J exactly
        with pytest.raises(PreconditionError):
            angle_sequence([(0, 1)], Fraction(1, 20), J=10)

    @pytest.mark.parametrize("t, shown", [(Fraction(1, 10 ** 400), "t=1e-400,"),
                                          (-Fraction(3, 10 ** 400), "t=-1e-400,")])
    def test_underflowing_t_shows_its_exponent(self, t, shown):
        # float(t) is 0 below about 5e-324; the message names the exponent instead
        with pytest.raises(PreconditionError, match=shown):
            ObserverFrame(t=t, J=50)


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
        x, y, gap = gap_per_point([(0, 1), (0, -1)], 3, J=2)
        assert (x.tolist(), y.tolist()) == ([0, 0], [1, -1])
        assert np.array_equal(gap, [np.nan, 1.0], equal_nan=True)

    def test_symmetric_fan_unit_gaps(self):
        _, _, gap = gap_per_point([(0, -5), (0, 0), (0, 5)], 2, J=5)
        assert gap[:2] == pytest.approx([1.0, 1.0]) and np.isnan(gap[2])

    def test_order_matches_input(self):
        ps = build_curve(101, 1)
        x, y, gap = gap_per_point(ps, 3)
        assert list(zip(x.tolist(), y.tolist())) == list(ps.points)
        assert (x.dtype, y.dtype, gap.dtype) == (np.int64, np.int64, np.float64)
        assert np.count_nonzero(np.isnan(gap)) == 1

    def test_columns_from_a_plain_function(self):
        # a generator function's resumptions would show up as traced calls
        assert not inspect.isgeneratorfunction(gap_per_point)
        columns = gap_per_point(build_curve(101, 1), 3)
        assert type(columns) is tuple and [len(c) for c in columns] == [99, 99, 99]

    def test_observer_in_square_raises_at_call_time(self):
        # q = 7: J = 3 and t*J = 1, so the observer is not left of the square;
        # the call orders the points, so it raises there
        with pytest.raises(PreconditionError, match="left of the square"):
            gap_per_point(build_curve(7, 1), Fraction(1, 3))

    def test_collector_state_untouched(self):
        ps = build_curve(101, 1)
        try:
            for collecting in (True, False):
                (gc.enable if collecting else gc.disable)()
                gap_per_point(ps, 3)
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
        x, y, gap = gap_per_point(ps, t)
        want_x, want_y, want_gap = per_point_columns(ps, t)
        assert (x.tolist(), y.tolist()) == (want_x, want_y)
        assert np.array_equal(gap, want_gap, equal_nan=True)
        # the angularly last point: largest exact slope key, the later one on a tie
        key = lambda i: Fraction(want_y[i], t.denominator * want_x[i] + t.numerator * ps.J ** 2)
        last = max(reversed(range(len(want_x))), key=key)
        assert np.flatnonzero(np.isnan(gap)).tolist() == [last]

    def test_close_observer_shifts_gaps_small(self):
        # near observer: small gaps dominate; median drops versus a far observer
        _, _, far = gap_per_point(build_curve(5003, 1), 5)
        _, _, near = gap_per_point(build_curve(5003, 1), Fraction(1, 3))
        assert np.nanmedian(near) < np.nanmedian(far)


class TestEquidistribution:
    def test_ks_moderate_prime(self):
        from nfgaps import equidistribution_check

        assert equidistribution_check(5003, 1, Fraction("2.76")) <= 0.02
