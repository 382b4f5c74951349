import cmath
import math
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import graph_columns
from nfgaps import (BoxSpec, FracLinear, FracLinearTuple, Interval, PreconditionError,
                    box_count, complete_sum, complete_sum_magnitudes,
                    geometric_interval_sum, geometric_sum_bound, incomplete_sum,
                    neighbor_flip_tuple)
from nfgaps.cli import run
from nfgaps.expsum import (_LEAF, _fold_phase, _leaf_sum, _unit_sum, _window_columns,
                           inverse_table)
from nfgaps.modcurve import ARRAY_MODULUS_MAX, _prime_power_inverses, is_prime

RNG = np.random.default_rng(20240831)


def brute_force_box_count(p, h, D, x_window, value_windows):
    """Independent double-loop oracle using pow-based inverses only."""
    count = 0
    js = list(range(-D + 1, D + 1))
    for m in range(x_window[0], x_window[1] + 1):
        values = []
        for j in js:
            den = (1 - h * (m + j)) % p
            if den == 0:
                break
            values.append((m + j) * pow(den, -1, p) % p)
        else:
            if all(lo <= v <= hi for v, (lo, hi) in zip(values, value_windows)):
                count += 1
    return count


def graph_phase(graph, p, a, b):
    """a x + sum b_j r_j(x) mod p over the columns of a graph array."""
    return (a * graph[0] + sum(bj * row for bj, row in zip(b, graph[1:]))) % p


class TestFracLinear:
    def test_basic_evaluation_and_pole(self):
        r = FracLinear(p=7, a=1, b=1, c=0, e=6)  # (1 + x) / (-x)
        assert r.pole == 0
        assert r(1) == (2 * pow(-1, -1, 7)) % 7
        with pytest.raises(PreconditionError):
            r(0)

    def test_degenerate_maps_rejected(self):
        with pytest.raises(PreconditionError):
            FracLinear(p=7, a=1, b=1, c=0, e=0)  # denominator degree 0
        with pytest.raises(PreconditionError):
            FracLinear(p=7, a=2, b=2, c=1, e=1)  # constant 2

    def test_duplicate_poles_rejected(self):
        r1 = FracLinear(p=7, a=0, b=1, c=1, e=6)
        r2 = FracLinear(p=7, a=1, b=1, c=1, e=6)
        with pytest.raises(PreconditionError):
            FracLinearTuple(p=7, funcs=(r1, r2))


class TestNeighborFlipTuple:
    def test_smallest_tuple(self):
        tup = neighbor_flip_tuple(7, 1, 1)
        assert tup.d == 2  # row offsets j = 0 and j = 1
        # the j=1 component is m -> (m+1) * (-m)^(-1), pole at m = 0
        r1 = tup.funcs[1]
        assert r1.pole == 0
        for m in range(1, 7):
            assert r1(m) == (m + 1) * pow(-m, -1, 7) % 7

    def test_graph_cell_cap(self, monkeypatch):
        # (2D+1)(p-2D) = 3 * 99 cells at p = 101, D = 1
        monkeypatch.setattr("nfgaps.expsum._MAX_GRAPH_CELLS", 297)
        assert graph_columns(neighbor_flip_tuple(101, 1, 1)).size == 297
        monkeypatch.setattr("nfgaps.expsum._MAX_GRAPH_CELLS", 296)
        with pytest.raises(PreconditionError, match="--D"):
            neighbor_flip_tuple(101, 1, 1)

    def test_poles_follow_shift_inverse(self):
        p, h, D = 11, 2, 2
        tup = neighbor_flip_tuple(p, h, D)
        assert tup.d == 4
        h_inv = pow(h, -1, p)
        assert list(tup.poles) == [(h_inv - j) % p for j in range(-D + 1, D + 1)]

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            neighbor_flip_tuple(5, 1, 3)  # 2D >= p
        with pytest.raises(PreconditionError):
            neighbor_flip_tuple(7, 14, 1)  # h = 0 mod p
        with pytest.raises(PreconditionError):
            neighbor_flip_tuple(15, 1, 1)  # composite modulus


class TestCompleteSum:
    def test_all_zero_coefficients_count_non_poles(self):
        for p, D in ((7, 1), (101, 2)):
            tup = neighbor_flip_tuple(p, 1, D)
            value = complete_sum(tup, 0, [0] * tup.d)
            assert value == pytest.approx(p - tup.d)

    def test_conjugate_symmetry(self):
        tup = neighbor_flip_tuple(101, 1, 2)
        for _ in range(20):
            a = int(RNG.integers(0, 101))
            b = [int(v) for v in RNG.integers(0, 101, size=tup.d)]
            s1 = complete_sum(tup, a, b)
            s2 = complete_sum(tup, -a, [-v for v in b])
            assert s2 == pytest.approx(s1.conjugate(), abs=1e-9)

    def test_pure_linear_phase_bounded_by_poles(self):
        # with b = 0 the full geometric sum cancels, leaving only the
        # omitted pole terms
        tup = neighbor_flip_tuple(1009, 1, 2)
        for a in (1, 2, 504, 1008):
            assert abs(complete_sum(tup, a, [0] * tup.d)) <= tup.d + 1e-9

    def test_square_root_cancellation(self):
        for p in (101, 1009):
            for D in (1, 2):
                tup = neighbor_flip_tuple(p, 1, D)
                for _ in range(40):
                    a = int(RNG.integers(0, p))
                    b = [int(v) for v in RNG.integers(0, p, size=tup.d)]
                    if not any(b):
                        b[0] = 1
                    assert abs(complete_sum(tup, a, b)) <= 4 * tup.d * math.sqrt(p)

    def test_magnitude_grid_matches_direct(self):
        tup = neighbor_flip_tuple(101, 1, 1)
        mags = complete_sum_magnitudes(tup)
        for _ in range(12):
            a = int(RNG.integers(0, 101))
            b = [int(v) for v in RNG.integers(0, 101, size=2)]
            assert mags[(a, *b)] == pytest.approx(abs(complete_sum(tup, a, b)), abs=1e-6)

    def test_magnitude_grid_size_guard(self):
        with pytest.raises(PreconditionError):
            complete_sum_magnitudes(neighbor_flip_tuple(1009, 1, 2))


class TestIncompleteSum:
    def test_full_window_equals_complete(self):
        tup = neighbor_flip_tuple(101, 1, 1)
        full = incomplete_sum(tup, 3, [1, 2], Interval(0, 100))
        assert full == pytest.approx(complete_sum(tup, 3, [1, 2]))

    def test_geometric_regime(self):
        # with b = 0 this is a geometric sum over the window minus poles
        tup = neighbor_flip_tuple(1009, 1, 1)
        for _ in range(25):
            a = int(RNG.integers(1, 1009))
            lo = int(RNG.integers(0, 1009))
            hi = int(RNG.integers(lo, 1009))
            window = Interval(lo, hi)
            value = incomplete_sum(tup, a, [0, 0], window)
            bound = geometric_sum_bound(1009, a, window.length) + tup.d
            assert abs(value) <= bound + 1e-9

    def test_cancellation_bound(self):
        p = 1009
        tup = neighbor_flip_tuple(p, 1, 1)
        cap = 8 * tup.d * math.sqrt(p) * math.log(p)
        for _ in range(25):
            a = int(RNG.integers(0, p))
            b = [int(v) for v in RNG.integers(0, p, size=tup.d)]
            if not any(b):
                b[1] = 5
            lo = int(RNG.integers(0, p))
            hi = int(RNG.integers(lo, p))
            assert abs(incomplete_sum(tup, a, b, Interval(lo, hi))) <= cap

    @pytest.mark.parametrize("lo, hi", [
        (32, 35), (33, 33), (34, 60), (10, 32), (0, 100), (36, 100), (90, 100), (0, 31),
        (0, 0), (100, 100),
    ], ids=["only-poles", "one-pole", "starts-on-pole", "ends-on-pole", "full",
            "past-last-pole", "tail", "before-first-pole", "first-residue", "last-residue"])
    def test_window_columns_match_pointwise(self, lo, hi):
        tup = neighbor_flip_tuple(101, 3, 2)          # poles 32..35
        p, window = tup.p, Interval(lo, hi)
        a, b = 7, [3, 1, 4, 1]
        points = [(x, [f(x) for f in tup.funcs]) for x in range(lo, hi + 1)
                  if x not in tup.poles]
        want = sum(cmath.exp(2j * cmath.pi * ((a * x + sum(bj * v for bj, v in zip(b, vs)))
                                               % p) / p) for x, vs in points)
        got = incomplete_sum(tup, a, b, window)
        assert got == pytest.approx(want, abs=1e-9)
        graph = graph_columns(tup)
        masked = graph[:, window.contains(graph[0])]
        assert got == _unit_sum(graph_phase(masked, p, a, b), p)   # the same columns, bits
        vws = (Interval(0, 50), Interval(20, 100), Interval(0, 100), Interval(10, 90))
        count = sum(all(w.lo <= v <= w.hi for v, w in zip(vs, vws)) for _, vs in points)
        assert box_count(tup, BoxSpec(x_window=window, value_windows=vws)).count == count

    def test_window_validation(self):
        tup = neighbor_flip_tuple(101, 1, 1)
        with pytest.raises(PreconditionError):
            incomplete_sum(tup, 0, [1, 1], Interval(0, 101))


class TestGeometricSum:
    def test_exact_small_case(self):
        p, a = 7, 2
        window = Interval(1, 4)
        direct = sum(cmath.exp(2j * cmath.pi * a * y / p) for y in range(1, 5))
        assert geometric_interval_sum(p, a, window) == pytest.approx(direct)

    def test_full_period_cancels(self):
        for a in (1, 3, 100):
            value = geometric_interval_sum(101, a, Interval(0, 100))
            assert abs(value) < 1e-9

    @pytest.mark.parametrize("p, lo, hi", [(101, 0, 101), (101, 100, 101),
                                           (3037000493, 10 ** 10, 10 ** 10 + 5),
                                           (3037000493, 0, 10 ** 12)])
    def test_window_past_the_residues(self, p, lo, hi):
        # unchecked, a window past p - 1 overflows a y in int64 (a wrong value,
        # no error) or allocates its whole length (8 TB for 10^12)
        with pytest.raises(PreconditionError, match="exceeds the residue range"):
            geometric_interval_sum(p, p - 1, Interval(lo, hi))

    def test_paper_bound_holds_exactly(self):
        p = 1009
        for _ in range(200):
            a = int(RNG.integers(1, p))
            lo = int(RNG.integers(0, p))
            hi = int(RNG.integers(lo, p))
            value = geometric_interval_sum(p, a, Interval(lo, hi))
            assert abs(value) <= geometric_sum_bound(p, a, hi - lo + 1) + 1e-9


class TestBoxCount:
    def test_full_range_single_map(self):
        p = 101
        tup = FracLinearTuple(p=p, funcs=(FracLinear(p=p, a=1, b=1, c=1, e=-1),))
        full = Interval(0, p - 1)
        result = box_count(tup, BoxSpec(x_window=full, value_windows=(full,)))
        assert result.count == p - 1  # all non-pole x qualify
        assert result.main_term == pytest.approx(p)
        assert math.isfinite(result.normalized_error)

    def test_against_double_loop(self):
        for p in (101, 211):
            for D in (1, 2):
                tup = neighbor_flip_tuple(p, 1, D)
                for _ in range(6):
                    lo = int(RNG.integers(0, p))
                    hi = int(RNG.integers(lo, p))
                    vws = []
                    for _ in range(tup.d):
                        vlo = int(RNG.integers(0, p))
                        vws.append((vlo, int(RNG.integers(vlo, p))))
                    spec = BoxSpec(x_window=Interval(lo, hi),
                                   value_windows=tuple(Interval(*w) for w in vws))
                    got = box_count(tup, spec).count
                    want = brute_force_box_count(p, 1, D, (lo, hi), vws)
                    assert got == want

    def test_normalized_error_stays_bounded(self):
        worst = 0.0
        for p in (211, 1009, 5003, 10007):
            tup = neighbor_flip_tuple(p, 1, 1)  # d = 2
            for _ in range(12):
                lo = int(RNG.integers(0, p))
                hi = int(RNG.integers(lo, p))
                vws = []
                for _ in range(tup.d):
                    vlo = int(RNG.integers(0, p))
                    vws.append(Interval(vlo, int(RNG.integers(vlo, p))))
                spec = BoxSpec(x_window=Interval(lo, hi), value_windows=tuple(vws))
                worst = max(worst, abs(box_count(tup, spec).normalized_error))
        assert worst <= 5.0

    def test_window_count_validation(self):
        tup = neighbor_flip_tuple(101, 1, 1)
        with pytest.raises(PreconditionError):
            box_count(tup, BoxSpec(x_window=Interval(0, 50),
                                   value_windows=(Interval(0, 50),)))


class TestGraph:
    def test_shape_and_columns(self):
        tup = neighbor_flip_tuple(101, 2, 2)
        graph = graph_columns(tup)
        assert graph.shape == (tup.d + 1, 101 - tup.d)
        assert list(graph[0]) == [x for x in range(101) if x not in tup.poles]
        for x, *values in graph.T.tolist():
            assert values == [f(x) for f in tup.funcs]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([q for q in range(3, 200) if is_prime(q)]))
    def test_random_maps_match_pointwise(self, data, p):
        residues = st.integers(0, p - 1)
        funcs, poles = [], set()
        for _ in range(data.draw(st.integers(1, 3))):
            a, b, c = data.draw(residues), data.draw(residues), data.draw(residues)
            e = data.draw(st.integers(1, p - 1))
            if (a * e - b * c) % p == 0 or (-c * pow(e, -1, p)) % p in poles:
                continue
            f = FracLinear(p=p, a=a, b=b, c=c, e=e)
            funcs.append(f)
            poles.add(f.pole)
        if not funcs:
            return
        tup = FracLinearTuple(p=p, funcs=tuple(funcs))
        assert graph_columns(tup).tolist() == [[x for x in range(p) if x not in poles],
                                               *([f(x) for x in range(p) if x not in poles]
                                                 for f in funcs)]

    def test_rows_past_uint32_products(self):
        # at p > 2^16, K (x + s)^-1 passes 2^32, so a product left in uint32 wraps
        p = 100003
        tup = FracLinearTuple(p=p, funcs=(FracLinear(p=p, a=99991, b=77777, c=12345, e=65537),
                                          FracLinear(p=p, a=3, b=p - 2, c=p - 5, e=p - 1),
                                          *neighbor_flip_tuple(p, 65537, 1).funcs))
        xs = [x for x in {0, 1, p - 1, _LEAF - 1, _LEAF, _LEAF + 1,
                          *(q + i for q in tup.poles for i in (-1, 1)),
                          *RNG.integers(0, p, 300).tolist()} if x % p not in tup.poles]
        graph = graph_columns(tup)
        columns = graph[:, np.searchsorted(graph[0], [x % p for x in xs])]
        assert columns.tolist() == [[x % p for x in xs], *([f(x) for x in xs] for f in tup.funcs)]

    @staticmethod
    def check_translates(f, shifts, scales, others):
        """Maps g(x) = f(x + t), each written with its own scaling k, plus other
        maps (a, b, c, e) whose pole is free: the graph matches them pointwise."""
        p = f.p
        funcs = [FracLinear(p=p, a=k * (f.a + f.b * t), b=k * f.b, c=k * (f.c + f.e * t),
                            e=k * f.e) for t, k in zip(shifts, scales)]
        for a, b, c, e in others:
            if (a * e - b * c) % p and (-c * pow(e, -1, p)) % p not in {g.pole for g in funcs}:
                funcs.append(FracLinear(p=p, a=a, b=b, c=c, e=e))
        graph = graph_columns(FracLinearTuple(p=p, funcs=tuple(funcs)))
        keep = [x for x in range(p) if x not in {g.pole for g in funcs}]
        assert graph.tolist() == [keep, *([g(x) for x in keep] for g in funcs)]
        for g, t in zip(funcs, shifts):
            assert [g(x) for x in keep] == [f((x + t) % p) for x in keep]

    def test_translates_with_poles_at_both_ends(self):
        f = FracLinear(p=7, a=1, b=2, c=3, e=1)          # pole 4
        # shifts 4 and 5 put poles at 0 and p - 1; every nonzero shift wraps
        self.check_translates(f, [4, 5, 1], [1, 2, 6], [])
        self.check_translates(f, [5, 0, 4], [3, 1, 5], [(1, 0, 5, 1), (2, 3, 4, 5)])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), p=st.sampled_from([q for q in range(5, 200) if is_prime(q)]))
    def test_translates_match_pointwise(self, data, p):
        residues, units = st.integers(0, p - 1), st.integers(1, p - 1)
        a, b, c, e = (data.draw(residues), data.draw(residues), data.draw(residues),
                      data.draw(units))
        assume((a * e - b * c) % p)
        f = FracLinear(p=p, a=a, b=b, c=c, e=e)
        edges = st.sampled_from([f.pole, (f.pole + 1) % p])  # poles of f(x + t) at 0, p - 1
        shifts = data.draw(st.lists(st.one_of(residues, edges), min_size=1, max_size=5,
                                    unique=True))
        scales = [data.draw(units) for _ in shifts]
        others = data.draw(st.lists(st.tuples(residues, residues, residues, units),
                                    max_size=3))
        self.check_translates(f, shifts, scales, others)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([q for q in range(5, 200) if is_prime(q)]))
    def test_sums_and_boxes_match_pointwise_loops(self, data, p):
        h, D = data.draw(st.integers(1, p - 1)), data.draw(st.integers(1, 2))
        tup = neighbor_flip_tuple(p, h, D)
        residues = st.integers(0, p - 1)

        def window():
            lo = data.draw(residues)
            return Interval(lo, data.draw(st.integers(lo, p - 1)))

        a, b = data.draw(residues), [data.draw(residues) for _ in range(tup.d)]
        xw = window()
        points = [(x, [f(x) for f in tup.funcs]) for x in range(xw.lo, xw.hi + 1)
                  if x not in tup.poles]
        want = sum(cmath.exp(2j * cmath.pi * ((a * x + sum(bj * v for bj, v in zip(b, vs)))
                                               % p) / p) for x, vs in points)
        assert incomplete_sum(tup, a, b, xw) == pytest.approx(want, abs=1e-9)
        vws = tuple(window() for _ in range(tup.d))
        count = sum(all(w.lo <= v <= w.hi for v, w in zip(vs, vws)) for _, vs in points)
        assert box_count(tup, BoxSpec(x_window=xw, value_windows=vws)).count == count

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([q for q in range(7, 400) if is_prime(q)]),
           leaf=st.integers(8, 100))
    def test_streamed_columns_match_the_graph(self, data, p, leaf):
        # leaves of at least 64 columns straddle the poles; window ends fall on a
        # pole, next to one, on the first or the last column, or anywhere
        residues = st.integers(0, p - 1)
        tup = neighbor_flip_tuple(p, data.draw(st.integers(1, p - 1)),
                                  data.draw(st.integers(1, 3)))
        graph = graph_columns(tup)
        ends = st.one_of(residues, st.sampled_from(
            [0, p - 1, *((q + i) % p for q in tup.poles for i in (-1, 0, 1))]))
        window = Interval(*sorted((data.draw(ends), data.draw(ends))))
        cols = slice(*np.searchsorted(graph[0], [window.lo, window.hi + 1]))
        assert _window_columns(tup, window) == cols
        a, b = data.draw(residues), [data.draw(residues) for _ in range(tup.d)]
        vws = tuple(Interval(*sorted((data.draw(residues), data.draw(residues))))
                    for _ in range(tup.d))
        mask = np.ones(cols.stop - cols.start, dtype=bool)
        for row, w in zip(graph[1:, cols], vws):
            mask &= w.contains(row)
        phase = graph_phase(graph, p, a, b)
        complete, incomplete = _unit_sum(phase, p), _unit_sum(phase[cols], p)
        with patch("nfgaps.expsum._LEAF", leaf):
            assert np.array_equal(graph_columns(tup), graph)
            for threads in (1, 2, 3):
                assert complete_sum(tup, a, b, threads) == complete
                assert incomplete_sum(tup, a, b, window, threads) == incomplete
                box = box_count(tup, BoxSpec(x_window=window, value_windows=vws), threads)
                assert box.count == np.count_nonzero(mask)


def _largest_prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


class TestPhaseSum:
    @pytest.mark.parametrize("p", [2000003, _largest_prime_at_most(ARRAY_MODULUS_MAX)])
    @pytest.mark.parametrize("d", [1, 4])
    def test_graph_sum_matches_python_int_phase(self, p, d):
        # near the array modulus cap (d+1)(p-1)^2 passes 2^63, so each term is reduced;
        # the rows are what _columns gives a sum: x, then (b_j mod p) r_j(x) unreduced
        rng = np.random.default_rng(p + d)
        graph = p - 1 - rng.integers(0, 1000, size=(d + 1, 500))
        graph[:, :3] = p - 1
        for a, b in ((p - 1, [p - 1] * d), (-1, [-2] * d),
                     (3 * p + 7, [10 ** 12 + j for j in range(d)])):
            rows = [graph[0], *(bj % p * row for bj, row in zip(b, graph[1:]))]
            phase = [(a * x + sum(bj * int(v) for bj, v in zip(b, col[1:]))) % p
                     for x, col in zip(graph[0].tolist(), graph.T)]
            assert _fold_phase(rows, d, p, a).tolist() == phase

    def test_unit_sum_bits(self):
        for p in (101, 2000003, _largest_prime_at_most(ARRAY_MODULUS_MAX)):
            phase = RNG.integers(0, p, size=200_000)
            assert _unit_sum(phase, p) == complex(np.exp(2j * np.pi * (phase / p)).sum())

    @settings(max_examples=80, deadline=None)
    @given(length=st.integers(1, 5000), leaf=st.integers(8, 1000),
           p=st.sampled_from([101, 2000003, _largest_prime_at_most(ARRAY_MODULUS_MAX)]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(length=1, leaf=8, p=101, seed=0)
    @example(length=7, leaf=8, p=101, seed=1)
    @example(length=8, leaf=8, p=2000003, seed=2)
    @example(length=9, leaf=8, p=2000003, seed=3)
    @example(length=99, leaf=100, p=2000003, seed=4)        # _LEAF - 1
    @example(length=100, leaf=100, p=2000003, seed=5)       # _LEAF
    @example(length=101, leaf=100, p=2000003, seed=6)       # _LEAF + 1
    @example(length=213, leaf=100, p=2000003, seed=7)       # 2 _LEAF + 13
    @example(length=4999, leaf=8, p=101, seed=8)            # 64-column leaves, a deep tree
    def test_leaves_keep_numpy_sum_bits(self, length, leaf, p, seed):
        # leaves cut along numpy's pairwise tree and added in its order give
        # the bits of one sum over the whole phase, for any thread count
        phase = np.random.default_rng(seed).integers(0, p, size=length)
        want = complex(np.exp(2j * np.pi * (phase / p)).sum())
        with patch("nfgaps.expsum._LEAF", leaf):
            for threads in (1, 2, 3):
                assert _leaf_sum(lambda part: _unit_sum(phase[part], p), slice(0, length),
                                 threads) == want

    def test_sums_do_not_depend_on_threads(self):
        # 8 workers on 5 leaves, switching threads as often as the interpreter allows
        tup = neighbor_flip_tuple(300007, 1, 2)
        graph = graph_columns(tup)
        assert graph.shape[1] > 4 * _LEAF
        a, b, window = 3, [5, 7, 11, 13], Interval(17, 300000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for value in (lambda k, b=b: complete_sum(tup, a, b, threads=k),
                          lambda k, b=b: incomplete_sum(tup, a, b, window, threads=k)):
                assert len({value(k) for k in (1, 2, 8)}) == 1
                for wrong in (b[:-1], b + [17]):    # zip would drop a row or a coefficient
                    with pytest.raises(PreconditionError, match="--sum-b"):
                        value(2, wrong)
        finally:
            sys.setswitchinterval(interval)
        assert complete_sum(tup, a, b, threads=2) == _unit_sum(graph_phase(graph, tup.p, a, b),
                                                               tup.p)

    def test_geometric_sum_bits(self):
        # leaves making their own slices of y give the bits of one numpy sum over the phase
        p = 2000003
        for a, lo, hi in ((1, 0, p - 1), (77, 5, 1999000), (-3, 1000, 1000 + 3 * _LEAF + 13),
                          (12345, 9, 9)):
            ys = np.arange(lo, hi + 1, dtype=np.int64)
            assert geometric_interval_sum(p, a, Interval(lo, hi)) == _unit_sum(a % p * ys % p, p)

    def test_geometric_sum_memory(self):
        # each leaf makes its own slice of y; one int64 y over the window is 15.3 MiB
        tracemalloc.start()
        try:
            geometric_interval_sum(2000003, 3, Interval(0, 2000002))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_sum_memory_holds_leaves(self):
        # one sum over all 999,999 columns at once traces about 30 MiB; each leaf
        # computes its own columns
        tup = neighbor_flip_tuple(1000003, 1, 2)
        inverse_table(tup.p)                       # built outside the traced sum
        tracemalloc.start()
        try:
            complete_sum(tup, 3, [5, 7, 11, 13], threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_window_memory(self):
        # 500,000-column windows compute their columns leaf by leaf; one int64 row
        # of the window is 3.8 MiB; all columns stored as uint32 would take 19.1 MiB
        tup = neighbor_flip_tuple(1000003, 1, 2)
        inverse_table(tup.p)
        window = Interval(0, 499999)
        for stage in (lambda: incomplete_sum(tup, 3, [5, 7, 11, 13], window, threads=1),
                      lambda: box_count(tup, BoxSpec(x_window=window,
                                                     value_windows=(window,) * tup.d),
                                        threads=1)):
            tracemalloc.start()
            try:
                stage()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20

    def test_one_table_build(self):
        # the table is fetched in the calling thread: workers on a cold cache
        # would each build it
        tup = neighbor_flip_tuple(300007, 1, 2)
        inverse_table.cache_clear()
        complete_sum(tup, 3, [5, 7, 11, 13], threads=2)
        box_count(tup, BoxSpec(x_window=Interval(0, 300006),
                               value_windows=(Interval(0, 150000),) * tup.d), threads=2)
        assert inverse_table.cache_info().misses == 1

    def test_cold_sum_and_box_memory(self):
        # the 3.8 MiB table, its build and two workers' leaves; all columns stored as
        # uint32 would take 19.1 MiB
        tup = neighbor_flip_tuple(1000003, 1, 2)
        window = Interval(0, 500000)
        inverse_table.cache_clear()
        tracemalloc.start()
        try:
            complete_sum(tup, 3, [5, 7, 11, 13], threads=2)
            box_count(tup, BoxSpec(x_window=window, value_windows=(window,) * tup.d),
                      threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 << 20


class TestInverseTable:
    def test_is_inverse(self):
        for p in (7, 101, 1009):
            table = inverse_table(p)
            for i in range(1, p):
                assert i * table[i] % p == 1

    def test_prime_required(self):
        with pytest.raises(PreconditionError):
            inverse_table(15)

    def test_read_only(self):
        with pytest.raises(ValueError):
            inverse_table(7)[3] = 0
        assert inverse_table(7).tolist() == [0, 1, 4, 5, 2, 3, 6]

    def test_build_memory(self):
        # the 7.6 MiB table plus 2^16-exponent chunks; an array of all p - 1
        # int64 powers would add 15.3 MiB
        tracemalloc.start()
        try:
            _prime_power_inverses(2000003, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20

    def test_int64_bound(self):
        # 3037000507 is prime and its residue products overflow int64.
        with pytest.raises(PreconditionError, match="--p"):
            inverse_table(3037000507)
        with pytest.raises(PreconditionError, match="--p"):
            FracLinear(p=3037000507, a=0, b=1, c=1, e=1)


class TestExport:
    def test_sum_rows(self, tmp_path):
        tup = neighbor_flip_tuple(101, 1, 1)
        value = complete_sum(tup, 1, [2, 3])
        ratio = abs(value) / (4 * tup.d * math.sqrt(101))
        assert run(["expsum", "--p", "101", "--h", "1", "--D", "1", "--sum-a", "1",
                    "--sum-b", "2,3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sums.csv").read_text().splitlines()
        assert lines[0] == "p,d,a,b1,b2,re,im,bound_ratio"
        assert len(lines) == 2
        re, im, bound_ratio = (float(v) for v in lines[1].split(",")[5:])
        assert complex(re, im) == value and bound_ratio == ratio

    def test_interval_sum_rows(self, tmp_path):
        tup = neighbor_flip_tuple(1009, 1, 1)
        value = incomplete_sum(tup, 3, [5, 7], Interval(17, 900))
        ratio = abs(value) / (8 * tup.d * math.sqrt(1009) * math.log(1009))
        assert run(["expsum", "--p", "1009", "--h", "1", "--D", "1", "--sum-a", "3",
                    "--sum-b", "5,7", "--interval", "17:900", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sums.csv").read_text().splitlines()
        assert lines[0] == "p,d,a,b1,b2,re,im,bound_ratio" and len(lines) == 2
        assert lines[1].startswith("1009,2,3,5,7,")
        re, im, bound_ratio = (float(v) for v in lines[1].split(",")[5:])
        assert complex(re, im) == value and bound_ratio == ratio

    def test_box_rows(self, tmp_path):
        tup = neighbor_flip_tuple(101, 1, 1)
        full = Interval(0, 100)
        result = box_count(tup, BoxSpec(x_window=full, value_windows=(full, full)))
        assert run(["expsum", "--p", "101", "--h", "1", "--D", "1",
                    "--box", "0:100", "0:100", "0:100", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "boxes.csv").read_text().splitlines()
        assert lines[0] == "p,d,count,main_term,normalized_error"
        assert lines[1].startswith("101,2,99,")
        main_term, normalized_error = (float(v) for v in lines[1].split(",")[3:])
        assert (main_term, normalized_error) == (result.main_term, result.normalized_error)
