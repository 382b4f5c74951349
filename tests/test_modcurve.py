import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfgaps import (PreconditionError, build_curve, build_nf_curve,
                    is_prime, mod_inverse, mod_inverse_centered, nf_union)
from nfgaps.cli import run
from nfgaps.modcurve import (ARRAY_MODULUS_MAX, POINTS_MAX, UNION_MODULUS_MAX, _check_union,
                             _factor, _inverse_table, _unit_generator)

from conftest import brute_force_curve, power_table_inverses


class TestModInverse:
    def test_identity(self):
        assert mod_inverse_centered(1, 7) == 1

    def test_centered_examples(self):
        # 2*4 = 8 = 1 mod 7, centered 4-7 = -3; 6*6 = 36 = 1 mod 7, centered -1
        assert mod_inverse_centered(2, 7) == -3
        assert mod_inverse_centered(6, 7) == -1

    def test_matches_naive_search(self):
        for q in (7, 9, 15, 101):
            J = (q - 1) // 2
            for n in range(1, q):
                if math.gcd(n, q) != 1:
                    continue
                inv = mod_inverse_centered(n, q)
                assert -J <= inv <= J
                assert (inv * n) % q == 1

    def test_non_invertible_raises(self):
        with pytest.raises(PreconditionError):
            mod_inverse_centered(3, 9)
        with pytest.raises(PreconditionError):
            mod_inverse(0, 7)

    def test_even_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            mod_inverse_centered(3, 8)

    def test_large_modulus(self):
        q = 2 ** 61 - 1
        inv = mod_inverse_centered(123456789123456789, q)
        assert (inv * 123456789123456789) % q == 1
        assert abs(inv) <= (q - 1) // 2


class TestBuildCurve:
    def test_seven_one_frozen(self):
        ps = build_curve(7, 1)
        assert set(ps.points) == {(1, -3), (-3, -2), (-2, 2), (2, 3), (3, -1)}
        assert ps.count == 5 == 7 - 2

    def test_sorted_by_second_coordinate(self):
        ps = build_curve(101, 7)
        ys = ps.y.tolist()
        assert ys == sorted(ys)

    def test_diagonal_shift(self):
        # h = 0 mod p folds the curve onto the line y = x
        ps = build_curve(11, 11)
        assert ps.count == 10 == 11 - 1
        assert all(x == y for x, y in ps.points)
        assert ps.h == 0

    def test_composite_nine(self):
        # consecutive-unit pairs mod 9 are n in {1, 4, 7}
        ps = build_curve(9, 1)
        assert ps.count == 3
        assert set(ps.points) == brute_force_curve(9, 1)

    def test_prime_count(self):
        for p in (5, 7, 11, 101, 1009):
            for h in (1, 2, p - 1):
                assert build_curve(p, h).count == p - 2

    def test_round_trip(self):
        for q, h in ((101, 3), (15, 2), (9, 1)):
            ps = build_curve(q, h)
            for x, y in ps.points:
                n = mod_inverse(x, q)
                assert (n + h) * y % q == 1

    def test_x_coordinates_distinct(self):
        ps = build_curve(301, 5)
        xs = ps.x.tolist()
        assert len(set(xs)) == len(xs)

    def test_coordinate_ranges(self):
        ps = build_curve(23, 4)
        J = ps.J
        assert all(-J <= x <= J and -J <= y <= J for x, y in ps.points)
        raw = build_nf_curve(23, 4)
        assert all(0 <= x < 23 and 0 <= y < 23 for x, y in raw.points)

    def test_even_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            build_curve(10, 1)

    @settings(max_examples=60, deadline=None)
    @given(q=st.one_of(st.integers(1, 150).map(lambda k: 2 * k + 1),
                       st.lists(st.sampled_from([3, 5, 7, 11, 13]), min_size=2, max_size=3)
                       .map(math.prod)),
           h=st.integers(-400, 400))
    def test_matches_definition(self, q, h):
        # odd q up to 301 plus products of small primes (prime powers included),
        # both conventions, in the documented order
        for build, centered in ((build_curve, True), (build_nf_curve, False)):
            want = sorted(brute_force_curve(q, h % q, centered), key=lambda p: p[1])
            assert list(build(q, h).points) == want

    @pytest.mark.parametrize("q", [3, 15, 101, 105])
    def test_shifts_next_to_the_modulus(self, q):
        # h = q - 1 and h = -1 reduce to the largest shift, so the table's
        # residues minus h only stay right when widened before the subtraction
        J = (q - 1) // 2
        for h in (q - 1, -1, q + 1):
            pairs = [(mod_inverse(n, q), mod_inverse(n + h, q)) for n in range(q)
                     if math.gcd(n, q) == 1 and math.gcd(n + h, q) == 1]
            for build, centered in ((build_curve, True), (build_nf_curve, False)):
                ps = build(q, h)
                assert ps.x.dtype == ps.y.dtype == np.int64
                want = [(x - q if x > J else x, y - q if y > J else y) if centered else (x, y)
                        for x, y in pairs]
                assert list(ps.points) == sorted(want, key=lambda pt: pt[1])

    def test_value_equality(self):
        ps = build_curve(101, 3)
        assert ps == build_curve(101, 3 + 101) and hash(ps) == hash(build_curve(101, 3))
        assert ps != build_curve(101, 4) and ps != build_nf_curve(101, 3)
        with pytest.raises(ValueError):
            ps.x[0] = 0


class TestInverseTable:
    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 9999).map(lambda k: 2 * k + 1))
    def test_matches_power_table(self, q):
        assert np.array_equal(_inverse_table(q), power_table_inverses(q))

    @pytest.mark.parametrize("q", [3 ** 9, 5 ** 6 * 7, 3 * 5 * 7 * 11 * 13, 9 * 25 * 49,
                                   1000667])
    def test_prime_powers_products_and_a_safe_prime(self, q):
        # 1000667 - 1 = 2 * 500333 with 500333 prime
        table = _inverse_table(q)
        assert table.dtype == np.uint32 and np.array_equal(table, power_table_inverses(q))

    def test_composite_join_memory(self):
        # 3,000,009 = 3 * 1,000,003: joining the two prime-power tables through
        # int64 arrays of length q traced 27.7 bytes per residue; in chunks of
        # residues the join holds the uint32 output and the two tables
        q = 3000009
        tracemalloc.start()
        try:
            table = _inverse_table(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * q
        n = np.arange(q, dtype=np.int64)
        units = np.gcd(n, q) == 1
        assert np.all(n[units] * table[units] % q == 1) and not np.any(table[~units])

    @pytest.mark.parametrize("p, k, g", [(3, 9, 2), (7, 1, 3), (40487, 1, 5),
                                         (40487, 2, 5 + 40487)])
    def test_unit_generator(self, p, k, g):
        # 5 is a primitive root mod 40487 but 5^40486 = 1 mod 40487^2, a table
        # too large to build here, so its generator is checked by its order
        assert _unit_generator(p, k) == g
        m = p ** k
        phi = m - m // p
        assert all(pow(g, phi // r, m) != 1 for r in _factor(phi))


class TestArrayModulusBound:
    def test_bound_is_the_int64_limit(self):
        assert ARRAY_MODULUS_MAX ** 2 < 2 ** 63 <= (ARRAY_MODULUS_MAX + 1) ** 2

    def test_checked_before_the_table(self, monkeypatch):
        class TableBuilt(Exception):
            pass

        def no_table(q):
            raise TableBuilt

        monkeypatch.setattr("nfgaps.modcurve._inverse_table", no_table)
        assert POINTS_MAX <= ARRAY_MODULUS_MAX      # the point cap keeps q^2 in int64
        with pytest.raises(TableBuilt):
            build_curve(POINTS_MAX - 1, 1)          # the largest odd q admitted
        for q in (POINTS_MAX + 1, ARRAY_MODULUS_MAX + 2):
            with pytest.raises(PreconditionError, match="--q"):
                build_curve(q, 1)
            with pytest.raises(PreconditionError, match="--q"):
                build_nf_curve(q, 1)

    def test_union_cap(self):
        # the largest q whose q(q - 2) union rows stay within the point cap
        q = UNION_MODULUS_MAX
        assert q * (q - 2) <= POINTS_MAX < (q + 2) * q
        _check_union(q)
        with pytest.raises(PreconditionError, match="--q"):
            _check_union(UNION_MODULUS_MAX + 2)
        with pytest.raises(PreconditionError, match="--q"):
            nf_union(UNION_MODULUS_MAX + 2)


class TestNFCurve:
    def test_diagonal_raw(self):
        ps = build_nf_curve(7, 0)
        assert set(ps.points) == {(k, k) for k in range(1, 7)}

    def test_raw_is_translate_of_centered(self):
        cent = build_curve(7, 1)
        raw = build_nf_curve(7, 1)
        assert {(x % 7, y % 7) for x, y in cent.points} == set(raw.points)

    def test_fifteen_three(self):
        # n and n+3 both coprime to 15: n in {1, 4, 8, 11, 13, 14}
        ps = build_nf_curve(15, 3)
        assert ps.count == 6
        assert set(ps.points) == brute_force_curve(15, 3, centered=False)


class TestUnion:
    def test_prime_union_is_unit_grid(self):
        curves = nf_union(7)
        assert len(curves) == 7
        union = set()
        total = 0
        for ps in curves.values():
            pts = set(ps.points)
            assert union.isdisjoint(pts)
            union |= pts
            total += ps.count
        assert total == 36
        assert union == {(a, b) for a in range(1, 7) for b in range(1, 7)}

    def test_composite_union_counts_unit_pairs(self):
        union = set()
        for ps in nf_union(9).values():
            union |= set(ps.points)
        assert len(union) == 36  # phi(9)^2

    def test_disjointness_small_moduli(self):
        for q in (15, 21, 25):
            curves = nf_union(q)
            total = sum(ps.count for ps in curves.values())
            union = set().union(*(set(ps.points) for ps in curves.values()))
            assert total == len(union)


class TestPrimality:
    def test_against_sieve(self):
        limit = 2000
        sieve = [True] * (limit + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        for n in range(limit + 1):
            assert is_prime(n) == sieve[n], n

    def test_large_known_values(self):
        for p in (7879, 7883, 8009, 9973, 10007, 2 ** 61 - 1):
            assert is_prime(p)
        for n in (7880, 7881, 7882, 2 ** 61 - 2, 10007 * 9973):
            assert not is_prime(n)


class TestExport:
    def test_csv_and_sidecar(self, tmp_path):
        ps = build_curve(7, 1)
        csv_path = tmp_path / "curve_q7_h1_centered.csv"
        json_path = tmp_path / "curve_q7_h1_centered.json"
        assert run(["curve", "--q", "7", "--h", "1", "--out", str(tmp_path)]) == 0

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "q,h,centered"
        assert lines[1] == "7,1,true"
        assert lines[2] == "x,y"
        parsed = [tuple(int(v) for v in line.split(",")) for line in lines[3:]]
        assert parsed == list(ps.points)

        meta = json.loads(json_path.read_text())
        assert meta == {"q": 7, "h": 1, "J": 3, "count": 5, "centered": True}
