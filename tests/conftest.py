"""Shared fixtures and independent oracles for the test suite.

Oracles here are deliberately naive (direct enumeration, double loops,
finite differences) and never reuse the code paths they check.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from nfgaps import (DEFAULT_GRID, CurvePointSet, PreconditionError, angle_sequence,
                    build_curve, empirical_G, limit_G, normalized_gaps, thresholds)
from nfgaps import expsum
from nfgaps.angles import _coordinates
from nfgaps.omega import _SlotStream


def brute_force_curve(q: int, h: int, centered: bool = True) -> set[tuple[int, int]]:
    """Definitional enumeration: all (inv(n), inv(n+h)) with both gcds 1."""
    pts = set()
    J = (q - 1) // 2
    for n in range(q):
        if math.gcd(n, q) != 1 or math.gcd(n + h, q) != 1:
            continue
        x = _naive_inverse(n, q)
        y = _naive_inverse(n + h, q)
        if centered:
            x = x - q if x > J else x
            y = y - q if y > J else y
        pts.add((x, y))
    return pts


def _naive_inverse(n: int, q: int) -> int:
    n %= q
    for k in range(1, q):
        if (k * n) % q == 1:
            return k
    raise AssertionError(f"{n} not invertible mod {q}")


def power_table_inverses(q: int) -> np.ndarray:
    """Inverses mod odd q by Euler's n^(phi(q)-1), Fermat's n^(q-2) for prime
    q: square-and-multiply over the whole residue array, 0 at non-units."""
    n = np.arange(q, dtype=np.int64)
    units = np.gcd(n, q) == 1
    e = int(np.count_nonzero(units)) - 1
    inv = np.ones_like(n)
    while e:
        if e & 1:
            inv = inv * n % q
        e >>= 1
        n = n * n % q
    inv[~units] = 0
    return inv


def graph_columns(tup: expsum.FracLinearTuple) -> np.ndarray:
    """A tuple's graph (x, r_1(x), ..., r_d(x)) over all p - d columns, shape
    (d + 1, p - d): copies of the int64 rows `_columns` gives, one block of at
    most expsum._LEAF columns at a time."""
    inv, n = expsum.inverse_table(tup.p), tup.p - tup.d
    blocks = [np.stack([row.copy() for row in
                        tup._columns(inv, slice(lo, min(lo + expsum._LEAF, n)))])
              for lo in range(0, n, expsum._LEAF)]
    # d = p poles leave no column at all
    return np.concatenate(blocks, axis=1) if blocks else np.empty((tup.d + 1, 0), np.int64)


def _piecewise_quad(f, lo: float, hi: float, cuts) -> float:
    """quad over [lo, hi] split at every cut, near-duplicate cuts merged."""
    edges = [lo]
    for c in sorted(c for c in cuts if lo < c < hi):
        if c - edges[-1] > 1e-12:
            edges.append(c)
    if hi - edges[-1] <= 1e-12:
        edges.pop()
    edges.append(hi)
    return sum(quad(f, a, b, limit=200, epsabs=1e-13, epsrel=1e-13)[0]
               for a, b in zip(edges, edges[1:]))


def quad_integral_of_G(t: float) -> float:
    """Adaptive quadrature of G(t, .) over its support [0, 1 + 2/t], with
    the branch thresholds as break points."""
    hi = 1.0 + 2.0 / t
    pts = [c for c in thresholds(t) if c < hi]
    val, _ = quad(lambda lam: limit_G(t, lam), 0.0, hi,
                  points=pts, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val


def region_volume_G(t: float, lam: float, drop=()) -> float:
    """Twice the volume of the limit region, by nested adaptive quadrature.

    Given x and y_0, each other coordinate y_j only has to avoid its own
    window [y_0 + (j - lam) s, y_0 + j s] with s = t/(4x), so it contributes
    the length of what the window leaves of [-1/2, 1/2].  Every row j != 0
    whose window can meet the cube is kept, -2/t <= j <= lam + 2/t, except
    the rows in drop (a masked region: those y_j are free).  The y_0
    integrand kinks where a window end crosses a face of the cube, and the
    x integrand where two of those kinks meet, at s = 1/|k - k'| for window
    slopes k, k' in {j - lam, j} and the faces' slope 0.
    """
    rows = [j for j in range(-int(2 / t), int(lam + 2 / t) + 1) if j != 0 and j not in drop]
    slopes = {0.0} | {float(k) for j in rows for k in (j - lam, j)}

    def over_y0(x: float) -> float:
        s = t / (4 * x)

        def left(y0: float) -> float:
            prod = 1.0
            for j in rows:
                covered = min(y0 + j * s, 0.5) - max(y0 + (j - lam) * s, -0.5)
                if covered > 0.0:
                    prod *= 1.0 - covered
            return prod

        return _piecewise_quad(left, -0.5, 0.5,
                               [c - k * s for k in slopes for c in (-0.5, 0.5)])

    x_cuts = [t * abs(k - k2) / 4 for k in slopes for k2 in slopes if k != k2]
    return 2.0 * _piecewise_quad(over_y0, 0.0, 0.5, x_cuts)


def omega_rows(t: float, lam: float, D: int) -> list[int]:
    """The rows of the limit region, from the `omega` module docstring:
    j = -D+1 .. D, then for t <= 2 every j > D with
    j < min(lam, 1 + 2/t) + 2/t."""
    rows = list(range(-D + 1, D + 1))
    while t <= 2.0 and rows[-1] + 1 < min(lam, 1.0 + 2.0 / t) + 2.0 / t:
        rows.append(rows[-1] + 1)
    return rows


def omega_contains(x: float, ys, t: float, lam: float, D: int) -> bool:
    """Membership of one point (x, y_{-D+1}, ..) in the limit region, from the
    window definition in the `omega` module docstring.

    ys lists y_j for the rows omega_rows(t, lam, D), so y_0 sits at index
    D-1.  The point is out iff (j - lam) t <= 4x (y_j - y_0) <= j t for some
    row j != 0.  D is taken as given, not tied to the interference order of t.
    """
    if not (t > 0.0 and lam >= 0.0):
        raise PreconditionError(f"need t > 0 and lambda >= 0 (--lambda); got {t}, {lam}")
    rows = omega_rows(t, lam, D)
    if len(ys) != len(rows):
        raise PreconditionError(f"expected {len(rows)} y-coordinates; got {len(ys)}")
    if not (0.0 <= x <= 0.5 and all(-0.5 <= y <= 0.5 for y in ys)):
        raise PreconditionError(f"point outside the half-cube: x={x}, ys={ys}")
    y0 = ys[D - 1]
    return not any((j - lam) * t <= 4.0 * x * (y - y0) <= j * t
                   for j, y in zip(rows, ys) if j != 0)


def counter_uniforms(seed: int, start: int, count: int, slots: int) -> np.ndarray:
    """Uniforms in [0, 1) for samples start..start+count-1, shape (slots, count).

    Value (i, s) is splitmix64 output number i*slots + s for the given seed.
    The rows are stacked from the per-slot kernel that `omega_volume`
    streams, so a pin of this array pins the production stream.
    """
    stream = _SlotStream(seed, start, count, slots)
    out = np.empty((slots, count), dtype=np.float64)
    for slot in range(slots):
        stream.fill(slot, out[slot])
    return out


def per_point_columns(points, t, J: int | None = None) -> tuple[list, list, np.ndarray]:
    """`gap_per_point` point by point: x and y as int lists in input order, and
    a NaN-filled gap column that gets each gap at the index of the point it
    follows in angular order."""
    if not isinstance(points, CurvePointSet):
        points = list(points)
    xs, ys, _ = _coordinates(points, J)
    seq = angle_sequence(points, t, J)
    gaps = normalized_gaps(seq).gaps.tolist()
    carried = np.full(seq.n, np.nan)
    for k, i in enumerate(seq.order[:-1].tolist()):
        carried[i] = gaps[k]
    return xs.tolist(), ys.tolist(), carried


@lru_cache(maxsize=64)
def cached_gap_sample(q: int, h: int, t_text: str):
    """Shared (angle sequence, gap sample) for expensive configurations."""
    seq = angle_sequence(build_curve(q, h), Fraction(t_text))
    return seq, normalized_gaps(seq)


@lru_cache(maxsize=64)
def cached_empirical_curve(q: int, h: int, t_text: str) -> np.ndarray:
    _, gaps = cached_gap_sample(q, h, t_text)
    return empirical_G(gaps, DEFAULT_GRID.values())


@pytest.fixture(scope="session")
def lambda_grid() -> np.ndarray:
    return DEFAULT_GRID.values()
