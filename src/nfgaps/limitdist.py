"""Closed-form limiting gap distribution G(t, lambda) and its density, t >= 1.

The limit is piecewise analytic on the strip [1, oo) x [0, oo): each tile
of a curved tessellation carries one branch formula.  For t >= 2 there are
four branches (ONE, C2, C3, ZERO at thresholds 1-2/t, 1, 1+2/t); for
1 <= t < 2 there are seven (H1..H7), with H2 reappearing for
4/3 <= t < 2 and H7 replacing it for 1 <= t < 4/3.

Each branch is twice the volume of the limit region of ``omega`` on its
tile, integrated exactly over every row whose forbidden window can meet the
cube.  For 1 <= t < 2 that includes row j = 3 once lam > 3 - 2/t, which
shapes H5 and H6 (its pole c/(lam - 3) sits in H5); without it those two
branches integrate to more than 1.  Row 4 and beyond never matter for
t >= 1, and for t >= 2 every row past j = 1 is redundant.

Every branch is transcribed once into a coefficient table of the shape

    G = (1/den) * [ sum_k p_k(t) lam^k
                    + (a + b lam) log(2/t)
                    + sum_i (a_i + b_i lam) log(u0_i + u1_i lam)
                    + sum_j c_j / (lam - k_j) ]

and the value, the analytic lambda-derivative and the antiderivative are
all generated from that table, so neither the density nor the exact mass
can drift from the distribution.  The products (a_i + b_i lam) log(u_i)
have removable singularities where the coefficient and the log argument
vanish together (e.g. at lam = 1); these evaluate to their limit 0, never
by epsilon-fudging.

G is continuously differentiable in lambda except at lam = 1, where the
density has an integrable logarithmic spike.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError

__all__ = [
    "Region",
    "classify_region",
    "thresholds",
    "branch_value",
    "branch_derivative",
    "limit_G",
    "limit_density",
    "tile_map",
    "integral_of_G",
]


class Region(enum.Enum):
    """Branch tag for one tile of the (t, lambda) tessellation."""

    ONE = "ONE"
    C2 = "C2"
    C3 = "C3"
    ZERO = "ZERO"
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"
    H5 = "H5"
    H6 = "H6"
    H7 = "H7"


@dataclass(frozen=True)
class _Branch:
    den: float
    poly: tuple[float, ...]                       # lam^k coefficients
    log_2t: tuple[float, float]                   # (a, b): (a + b lam) log(2/t)
    logs: tuple[tuple[float, float, float, float], ...]  # (a, b, u0, u1)
    poles: tuple[tuple[float, float], ...]        # (c, k): c / (lam - k)


def _branch_table(region: Region, t: float) -> _Branch:
    t2, t3, t4 = t * t, t ** 3, t ** 4
    if region is Region.ONE:
        return _Branch(1.0, (1.0,), (0.0, 0.0), (), ())
    if region is Region.ZERO:
        return _Branch(1.0, (0.0,), (0.0, 0.0), (), ())
    if region in (Region.C2, Region.H2):
        return _Branch(
            8.0,
            (4 + t2, -2 * t2, t2),
            (4 * t, -4 * t),
            ((-4 * t, 4 * t, 1.0, -1.0),),
            (),
        )
    if region is Region.C3:
        return _Branch(
            8.0,
            (4 - t2, 2 * t2, -t2),
            (4 * t, -4 * t),
            ((-4 * t, 4 * t, -1.0, 1.0),),
            (),
        )
    if region is Region.H1:
        return _Branch(
            2.0,
            (2.0, -t2),
            (0.0, -2 * t),
            ((-t, t, 1.0, -1.0), (t, t, 1.0, 1.0)),
            (),
        )
    if region is Region.H3:
        return _Branch(
            48.0,
            (8 + 12 * t + 6 * t2 + 4 * t3,
             -24 * t + 12 * t2 - 12 * t3,
             -6 * t2 + 9 * t3,
             -2 * t3),
            (48 * t, -24 * t),
            ((-24 * t, 24 * t, 1.0, -1.0), (-24 * t, 0.0, 2.0, -1.0)),
            (),
        )
    if region is Region.H4:
        return _Branch(
            48.0,
            (8 - 12 * t + 6 * t2 - t3, 12 * t2, -6 * t2),
            (48 * t, -24 * t),
            ((-24 * t, 24 * t, -1.0, 1.0),),
            (),
        )
    if region is Region.H5:
        return _Branch(
            288.0,
            (48 + 80 * t - 252 * t2 + 102 * t3,
             -64 * t + 288 * t2 - 90 * t3 - 18 * t4,
             -72 * t2 + 18 * t3 + 21 * t4,
             -8 * t4,
             t4),
            (192 * t, -96 * t),
            ((96 * t, -48 * t, 3.0, -1.0), (-144 * t, 144 * t, -1.0, 1.0)),
            ((24 * t, 3.0),),
        )
    if region is Region.H6:
        return _Branch(
            288.0,
            (48 - 256 * t - 252 * t2 - 66 * t3 - 8 * t4,
             80 * t + 288 * t2 + 126 * t3 + 22 * t4,
             -72 * t2 - 72 * t3 - 21 * t4,
             12 * t3 + 8 * t4,
             -t4),
            (192 * t, -96 * t),
            ((-192 * t, 96 * t, -1.0, 1.0),),
            ((24 * t, 1.0),),
        )
    if region is Region.H7:
        return _Branch(
            48.0,
            (32 + 12 * t + 4 * t3,
             -24 * t - 12 * t3,
             -12 * t2 + 9 * t3,
             -2 * t3),
            (24 * t, -48 * t),
            ((-24 * t, 24 * t, 1.0, -1.0), (-24 * t, 0.0, 2.0, -1.0),
             (24 * t, 24 * t, 1.0, 1.0)),
            (),
        )
    raise ValueError(f"no branch table for {region}")


def _check_domain(t: float, lam: float) -> tuple[float, float]:
    t = float(t)
    lam = float(lam)
    if not t >= 1.0:
        raise PreconditionError(
            f"no closed form for t < 1 (use the omega volume estimators); got t={t}"
        )
    if not lam >= 0.0:
        raise PreconditionError(f"lambda must be nonnegative; got {lam}")
    return t, lam


def _tiles(t: float) -> list[tuple[float, Region]]:
    """The branches of G(t, .) in lambda order, each paired with its right end:
    the one tile list that classify_region, thresholds and integral_of_G read."""
    if t >= 2.0:
        return [(1.0 - 2.0 / t, Region.ONE), (1.0, Region.C2),
                (1.0 + 2.0 / t, Region.C3), (math.inf, Region.ZERO)]
    if t >= 4.0 / 3.0:
        head = [(2.0 / t - 1.0, Region.H1), (2.0 - 2.0 / t, Region.H2)]
    else:
        head = [(2.0 - 2.0 / t, Region.H1), (2.0 / t - 1.0, Region.H7)]
    return head + [(1.0, Region.H3), (3.0 - 2.0 / t, Region.H4), (2.0, Region.H5),
                   (1.0 + 2.0 / t, Region.H6), (math.inf, Region.ZERO)]


def classify_region(t: float, lam: float) -> Region:
    """Active branch at (t, lambda); boundaries follow half-open conventions.

    The leading boundary of each row (lam <= first threshold) goes to the
    first branch; later thresholds belong to the branch on their right.
    Branch continuity makes the choice observationally irrelevant.
    """
    t, lam = _check_domain(t, lam)
    tiles = _tiles(t)
    if lam <= tiles[0][0]:
        return tiles[0][1]
    return next(region for end, region in tiles if lam < end)


def thresholds(t: float) -> tuple[float, ...]:
    """Ascending branch boundaries in lambda for a given t >= 1."""
    t, _ = _check_domain(t, 0.0)
    return tuple(sorted({end for end, _ in _tiles(t) if 0.0 < end < math.inf}))


def branch_value(region: Region, t: float, lam: float) -> float:
    """Evaluate one branch formula at (t, lambda).

    Valid on the branch's closed tile; log terms whose argument vanishes
    there have vanishing coefficients and contribute their limit 0.
    """
    t, lam = _check_domain(t, lam)
    br = _branch_table(region, t)
    acc = 0.0
    for k in range(len(br.poly) - 1, -1, -1):
        acc = acc * lam + br.poly[k]
    a, b = br.log_2t
    if a != 0.0 or b != 0.0:
        acc += (a + b * lam) * math.log(2.0 / t)
    for (ai, bi, u0, u1) in br.logs:
        u = u0 + u1 * lam
        coef = ai + bi * lam
        if u <= 0.0:
            if coef != 0.0:
                raise PreconditionError(
                    f"branch {region.value} evaluated outside its tile "
                    f"(log argument {u} <= 0 at lambda={lam})"
                )
            continue  # removable: coef -> 0 exactly where u -> 0
        acc += coef * math.log(u)
    for (c, k) in br.poles:
        acc += c / (lam - k)
    return acc / br.den


def branch_derivative(region: Region, t: float, lam: float) -> float:
    """Analytic d/dlambda of one branch, generated from the same table.

    At a boundary where a log argument hits 0 the derivative diverges; the
    signed infinity of the dominant log term is returned (this happens only
    at lambda = 1).
    """
    t, lam = _check_domain(t, lam)
    br = _branch_table(region, t)
    acc = 0.0
    for k in range(len(br.poly) - 1, 0, -1):
        acc = acc * lam + k * br.poly[k]
    _, b = br.log_2t
    if b != 0.0:
        acc += b * math.log(2.0 / t)
    for (ai, bi, u0, u1) in br.logs:
        u = u0 + u1 * lam
        if u <= 0.0:
            if bi != 0.0:
                return math.copysign(math.inf, -bi) / br.den
            continue
        acc += bi * math.log(u) + (ai + bi * lam) * u1 / u
    for (c, k) in br.poles:
        acc -= c / (lam - k) ** 2
    return acc / br.den


def _antiderivative(region: Region, t: float, lam: float) -> float:
    """A lambda-antiderivative of one branch, generated from the same table.

    A log term (a + b lam) log u, u = u0 + u1 lam, is (A + B u) log u with
    B = b/u1 and A = a - B u0; its antiderivative [A (u log u - u) + B (u^2
    log u / 2 - u^2 / 4)] / u1 tends to 0 as u -> 0 (u < 0 is off the tile).
    """
    br = _branch_table(region, t)
    acc = sum(p * lam ** (k + 1) / (k + 1) for k, p in enumerate(br.poly))
    a, b = br.log_2t
    if a != 0.0 or b != 0.0:
        acc += (a + 0.5 * b * lam) * lam * math.log(2.0 / t)
    for (ai, bi, u0, u1) in br.logs:
        u = u0 + u1 * lam
        if u > 0.0:
            B, log_u = bi / u1, math.log(u)
            acc += ((ai - B * u0) * u * (log_u - 1.0) + B * u * u * (0.5 * log_u - 0.25)) / u1
    acc += sum(c * math.log(abs(lam - k)) for c, k in br.poles)
    return acc / br.den


def limit_G(t: float, lam: float) -> float:
    """Limiting gap distribution: fraction of normalized gaps >= lambda."""
    return branch_value(classify_region(t, lam), float(t), float(lam))


def limit_density(t: float, lam: float) -> float:
    """Limiting gap density, -dG/dlambda; +inf at the logarithmic spike lam = 1."""
    deriv = branch_derivative(classify_region(t, lam), float(t), float(lam))
    return 0.0 if deriv == 0.0 else -deriv


def tile_map(t_values: Sequence[float], lam_values: Sequence[float]) -> list[list[Region]]:
    """Region tags on the product grid; rows follow t_values."""
    return [[classify_region(t, lam) for lam in lam_values] for t in t_values]


def integral_of_G(t: float) -> float:
    """Exact integral of G(t, .) over its support [0, 1 + 2/t], tile by tile."""
    t, _ = _check_domain(t, 0.0)
    total = lo = 0.0
    for end, region in _tiles(t)[:-1]:     # the last tile, ZERO, adds nothing
        if end > lo:
            total += _antiderivative(region, t, end) - _antiderivative(region, t, lo)
            lo = end
    return total
