"""Observer angles, sorted angle sequences, and normalized gap statistics.

An observer sits at (-t*J^2, 0), strictly left of every point (for a curve
in the square [-J, J]^2, t*J > 1 implies it), and measures the signed angle
to each; t is anything `Fraction` accepts.  The empirical gap distribution
G(lambda) is the fraction of consecutive angular gaps of size at least
lambda times the average gap.

The angular order is exact.  With t = a/b, point i precedes point j when
y_i/(x_i + t*J^2) < y_j/(x_j + t*J^2), an integer comparison.  The order is
found by a floating-point filter (Shewchuk, 1997): a stable argsort of a
float64 key, then an exact rational re-sort of only those stretches of the
sorted keys that the rounding bound of `angle_sequence` cannot separate.
Exact ties (observer-collinear points) keep their input order.  At p ~ 1e5
neighboring gaps are ~4e-10 rad while the double error of the arctangent
values is ~1e-17, so the angle *values* are safe in double precision once
the order is fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .modcurve import CurvePointSet

__all__ = [
    "AngleSequence",
    "GapSample",
    "angle_sequence",
    "normalized_gaps",
    "empirical_G",
    "gap_per_point",
]


@dataclass(eq=False)
class AngleSequence:
    """Ascending observer angles plus the average consecutive gap.

    `order[k]` is the index into the input point list of the point with the
    k-th smallest angle, so callers can join angles back onto points.
    """

    angles: np.ndarray
    order: np.ndarray

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def alpha_min(self) -> float:
        return float(self.angles[0])

    @property
    def alpha_max(self) -> float:
        return float(self.angles[-1])

    @property
    def delta_av(self) -> float:
        if self.n < 2:
            raise PreconditionError("need at least 2 angles for an average gap")
        return (self.alpha_max - self.alpha_min) / (self.n - 1)


@dataclass(eq=False)
class GapSample:
    """Consecutive angular gaps divided by the average gap, in angular order;
    `sorted_gaps` holds the same gaps in increasing order, sorted on first read."""

    gaps: np.ndarray

    @cached_property
    def sorted_gaps(self) -> np.ndarray:
        return np.sort(self.gaps)

    @property
    def n(self) -> int:
        return len(self.gaps)

    @property
    def mean(self) -> float:
        return float(np.mean(self.gaps))

    @property
    def max(self) -> float:
        return float(self.sorted_gaps[-1])


# Unit roundoff of float64, and the absolute error of a key that underflows.
_U = 2.0 ** -53
_TINY = 2.0 ** -1074
# Sorted positions per pass of the ordering: its temporaries stay this small.
_BLOCK = 1 << 13


def _coordinates(points, J: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """int64 coordinate arrays (x, y) and J of a point set."""
    if isinstance(points, CurvePointSet):
        if not points.centered:
            raise PreconditionError(
                "angle computations need the centered point convention; "
                "build the curve with build_curve()"
            )
        return points.x, points.y, points.J
    if J is None:
        raise PreconditionError("J must be given explicitly for a plain point list")
    pts = [(int(x), int(y)) for (x, y) in points]
    if any(abs(v) > 2 ** 53 for p in pts for v in p):
        raise PreconditionError("point coordinates must not exceed 2^53 in magnitude")
    xy = np.array(pts, dtype=np.int64).reshape(-1, 2)
    return xy[:, 0], xy[:, 1], J


def _keys(xs: np.ndarray, ys: np.ndarray, T: float, tJ2: Fraction) -> np.ndarray:
    """The float keys of `angle_sequence`, in input order; T = fl(tJ2)."""
    keys = np.add(xs, T)
    keys += float(tJ2 - Fraction(T))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(ys, keys, out=keys)
    return keys


def _bound(b: int) -> float:
    """The relative bound c of every float key for t = a/b (`angle_sequence`)."""
    return 4 * _U if b <= 2 ** 900 else math.inf


def _joined(keys: np.ndarray, order: np.ndarray, bound: float) -> np.ndarray:
    """Sorted positions that are no cut of `angle_sequence`.  Blocks of
    _BLOCK + 1 sorted keys overlap by one, so each block edge is tested."""
    cut = np.empty(len(order) - 1, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(0, len(cut), _BLOCK):
            key = keys[order[s:s + _BLOCK + 1]]
            width = np.abs(key[1:]) + np.abs(key[:-1])
            width *= 2 * bound
            width += 8 * _TINY
            np.greater(np.diff(key), width, out=cut[s:s + len(width)])
    return np.flatnonzero(~cut)


def angle_sequence(points, t, J: int | None = None) -> AngleSequence:
    """Sort points by observer angle and return the angle sequence.

    `points` is a centered CurvePointSet or an iterable of integer pairs
    (then J is required), and t anything `Fraction` accepts.  Every point
    must lie strictly right of the observer: b*x + a*J^2 > 0 for t = a/b,
    which t*J > 1 implies for a curve (x >= -J).  Ties (observer-collinear
    points) keep their input order and later produce zero gaps.

    A stable argsort orders the float keys k = fl(y/d), d = fl(fl(x + T) + L),
    where t = a/b, T = fl(t*J^2) and L = fl(t*J^2 - T) carries the rounding
    error of T, which next to a close observer would dwarf the exact
    denominator D = x + t*J^2.  Let u = 2^-53, s = x + T and tau = t*J^2 - T,
    so D = s + tau and |tau| <= ulp(T)/2 <= u*T (ulp: the float spacing just
    above).  T >= 1 (as t*J^2 > J) is a multiple of 2^-52, so a nonzero tau
    is at least 2^-52/b: for b <= 2^900 a normal float, with
    |L - tau| <= u*|tau|.  Then
    |fl(s) - s| + |L - tau| <= 1.01u*|D|:

      - T/2 <= -x <= 2T: fl(s) = s (Sterbenz) and |tau| <= |D|.  For
        T < 2^53, ulp(T) <= 1 divides T and x, so s = 0 or |s| >= 2|tau|;
        for T >= 2^53, x >= -2^53 gives s >= T - 2^53 >= 0, so s = 0, or
        s >= ulp(T) >= 2|tau|, or T = 2^53 and s >= 1 with tau >= -1/2.
      - otherwise |s| > T/2 >= |tau|/(2u), so |fl(s) - s| <= u*(1 + 3u)*|D|
        and |L - tau| <= 3u^2*|D|.

    Hence |d - D| <= 2.02u*|D|; a nonzero D is at least 1/b, so no key
    overflows, and the division adds at most u*|k| + 2^-1075.  One relative
    bound covers every key:

        |k - y/D| <= c*|k| + 2^-1074,  c = 4u,

    and c is infinite for b > 2^900.  (Coordinates of magnitude at most 2^53
    convert exactly, and fl(x + T) stays finite up to the float limit.)
    Both ends k +- (c*|k| + 2^-1074) grow with k, so position i of the
    sorted keys is a cut, with every true key left of it strictly below
    every one right of it, when k_{i+1} - k_i > c*(|k_i| + |k_{i+1}|) +
    2^-1073; the float test fl(k_{i+1} - k_i) > fl(2c*fl(|k_i| + |k_{i+1}|))
    + 2^-1071 implies that, 2c being a power of 2.  An infinite c, or a key
    that is not finite, gives no cut.  Each maximal stretch without a cut is
    re-sorted exactly by (y/(b*x + a*J^2), input index); as the cuts are
    exact, the result is the unique stable exact order however the
    stretches fall.

    Besides the points and `order`, one float array is held: the keys, then
    the angles.
    """
    xs, ys, J = _coordinates(points, J)
    n = len(xs)
    if n == 0:
        raise PreconditionError("point set is empty")
    # int(): Fraction keeps a numpy integer's type in its numerator
    a, b = (int(v) for v in Fraction(t).as_integer_ratio())
    if J < 1:
        raise PreconditionError(f"J must be a positive integer; got {J}")
    if a * J <= b:
        shown = f"{a / b:g}"
        if a and not a / b:                  # below the float range: its decimal exponent
            shown = f"{'-' * (a < 0)}1e{round(math.log10(abs(a)) - math.log10(b))}"
        raise PreconditionError(f"need t > 1/J so the observer lies strictly left of the "
                                f"square; got t={shown}, J={J}")
    aJ2 = a * J * J
    try:
        T = float(tJ2 := Fraction(aJ2, b))
    except OverflowError:
        raise PreconditionError(f"t*J^2 overflows a float at J={J} (--t)") from None
    if b * (x_min := int(xs.min())) + aJ2 <= 0:
        raise PreconditionError(f"every point must lie strictly right of the observer at "
                                f"x = -t*J^2 = {-T:g}; got x={x_min}")

    buf = _keys(xs, ys, T, tJ2)
    order = np.argsort(buf, kind="stable")
    # joined[k] = i: sorted positions i and i + 1 belong to one stretch.
    joined = _joined(buf, order, _bound(b))
    if len(joined):
        starts = joined[np.r_[True, np.diff(joined) > 1]]
        ends = joined[np.r_[np.diff(joined) > 1, True]] + 2
        for s, e in zip(starts.tolist(), ends.tolist()):
            idx = order[s:e]
            stretch = zip(xs[idx].tolist(), ys[idx].tolist(), idx.tolist())
            order[s:e] = [i for _, i in sorted((Fraction(y, b * x + aJ2), i)
                                               for x, y, i in stretch)]
    with np.errstate(over="ignore"):
        for s in range(0, n, _BLOCK):
            idx = order[s:s + _BLOCK]
            np.arctan2(ys[idx], xs[idx] + T, out=buf[s:s + len(idx)])
    return AngleSequence(angles=buf, order=order)


def normalized_gaps(seq: AngleSequence) -> GapSample:
    """Consecutive angle differences divided by the average gap, formed in
    one output array."""
    if seq.n < 2:
        raise PreconditionError(f"need at least 2 angles to form gaps; got {seq.n}")
    delta = seq.delta_av
    if delta <= 0.0:
        raise PreconditionError("degenerate sequence: all angles coincide")
    gaps = np.subtract(seq.angles[1:], seq.angles[:-1])
    gaps /= delta
    # Exact comparison fixed the order; double rounding of tied angles can
    # still leave -1e-16-scale differences, which are genuinely zero gaps.
    return GapSample(gaps=np.maximum(gaps, 0.0, out=gaps))


def empirical_G(gaps: GapSample, lam):
    """Fraction of gaps >= lam (scalar or array lam; right-closed convention)."""
    lam_arr = np.asarray(lam, dtype=np.float64)
    if not np.all(lam_arr >= 0):                  # NaN fails the comparison too
        raise PreconditionError("lambda must be nonnegative and not NaN")
    if gaps.n == 0:
        raise PreconditionError("gap sample is empty")
    below = np.searchsorted(gaps.sorted_gaps, lam_arr, side="left")
    frac = 1.0 - below / gaps.n
    return float(frac) if np.isscalar(lam) or lam_arr.ndim == 0 else frac


def gap_per_point(points, t, J: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attach to each point its normalized gap to the next point in angular order.

    Returns the columns (x, y, gap), int64, int64 and float64, in the *input*
    point order; the angularly last point carries NaN.
    """
    if not isinstance(points, CurvePointSet):
        points = list(points)
    xs, ys, _ = _coordinates(points, J)
    seq = angle_sequence(points, t, J)
    gaps, order = normalized_gaps(seq).gaps, seq.order
    del seq                            # the angles: the scatter holds order, gaps and carried
    carried = np.empty(len(order))
    carried[order[:-1]] = gaps
    carried[order[-1]] = np.nan
    return xs, ys, carried
