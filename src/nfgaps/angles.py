"""Observer angles, sorted angle sequences, and normalized gap statistics.

An observer sits at (-t*J^2, 0), strictly left of the square [-J, J]^2,
and measures the signed angle to every curve point.  The empirical gap
distribution G(lambda) is the fraction of consecutive angular gaps of
size at least lambda times the average gap.

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
    "ObserverFrame",
    "AngleSequence",
    "GapSample",
    "as_fraction",
    "angle_sequence",
    "normalized_gaps",
    "empirical_G",
    "gap_per_point",
]


def as_fraction(t) -> Fraction:
    """Coerce t to an exact rational.

    Strings parse as exact decimals ("2.76" -> 69/25); floats use their
    exact binary value.
    """
    if isinstance(t, (Fraction, str, int, float)):
        return Fraction(t)
    raise PreconditionError(f"cannot interpret {t!r} as a rational number")


@dataclass(frozen=True)
class ObserverFrame:
    """Observer position (-t*J^2, 0) for a square of half-width J."""

    t: Fraction
    J: int

    def __post_init__(self) -> None:
        if self.J < 1:
            raise PreconditionError(f"J must be a positive integer; got {self.J}")
        if self.t * self.J <= 1:
            shown = f"{float(self.t):g}"
            if self.t and not float(self.t):     # below the float range: its decimal exponent
                exp = math.log10(abs(self.t.numerator)) - math.log10(self.t.denominator)
                shown = f"{'-' * (self.t < 0)}1e{round(exp)}"
            raise PreconditionError(
                f"need t > 1/J so the observer lies strictly left of the square; "
                f"got t={shown}, J={self.J}"
            )


@dataclass(eq=False)
class AngleSequence:
    """Ascending observer angles plus the average consecutive gap.

    `order[k]` is the index into the input point list of the point with the
    k-th smallest angle, so callers can join angles back onto points.
    """

    angles: np.ndarray
    order: np.ndarray
    frame: ObserverFrame

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


# Unit roundoff of float64, and an absolute term that covers gradual underflow.
_U = 2.0 ** -53
_TINY = 2.0 ** -1072
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


def _bounds(xs: np.ndarray, ys: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """The float keys of points (xs, ys) and their rounding bounds, as
    `angle_sequence` defines them, formed in place: key 0 and bound inf
    where the key is not trusted.  A finite bound implies a finite key."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = xs + T
        y = ys.astype(np.float64)           # exact: |y| <= 2^53
        key = y / d
        err = np.abs(y, out=y)
        err /= d
        scale = np.divide(T, d)
        scale += 1
        err *= scale
        err += np.abs(key, out=scale)
        err *= 8 * _U
        err += _TINY
        untrusted = np.multiply(d, 1 - 4 * _U, out=d) < 4 * _U * T
    untrusted |= ~np.isfinite(err)
    np.copyto(key, 0.0, where=untrusted)
    np.copyto(err, np.inf, where=untrusted)
    return key, err


def _separable(bounds, n: int, lower: np.ndarray) -> np.ndarray:
    """Element i of the n - 1 results is True when every true key at sorted
    positions <= i lies strictly below every true key at positions > i.

    `bounds(s, e)` gives fresh arrays (key, err) of sorted positions s..e-1,
    and each true key lies in [key - err, key + err].  Block by block of
    _BLOCK positions, the running minimum of the lower ends from the right
    goes into `lower` (n floats), and the running maximum of the upper ends
    from the left is compared with it; each running bound is carried across
    blocks, so the test holds for bounds of any size.
    """
    low = np.inf
    for s in reversed(range(0, n, _BLOCK)):
        key, err = bounds(s, min(s + _BLOCK, n))
        np.subtract(key, err, out=key)
        np.minimum.accumulate(key[::-1], out=key[::-1])
        np.minimum(key, low, out=lower[s:s + len(key)])
        low = lower[s]
    separable = np.empty(n - 1, dtype=bool)
    high = -np.inf
    for s in range(0, n - 1, _BLOCK):
        key, err = bounds(s, min(s + _BLOCK, n - 1))
        np.add(key, err, out=key)
        np.maximum.accumulate(key, out=key)
        np.maximum(key, high, out=key)
        high = key[-1]
        np.less(key, lower[s + 1:s + 1 + len(key)], out=separable[s:s + len(key)])
    return separable


def angle_sequence(points, t, J: int | None = None) -> AngleSequence:
    """Sort points by observer angle and return the angle sequence.

    `points` is a centered CurvePointSet or an iterable of integer pairs
    (then J is required).  Ties (observer-collinear points) keep their
    input order and later produce zero gaps.

    The order comes from the float key k = fl(y / d), d = fl(x + T),
    T = fl(t*J^2), sorted by a stable argsort.  Let u = 2^-53 and
    D = x + t*J^2 the exact denominator.  Correct rounding gives
    |T - t*J^2| <= u*T and |d - (x + T)| <= u*d, so |d - D| <= u*(T + d).
    A key is trusted when fl(4u*T) <= fl((1 - 4u)*d): the left side is
    exact and the right one at most a factor 1 + u too large, so
    4u*(T + d) <= (1 + u)*d, D >= (3 - u)*d/4 and
    |y/d - y/D| <= 1.34*u*|y|*(T/d + 1)/d.  The division adds at most
    u*|k| (plus 2^-1075 if it underflows).  Each key therefore carries the
    bound

        err = 8u * (|k| + |y| / d * (T/d + 1)) + 2^-1072,

    which leaves more than 6u*(|k| + |y|(T/d + 1)/d) of room for the
    rounding of err and of k +- err themselves.  Neither test nor bound
    forms T + d, which overflows once T passes about 9e307.  Integer
    coordinates of magnitude at most 2^53 convert to float exactly.  A key
    that fails the trust test, or whose k or err is not finite, gets an
    infinite bound, which puts every point in one stretch, wherever the
    argsort placed that key (even a NaN one).  Between two
    adjacent sorted positions the order is certain when all keys on the
    left, widened by their bounds, stay below all widened keys on the
    right; each maximal stretch without such a cut is re-sorted exactly by
    (y/(b*x + a*J^2), input index).

    Besides the points and `order`, one float array is held: the keys, then
    the running lower ends of `_separable`, then the angles.  After the
    argsort, keys and bounds are recomputed, _BLOCK sorted positions at a
    time, from `order` by the same float operations, so every pass sees the
    same bits.
    """
    xs, ys, J = _coordinates(points, J)
    n = len(xs)
    if n == 0:
        raise PreconditionError("point set is empty")
    t_frac = as_fraction(t)
    frame = ObserverFrame(t=t_frac, J=J)
    a, b = t_frac.numerator, t_frac.denominator
    aJ2 = a * J * J
    try:
        T = float(Fraction(aJ2, b))
    except OverflowError:
        raise PreconditionError(f"t*J^2 overflows a float at J={J} (--t)") from None

    buf = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(ys, np.add(xs, T, out=buf), out=buf)
    order = np.argsort(buf, kind="stable")

    def sorted_bounds(s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
        idx = order[s:e]
        return _bounds(xs[idx], ys[idx], T)

    # joined[k] = i: sorted positions i and i + 1 belong to one stretch.
    joined = np.flatnonzero(~_separable(sorted_bounds, n, buf))
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
    return AngleSequence(angles=buf, order=order, frame=frame)


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
    if np.any(lam_arr < 0):
        raise PreconditionError("lambda must be nonnegative")
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
