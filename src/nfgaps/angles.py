"""Observer angles, sorted angle sequences, and normalized gap statistics.

An observer sits at (-t*J^2, 0), strictly left of the square [-J, J]^2,
and measures the signed angle to every curve point.  The empirical gap
distribution G(lambda) is the fraction of consecutive angular gaps of
size at least lambda times the average gap.

Ordering is decided in exact rational arithmetic: with t = a/b the slope
comparison y1/(x1 + t*J^2) < y2/(x2 + t*J^2) reduces to an integer
comparison, so the sequence order never depends on floating-point
rounding.  At p ~ 1e5 neighboring gaps are ~4e-10 rad while the double
error of the arctangent values is ~1e-17, so the angle *values* are safe
in double precision once the order is fixed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    if isinstance(t, Fraction):
        return t
    if isinstance(t, str):
        return Fraction(t)
    if isinstance(t, (int, float)):
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
            raise PreconditionError(
                f"need t > 1/J so the observer lies strictly left of the square; "
                f"got t={self.t}, J={self.J}"
            )

    @property
    def position(self) -> tuple[float, float]:
        return (-float(self.t) * self.J * self.J, 0.0)


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
    `sorted_gaps` holds the same gaps in increasing order."""

    gaps: np.ndarray
    sorted_gaps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sorted_gaps = np.sort(self.gaps)

    @property
    def n(self) -> int:
        return len(self.gaps)

    @property
    def mean(self) -> float:
        return float(np.mean(self.gaps))

    @property
    def max(self) -> float:
        return float(self.sorted_gaps[-1])


def _point_array(points, J: int | None) -> tuple[list[tuple[int, int]], int]:
    if isinstance(points, CurvePointSet):
        if not points.centered:
            raise PreconditionError(
                "angle computations need the centered point convention; "
                "build the curve with build_curve()"
            )
        return list(points.points), points.J
    pts = [(int(x), int(y)) for (x, y) in points]
    if J is None:
        raise PreconditionError("J must be given explicitly for a plain point list")
    return pts, J


def angle_sequence(points, t, J: int | None = None) -> AngleSequence:
    """Sort points by observer angle and return the angle sequence.

    `points` is a centered CurvePointSet or an iterable of integer pairs
    (then J is required).  Ties (observer-collinear points) keep their
    input order and later produce zero gaps.
    """
    pts, J = _point_array(points, J)
    if not pts:
        raise PreconditionError("point set is empty")
    t_frac = as_fraction(t)
    frame = ObserverFrame(t=t_frac, J=J)
    a, b = t_frac.numerator, t_frac.denominator
    aJ2 = a * J * J

    # Exact slope key: y / (x + t*J^2) ~ Fraction(y, b*x + a*J^2); the
    # denominator is positive because the observer is left of the square.
    order = sorted(range(len(pts)), key=lambda i: Fraction(pts[i][1], b * pts[i][0] + aJ2))
    xs = np.array([pts[i][0] for i in order], dtype=np.float64)
    ys = np.array([pts[i][1] for i in order], dtype=np.float64)
    tJ2 = float(Fraction(aJ2, b))
    angles = np.arctan2(ys, xs + tJ2)
    return AngleSequence(angles=angles, order=np.array(order, dtype=np.int64), frame=frame)


def normalized_gaps(seq: AngleSequence) -> GapSample:
    """Consecutive angle differences divided by the average gap."""
    if seq.n < 2:
        raise PreconditionError(f"need at least 2 angles to form gaps; got {seq.n}")
    delta = seq.delta_av
    if delta <= 0.0:
        raise PreconditionError("degenerate sequence: all angles coincide")
    gaps = np.diff(seq.angles) / delta
    # Exact comparison fixed the order; double rounding of tied angles can
    # still leave -1e-16-scale differences, which are genuinely zero gaps.
    return GapSample(gaps=np.maximum(gaps, 0.0))


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


def gap_per_point(points, t, J: int | None = None) -> list[tuple[int, int, float | None]]:
    """Attach to each point its normalized gap to the next point in angular order.

    Output rows follow the *input* point order; the angularly last point
    carries None.
    """
    pts, J = _point_array(points, J)
    seq = angle_sequence(pts, t, J)
    gaps = normalized_gaps(seq)
    carried: list[float | None] = [None] * len(pts)
    for k in range(seq.n - 1):
        carried[int(seq.order[k])] = float(gaps.gaps[k])
    return [(x, y, g) for (x, y), g in zip(pts, carried)]
