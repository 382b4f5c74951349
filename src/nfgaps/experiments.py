"""Orchestrated numerical experiments: convergence in the modulus, shift
independence, prime-versus-composite contrast, angle equidistribution, and
the drift of the empirical gap distribution toward exp(-lambda) for a
close-in observer.

Each operation reduces point sets to gap-distribution curves sampled on a
shared lambda grid and reports sup-norm distances between curves.  The
scans return `(reports, curves)`, where `curves` maps each computed cell
`(q, h, t)` (t as an exact Fraction) to its empirical curve, in computation
order.  All results are deterministic functions of their configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .angles import angle_sequence, as_fraction, empirical_G, normalized_gaps
from .errors import PreconditionError
from .limitdist import limit_G
from .modcurve import build_curve, is_prime

__all__ = [
    "LambdaGrid",
    "DEFAULT_GRID",
    "DistanceReport",
    "empirical_gap_curve",
    "sup_distance",
    "uniform_ks_statistic",
    "convergence_scan",
    "h_independence",
    "composite_contrast",
    "equidistribution_check",
    "exponential_limit_scan",
]


@dataclass(frozen=True)
class LambdaGrid:
    """Evaluation grid lo..hi with fixed step (hi included when it fits)."""

    lo: float = 0.0
    hi: float = 4.0
    step: float = 0.01
    _MAX_POINTS = 10 ** 7     # not a field: a bound on every grid

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi and 0 < self.step < math.inf
                and (self.hi - self.lo) / self.step < self._MAX_POINTS):
            raise PreconditionError(f"invalid grid lo={self.lo}, hi={self.hi}, step={self.step}"
                                    f" (need 0 <= lo < hi, finite, <= {self._MAX_POINTS} points)")

    @classmethod
    def from_spec(cls, spec: str) -> "LambdaGrid":
        try:
            lo, hi, step = (float(part) for part in spec.split(":"))
        except ValueError:
            raise PreconditionError(
                f"grid spec must look like 'lo:hi:step'; got {spec!r}"
            ) from None
        return cls(lo=lo, hi=hi, step=step)

    def values(self) -> np.ndarray:
        n = math.floor((self.hi - self.lo) / self.step * (1.0 + 1e-9))   # slack for rounding
        return np.round(self.lo + self.step * np.arange(n + 1), 12)


DEFAULT_GRID = LambdaGrid()


@dataclass(frozen=True)
class DistanceReport:
    """Sup-norm distance between two gap curves on a shared grid."""

    config: dict
    sup_distance: float
    argmax_lambda: float


CellCurves = dict[tuple[int, int, Fraction], np.ndarray]
ScanResult = tuple[list[DistanceReport], CellCurves]


def sup_distance(curve_a: np.ndarray, curve_b: np.ndarray,
                 grid: np.ndarray) -> tuple[float, float]:
    """(max |A - B|, lambda attaining it) over the grid."""
    diffs = np.abs(np.asarray(curve_a) - np.asarray(curve_b))
    i = int(np.argmax(diffs))
    return float(diffs[i]), float(grid[i])


def _report(config: dict, curve_a: np.ndarray, curve_b: np.ndarray,
            grid: LambdaGrid) -> DistanceReport:
    dist, arg = sup_distance(curve_a, curve_b, grid.values())
    return DistanceReport(config=config, sup_distance=dist, argmax_lambda=arg)


def empirical_gap_curve(q: int, h: int, t, grid: LambdaGrid = DEFAULT_GRID) -> np.ndarray:
    """Empirical gap distribution of the centered curve, sampled on the grid."""
    seq = angle_sequence(build_curve(q, h), t)
    gaps = normalized_gaps(seq)
    return empirical_G(gaps, grid.values())


def _limit_curve(t: float, grid: LambdaGrid) -> np.ndarray:
    return np.array([limit_G(t, lam) for lam in grid.values()])


def uniform_ks_statistic(values: Sequence[float]) -> float:
    """Kolmogorov-Smirnov statistic of the sample against uniform on [0, 1]."""
    u = np.sort(np.asarray(values, dtype=np.float64))
    if len(u) == 0:
        raise PreconditionError("empty sample")
    if u[0] < 0.0 or u[-1] > 1.0:
        raise PreconditionError("sample values must lie in [0, 1]")
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def convergence_scan(t, h: int, primes: Sequence[int],
                     grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Distance of each prime's empirical curve to the closed-form limit."""
    t_frac = as_fraction(t)
    if t_frac < 1:
        raise PreconditionError(
            f"convergence scans need t >= 1 (closed form available); got t={t_frac}"
        )
    ref = _limit_curve(float(t_frac), grid)
    reports, curves = [], {}
    for p in primes:
        if not is_prime(p):
            raise PreconditionError(f"convergence scans accept prime moduli only; got {p}")
        if h % p == 0:
            raise PreconditionError(f"shift must be nonzero mod p; got h={h}, p={p}")
        emp = curves[p, h, t_frac] = empirical_gap_curve(p, h, t_frac, grid)
        reports.append(_report({"q": p, "h": h, "t": float(t_frac)}, emp, ref, grid))
    return reports, curves


def h_independence(t, p: int, h_list: Sequence[int],
                   grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Pairwise distances between empirical curves for different shifts."""
    if not is_prime(p):
        raise PreconditionError(f"shift-independence runs need a prime modulus; got {p}")
    for h in h_list:
        if h % p == 0:
            raise PreconditionError(f"shift must be nonzero mod p; got h={h}, p={p}")
    t_frac = as_fraction(t)
    curves = {(p, h, t_frac): empirical_gap_curve(p, h, t_frac, grid) for h in h_list}
    reports = []
    for i, h1 in enumerate(h_list):
        for h2 in h_list[i + 1:]:
            reports.append(_report({"q": p, "h": h1, "h2": h2, "t": float(t_frac)},
                                   curves[p, h1, t_frac], curves[p, h2, t_frac], grid))
    return reports, curves


def composite_contrast(q_values: Sequence[int], t, h: int,
                       grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Distance of each modulus' empirical curve to the prime-limit curve.

    Primes are expected to land close; composites are unconstrained and
    usually land far.  The report flags primality per modulus.  Consecutive
    ranges are welcome; even moduli carry no centered-representative
    convention and are skipped.
    """
    t_frac = as_fraction(t)
    if t_frac < 1:
        raise PreconditionError(f"the reference limit needs t >= 1; got t={t_frac}")
    ref = _limit_curve(float(t_frac), grid)
    reports, curves = [], {}
    for q in q_values:
        if q % 2 == 0:
            continue
        emp = curves[q, h, t_frac] = empirical_gap_curve(q, h, t_frac, grid)
        reports.append(_report({"q": q, "h": h, "t": float(t_frac), "prime": is_prime(q)},
                               emp, ref, grid))
    return reports, curves


def equidistribution_check(p: int, h: int, t) -> float:
    """KS statistic of the normalized angle positions against uniform."""
    if not is_prime(p):
        raise PreconditionError(f"equidistribution checks need a prime modulus; got {p}")
    seq = angle_sequence(build_curve(p, h), as_fraction(t))
    span = seq.alpha_max - seq.alpha_min
    return uniform_ks_statistic((seq.angles - seq.alpha_min) / span)


def exponential_limit_scan(p: int, h: int, t_list: Sequence,
                           grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Distance of empirical curves to exp(-lambda) for a list of t values.

    The exp(-lambda) reference is the gap law of an idealized pseudorandom
    column arrangement; empirical curves approach it as t decreases toward
    1/J.  The closeness thresholds applied by callers are harness choices.
    """
    ref = np.exp(-grid.values())
    reports, curves = [], {}
    for t in t_list:
        t_frac = as_fraction(t)
        emp = curves[p, h, t_frac] = empirical_gap_curve(p, h, t_frac, grid)
        reports.append(_report({"q": p, "h": h, "t": float(t_frac)}, emp, ref, grid))
    return reports, curves
