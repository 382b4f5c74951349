"""Orchestrated numerical experiments: convergence in the modulus, shift
independence, prime-versus-composite contrast, angle equidistribution, and
the drift of the empirical gap distribution toward exp(-lambda) for a
close-in observer.

Each operation reduces point sets to gap-distribution curves sampled on a
shared lambda grid and reports sup-norm distances between curves.  The
scans return `(cells, curves)`: the report.json cells, each a config dict
with its `sup_distance` and `argmax_lambda`, and a map from each computed
`(q, h, t)` (t an exact Fraction) to its empirical curve, in computation
order.  All results are deterministic functions of their configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .angles import angle_sequence, empirical_G, normalized_gaps
from .errors import PreconditionError
from .limitdist import limit_G
from .modcurve import build_curve, is_prime

__all__ = [
    "LambdaGrid",
    "DEFAULT_GRID",
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
    _MAX_POINTS = 10 ** 7     # not fields: bounds on every grid
    _MAX_HI = 1e12

    def __post_init__(self) -> None:
        # values() rounds to 12 decimals: a step of at least 1e-11 max(1, hi)
        # keeps them strictly increasing, and hi <= _MAX_HI keeps them finite
        if not (0 <= self.lo < self.hi <= self._MAX_HI
                and 1e-11 * max(1.0, self.hi) <= self.step < math.inf
                and (self.hi - self.lo) / self.step < self._MAX_POINTS):
            raise PreconditionError(f"invalid grid lo={self.lo}, hi={self.hi}, step={self.step}"
                                    f" (need 0 <= lo < hi <= {self._MAX_HI:g}, step >= 1e-11 "
                                    f"max(1, hi), <= {self._MAX_POINTS} points)")

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
        values = np.round(self.lo + self.step * np.arange(n + 1), 12)
        return values[values <= self.hi + 1e-12 * max(1.0, self.hi)]   # the slack may pass hi


DEFAULT_GRID = LambdaGrid()


CellCurves = dict[tuple[int, int, Fraction], np.ndarray]
ScanResult = tuple[list[dict], CellCurves]


def sup_distance(curve_a: np.ndarray, curve_b: np.ndarray,
                 grid: np.ndarray) -> tuple[float, float]:
    """(max |A - B|, lambda attaining it) over the grid."""
    diffs = np.abs(np.asarray(curve_a) - np.asarray(curve_b))
    i = int(np.argmax(diffs))
    return float(diffs[i]), float(grid[i])


def _report(config: dict, curve_a: np.ndarray, curve_b: np.ndarray,
            grid: LambdaGrid) -> dict:
    dist, arg = sup_distance(curve_a, curve_b, grid.values())
    return {**config, "sup_distance": dist, "argmax_lambda": arg}


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
    if not (u[0] >= 0.0 and u[-1] <= 1.0):           # NaN sorts last and fails too
        raise PreconditionError("sample values must lie in [0, 1]")
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def _scan(cells: Iterable[tuple[int, int, Fraction]], ref: np.ndarray, grid: LambdaGrid,
          flag_prime: bool = False) -> ScanResult:
    """Each (q, h, t) cell's empirical curve and its distance to one reference curve."""
    reports, curves = [], {}
    for q, h, t in cells:
        emp = curves[q, h, t] = empirical_gap_curve(q, h, t, grid)
        prime = {"prime": is_prime(q)} if flag_prime else {}
        reports.append(_report({"q": q, "h": h, "t": float(t), **prime}, emp, ref, grid))
    return reports, curves


def _check_prime_cells(what: str, primes: Sequence[int], shifts: Sequence[int]) -> None:
    """Every modulus prime, `what` otherwise, and every shift nonzero mod it."""
    for p in primes:
        if not is_prime(p):
            raise PreconditionError(f"{what} (--q); got {p}")
        for h in shifts:
            if h % p == 0:
                raise PreconditionError(f"shift must be nonzero mod p (--h); got h={h}, p={p}")


def convergence_scan(t, h: int, primes: Sequence[int],
                     grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Distance of each prime's empirical curve to the closed-form limit."""
    t_frac = Fraction(t)
    ref = _limit_curve(float(t_frac), grid)
    _check_prime_cells("convergence scans accept prime moduli only", primes, [h])
    return _scan(((p, h, t_frac) for p in primes), ref, grid)


def h_independence(t, p: int, h_list: Sequence[int],
                   grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Pairwise distances between empirical curves for different shifts."""
    _check_prime_cells("shift-independence runs need a prime modulus", [p], h_list)
    t_frac = Fraction(t)
    curves = {(p, h, t_frac): empirical_gap_curve(p, h, t_frac, grid) for h in h_list}
    cells = [_report({"q": p, "h": h1, "h2": h2, "t": float(t_frac)},
                     curves[p, h1, t_frac], curves[p, h2, t_frac], grid)
             for i, h1 in enumerate(h_list) for h2 in h_list[i + 1:]]
    return cells, curves


def composite_contrast(q_values: Sequence[int], t, h: int,
                       grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Distance of each modulus' empirical curve to the prime-limit curve.

    Primes are expected to land close; composites usually land far, though
    not unconstrained: a height y carries a point only when y and y^-1 - h
    are units mod q, so a composite's empty rows follow a fixed periodic
    mask, and its curve nears the limit of the region without those rows.
    The report still measures every modulus against the prime limit and
    flags primality.  Consecutive ranges are welcome; even moduli carry no
    centered-representative convention and are skipped.
    """
    t_frac = Fraction(t)
    ref = _limit_curve(float(t_frac), grid)
    return _scan(((q, h, t_frac) for q in q_values if q % 2), ref, grid, flag_prime=True)


def equidistribution_check(p: int, h: int, t) -> float:
    """KS statistic of the normalized angle positions against uniform."""
    _check_prime_cells("equidistribution checks need a prime modulus", [p], [h])
    seq = angle_sequence(build_curve(p, h), t)
    span = seq.alpha_max - seq.alpha_min
    if not span > 0.0:
        raise PreconditionError(f"--q {p} gives a curve with fewer than 2 distinct angles; "
                                "the check needs a larger prime")
    return uniform_ks_statistic((seq.angles - seq.alpha_min) / span)


def exponential_limit_scan(p: int, h: int, t_list: Sequence,
                           grid: LambdaGrid = DEFAULT_GRID) -> ScanResult:
    """Distance of empirical curves to exp(-lambda) for a list of t values.

    The exp(-lambda) reference is the gap law of an idealized pseudorandom
    column arrangement; empirical curves approach it as t decreases toward
    1/J.  The closeness thresholds applied by callers are harness choices.
    """
    _check_prime_cells("exponential-limit scans need a prime modulus", [p], [h])
    return _scan(((p, h, Fraction(t)) for t in t_list), np.exp(-grid.values()), grid)
