"""Brute-force harness for character sums of fractional-linear tuples and
multidimensional box counting over a prime field.

The objects are tuples (r_1, ..., r_d) of reduced fractional-linear maps
r_j(x) = (a_j + b_j x) / (c_j + e_j x) over F_p with pairwise distinct
poles.  The harness evaluates complete and incomplete additive-character
sums exactly (poles omitted) and counts points in boxes, reporting the
deviation from the product main term normalized by sqrt(p) log^(d+1) p.
The tuple's graph is the points (x, r_1(x), ..., r_d(x)) off the poles.
Every map is r(x) = B + K (x + s)^-1, so `FracLinearTuple._columns` computes
any range of its columns, row by row, off the one cached uint32 inverse
table, widened to int64 before the product K (x + s)^-1, which passes 2^32.
It is the only code that computes them, and nothing stores the graph: each
leaf of numpy's pairwise-summation tree, on up to `threads` workers, computes
its own columns and folds each row into its phase or box mask at once.  A
leaf holds O(_LEAF) memory, and a sum has the bits of one numpy sum for any
worker count.

Bound-check constants used by callers (4d for complete sums, 8d log p for
incomplete ones, 5 for normalized box errors) are harness thresholds:
generous enough to be stable, tight enough that broken cancellation fails
loudly.  They are not sharp analytic constants.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, _thread_count
from .modcurve import _check_array_modulus, _inverse_table, is_prime, mod_inverse

__all__ = [
    "FracLinear",
    "FracLinearTuple",
    "Interval",
    "BoxSpec",
    "BoxCount",
    "neighbor_flip_tuple",
    "complete_sum",
    "incomplete_sum",
    "complete_sum_magnitudes",
    "geometric_interval_sum",
    "geometric_sum_bound",
    "box_count",
    "inverse_table",
]


# Cap on the (2D+1)(p-2D) cells of the graph, which each sum or box count computes.
_MAX_GRAPH_CELLS = 10 ** 8
_LEAF = 1 << 16      # columns per leaf of a sum or box: about 2 MB of buffers per worker


@lru_cache(maxsize=32)
def inverse_table(p: int) -> np.ndarray:
    """Read-only uint32 inverses mod a prime p for 1..p-1 (index 0 holds 0),
    read off the powers of a primitive root (`modcurve._inverse_table`)."""
    if not is_prime(p):
        raise PreconditionError(f"inverse table requires a prime modulus; got {p}")
    _check_array_modulus(p, "--p")
    table = _inverse_table(p)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class FracLinear:
    """One reduced map (a + b x) / (c + e x) over F_p.

    Reduced means the denominator has degree exactly one (e != 0) and does
    not divide the numerator (a e != b c), so the map is non-constant with
    a single pole at -c/e.
    """

    p: int
    a: int
    b: int
    c: int
    e: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise PreconditionError(f"modulus must be prime; got {self.p}")
        _check_array_modulus(self.p, "--p")
        for name in ("a", "b", "c", "e"):
            object.__setattr__(self, name, getattr(self, name) % self.p)
        if self.e == 0:
            raise PreconditionError("denominator must have degree one (e != 0 mod p)")
        if (self.a * self.e - self.b * self.c) % self.p == 0:
            raise PreconditionError(
                f"map ({self.a}+{self.b}x)/({self.c}+{self.e}x) mod {self.p} "
                "is constant (numerator divides denominator)"
            )

    @property
    def pole(self) -> int:
        return (-self.c * mod_inverse(self.e, self.p)) % self.p

    def __call__(self, x: int) -> int:
        x = x % self.p
        den = (self.c + self.e * x) % self.p
        if den == 0:
            raise PreconditionError(f"x={x} is the pole of this map")
        return (self.a + self.b * x) * mod_inverse(den, self.p) % self.p

    def _translate_form(self) -> tuple[int, int, int]:
        """(B, K, s) with r(x) = B + K (x + s)^-1."""
        p, e_inv = self.p, mod_inverse(self.e, self.p)
        return (self.b * e_inv % p, (self.a * self.e - self.b * self.c) * e_inv ** 2 % p,
                self.c * e_inv % p)


@dataclass(frozen=True)
class FracLinearTuple:
    """A tuple of reduced fractional-linear maps with pairwise distinct poles."""

    p: int
    funcs: tuple[FracLinear, ...]

    def __post_init__(self) -> None:
        if not self.funcs:
            raise PreconditionError("tuple must contain at least one map")
        if any(f.p != self.p for f in self.funcs):
            raise PreconditionError("all maps must share the tuple's modulus")
        if len(set(self.poles)) != self.d:
            raise PreconditionError(f"poles must be pairwise distinct; got {list(self.poles)}")

    @property
    def d(self) -> int:
        return len(self.funcs)

    @property
    def poles(self) -> tuple[int, ...]:
        return tuple(f.pole for f in self.funcs)

    def _columns(self, inv: np.ndarray, cols: slice, scale: Sequence[int] | None = None):
        """The graph's columns cols.start..cols.stop-1, one int64 row at a time in one
        buffer, which the reader may overwrite until it asks for the next: row 0 is x, then
        each map's B + K (x + s)^-1 (`_translate_form`) off the inverse table inv.  With a
        `scale`, map j's row is instead scale_j B + (scale_j K mod p) (x + s)^-1, left
        unreduced: at most p(p - 1) and congruent to scale_j r_j(x), all a phase needs.  The
        sorted poles cut the columns into runs of x = column + k; a run misses each pole
        -s, so x + s does not wrap in it and reads one contiguous slice of inv."""
        p, lo, hi, poles = self.p, cols.start, cols.stop, sorted(self.poles)
        ends = [0, *(q - k for k, q in enumerate(poles)), p - self.d]
        runs = [(k, max(lo, a), min(hi, b)) for k, (a, b) in enumerate(zip(ends, ends[1:]))
                if max(lo, a) < min(hi, b)]
        row = np.arange(lo, hi, dtype=np.int64)
        for k, a, b in runs:
            row[a - lo:b - lo] += k
        yield row
        for f, c in zip(self.funcs, scale or [1] * self.d):
            B, K, s = f._translate_form()
            for k, a, b in runs:
                start = (a + k + s) % p
                np.multiply(inv[start:start + b - a], K * c % p, out=row[a - lo:b - lo],
                            dtype=np.int64)
            row += B * c % p
            if scale is None:
                u = row.view(np.uint64)    # row >= 0, and numpy divides uint64 by a scalar
                u -= u // p * p            # faster than int64, either faster than %=
            yield row


def neighbor_flip_tuple(p: int, h: int, D: int) -> FracLinearTuple:
    """The 2D maps m -> (m+j) * (1 - h(m+j))^(-1) for row offsets j = -D+1..D.

    The offset-j map has its pole at h^(-1) - j, so the poles are distinct
    as soon as 2D < p.  A graph over _MAX_GRAPH_CELLS cells is refused
    before any map is built.
    """
    if not is_prime(p):
        raise PreconditionError(f"modulus must be prime; got {p}")
    if h % p == 0:
        raise PreconditionError(f"shift h must be nonzero mod p; got h={h}, p={p}")
    if D < 1:
        raise PreconditionError(f"D must be a positive integer; got {D}")
    if 2 * D >= p:
        raise PreconditionError(f"need 2D < p for distinct poles; got D={D}, p={p}")
    _check_array_modulus(p, "--p")
    cells = (2 * D + 1) * (p - 2 * D)
    if cells > _MAX_GRAPH_CELLS:
        raise PreconditionError(f"--D {D} at --p {p} needs a graph of {cells} cells, "
                                f"over {_MAX_GRAPH_CELLS}; lower --D or --p")
    funcs = tuple(
        FracLinear(p=p, a=j, b=1, c=1 - h * j, e=-h)
        for j in range(-D + 1, D + 1)
    )
    return FracLinearTuple(p=p, funcs=funcs)


def _sum_tree(lo: int, hi: int, leaf: Callable):
    """numpy's pairwise-sum tree over the columns lo..hi-1, cut at leaves of at
    most _LEAF columns: leaf(slice of columns) at each leaf, the two halves
    added at each inner node, the left one first.  CDOUBLE_pairwise_sum splits
    n > 64 complex terms after (n - n % 8) / 2."""
    n = hi - lo
    if n <= max(_LEAF, 64):
        return leaf(slice(lo, hi))
    mid = lo + (n - n % 8) // 2
    return _sum_tree(lo, mid, leaf) + _sum_tree(mid, hi, leaf)


def _fold_phase(rows, d: int, p: int, a: int) -> np.ndarray:
    """a x + the d rows after x, mod p, where rows gives x and then d rows of
    values at most p(p - 1), each congruent to b_j r_j(x) mod p.  The phase is
    int64 and no term passes p(p - 1); near the modulus cap, where d + 1 such
    terms pass 2^63, the phase is reduced before each row is added."""
    reduce_each = (d + 1) * p * (p - 1) >= 2 ** 63
    rows = iter(rows)
    phase = np.multiply(next(rows), a % p, dtype=np.int64)
    for row in rows:
        if reduce_each:
            phase %= p
        phase += row
    phase -= phase // p * p            # phase %= p, faster (every term is >= 0)
    return phase


def _leaf_sum(leaf: Callable, cols: slice, threads: int | None):
    """leaf(slice) at each leaf of `_sum_tree` over cols, on up to `threads`
    workers, added in tree order."""
    leaves = _sum_tree(cols.start, cols.stop, lambda part: [part])
    with ThreadPoolExecutor(max_workers=min(_thread_count(threads), len(leaves))) as pool:
        sums = pool.map(leaf, leaves)
        return _sum_tree(cols.start, cols.stop, lambda _: next(sums))


def _unit_sum(phase: np.ndarray, p: int) -> complex:
    """Sum of e(phase / p), the bits of np.exp(2j * np.pi * (phase / p)).sum()."""
    z = np.zeros(len(phase), dtype=np.complex128)
    np.multiply(np.divide(phase, p, out=z.imag), 2.0 * np.pi, out=z.imag)
    return complex(np.exp(z, out=z).sum())


def complete_sum(tup: FracLinearTuple, a: int, b: Sequence[int],
                 threads: int | None = None) -> complex:
    """Exact sum of e((a x + sum b_j r_j(x)) / p) over all non-pole x, on up
    to `threads` workers (the result does not depend on them)."""
    return incomplete_sum(tup, a, b, Interval(0, tup.p - 1), threads)


@dataclass(frozen=True)
class Interval:
    """Integer interval lo..hi inclusive inside [0, p-1]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise PreconditionError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.lo) & (values <= self.hi)


def _check_windows(p: int, *windows: Interval) -> None:
    for w in windows:
        if w.hi >= p:
            raise PreconditionError(f"window [{w.lo}, {w.hi}] exceeds the residue range of p={p}")


def _window_columns(tup: FracLinearTuple, window: Interval) -> slice:
    """The graph's columns with x in the window: a non-pole x is column x minus
    the number of poles below it."""
    poles = sorted(tup.poles)
    return slice(*(x - bisect_left(poles, x) for x in (window.lo, window.hi + 1)))


def incomplete_sum(tup: FracLinearTuple, a: int, b: Sequence[int],
                   window: Interval, threads: int | None = None) -> complex:
    """The complete sum restricted to x in the window (poles still omitted).

    The bits are those of one np.exp(2j * np.pi * (phase / p)).sum() over the
    window's columns, whose summation order this copies: numpy adds a
    contiguous complex array along a pairwise tree that depends only on its
    length, so each leaf of that tree (`_sum_tree`) computes its columns,
    folds them into its own phase (`_fold_phase`) and sums it in numpy, and
    the leaf sums are added in tree order (TestPhaseSum pins it).  Leaves run
    on up to `threads` workers, each holding O(_LEAF) memory; the tree, so the
    result, does not depend on the thread count.
    """
    p, d = tup.p, tup.d
    _check_windows(p, window)
    if len(b) != d:
        raise PreconditionError(f"need {d} coefficients b (--sum-b); got {len(b)}")
    rows = partial(tup._columns, inverse_table(p), scale=b)
    # The rows are freed before _unit_sum's 1 MB buffer, so a leaf peaks below 2 MB and
    # a worker reuses its heap (else 8,000 page faults per sum at p = 2e6 on glibc)
    return _leaf_sum(lambda part: _unit_sum(_fold_phase(rows(part), d, p, a), p),
                     _window_columns(tup, window), threads)


def complete_sum_magnitudes(tup: FracLinearTuple) -> np.ndarray:
    """|S(a, b_1..b_d)| for every coefficient vector at once, shape (p,)*(d+1).

    Computed as one multidimensional DFT of the point-mass grid on
    (x, r_1(x), ..., r_d(x)); practical for p^(d+1) up to ~2e7.
    """
    p, d = tup.p, tup.d
    if p ** (d + 1) > 2 * 10 ** 7:
        raise PreconditionError(
            f"full magnitude grid p^(d+1) = {p ** (d + 1)} is too large; sample instead"
        )
    grid = np.zeros((p,) * (d + 1))
    grid[tuple(row.copy() for row in tup._columns(inverse_table(p), slice(0, p - d)))] = 1.0
    # ifftn uses e(+...) so this is S up to the overall 1/p^(d+1) factor
    return np.abs(np.fft.ifftn(grid)) * p ** (d + 1)


def geometric_interval_sum(p: int, a: int, window: Interval) -> complex:
    """Sum of e(a y / p) over y in the window inside [0, p-1], no pole exclusion."""
    _check_windows(p, window)
    a %= p
    return _leaf_sum(lambda part: _unit_sum(np.arange(part.start, part.stop, dtype=np.int64)
                                            * a % p, p), slice(window.lo, window.hi + 1), None)


def geometric_sum_bound(p: int, a: int, length: int) -> float:
    """min(length, 1/(2 ||a/p||)) with ||.|| the distance to the nearest integer."""
    frac = (a % p) / p
    dist = min(frac, 1.0 - frac)
    if dist == 0.0:
        return float(length)
    return min(float(length), 1.0 / (2.0 * dist))


@dataclass(frozen=True)
class BoxSpec:
    """An x-window plus one value-window per map in the tuple."""

    x_window: Interval
    value_windows: tuple[Interval, ...]


@dataclass(frozen=True)
class BoxCount:
    """Exact box count with its deviation from the product main term."""

    p: int
    d: int
    count: int
    main_term: float

    @property
    def normalized_error(self) -> float:
        return (self.count - self.main_term) / (
            math.sqrt(self.p) * math.log(self.p) ** (self.d + 1)
        )


def box_count(tup: FracLinearTuple, box: BoxSpec, threads: int | None = None) -> BoxCount:
    """Count x in the x-window with every r_k(x) in its value-window, leaf by leaf
    on up to `threads` workers."""
    p = tup.p
    if len(box.value_windows) != tup.d:
        raise PreconditionError(
            f"need {tup.d} value windows; got {len(box.value_windows)}"
        )
    _check_windows(p, box.x_window, *box.value_windows)
    rows = partial(tup._columns, inverse_table(p))

    def leaf(cols: slice) -> int:
        values = rows(cols)
        next(values)                       # x: the window already picked the columns
        mask = np.ones(cols.stop - cols.start, dtype=bool)
        for row, w in zip(values, box.value_windows):
            mask &= w.contains(row)
        return int(np.count_nonzero(mask))

    count = _leaf_sum(leaf, _window_columns(tup, box.x_window), threads)
    main = box.x_window.length * math.prod(w.length for w in box.value_windows) / p ** tup.d
    return BoxCount(p=p, d=tup.d, count=count, main_term=main)
