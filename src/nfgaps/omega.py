"""The limit region in [-1/2, 1/2]^(2D+1) (one more dimension per row past D):
its windows, Monte Carlo volume, and a deterministic Gauss-Legendre volume.

For an interference order D (the unique integer with 2/D < t <= 2/(D-1)),
the region consists of points (x, y_{-D+1}, ..., y_D, ...) with x >= 0 such
that for every row j != 0 the coordinate y_j avoids the closed interval

    [ y_0 + (j - lambda) * t/(4x),  y_0 + j * t/(4x) ].

A row matters when this window can meet the cube for some x <= 1/2, that
is -2/t < j < lambda + 2/t.  For t > 2 (D = 1) the rows past j = 1 meet it
but never cut the region further.  For t <= 2 the rows j > D with
j < lambda + 2/t do cut it (row 3 for 1 <= t < 2 once lambda > 3 - 2/t),
so they are carried after row D.  For lambda >= 1 + 2/t rows -D+1 .. D
already empty the region, so the extra rows stop at
j < min(lambda, 1 + 2/t) + 2/t.

Twice the Lebesgue measure of the region equals the limiting gap
distribution value G(t, lambda).  OmegaSpec(t, lam) is a region's one
constructor.  Its windows are written once, in _windows, in the
division-free form (j - lambda) t <= 4 x (y_j - y_0) <= j t, which is
exact for x > 0 and extends continuously to the slice x = 0.

Monte Carlo sampling draws each sample's coordinates from a counter-based
stream keyed by (seed, sample index, slot), so the accept count is an
integer that does not depend on chunking, evaluation order, or thread
count: the estimate is reproducible bit for bit.  The slots are streamed:
each block of samples generates one coordinate row at a time, applies that
row's window and reuses the buffer, so memory per thread is O(block) for
any D, however small t is.

A row draws a sample's coordinate only if the sample can reach its window.
Row j's window holds no v = 4x (y_j - y_0) with |v| < r, its reach
r = max((j - lambda) t, -j t, 0).  The kernel computes
v = fl(fl(fl(u - 1/2) - y_0) 4x) and |u - 1/2 - y_0| <= 1/2 + |y_0|;
rounding is monotone, so |v| is at most the sample's key
fl(fl(1/2 + |y_0|) 4x), and skipping the rows whose reach exceeds the key
leaves the accept count unchanged bit for bit.  Once sum_j min(r/2, 1), the
passes a key of 4x alone would skip (4x is uniform on (0, 2]), exceeds the
cost of a sort, each block is sorted by the key and each row runs only from
its first reachable sample on.

The quadrature reads the same windows for any t >= 1/10; its cost grows
like rows^4, and MC is cheaper below that floor.  A region has at most
_MAX_ROWS rows, which puts the MC floor near t = 4e-6.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError

__all__ = [
    "OmegaSpec",
    "VolumeEstimate",
    "interference_order",
    "omega_volume",
    "omega_volume_quadrature",
]

_MIN_SAMPLES = 10_000
_CHUNK = 1 << 20     # samples per _count_chunk call
_BLOCK = 1 << 16     # samples per streamed block inside a chunk
_QUAD_MIN_T = 0.1    # quadrature floor: up to about 1 s at t = 0.1, 6 s at t = 0.05
_MAX_ROWS = 10 ** 6  # three numbers per row: about 24 MB of window arrays at the cap
_SORT_PASSES = 5.0   # sorting a block costs about as much as this many row passes
_X_NODES = np.polynomial.legendre.leggauss(24)   # per x piece, in log x

# splitmix64 constants: golden-ratio increment and the Stafford mix13 finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def interference_order(t) -> int:
    """The unique D with 2/D < t <= 2/(D-1); D = 1 means t > 2.

    Boundaries t = 2/(D-1) belong to the larger D (e.g. t = 2 gives D = 2).
    D is the order of float(t), fl(2/D) < t <= fl(2/(D-1)), the t that the
    windows are built from; a t whose 2/t overflows is rejected.
    """
    t = float(t)
    if not (t > 0.0 and math.isfinite(2.0 / t)):
        raise PreconditionError(f"t must be positive with 2/t finite (--t); got {t}")
    D = int(math.floor(2.0 / t)) + 1
    # fl(2/t) can round across an integer (2/1e-5 gives 199999.99999999997)
    if not 2.0 / D < t:
        return D + 1
    return D - 1 if D > 1 and t > 2.0 / (D - 1) else D


def _windows(D: int, last: int, t: float, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row j != 0 of -D+1 .. last, as arrays: its slot j + D (slot 0
    carries x) and its window ends (j - lam) t and j t."""
    slot = np.arange(1, D + last + 1)
    slot = slot[slot != D]
    j = np.subtract(slot, D, dtype=np.float64)     # exact: |j| <= _MAX_ROWS
    lo = j - lam
    with np.errstate(over="ignore"):        # past the float range the end is -inf
        lo *= t
    j *= t
    return slot, lo, j


@dataclass(frozen=True)
class OmegaSpec:
    """One region: float t and lambda and the interference order D of t.  Its
    last row and window arrays are checked and built on first use, then kept."""

    t: float
    lam: float
    D: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "D", interference_order(self.t))

    @cached_property
    def last(self) -> int:
        """D, or for t <= 2 the last j that can cut the region; capped at _MAX_ROWS."""
        if not 0.0 <= self.lam < math.inf:
            raise PreconditionError(f"lambda must be finite and nonnegative (--lambda); "
                                    f"got {self.lam}")
        last = self.D
        if self.t <= 2.0:
            last = max(last, math.ceil(min(self.lam, 1.0 + 2.0 / self.t) + 2.0 / self.t) - 1)
        if self.D + last > _MAX_ROWS:
            raise PreconditionError(f"t={self.t} needs {self.D + last} rows, over {_MAX_ROWS}; "
                                    "raise --t (the floor is near 4e-6)")
        return last

    @cached_property
    def windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's slot and window ends, one _windows result."""
        return _windows(self.D, self.last, self.t, self.lam)

    @property
    def rows(self) -> range:
        return range(-self.D + 1, self.last + 1)

    @property
    def dims(self) -> int:
        return len(self.windows[0]) + 2          # x, y_0 and one y per window


class _SlotStream:
    """Counter-based uniforms of samples start..start+count-1, one slot at a time.

    Holds each sample's splitmix64 counter base seed + (i*slots)*GAMMA and
    two uint64 scratch rows.  The uint64 sums wrap mod 2**64, so
    base + (s+1)*GAMMA is the counter seed + (i*slots + s + 1)*GAMMA of
    output number i*slots + s.
    """

    def __init__(self, seed: int, start: int, count: int, slots: int) -> None:
        if not (0 <= seed < 2 ** 64):
            raise PreconditionError(f"seed must be a 64-bit unsigned integer; got {seed}")
        idx = np.arange(start, start + count, dtype=np.uint64)
        self._base = idx * np.uint64(slots) * _GAMMA + np.uint64(seed)
        self._z, self._w = np.empty_like(idx), np.empty_like(idx)

    def fill(self, slot: int, out: np.ndarray, start: int = 0) -> None:
        """Write the uniforms of one slot into out (float64), one per sample
        from position start on."""
        z, w = self._z[start:], self._w[start:]
        np.add(self._base[start:], np.uint64((slot + 1) * int(_GAMMA) % 2 ** 64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, shift, out=w)
            z *= mult
        z ^= np.right_shift(z, 31, out=w)
        z >>= 11
        np.multiply(z.view(np.int64), 2.0 ** -53, out=out)   # z < 2**53: same double

    def reorder(self, order: np.ndarray) -> None:
        """Put the samples in the given order; later fills follow it."""
        np.take(self._base, order, out=self._z, mode="clip")
        self._base, self._z = self._z, self._base


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo estimate of twice the region volume with its binomial error.

    The sampling box {x in [0,1/2]} x [-1/2,1/2]^2D has volume 1/2, so the
    factor 2 in the target cancels against it and the acceptance ratio is
    the estimate itself; std_error is the plain binomial error of that ratio.
    """

    t: float
    lam: float
    D: int
    samples: int
    seed: int
    accepted: int

    @property
    def estimate(self) -> float:
        return self.accepted / self.samples

    @property
    def std_error(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.samples)


def _count_chunk(spec: OmegaSpec, seed: int, start: int, count: int) -> int:
    """Accepted samples among start..start+count-1, streamed block by block.

    Blocks cut the sample indices at multiples of _BLOCK.  Each holds x, y_0
    and one reused row buffer: every other slot is generated into it, cut
    by its row's window and overwritten by the next, so memory is
    O(_BLOCK) for any D.  Past _SORT_PASSES, blocks are sorted by the reach
    key and rows skip the samples that cannot reach them (module docstring).
    """
    slots, lo_ends, hi_ends = spec.windows
    reach = np.maximum(np.maximum(lo_ends, -hi_ends), 0.0)
    presort = np.minimum(reach / 2.0, 1.0).sum() > _SORT_PASSES
    firsts = np.zeros(len(slots), dtype=np.intp)
    end = start + count
    cuts = [start, *range(start - start % _BLOCK + _BLOCK, end, _BLOCK), end]
    accepted = 0
    for lo, hi in zip(cuts, cuts[1:]):
        n = hi - lo
        stream = _SlotStream(seed, lo, n, spec.dims)
        x4, y0, v = np.empty(n), np.empty(n), np.empty(n)
        hit, below = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        rejected = np.zeros(n, dtype=bool)
        stream.fill(0, x4)
        np.subtract(1.0, x4, out=x4)
        x4 *= 2.0                        # 4x with x = (1-u)/2 in (0, 1/2]
        stream.fill(spec.D, y0)          # slot D carries y_0 (offset j=0)
        y0 -= 0.5
        if presort:
            np.abs(y0, out=v)
            v += 0.5
            v *= x4                      # the key, >= |v| in every row's test below
            order = np.argsort(v)
            firsts = np.searchsorted(v[order], reach)
            x4 = x4[order]
            y0 = y0[order]
            stream.reorder(order)
        for slot, lo_end, hi_end, k in zip(slots, lo_ends, hi_ends, firsts):
            vk, hk = v[k:], hit[k:]
            stream.fill(int(slot), vk, k)
            vk -= 0.5
            vk -= y0[k:]
            vk *= x4[k:]
            np.greater_equal(vk, lo_end, out=hk)
            hk &= np.less_equal(vk, hi_end, out=below[k:])
            rejected[k:] |= hk
        accepted += n - int(np.count_nonzero(rejected))
    return accepted


def omega_volume(t, lam: float, samples: int, seed: int,
                 threads: int | None = None) -> VolumeEstimate:
    """Monte Carlo estimate of twice the region volume, D the interference order of t.

    Deterministic in (samples, seed) regardless of threads: chunks have a
    fixed size and per-chunk accept counts are integers summed exactly.
    Each of at most `threads` jobs counts a stride of chunks, whatever the samples.
    Any t > 0 is supported; below t = 1/10 it is the only evaluator.
    """
    if samples < _MIN_SAMPLES:
        raise PreconditionError(f"samples must be >= {_MIN_SAMPLES}; got {samples}")
    spec = OmegaSpec(t, lam)
    seed = int(seed)
    if threads is None:
        threads = min(8, os.cpu_count() or 1)
    if threads < 1:
        raise PreconditionError(f"threads must be >= 1 (--threads); got {threads}")
    # Builds the region before the workers share it.  Sample i draws the
    # counters i*dims .. i*dims + dims-1, which must stay below 2**64.
    if samples * spec.dims > 2 ** 64:
        raise PreconditionError(f"samples times {spec.dims} coordinates exceeds 2**64 "
                                f"(--samples); got {samples}")
    jobs = min(threads, -(-samples // _CHUNK))     # job k counts chunks k, k + jobs, ...
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        accepted = sum(pool.map(lambda k: sum(
            _count_chunk(spec, seed, start, min(_CHUNK, samples - start))
            for start in range(k * _CHUNK, samples, jobs * _CHUNK)), range(jobs)))
    return VolumeEstimate(t=spec.t, lam=spec.lam, D=spec.D,
                          samples=samples, seed=seed, accepted=accepted)


def omega_volume_quadrature(t: float, lam: float) -> float:
    """Twice the region volume by Gauss-Legendre quadrature, for finite t >= 1/10.

    Fix x and let w = 1/(4x): row j leaves y_j the length
    1 - |[y_0 + (j - lam) t w, y_0 + j t w] & [-1/2, 1/2]|.  Between the y_0
    breakpoints +-1/2 - k w (k a window end) the product over the rows whose
    window meets the cube is a polynomial, which rows//2 + 2 nodes integrate
    exactly.  The breakpoints change order only at the x cuts |k - k'|/4
    (k' = 0 included); between two cuts the y_0 integral is a polynomial in
    w, which 24 nodes in log x integrate to rounding even on a piece that
    starts just above x = 0.
    """
    t, lam = float(t), float(lam)
    if not _QUAD_MIN_T <= t < math.inf:
        raise PreconditionError(f"quadrature needs finite t >= {_QUAD_MIN_T} (--t); got t={t}")
    _, lo_ends, hi_ends = OmegaSpec(t, lam).windows
    k_all = np.concatenate([lo_ends, hi_ends, [0.0]])
    with np.errstate(invalid="ignore"):     # inf - inf: a NaN cut, dropped below
        cuts = np.abs(k_all[:, None] - k_all).ravel() / 4.0
    edges = np.unique(np.concatenate([[0.0, 0.5], cuts[(cuts > 0.0) & (cuts < 0.5)]]))
    xs, xw = 0.5 + 0.5 * _X_NODES[0], 0.5 * _X_NODES[1]      # on (0, 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        # No window end crosses a cube face inside (a, b): which windows cover
        # the cube, meet it or end inside it is read at its midpoint, 4x = x4.
        x4 = 2.0 * (a + b)
        if np.any((lo_ends <= -x4) & (hi_ends >= x4)):
            continue                     # a window covers the cube for every y_0
        meets = (hi_ends >= -x4) & (lo_ends <= x4)
        lo, hi = lo_ends[meets], hi_ends[meets]
        k = k_all[(k_all != 0.0) & (np.abs(k_all) < x4)]
        x = a * (b / a) ** xs if a > 0.0 else b * xs
        wx = xw * (x * math.log(b / a) if a > 0.0 else b)
        w = 0.25 / x[:, None]
        brk = np.sort(np.hstack([np.tile([-0.5, 0.5], (len(x), 1)),       # the faces and
                                 np.sign(k) * (0.5 - np.abs(k) * w)]))     # the ends inside
        half = 0.5 * np.diff(brk)                                          # (x, piece)
        yn, yw = np.polynomial.legendre.leggauss(len(lo) // 2 + 2)
        y0 = ((brk[:, :-1] + half)[..., None] + half[..., None] * yn)[..., None]
        w = w[..., None, None]                                             # (x, piece, node, row)
        covered = np.minimum(y0 + hi * w, 0.5) - np.maximum(y0 + lo * w, -0.5)
        total += ((1.0 - np.maximum(covered, 0.0)).prod(axis=-1) @ yw * half).sum(axis=1) @ wx
    return float(2.0 * total)
