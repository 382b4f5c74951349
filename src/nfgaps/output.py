"""The one module that writes files: CSV, JSON and the run manifest.

CSV: '.' decimal separator, '\n' line endings, UTF-8.  Callers pass raw
values; `write_csv` writes a float (np.float64 too) with `%.17g`, 17
significant digits (value-preserving), None as an empty cell and anything
else through str().  Numeric tables (point sets, per-point gaps, gap curves)
go as column blocks, plain tuples of float64 and int64 numpy columns,
through one exact vectorised formatter that gives the same cells (NaN is the
empty cell; floats outside 1e-4 <= |x| < 1e16 are formatted one distinct
value at a time).  No cell (a number, region tag, true/false or header name)
holds a comma, a quote or a newline, so none is quoted.  JSON keys are
sorted; the report and the manifest are indented by 2, curve and gap
sidecars are compact.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from datetime import datetime, timezone
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

_BATCH = 1 << 13     # lines formatted per write: memory stays flat for any file size
_FLOAT = 41          # bytes of a float cell: b"-0.000", two copies of the 17 digits, the end


def _format_rows(batch: list[Sequence]) -> bytes:
    """The lines of a batch of rows, cell by cell."""
    return "".join([",".join(["" if c is None else "%.17g" % c if isinstance(c, float)
                              else str(c) for c in row]) + "\n" for row in batch]).encode()


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, ...]:
    """ASCII 0000..9999 as uint32 words; by (decimal exponent X in -4..15,
    significant digits s, sign) the bytes of a float cell that `%.17g` prints,
    and the byte after them; 10**k (exact) for floats and for int64 digit counts."""
    groups = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    x, s = np.arange(-4, 16)[:, None, None, None], np.arange(18)[:, None, None]
    neg, j = np.arange(2)[:, None] == 1, np.arange(_FLOAT)
    end = np.where(x < 0, 6 + s, np.where(s > x + 1, 23 + s, 7 + x))
    keep = (j == end) | np.where(
        x < 0, (j == 0) & neg | (j == 1) | (j == 2) | (j >= 7 + x) & (j < 6 + s),
        (j == 5) & neg | (j >= 6) & (j < 7 + x) | (s > x + 1) & (j >= 23 + x) & (j < 23 + s))
    return (groups.astype(np.uint8).view(np.uint32).ravel(), keep.reshape(-1, _FLOAT), end.ravel(),
            np.array([float(10 ** k) for k in range(23)]), 10 ** np.arange(1, 20, dtype=np.uint64))


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, N): N * 10**(X - 16) is the `%.17g` rounding of each a in [1e-4, 1e16).

    Dekker's exact product gives a * 10**(16 - X) = hi + lo, hi an even integer
    above 2**53, so hi + rint(lo) rounds half to even like `%.17g`; N < 10**17,
    as no such a lies within 5e-18 (relative) below a power of ten."""
    x = np.floor(np.log10(a)).astype(np.int64)
    n, todo = np.empty(len(a), np.int64), np.arange(len(a))
    while todo.size:                                # a log10 guess one off is stepped once
        u, v = a[todo], _tables()[3][16 - x[todo]]
        hi = u * v
        (u1, u2), (v1, v2) = [(h, w - h) for w in (u, v)
                              for c in [w * 134217729.0] for h in [c - (c - w)]]
        lo = ((u1 * v1 - hi) + u1 * v2 + u2 * v1) + u2 * v2
        m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        low, high = (hi < 1e16) | (hi == 1e16) & (lo < 0), m >= 10 ** 17
        n[todo], x[todo] = m, x[todo] + high - low
        todo = todo[low | high]
    return x, n.view(np.uint64)


def _digits(u: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of each uint64, zero-padded, as an (n, 20) uint8 array."""
    groups = [u // 10 ** k % 10 ** 4 for k in (16, 12, 8, 4, 0)]
    return _tables()[0][np.stack(groups, axis=1)].view(np.uint8)


def _cells(column: np.ndarray, term: int) -> tuple[np.ndarray, np.ndarray]:
    """Bytes of a float64 or int64 column's cells, each then term, and the mask printed."""
    rows = np.arange(len(column))
    if column.dtype == np.int64:                    # right-aligned, the sign before
        u = np.abs(column).view(np.uint64)          # -2**63 wraps to 2**63 here
        nd = 1 + np.searchsorted(_tables()[4], u, side="right")
        w = int(nd.max(initial=1))
        chars = np.hstack([_digits(u)[:, 19 - w:], np.full((len(u), 1), term, np.uint8)])
        chars[rows, w - nd] = ord("-")              # printed only where negative
        return chars, (np.arange(w + 2)[:, None] >= w + 1 - nd - (column < 0)).T
    a, neg = np.abs(column), np.signbit(column)
    with np.errstate(invalid="ignore"):
        fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    x, n = _decimal17(a)
    digits = _digits(n)                             # b"000" and the 17 digits
    s = 17 - np.argmax(digits[:, :2:-1] != ord("0"), axis=1)
    # b"-0.000", the 17 digits and the digits again; for X >= 0 a "." before
    # the second copy's digit X + 1 and a "-" before the first digit
    chars = np.empty((len(a), _FLOAT), np.uint8)
    chars[:, :3], chars[:, 3:23], chars[:, 23:40] = list(b"-0."), digits, digits[:, 3:]
    chars[rows, 23 + np.maximum(x, 0)] = ord(".")
    chars[neg & (x >= 0), 5] = ord("-")
    key = 18 * (x + 4) + s
    keep, end = _tables()[1][2 * key + neg], _tables()[2][key]
    slow = np.flatnonzero(~fast)                    # one `%.17g` per distinct bit pattern
    if slow.size:
        bits, which = np.unique(column[slow].view(np.uint64), return_inverse=True)
        texts = [b"%.17g" % v if v == v else b"" for v in bits.view(np.float64).tolist()]
        size = np.array(list(map(len, texts)), np.int64)[which]  # 0 for NaN, the empty cell
        chars[slow] = np.array(texts, f"S{_FLOAT}").view(np.uint8).reshape(-1, _FLOAT)[which]
        keep[slow], end[slow] = np.arange(_FLOAT) <= size[:, None], size
    chars[rows, end] = term
    return chars, keep


def _format_columns(columns: Sequence[np.ndarray]) -> bytes:
    """The lines of equal-length float64/int64 columns, without a row tuple."""
    cells = [_cells(c, ord(",")) for c in columns[:-1]] + [_cells(columns[-1], ord("\n"))]
    return np.hstack([c for c, _ in cells])[np.hstack([k for _, k in cells])].tobytes()


def write_csv(path: str | Path, header: Sequence, *blocks: Iterable[Sequence]) -> None:
    """Header line, then each block, _BATCH lines per write: a tuple of
    equal-length float64/int64 numpy columns in numpy, any other block (an
    iterable of rows) cell by cell.  A column of another dtype is a TypeError."""
    with open(path, "wb") as fh:
        fh.write(_format_rows([header]))
        for block in blocks:
            if isinstance(block, tuple):
                if not all(c.dtype in (np.float64, np.int64) for c in block):
                    raise TypeError("a column block takes float64 or int64 numpy columns")
                for start in range(0, len(block[0]), _BATCH):
                    fh.write(_format_columns([c[start:start + _BATCH] for c in block]))
                continue
            rows = iter(block)
            while batch := list(islice(rows, _BATCH)):
                fh.write(_format_rows(batch))


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n",
                          encoding="utf-8")


def manifest(command: str, flags: dict, seed: int, version: str,
             artifacts: list[str]) -> dict:
    """Run manifest; `started` is the only non-reproducible field."""
    return {"command": command, "flags": flags, "seed": seed, "version": version,
            "started": datetime.now(timezone.utc).isoformat(), "artifacts": sorted(artifacts)}
