import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nfgaps.output
from nfgaps.output import _BATCH, write_csv


def reference_write_csv(path, header, rows):
    """The earlier writer: csv.writer, floats at 17 digits, None as an empty cell."""
    def cell(x):
        if x is None:
            return ""
        return f"{float(x):.17g}" if isinstance(x, float) else x

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([[cell(x) for x in row] for row in rows])


floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# Cells the program writes never hold a delimiter, a quote or a line break,
# so csv.writer never quoted them.  The percent texts are written as given.
texts = st.one_of(st.text(st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters=',"\r\n')),
                  st.sampled_from(["%", "%s", "%%", "%.17g", "%(x)s", "100%", "a%sb%%"]))
cells = st.one_of(st.integers(min_value=-2 ** 80, max_value=2 ** 80), floats,
                  floats.map(np.float64), st.none(), texts, st.booleans(),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
# At least two cells per row: csv.writer quotes a lone empty cell as "".
rows = st.lists(cells, min_size=2, max_size=5)


@given(header=st.lists(texts, min_size=2, max_size=5), body=st.lists(rows, max_size=8),
       batch=st.sampled_from([2, 3, 4, _BATCH]))
@example(header=["x", "y", "gap"],
         body=[[2 ** 63, -2 ** 64 - 1, None], [-0.0, np.float64(-0.0), math.inf],
               [np.float64(-math.inf), math.nan, np.float64(math.nan)],
               [5e-324, np.float64(2.2250738585072e-309), np.float64(0.03)],
               ["true", "C2", 0.1]], batch=_BATCH)
# the second batch holds nine int cells in rows of unequal length
@example(header=["a", "b"], body=[[0, 0], [0, 0], [1, 2, 3], [4, 5], [6, 7, 8, 9]], batch=3)
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_reference_writer(header, body, batch):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(nfgaps.output, "_BATCH", batch):
        ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        write_csv(ours, header, iter(body))
        reference_write_csv(ref, header, body)
        assert ours.read_bytes() == ref.read_bytes()


def reference_rows(columns):
    """The rows of numpy columns as Python values, NaN as None, built per cell."""
    return [[None if isinstance(v, float) and math.isnan(v) else v for v in row]
            for row in zip(*[column.tolist() for column in columns])]


def assert_block_matches_reference(columns, lead=()):
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        before = [column.tobytes() for column in columns]
        write_csv(ours, ["a"] * len(columns), list(lead), tuple(columns))
        reference_write_csv(ref, ["a"] * len(columns), [*lead, *reference_rows(columns)])
        assert ours.read_bytes() == ref.read_bytes()
        assert [column.tobytes() for column in columns] == before   # the columns stay as given


def decades(lo, hi):
    """Powers of ten from 10**lo to 10**hi with their neighbours: the three
    doubles each side and the midpoints between them and the power."""
    out = []
    for k in range(lo, hi + 1):
        p = float(10 ** k) if k >= 0 else 1 / 10 ** -k
        below, above = [p], [p]
        for _ in range(3):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], math.inf))
        out += below + above + [p * 1.5, p * 9.99999999999999, (p + below[1]) / 2]
    return out


# float64 cells: any bit pattern (NaN payloads, ±inf, ±0.0, subnormals), any
# float, and values spread over every decade from 1e-6 to 1e22 (the exact
# path covers 1e-4 <= |x| < 1e16; the rest takes `%.17g` per cell)
float64s = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda m, e, sign: sign * m * 10.0 ** e, st.floats(1, 10), st.integers(-6, 22),
              st.sampled_from([1.0, -1.0])),
    st.sampled_from(decades(-6, 22)).flatmap(lambda v: st.sampled_from([v, -v])))
int64s = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                   st.sampled_from([0, 1, -1, 2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63,
                                    10 ** 18, -10 ** 18, 10 ** 18 - 1, 9, 10, -10]))


@st.composite
def column_blocks(draw):
    n = draw(st.integers(0, 24))
    # two columns at least: csv.writer quotes a lone empty cell as ""
    kinds = draw(st.lists(st.sampled_from([np.float64, np.int64]), min_size=2, max_size=3))
    return [np.array(draw(st.lists(float64s if kind is np.float64 else int64s,
                                   min_size=n, max_size=n)), dtype=kind) for kind in kinds]


@given(columns=column_blocks(), batch=st.sampled_from([2, 3, 5, _BATCH]))
# the tie 1 + 2**-17 (1.0000076293945312), literals that carry to the next decade
# (10, 0.0001), the exponent-form edge at 1e-4, 1e16 and 1e17 - 16
@example(columns=[np.array([1 + 2 ** -17, 9.99999999999999999, 0.000099999999999999999,
                            1e-4, 9.9999999999999e-05, 1e16, 1e17 - 16, math.nan, -0.0,
                            0.0, 5e-324, -math.inf, 0.1, 123.0, -2.5]),
                  np.arange(15, dtype=np.int64) * -(10 ** 17) + 1], batch=4)
@example(columns=[np.array([2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63, 0, -7, 10 ** 18]),
                  np.array([math.nan, 1e-5, 1e22, 2.2250738585072014e-308, -1e-4, 7.0])],
         batch=4)
# out-of-range floats, each repeated, are formatted once per bit pattern:
# -0.0 apart from 0.0, and NaNs of two payloads both the empty cell
@example(columns=[np.array([0.0, -0.0, 5e-324, math.inf, -math.inf, 1e-5, 1e16,
                            *np.array([0x7FF8000000000001, 0xFFF0000000000BAD],
                                      np.uint64).view(np.float64)] * 3),
                  np.arange(27, dtype=np.int64)], batch=_BATCH)
@settings(max_examples=300, deadline=None)
def test_column_block_matches_reference_writer(columns, batch):
    with mock.patch.object(nfgaps.output, "_BATCH", batch):
        assert_block_matches_reference(columns, lead=[("q", 7, "true"), ("x", "y")])


def test_every_decade_matches_percent_format():
    values = np.array(decades(-6, 22))
    values = np.concatenate([values, -values, values * (1 + 2 ** -52), values / 3])
    assert_block_matches_reference([values, values[::-1].copy()])


@pytest.mark.parametrize("column", [np.array([1, -2, 3], dtype=np.int32),
                                    np.array([True, False, True])], ids=["int32", "bool"])
def test_other_column_dtypes_raise(column, tmp_path):
    # a tuple block is numeric columns only; rows of other values go as a list
    with pytest.raises(TypeError, match="float64 or int64"):
        write_csv(tmp_path / "ours.csv", ["a", "b"], (np.arange(3) * 0.5, column))
