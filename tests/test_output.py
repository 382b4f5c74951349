import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nfgaps.output
from nfgaps.output import _BATCH, column_rows, write_csv


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
# so csv.writer never quoted them.
texts = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters=',"\r\n'))
cells = st.one_of(st.integers(min_value=-2 ** 80, max_value=2 ** 80), floats,
                  floats.map(np.float64), st.none(), texts)
# At least two cells per row: csv.writer quotes a lone empty cell as "".
rows = st.lists(cells, min_size=2, max_size=5)


@given(header=st.lists(texts, min_size=2, max_size=5), body=st.lists(rows, max_size=8))
@example(header=["x", "y", "gap"],
         body=[[2 ** 63, -2 ** 64 - 1, None], [-0.0, np.float64(-0.0), math.inf],
               [np.float64(-math.inf), math.nan, np.float64(math.nan)],
               [5e-324, np.float64(2.2250738585072e-309), np.float64(0.03)],
               ["true", "C2", 0.1]])
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_reference_writer(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        write_csv(ours, header, iter(body))
        reference_write_csv(ref, header, body)
        assert ours.read_bytes() == ref.read_bytes()


# Text cells that a `%` template would misread if a cell became part of it.
percent_texts = st.sampled_from(["%", "%s", "%%", "%.17g", "%(x)s", "100%", "a%sb%%"])
batch_cells = st.one_of(cells, percent_texts, st.booleans(),
                        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
cell_kinds = st.sampled_from([st.integers(-10, 10), floats, floats.map(np.float64), st.none(),
                              percent_texts, texts, st.booleans(),
                              st.integers(-10, 10).map(np.int64)])


@st.composite
def uniform_run(draw):
    """Rows that share one signature: the same cell type at each position."""
    kinds = draw(st.lists(cell_kinds, min_size=2, max_size=5))
    return [[draw(k) for k in kinds] for _ in range(draw(st.integers(1, 9)))]


runs = st.one_of(uniform_run(), st.lists(st.lists(batch_cells, min_size=2, max_size=5),
                                         min_size=1, max_size=4))


@given(header=st.lists(st.one_of(texts, percent_texts), min_size=2, max_size=5),
       body=st.lists(runs, max_size=8).map(lambda rs: [row for run in rs for row in run][:40]),
       batch=st.integers(2, 4))
# the second batch holds nine int cells in rows of unequal length
@example(header=["a", "b"], body=[[0, 0], [0, 0], [1, 2, 3], [4, 5], [6, 7, 8, 9]], batch=3)
@settings(max_examples=300, deadline=None)
def test_write_csv_across_batches_matches_reference_writer(header, body, batch):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(nfgaps.output, "_BATCH", batch):
        ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
        write_csv(ours, header, iter(body))
        reference_write_csv(ref, header, body)
        assert ours.read_bytes() == ref.read_bytes()


def test_column_rows_cross_batches():
    n = 2 * _BATCH + 3
    xs = np.arange(n, dtype=np.int64) - 5
    gaps = np.linspace(0.0, 2.0, n)
    gaps[[0, _BATCH, n - 1]] = np.nan
    rows = column_rows(xs, gaps)
    want = [(x, None if math.isnan(g) else g) for x, g in zip(xs.tolist(), gaps.tolist())]
    assert list(rows) == want and list(rows) == []
    assert all(type(x) is int for x, _ in want)
