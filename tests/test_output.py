import csv
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfgaps.output import write_csv


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
