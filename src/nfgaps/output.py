"""The one module that writes files: CSV, JSON and the run manifest.

CSV: '.' decimal separator, '\n' line endings, UTF-8.  Callers pass raw
values; `write_csv` writes a float (np.float64 too) with `%.17g`, 17
significant digits (value-preserving), None as an empty cell and anything
else through str(); cells fill the `%` fields of a row template, so a '%' in
a text cell is written verbatim.  No cell holds a comma, a quote or a newline
(each is a number, a region tag, true/false or a header name), so none is
quoted.  JSON keys are sorted; the report and the manifest are indented by
2, curve and gap sidecars are compact.
"""
from __future__ import annotations

import json
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

_BATCH = 1 << 13     # lines formatted per write: memory stays flat for any file size


@lru_cache(maxsize=64)
def _row_template(signature: tuple[type, ...]) -> str:
    """A line's `%` template for the cell types of a row; None gets no field."""
    return ",".join(["%.17g" if issubclass(c, float) else "" if c is type(None) else "%s"
                     for c in signature]) + "\n"


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row; each _BATCH lines are one `%` format."""
    rows = chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while batch := list(islice(rows, _BATCH)):
            cells = list(chain.from_iterable(batch))
            types = list(map(type, cells))
            n = len(batch[0])
            if types[:n] * len(batch) == types and list(map(len, batch)) == [n] * len(batch):
                template = _row_template(tuple(types[:n])) * len(batch)
            else:
                template = "".join([_row_template(tuple(map(type, row))) for row in batch])
            if type(None) in types:
                cells = [c for c in cells if c is not None]
            fh.write(template % tuple(cells))


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n",
                          encoding="utf-8")


def manifest(command: str, flags: dict, seed: int, version: str,
             artifacts: list[str]) -> dict:
    """Run manifest; `started` is the only non-reproducible field."""
    return {"command": command, "flags": flags, "seed": seed, "version": version,
            "started": datetime.now(timezone.utc).isoformat(), "artifacts": sorted(artifacts)}
