"""The one module that writes files: CSV, JSON and the run manifest.

CSV: '.' decimal separator, '\n' line endings, UTF-8.  Callers pass raw
values; `write_csv` writes a float (np.float64 too) at 17 significant digits
(value-preserving), None as an empty cell and anything else through str().
No cell holds a comma, a quote or a newline (each is a number, a region tag,
true/false or a header name), so none is quoted.  JSON keys are sorted; the
report and the manifest are indented by 2, curve and gap sidecars are compact.
"""
from __future__ import annotations

import json
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

_BATCH = 1 << 13     # lines joined per write: memory stays flat for any file size


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row, joined and written _BATCH lines at a time."""
    rows = chain([header], rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while batch := list(islice(rows, _BATCH)):
            fh.write("".join([",".join(map(_cell, row)) + "\n" for row in batch]))


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n",
                          encoding="utf-8")


def manifest(command: str, flags: dict, seed: int, version: str,
             artifacts: list[str]) -> dict:
    """Run manifest; `started` is the only non-reproducible field."""
    return {"command": command, "flags": flags, "seed": seed, "version": version,
            "started": datetime.now(timezone.utc).isoformat(), "artifacts": sorted(artifacts)}
