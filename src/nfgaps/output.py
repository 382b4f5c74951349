"""The one module that writes files: CSV, JSON and the run manifest.

CSV conventions: '.' decimal separator, no thousands separators, '\n' line
endings, UTF-8, floats at 17 significant digits (value-preserving).  Callers
format their own cells (floats through `fmt_float`); `write_csv` writes the
strings and integers it is given.  JSON keys are sorted; the report and the
manifest are indented by 2, curve and gap sidecars are compact.
"""
from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, payload, indent: int | None = None) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n",
                          encoding="utf-8")


def manifest(command: str, flags: dict, seed: int, version: str,
             artifacts: list[str]) -> dict:
    """Run manifest; `started` is the only non-reproducible field."""
    return {
        "command": command,
        "flags": flags,
        "seed": seed,
        "version": version,
        "started": datetime.now(timezone.utc).isoformat(),
        "artifacts": sorted(artifacts),
    }
