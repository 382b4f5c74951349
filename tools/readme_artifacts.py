"""Hash every artifact of the README's CLI commands, for before/after diffs.

    python tools/readme_artifacts.py > hashes.txt
    python tools/readme_artifacts.py "nfgaps curve --q 101 --h 1 --raw" > hashes.txt

Run it in two checkouts (say, before and after a change) and diff the outputs.

Each distinct command among the `nfgaps ...` lines of the README's code
blocks and the command lines given as arguments runs, in sorted order, as
`python -m nfgaps.cli ... --out out` in a fresh temporary directory, with
this checkout's `src` on PYTHONPATH; so a command that one checkout's README
holds and the other is given as an argument lands in the same place.  The
script prints each command with its exit status, then each line it wrote to
stderr (with the checkout and the temporary directory written as <root> and
<tmp>), then one `sha256  path` line per artifact.  manifest.json is hashed
without its `started` line, the only field that differs between identical
runs.  Two checkouts print the same text exactly when their CLI artifacts and
messages are byte for byte the same.
"""
from __future__ import annotations

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STARTED = re.compile(rb'^\s*"started": .*\n', re.MULTILINE)


def readme_commands(readme: Path) -> list[str]:
    """The `nfgaps ...` lines inside the README's fenced code blocks."""
    commands, fenced = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("nfgaps "):
            commands.append(line)
    return commands


def digests(out: Path) -> list[tuple[str, str]]:
    rows = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = STARTED.sub(b"", data)
        rows.append((hashlib.sha256(data).hexdigest(), path.relative_to(out).as_posix()))
    return rows


def run(command: str) -> None:
    argv = shlex.split(command)[1:]
    env = {k: v for k, v in os.environ.items() if k != "NFGAPS_OUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "nfgaps.cli", *argv, "--out", "out"],
                              cwd=tmp, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True)
        print(f"# {command} -> exit {proc.returncode}")
        for line in proc.stderr.replace(tmp, "<tmp>").replace(str(ROOT), "<root>").splitlines():
            print(f"#   stderr: {line}")
        out = Path(tmp) / "out"
        if out.is_dir():
            for digest, name in digests(out):
                print(f"{digest}  {name}")
    sys.stdout.flush()


if __name__ == "__main__":
    for command in sorted(set(readme_commands(ROOT / "README.md") + sys.argv[1:])):
        run(command)
