"""The benchmark's four workloads: inputs drawn from a seed, the argv the
program sees, the work one process does, and the checks on its outputs.

Seed 0 gives each workload's canonical inputs, the ones whose artifact
digests are recorded in digests.json.  Any other seed draws nearby inputs
of the same size, so run time stays comparable across seeds while the
program never sees the same numbers twice.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Tolerances of the acceptance suite (criteria 01 and 06) and of the
# expsum harness constants (4d for complete sums, 5 for box errors).
GAPS_SUP_TOL = 0.02
PRIME_CELL_SUP_TOL = 0.05
BOX_ERROR_TOL = 5.0

# omega-deep: the canonical estimate (MC seed 42); other MC seeds must land
# within 6 standard errors of the difference of two independent estimates.
OMEGA_REFERENCE = 0.40173101425170898
OMEGA_SAMPLES = 4_194_304


def is_prime(n: int) -> bool:
    """Trial division; kept apart from the program's Miller-Rabin on purpose."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def curve_size(q: int, h: int) -> int:
    """Number of n mod q with n and n+h both invertible, for h coprime to q."""
    count, n, f = 1, q, 2
    while f * f <= n:
        if n % f == 0:
            k = 0
            while n % f == 0:
                n //= f
                k += 1
            count *= f ** (k - 1) * (f - 2)
        f += 1
    if n > 1:
        count *= n - 2
    return count


@dataclass(frozen=True)
class Case:
    """One workload at one seed: the chosen inputs and the program argv."""

    workload: str
    seed: int
    inputs: dict
    argv: tuple[str, ...]
    threads: int | None = None


@dataclass(frozen=True)
class Workload:
    """A named input generator plus the checks on its outputs (see BENCHMARK.json for why)."""

    name: str
    work_unit: str
    make: Callable[[random.Random | None], tuple[dict, list[str], int | None]]
    check: Callable[[dict, Path], tuple[int, list[str]]]

    def case(self, seed: int) -> Case:
        rng = None if seed == DEFAULT_SEED else random.Random(f"{self.name}/{seed}")
        inputs, argv, threads = self.make(rng)
        return Case(self.name, seed, inputs, tuple(argv), threads)


# --- artifact digests --------------------------------------------------------

def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under out; manifest.json without `started`."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("started", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def digest_problems(got: dict[str, str], want: dict[str, str]) -> list[str]:
    problems = [f"missing artifact {name}" for name in sorted(set(want) - set(got))]
    problems += [f"unexpected artifact {name}" for name in sorted(set(got) - set(want))]
    problems += [f"digest mismatch in {name}" for name in sorted(set(got) & set(want))
                 if got[name] != want[name]]
    return problems


def recorded_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))[workload]


# --- shared readers ----------------------------------------------------------

def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sup_to_limit(curve_csv: Path, t: float) -> float:
    from nfgaps.limitdist import limit_G

    return max(abs(float(r["G_emp"]) - limit_G(t, float(r["lambda"])))
               for r in _read_rows(curve_csv))


# --- gaps-3e5 ----------------------------------------------------------------

def _gaps_make(rng):
    if rng is None:
        q, h = 300007, 1
    else:
        q = next_prime(rng.randrange(300001, 303001))
        h = rng.randrange(1, q)
    argv = ["gaps", "--q", str(q), "--h", str(h), "--t", "2.76", "--per-point"]
    return {"q": q, "h": h, "t": "2.76"}, argv, None


def _gaps_check(inputs, out):
    q, h = inputs["q"], inputs["h"]
    base = out / f"gaps_q{q}_h{h}"
    problems = []
    header = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    if header["n"] != q - 2:
        problems.append(f"gaps: {header['n']} angles, expected q-2 = {q - 2}")
    sup = _sup_to_limit(base.with_suffix(".csv"), float(Fraction(inputs["t"])))
    if not sup <= GAPS_SUP_TOL:
        problems.append(f"gaps: sup|G_emp - limit_G| = {sup:.4g} > {GAPS_SUP_TOL}")
    with open(f"{base}_points.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if len(rows) != q - 2 or sum(1 for r in rows if r[2] == "") != 1:
        problems.append("gaps: per-point file needs q-2 rows with one empty gap")
    return header["n"], problems


# --- scan-composite ----------------------------------------------------------

def _scan_moduli(start: int) -> list[int]:
    return list(range(start, start + 100, 2))


def _scan_make(rng):
    start = 10001 if rng is None else 10001 + 2 * rng.randrange(0, 50)
    argv = (["scan", "--kind", "composite", "--q"] + [str(q) for q in _scan_moduli(start)]
            + ["--t", "1.5", "--h", "2", "--curves"])
    return {"q_start": start, "moduli": 50, "h": 2, "t": "1.5"}, argv, None


def _scan_check(inputs, out):
    h, t = inputs["h"], float(Fraction(inputs["t"]))
    moduli = _scan_moduli(inputs["q_start"])
    cells = json.loads((out / "report.json").read_text(encoding="utf-8"))["cells"]
    problems = []
    if [c["q"] for c in cells] != moduli:
        problems.append("scan: report cells do not match the requested moduli")
    for cell in cells:
        if cell["prime"] != is_prime(cell["q"]):
            problems.append(f"scan: wrong primality flag for q={cell['q']}")
        if is_prime(cell["q"]):
            sup = _sup_to_limit(out / f"curve_q{cell['q']}_h{h}_t{t:g}.csv", t)
            if not sup <= PRIME_CELL_SUP_TOL:
                problems.append(f"scan: prime q={cell['q']} sup {sup:.4g} > {PRIME_CELL_SUP_TOL}")
    return sum(curve_size(q, h) for q in moduli), problems


# --- omega-deep --------------------------------------------------------------

def _omega_make(rng):
    seed = 42 if rng is None else rng.randrange(2 ** 32)
    argv = ["omega", "--t", "0.1", "--lambda", "1.0", "--samples", str(OMEGA_SAMPLES),
            "--threads", "2", "--seed", str(seed)]
    return {"t": "0.1", "lambda": 1.0, "samples": OMEGA_SAMPLES, "mc_seed": seed}, argv, 2


def _omega_check(inputs, out):
    (row,) = _read_rows(out / "omega.csv")
    problems = []
    D = int(2 / Fraction(inputs["t"])) + 1
    if (int(row["D"]), int(row["samples"]), int(row["seed"])) != (D, inputs["samples"],
                                                                    inputs["mc_seed"]):
        problems.append("omega: D, samples or seed differ from the request")
    est, err = float(row["estimate"]), float(row["std_error"])
    if not 0.0 < est < 1.0:
        problems.append(f"omega: estimate {est} outside (0, 1)")
    elif not math.isclose(err, math.sqrt(est * (1 - est) / inputs["samples"]), rel_tol=1e-9):
        problems.append("omega: std_error is not the binomial error of the estimate")
    elif abs(est - OMEGA_REFERENCE) > 6 * math.sqrt(2) * err:
        problems.append(f"omega: estimate {est} is > 6 sigma from {OMEGA_REFERENCE}")
    return inputs["samples"], problems


# --- expsum-2e6 --------------------------------------------------------------

_BOX = "0:1000000"


def _expsum_make(rng):
    if rng is None:
        p, a, b = 2000003, 3, [5, 7, 11, 13]
    else:
        p = next_prime(rng.randrange(2000000, 2010000))
        a, b = rng.randrange(1, p), [rng.randrange(1, p) for _ in range(4)]
    argv = ["expsum", "--p", str(p), "--h", "1", "--D", "2", "--sum-a", str(a),
            "--sum-b", ",".join(map(str, b)), "--box"] + [_BOX] * 5
    return {"p": p, "h": 1, "D": 2, "a": a, "b": b, "box": [_BOX] * 5}, argv, None


def _expsum_check(inputs, out):
    p = inputs["p"]
    (sums,) = _read_rows(out / "sums.csv")
    (box,) = _read_rows(out / "boxes.csv")
    d = int(sums["d"])
    problems = []
    magnitude = abs(complex(float(sums["re"]), float(sums["im"])))
    if not magnitude <= 4 * d * math.sqrt(p):
        problems.append(f"expsum: |S| = {magnitude:.6g} > 4d sqrt(p)")
    if not math.isclose(float(sums["bound_ratio"]), magnitude / (4 * d * math.sqrt(p)),
                        rel_tol=1e-9):
        problems.append("expsum: bound_ratio is not |S| / (4d sqrt(p))")
    if not abs(float(box["normalized_error"])) <= BOX_ERROR_TOL:
        problems.append(f"expsum: box normalized error {box['normalized_error']} > {BOX_ERROR_TOL}")
    return p * d, problems


WORKLOADS = {w.name: w for w in (
    Workload("gaps-3e5", "curve points", _gaps_make, _gaps_check),
    Workload("scan-composite", "curve points", _scan_make, _scan_check),
    Workload("omega-deep", "MC samples", _omega_make, _omega_check),
    Workload("expsum-2e6", "residues x maps", _expsum_make, _expsum_check),
)}
