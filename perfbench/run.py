"""Benchmark of the `nfgaps` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload gaps-3e5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

`--trace 0` runs the CLI as real processes (`python -m nfgaps.cli` with
`PYTHONPATH=src`) in a closed loop with one client: a process starts only
after the previous one has exited.  It first times `nfgaps --version`
several times (set-up), then repeats the workload until the next process
would overrun `--seconds`, and reports medians.  `--trace 1` calls
`nfgaps.cli.run` in-process instead, alternating an untraced run with a
traced one, and reports the per-layer metrics of the traced runs.  Timed
processes start from spawn.py, which says why.

Every run is checked: exit status, artifact digests (against digests.json
at the default seed, otherwise against the first run of the same inputs)
and the cross-route tolerances in workloads.py.  Each process runs in a
fresh directory under .perfbench_runs/ with the same relative `--out`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable table and a
JSON line with the environment and the chosen inputs.  Metric names and
units come from BENCHMARK.json.  Exit status is 0 only when every run
passed its checks.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass, field
from importlib.metadata import version
from pathlib import Path

import tracer
from workloads import DEFAULT_SEED, WORKLOADS, Case, artifact_digests, digest_problems, recorded_digests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
SPAWN = Path(__file__).with_name("spawn.py")

SETUP_REPS = 4
MIN_RUNS = 3
PROCESS_TIMEOUT_S = 150.0


@dataclass
class Run:
    """One execution of the workload (or of `--version`) and its verdict."""

    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    units: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "NFGAPS_OUT"}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


def spawn(argv: list[str], cwd: Path) -> Run:
    """Run `python -m nfgaps.cli argv` in cwd through spawn.py; no verdict yet."""
    request = {"argv": [sys.executable, "-m", "nfgaps.cli", *argv], "cwd": str(cwd),
               "timeout": PROCESS_TIMEOUT_S}
    launcher = subprocess.run([sys.executable, str(SPAWN), json.dumps(request)], env=_env(),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S + 30, check=True)
    result = json.loads(launcher.stdout)
    run = Run(result["wall"], result["cpu"], result["maxrss_kb"] / 1024)
    if result["rc"] != 0:
        run.problems.append(f"exit status {result['rc']}")
    return run


class Session:
    """The runs of one workload at one seed, with their shared digest reference."""

    def __init__(self, case: Case):
        self.case = case
        self.workload = WORKLOADS[case.workload]
        self.reference = recorded_digests(case.workload) if case.seed == DEFAULT_SEED else None

    def verify(self, run: Run, out: Path) -> None:
        if run.problems:
            return
        try:
            run.units, problems = self.workload.check(self.case.inputs, out)
            run.digests = artifact_digests(out)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            run.problems.append(f"unreadable output: {exc!r}")
            return
        run.problems += problems
        if self.reference is None:
            self.reference = run.digests
        run.problems += digest_problems(run.digests, self.reference)

    def process(self) -> Run:
        workdir = Path(tempfile.mkdtemp(dir=WORK))
        try:
            run = spawn([*self.case.argv, "--out", "out"], workdir)
            self.verify(run, workdir / "out")
            return run
        finally:
            shutil.rmtree(workdir)

    def in_process(self, trace: tracer.Tracer | None) -> Run:
        from nfgaps import cli
        from nfgaps.expsum import inverse_table

        workdir = Path(tempfile.mkdtemp(dir=WORK))
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            # A CLI process starts with an empty inverse-table cache; so does this run.
            inverse_table.cache_clear()
            before = inverse_table.cache_info()
            with redirect_stdout(io.StringIO()), (trace.installed() if trace else nullcontext()):
                start = time.perf_counter()
                rc = cli.run([*self.case.argv, "--out", "out"])
                wall = time.perf_counter() - start
            after = inverse_table.cache_info()
            run = Run(wall, problems=[] if rc == 0 else [f"exit status {rc}"])
            self.verify(run, workdir / "out")
            if trace is not None and rc == 0:
                run.layers = layer_metrics(trace.spans, workdir / "out")
                run.layers["expsum.inverse_table_hits"] = after.hits - before.hits
                run.layers["expsum.inverse_table_misses"] = after.misses - before.misses
            return run
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir)


def layer_metrics(spans: list[tracer.Span], out: Path) -> dict[str, float]:
    """The tracer's metrics plus those read from the run's artifacts."""
    metrics = tracer.layer_metrics(spans)
    report = out / "report.json"
    cells = len(json.loads(report.read_text(encoding="utf-8"))["cells"]) if report.exists() else 0
    metrics["experiments.curve_calls_per_cell"] = (
        metrics["experiments.curve_calls"] / cells if cells else 0.0)
    metrics["output.bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return metrics


def _until(deadline: float, step, min_runs: int = MIN_RUNS) -> list:
    """Repeat step() until another one of the same length would pass the deadline."""
    results = []
    while True:
        start = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - start
        if len(results) >= min_runs and time.perf_counter() + last > deadline:
            return results


def _setup_run() -> Run:
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = spawn(["--version"], workdir)
        if not (workdir / "stdout.txt").read_text(encoding="utf-8").startswith("nfgaps "):
            run.problems.append("--version printed no version")
        return run
    finally:
        shutil.rmtree(workdir)


def measure(case: Case, seconds: float) -> tuple[dict[str, float], list[Run], dict]:
    """End-to-end metrics from real processes (trace off)."""
    session = Session(case)
    deadline = time.perf_counter() + seconds
    setup = [_setup_run() for _ in range(SETUP_REPS)]
    runs = _until(deadline, session.process)
    ok = [r for r in runs if not r.problems] or runs
    metrics = {
        "setup_s": statistics.median(r.wall for r in setup),
        "wall_s": statistics.median(r.wall for r in ok),
        "cpu_s": statistics.median(r.cpu for r in ok),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "work_rate": statistics.median(r.units / r.wall for r in ok),
    }
    detail = {"runs": len(runs), "setup_runs": len(setup),
              "wall_s_all": [round(r.wall, 4) for r in runs],
              "cpu_s_all": [round(r.cpu, 4) for r in runs],
              "setup_s_all": [round(r.wall, 4) for r in setup],
              "work_units_per_run": ok[0].units, "work_unit": session.workload.work_unit,
              "digests": runs[0].digests}
    return metrics, setup + runs, detail


def measure_layers(case: Case, seconds: float) -> tuple[dict[str, float], list[Run], dict]:
    """Per-layer metrics from traced in-process runs, with the tracing overhead."""
    import nfgaps.cli  # noqa: F401 - import cost stays out of the timed runs

    session = Session(case)
    deadline = time.perf_counter() + seconds
    traces: list[tracer.Tracer] = []

    def pair() -> tuple[Run, Run]:
        trace = tracer.Tracer(run_id=f"{case.workload}/{case.seed}/{len(traces)}")
        traces.append(trace)
        # Alternate which side goes first, so heap state after a run favours neither.
        if len(traces) % 2:
            return session.in_process(None), session.in_process(trace)
        traced = session.in_process(trace)
        return session.in_process(None), traced

    pairs = _until(deadline, pair, min_runs=1)
    traced = [t for _, t in pairs if t.layers]
    metrics = {}
    if traced:
        for name in traced[0].layers:
            metrics[name] = statistics.median(r.layers[name] for r in traced)
        # Each traced run against the untraced run next to it, so host drift cancels.
        metrics["trace.overhead_s"] = statistics.median(
            t.layers["cli.run_s"] - p.wall for p, t in pairs if t.layers)
    spans_file = WORK / f"spans-{case.workload}-seed{case.seed}.json"
    spans_file.write_text(json.dumps([asdict(s) for t in traces for s in t.spans]) + "\n",
                          encoding="utf-8")
    detail = {"pairs": len(pairs), "spans": sum(len(t.spans) for t in traces),
              "spans_file": spans_file.relative_to(ROOT).as_posix()}
    return metrics, [run for pair_runs in pairs for run in pair_runs], detail


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(case: Case) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "git_commit": _git_commit(),
            "worker_threads": case.threads or 1, "workload_seed": case.seed}


def run_workload(name: str, seed: int, seconds: float, specs: list[dict],
                 trace: bool) -> tuple[dict, list[Run]]:
    case = WORKLOADS[name].case(seed)
    values, runs, detail = (measure_layers if trace else measure)(case, seconds)
    failed = sum(1 for r in runs if r.problems)
    if not failed:
        missing = [m["name"] for m in specs if m["name"] not in values]
        if missing:
            raise RuntimeError(f"benchmark produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in values}
    print(f"== {name} (seed {seed}, {'traced, in-process' if trace else 'processes'})")
    for metric, v in metrics.items():
        print(f"  {metric:34s} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'fail_ratio':34s} {failed / len(runs):>16.6g} ({failed}/{len(runs)} runs)")
    for problem in sorted({p for r in runs for p in r.problems}):
        print(f"  FAILED: {problem}")
    print(json.dumps({"workload": name, "environment": environment(case),
                      "inputs": case.inputs, **detail}, sort_keys=True))
    return metrics, runs


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nfgaps" / "cli.py").is_file():
        print(f"error: no nfgaps sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, runs = {}, []
    for name in names:
        got, done = run_workload(name, args.seed, args.seconds,
                                 spec["per_layer" if args.trace else "end_to_end"], bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        runs += done
    failed = sum(1 for r in runs if r.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
