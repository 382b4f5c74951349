"""Self-tests of the benchmark harness: `python3 -m pytest perfbench -q`."""
from __future__ import annotations

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from math import gcd

import pytest

import run
import tracer
from workloads import WORKLOADS, artifact_digests, curve_size, digest_problems

sys.path.insert(0, str(run.SRC))

from nfgaps import cli  # noqa: E402
from nfgaps.modcurve import is_prime  # noqa: E402


def _cli(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_span_count_equals_call_count(in_tmp):
    names = {fn.__code__: name for name, _, fn in tracer.layer_functions()
             if hasattr(fn, "__code__")}
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    trace = tracer.Tracer("test")
    with trace.installed():
        sys.setprofile(count)
        try:
            _cli(["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--per-point", "--out", "out"])
        finally:
            sys.setprofile(None)
    spans = Counter(s.name for s in trace.spans)
    assert spans == calls
    assert spans["angles.angle_sequence"] == 2
    assert sum(n for name, n in spans.items() if ".write_" in name) == 4


def test_omega_worker_spans_have_omega_volume_as_parent(in_tmp):
    trace = tracer.Tracer("test")
    with trace.installed():
        _cli(["omega", "--t", "2.76", "--lambda", "1.0", "--samples", str(3 << 20),
              "--threads", "2", "--out", "out"])
    (volume,) = [s for s in trace.spans if s.name == "omega.omega_volume"]
    workers = [s for s in trace.spans if s.name == "omega._count_chunk"]
    assert len(workers) == 3
    assert all(w.parent == volume.id for w in workers)
    assert 0.0 <= tracer.self_times(trace.spans)[volume.id] < volume.duration


def test_corrupted_artifact_trips_digest_check(in_tmp):
    _cli(["gaps", "--q", "101", "--h", "1", "--t", "2.76", "--out", "out"])
    out = in_tmp / "out"
    want = artifact_digests(out)

    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["started"] = "another time"
    manifest.write_text(json.dumps(payload))
    assert digest_problems(artifact_digests(out), want) == []

    artifact = out / "gaps_q101_h1.csv"
    data = bytearray(artifact.read_bytes())
    data[-2] ^= 1
    artifact.write_bytes(bytes(data))
    assert digest_problems(artifact_digests(out), want) == ["digest mismatch in gaps_q101_h1.csv"]


def test_seeded_inputs_use_prime_moduli():
    for seed in range(300):
        gaps = WORKLOADS["gaps-3e5"].case(seed)
        expsum = WORKLOADS["expsum-2e6"].case(seed)
        assert is_prime(gaps.inputs["q"]) and 300001 <= gaps.inputs["q"] < 304000, seed
        assert is_prime(expsum.inputs["p"]) and 2000000 <= expsum.inputs["p"] < 2011000, seed
        assert gaps == WORKLOADS["gaps-3e5"].case(seed)


def test_curve_size_matches_brute_force():
    for q in range(3, 400, 2):
        want = sum(1 for n in range(q) if gcd(n, q) == 1 and gcd(n + 2, q) == 1)
        assert curve_size(q, 2) == want, q


def test_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(300 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # make the pages resident
    result = run.spawn(["--version"], tmp_path)
    assert not result.problems
    assert result.rss_mb < 200, result.rss_mb
    del ballast
