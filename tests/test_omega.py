import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfgaps import (OmegaSpec, PreconditionError, interference_order, limit_G, omega,
                    omega_volume, omega_volume_quadrature)
from nfgaps.cli import run
from nfgaps.omega import _BLOCK, _count_chunk

from conftest import counter_uniforms, omega_contains, omega_rows, region_volume_G


class TestInterferenceOrder:
    @pytest.mark.parametrize("t,D", [(2.76, 1), (22.0, 1), (2.2, 1), (2.0, 2),
                                     (1.45, 2), (1.12, 2), (1.0, 3), (0.9, 3)])
    def test_values(self, t, D):
        assert interference_order(t) == D

    def test_exact_boundaries(self):
        # t = 2/(D-1) belongs to the larger D
        assert interference_order(Fraction(2)) == 2
        assert interference_order(Fraction(1)) == 3
        assert interference_order(Fraction(2, 3)) == 4
        assert interference_order(Fraction(1, 9)) == 19

    def test_positive_required(self):
        with pytest.raises(PreconditionError):
            interference_order(0)
        # a subnormal t overflows 2/t
        with pytest.raises(PreconditionError, match="--t"):
            interference_order(1e-310)

    @pytest.mark.parametrize("t, D", [(1e-5, 200001), (2e-5, 100001),
                                      (4e-5, 50001), (8e-5, 25001)],
                             ids=["1e-05", "2e-05", "4e-05", "8e-05"])
    def test_float_rounding_onto_boundary(self, t, D):
        # fl(2/t) lands just below the integer 2/t, yet fl(2/D) equals t:
        # the float order is the larger D, like the decimal's exact order.
        assert OmegaSpec(t, 1.0).D == D

    def test_exact_path_unchanged(self):
        # a Fraction takes the float order of float(t), like any other t
        assert interference_order(Fraction(1, 10)) == 21
        assert interference_order(Fraction(1, 20)) == 41
        assert OmegaSpec(Fraction(1, 20), 0.5).D == 41

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(1e-6, 3.2))
    @example(t=1e-5)
    @example(t=float(Fraction(2, 93)))
    def test_for_t_accepts_every_float(self, t):
        spec = OmegaSpec(t, 0.5)
        assert 2.0 / spec.D < t and (spec.D == 1 or t <= 2.0 / (spec.D - 1))


class TestOmegaSpec:
    def test_validates_range(self):
        # D is derived from t, never given
        assert OmegaSpec(2.76, 0.5).D == 1
        assert OmegaSpec(2.0, 0.5).D == 2
        with pytest.raises(TypeError):
            OmegaSpec(t=2.76, lam=0.5, D=2)

    def test_dims(self):
        assert OmegaSpec(1.45, 0.5).dims == 5
        assert OmegaSpec(1.45, 0.5).rows.tolist() == [-1, 1, 2]

    def test_rows_past_d(self):
        # for t <= 2 row j > D stays while j < lam + 2/t: row 3 enters at
        # t = 1.45 once lam > 3 - 2/t ~ 1.62
        assert OmegaSpec(1.45, 1.5).rows.tolist() == [-1, 1, 2]
        assert OmegaSpec(1.45, 2.0).rows.tolist() == [-1, 1, 2, 3]
        assert OmegaSpec(1.45, 2.0).dims == 6
        assert OmegaSpec(0.5, 3.5).rows.tolist() == [j for j in range(-4, 8) if j != 0]
        # t > 2: rows past j = 1 are redundant and never added
        assert OmegaSpec(2.76, 1.5).rows.tolist() == [1]
        # past lam = 1 + 2/t the region is already empty; rows stop there
        assert OmegaSpec(1.45, 1e9).rows.tolist() == OmegaSpec(1.45, 2.38).rows.tolist()

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(1e-3, 3.2), lam=st.floats(0.0, 6.0))
    @example(t=2.0, lam=6.0)
    @example(t=1.45, lam=3.0 - 2.0 / 1.45)
    def test_rows_match_oracle(self, t, lam):
        # the rows omega_contains reads, written from the module docstring
        spec = OmegaSpec(t, lam)
        assert spec.rows.tolist() == [j for j in omega_rows(t, lam, interference_order(t)) if j != 0]

    def test_row_cap(self, tmp_path):
        # t = 1e-8 asks for 4e8 rows; the cap refuses it before building any,
        # so the run stays far inside a 2 GiB address space
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "from nfgaps.cli import run; "
                "sys.exit(run(['omega', '--t', '1e-8', '--lambda', '1', "
                "'--samples', '10000', '--out', sys.argv[1]]))")
        env = {**os.environ, "PYTHONPATH": str(Path(omega.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "--t" in proc.stderr


class TestMembership:
    def test_zero_lambda_degenerate_interval(self):
        assert omega_contains(0.3, [0.1, 0.4], t=3.0, lam=0.0, D=1)

    def test_outside_interval_is_member(self):
        # forbidden window for y_1 is [1.5, 3]; 0.4 avoids it
        assert omega_contains(0.25, [0.0, 0.4], t=3.0, lam=0.5, D=1)

    def test_inside_interval_is_not_member(self):
        # forbidden window for y_1 is [0, 0.5]; 0.25 lands in it
        assert not omega_contains(0.5, [-0.5, 0.25], t=2.0, lam=0.5, D=1)

    def test_exact_zero_length_interval_hit(self):
        # at lam = 0 the forbidden window for y_1 is the single point
        # y_0 + t/(4x); landing exactly on it breaks membership
        assert not omega_contains(0.5, [0.3, -0.5, 0.1, 0.4], t=1.2, lam=0.0, D=2)
        assert omega_contains(0.5, [0.3, -0.5, 0.1001, 0.4], t=1.2, lam=0.0, D=2)

    def test_coordinate_validation(self):
        with pytest.raises(PreconditionError):
            omega_contains(0.7, [0.0, 0.0], t=3.0, lam=0.5, D=1)
        with pytest.raises(PreconditionError):
            omega_contains(0.2, [0.0, 0.8], t=3.0, lam=0.5, D=1)
        with pytest.raises(PreconditionError):
            omega_contains(0.2, [0.0, 0.0, 0.0], t=3.0, lam=0.5, D=1)

    def test_rejected_by_row_three_alone(self):
        # t = 1.45, lam = 2, x = 1/2, y_0 = -0.4: the windows of rows -1, 1, 2
        # miss y = 0.0, 0.45, -0.45, while row 3 forbids [0.325, 0.5]
        ys = [0.0, -0.4, 0.45, -0.45]
        assert omega_contains(0.5, ys + [0.2], t=1.45, lam=2.0, D=2)
        assert not omega_contains(0.5, ys + [0.4], t=1.45, lam=2.0, D=2)
        with pytest.raises(PreconditionError):
            omega_contains(0.5, ys, t=1.45, lam=2.0, D=2)

    def test_x_zero_slice(self):
        # with x = 0 the constraint (j-lam) t <= 0 <= j t triggers iff lam >= j
        assert omega_contains(0.0, [0.2, -0.3], t=3.0, lam=0.5, D=1)
        assert not omega_contains(0.0, [0.2, -0.3], t=3.0, lam=1.5, D=1)


class TestCounterStream:
    def test_partition_invariance(self):
        full = counter_uniforms(42, 0, 1000, 5)
        head = counter_uniforms(42, 0, 400, 5)
        tail = counter_uniforms(42, 400, 600, 5)
        assert np.array_equal(full, np.concatenate([head, tail], axis=1))

    def test_seed_sensitivity_and_range(self):
        a = counter_uniforms(1, 0, 1000, 3)
        b = counter_uniforms(2, 0, 1000, 3)
        assert not np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a < 1.0))

    def test_moments(self):
        u = counter_uniforms(7, 0, 200_000, 3)
        assert np.abs(u.mean(axis=1) - 0.5).max() < 0.005
        assert np.abs(u.var(axis=1) - 1 / 12).max() < 0.002

    def test_seed_validation(self, monkeypatch):
        # checked once, before the region is built and any stream is drawn
        monkeypatch.setattr(omega, "OmegaSpec", None)
        for seed in (-1, 2 ** 64):
            with pytest.raises(PreconditionError, match="--seed"):
                omega_volume(2.76, 1.0, 10 ** 4, seed=seed)

    @pytest.mark.parametrize("args, digest", [
        ((42, 0, 1000, 5), "b34570c1e9cf1538e456b74810d85880ee1ed8945c6e5551827cf909833e0f3b"),
        ((7, 123457, 3000, 43),
         "6033f375ac676b75c408896c94a99fd8a79ca9dfe241af7354d7daf630c200cd"),
    ])
    def test_pinned_stream(self, args, digest):
        # sha256 of the stream as first released; any change to it moves
        # every Monte Carlo artifact
        assert hashlib.sha256(counter_uniforms(*args).tobytes()).hexdigest() == digest


class TestStreamedCount:
    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.02, 4.0), lam=st.floats(0.0, 6.0),
           seed=st.integers(0, 2 ** 64 - 1), block=st.integers(0, 3),
           offset=st.integers(-800, 800), count=st.integers(1, 1600))
    @example(t=1.45, lam=2.0, seed=42, block=1, offset=-700, count=1500)
    @example(t=0.1, lam=1.0, seed=42, block=1, offset=-700, count=1500)
    @example(t=0.05, lam=0.0, seed=3, block=0, offset=0, count=400)       # no rows hold 0
    @example(t=0.1, lam=2.0, seed=5, block=0, offset=0, count=600)        # row 2 has lo = 0
    @example(t=0.7, lam=5.0, seed=1, block=0, offset=0, count=300)        # rows 1..5 empty it
    @example(t=0.1, lam=25.0, seed=1, block=0, offset=0, count=300)       # a side sorts none
    @example(t=2 / 3, lam=1.0, seed=9, block=0, offset=0, count=800)
    @example(t=0.05, lam=0.57, seed=7, block=2, offset=-250, count=500)   # across a block edge
    @example(t=0.7, lam=3.5, seed=42, block=1, offset=38966, count=1200)  # one accept, late
    def test_matches_per_point_reference(self, t, lam, seed, block, offset, count):
        # the streamed count equals the count of counter_uniforms points that
        # omega_contains accepts, across block edges and rows past D; at small
        # t each side of 0 sorts its live samples and rows skip unreachable ones
        spec = OmegaSpec(t, lam)
        start = max(0, block * _BLOCK + offset)
        u = counter_uniforms(seed, start, count, spec.dims)
        expected = sum(omega_contains(0.5 * (1.0 - u[0, k]), u[1:, k] - 0.5,
                                      spec.t, spec.lam, spec.D) for k in range(count))
        assert _count_chunk(spec, seed, start, count) == expected

    @pytest.mark.parametrize("t, lam, most", [(0.1, 1.0, 11.0), (2.76, 0.8, 3.0),
                                              (0.1, 25.0, 16.0)])
    def test_uniforms_drawn_per_sample(self, t, lam, most, monkeypatch):
        # one reach key per side of 0 draws 10.5 uniforms per sample at
        # (0.1, 1), 17.0 with the single key 1/2 + |y_0|; a shallow region
        # draws x, y_0 and its one row for every sample and nothing more.
        # At (0.1, 25) the 25 rows holding 0 empty the region: a block stops
        # once they have rejected all of it, after 12-14 rows (27.0 per
        # sample when every such row and both sides ran)
        drawn = []
        fill = omega._SlotStream.fill

        def counting(stream, slot, out, start=0):
            drawn.append(len(out))
            fill(stream, slot, out, start)

        monkeypatch.setattr(omega._SlotStream, "fill", counting)
        accepted = omega_volume(t, lam, 2 ** 20, seed=42, threads=1).accepted
        assert sum(drawn) <= most * 2 ** 20
        assert (accepted == 0) == (lam >= 1 + 2 / t)     # rows -D+1..D empty the region

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_count_omega_deep(self, threads):
        # the benchmark's omega-deep command at seed 0; the count predates
        # the sorted blocks, which must not move it
        assert omega_volume(0.1, 1.0, 4194304, seed=42, threads=threads).accepted == 1684982

    def test_pinned_count_small_t(self):
        assert omega_volume(0.02, 0.57, 2 ** 20, seed=7).accepted == 608183

    def test_memory_flat_in_d(self):
        # D = 21: holding all 43 slots of one 2**20-sample chunk would take 344 MiB
        tracemalloc.start()
        try:
            omega_volume(0.1, 1.0, 2 ** 20, seed=3, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestVolume:
    def test_trivial_full_and_empty(self):
        full = omega_volume(3.0, 0.0, 100_000, seed=42)
        assert full.estimate == 1.0 and full.std_error == 0.0
        empty = omega_volume(3.0, 3.0, 100_000, seed=42)
        assert empty.estimate == 0.0

    def test_matches_closed_form_d1(self):
        est = omega_volume(2.76, 0.8, 10 ** 7, seed=42)
        assert abs(est.estimate - limit_G(2.76, 0.8)) <= 3 * est.std_error

    def test_matches_closed_form_d2_grid(self):
        for t in (1.45, 1.12):
            for lam in (0.25, 0.75, 1.25, 1.75, 2.25):
                est = omega_volume(t, lam, 10 ** 6, seed=42)
                tol = max(3 * est.std_error, 1e-9)
                assert abs(est.estimate - limit_G(t, lam)) <= tol, (t, lam)

    def test_matches_region_oracle_past_d(self):
        # cells where a row beyond D cuts the region: without it the estimate
        # at (1.12, 2.25) sits more than 5 standard errors high
        for t, lam in ((1.12, 2.25), (0.5, 3.5)):
            est = omega_volume(t, lam, 4 * 10 ** 6, seed=42)
            assert abs(est.estimate - region_volume_G(t, lam)) <= 3 * est.std_error, (t, lam)

    def test_boundary_coherence_at_two(self):
        # D = 2 sampling at t = 2 agrees with the interference-free formula
        for lam in (0.5, 1.5):
            est = omega_volume(2.0, lam, 10 ** 6, seed=42)
            assert abs(est.estimate - limit_G(2.0, lam)) <= 3 * est.std_error

    def test_thread_count_is_irrelevant(self):
        runs = [omega_volume(1.45, 1.2, 10 ** 6, seed=9, threads=k) for k in (1, 2, 8)]
        assert len({r.accepted for r in runs}) == 1
        assert len({r.estimate for r in runs}) == 1

    def test_windows_built_once(self, monkeypatch):
        calls = []
        windows = omega._windows
        monkeypatch.setattr(omega, "_windows", lambda *a: calls.append(a) or windows(*a))
        omega_volume(2.76, 0.8, 3 << 20, seed=1, threads=2)
        assert len(calls) == 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_validated(self, threads, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr("nfgaps.omega.ThreadPoolExecutor", no_pool)
        with pytest.raises(PreconditionError, match="threads"):
            omega_volume(2.76, 0.8, 3 << 20, seed=1, threads=threads)

    def test_sample_count_bound(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr("nfgaps.omega.ThreadPoolExecutor", no_pool)
        # t = 2.76 draws 3 coordinates per sample; 3 * (2**64 // 3) = 2**64 - 1
        with pytest.raises(AssertionError, match="thread pool"):
            omega_volume(2.76, 0.8, 2 ** 64 // 3, seed=1)
        with pytest.raises(PreconditionError, match="--samples"):
            omega_volume(2.76, 0.8, 2 ** 64 // 3 + 1, seed=1)

    def test_one_job_per_thread(self, monkeypatch):
        submits = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr("nfgaps.omega.ThreadPoolExecutor", CountingPool)
        samples = (2 << 20) + 12345          # three chunks, the last one partial
        whole = _count_chunk(OmegaSpec(2.76, 0.8), 1, 0, samples)
        for threads in (1, 2, 4):
            submits.clear()
            assert omega_volume(2.76, 0.8, samples, seed=1, threads=threads).accepted == whole
            assert len(submits) == min(threads, 3)

    def test_monotone_in_lambda(self):
        lams = [0.2, 0.6, 1.0, 1.4, 1.8]
        ests = [omega_volume(1.45, lam, 200_000, seed=3) for lam in lams]
        for a, b in zip(ests, ests[1:]):
            assert b.estimate <= a.estimate + 4 * (a.std_error + b.std_error)

    def test_nesting_of_acceptance(self):
        # any sample accepted at lam2 is accepted at lam1 < lam2
        u = counter_uniforms(11, 0, 2000, 5)
        for k in range(2000):
            x = 0.5 * (1.0 - u[0, k])
            ys = [u[s, k] - 0.5 for s in range(1, 5)]
            if omega_contains(x, ys, 1.45, 1.3, 2):
                assert omega_contains(x, ys, 1.45, 0.6, 2)

    def test_small_t_supported(self):
        # t = 1/2 = 2/4 sits on a boundary, which belongs to the larger D
        est = omega_volume(Fraction(1, 2), 1.0, 100_000, seed=5)
        assert est.D == 5 and 0.0 < est.estimate < 1.0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            omega_volume(2.76, 0.5, 100, seed=1)
        with pytest.raises(PreconditionError):
            omega_volume(2.76, 0.5, 10 ** 5, seed=-3)
        with pytest.raises(PreconditionError):
            omega_volume(2.76, -0.5, 10 ** 5, seed=1)

    def test_nan_rejected(self):
        for t in (2.76, 1.45):
            with pytest.raises(PreconditionError, match="--lambda"):
                omega_volume(t, math.nan, 10 ** 5, seed=1)
        with pytest.raises(PreconditionError, match="--lambda"):
            omega_contains(0.25, [0.0, 0.4], t=3.0, lam=math.nan, D=1)
        with pytest.raises(PreconditionError, match="--lambda"):
            omega_volume_quadrature(2.76, math.nan)
        for t in (2.76, 1.45):           # lambda = inf would reach the manifest as Infinity
            with pytest.raises(PreconditionError, match="--lambda"):
                OmegaSpec(t, math.inf).rows
            with pytest.raises(PreconditionError, match="--lambda"):
                omega_volume(t, math.inf, 10 ** 5, seed=1)
        with pytest.raises(PreconditionError, match="--lambda"):
            omega_volume_quadrature(2.76, math.inf)
        with pytest.raises(PreconditionError):
            interference_order(math.nan)
        with pytest.raises(PreconditionError):
            omega_contains(0.25, [0.0, 0.4], t=math.nan, lam=0.5, D=1)


class TestQuadrature:
    def test_full_volume(self):
        assert omega_volume_quadrature(3.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        for t, lam in ((2.76, 0.8), (4.0, 1.4), (22.0, 1.05), (2.2, 0.3)):
            assert abs(omega_volume_quadrature(t, lam) - limit_G(t, lam)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(1.0, 30.0), lam=st.floats(0.0, 4.0))
    @example(t=1.45, lam=1.2)        # tile H5, with its pole
    @example(t=1.12, lam=2.25)       # row 3, past D, cuts the region
    @example(t=2.76, lam=1.0001)     # an x cut just above 0
    def test_matches_closed_form_property(self, t, lam):
        assert abs(omega_volume_quadrature(t, lam) - limit_G(t, lam)) <= 1e-12

    @pytest.mark.parametrize("t, lam", [(0.9, 0.3), (0.7, 1.3), (0.5, 3.5), (0.1, 1.0)])
    def test_matches_region_oracle_below_one(self, t, lam):
        assert abs(omega_volume_quadrature(t, lam) - region_volume_G(t, lam)) <= 1e-12

    @pytest.mark.parametrize("t, lam", [(0.45, 1.0), (1.45, 2.0), (0.3, 0.57)])
    def test_rows_are_the_one_description(self, t, lam, monkeypatch):
        # a region with rows 1, 2, 3 removed from OmegaSpec.rows alone: both
        # evaluators follow it to the oracle's region with the same rows dropped
        full = omega_volume_quadrature(t, lam)
        unmasked = OmegaSpec.rows.func
        monkeypatch.setattr(OmegaSpec, "rows",
                            property(lambda spec: np.setdiff1d(unmasked(spec), (1, 2, 3))))
        masked = omega_volume_quadrature(t, lam)
        assert abs(masked - region_volume_G(t, lam, drop=(1, 2, 3))) <= 1e-12
        assert abs(masked - full) > 0.1          # the mask changes the region
        est = omega_volume(t, lam, 1 << 20, seed=42)
        assert abs(est.estimate - masked) <= 6 * est.std_error

    def test_matches_monte_carlo(self):
        for t in (0.5, 1.45, 2.2, 2.76, 5.0, 22.0):
            lam = 0.9
            est = omega_volume(t, lam, 10 ** 6, seed=42)
            tol = max(3 * est.std_error, 1e-9)
            assert abs(est.estimate - omega_volume_quadrature(t, lam)) <= tol

    @pytest.mark.parametrize("t", [2.76, 1.45, 0.5])
    @pytest.mark.parametrize("lam", [1e308, sys.float_info.max])
    def test_lambda_near_float_max_is_empty_and_quiet(self, t, lam):
        # (j - lam) t can overflow to a -inf window end; the region is empty
        # for lam >= 1 + 2/t, and no RuntimeWarning may escape on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert omega_volume(t, lam, 10_000, seed=1).accepted == 0
            assert omega_volume_quadrature(t, lam) == 0.0

    def test_t_outside_domain_rejected(self):
        # the domain is finite t >= 1/10, below which Monte Carlo is cheaper
        for t in (0.0, -1.0, math.nan, 0.09, math.inf):
            with pytest.raises(PreconditionError, match="--t"):
                omega_volume_quadrature(t, 0.5)


class TestExport:
    def test_csv_schema(self, tmp_path):
        est = omega_volume(2.76, 0.8, 10 ** 5, seed=42)
        assert run(["omega", "--t", "2.76", "--lambda", "0.8", "--samples", "100000",
                    "--seed", "42", "--quadrature", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "omega.csv").read_text().splitlines()
        assert lines[0] == "t,lambda,D,samples,seed,estimate,std_error"
        assert len(lines) == 3
        assert float(lines[1].split(",")[5]) == est.estimate
        assert lines[2].split(",")[3] == "0"  # quadrature rows carry samples=0

    def test_boundary_decimal_takes_float_order(self, tmp_path):
        # the decimal lies just above 2/3 but rounds onto fl(2/3), whose order is 4
        assert run(["omega", "--t", "0.66666666666666666667", "--lambda", "1",
                    "--samples", "10000", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "omega.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "0.66666666666666663" and row[2] == "4"
