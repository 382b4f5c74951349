"""Command-line surface: every module as a subcommand with reproducible
file outputs and a run manifest.

Exit codes: 0 success, 2 validation error (the violated precondition is
printed verbatim), 1 runtime failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .angles import angle_sequence, empirical_G, gap_per_point, normalized_gaps
from .errors import PreconditionError, _thread_count
from .experiments import (DEFAULT_GRID, LambdaGrid, composite_contrast, convergence_scan,
                          equidistribution_check, exponential_limit_scan, h_independence)
from .expsum import (BoxSpec, Interval, _check_windows, box_count, complete_sum,
                     incomplete_sum, neighbor_flip_tuple)
from .limitdist import classify_region, limit_density, limit_G
from .modcurve import CurvePointSet, _check_union, build_curve, build_nf_curve
from .omega import _check_quadrature, _check_volume, omega_volume, omega_volume_quadrature
from .output import manifest, write_csv, write_json

_OUT_ENV = "NFGAPS_OUT"


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
        if value and not float(value):  # every command also reads --t as a float
            raise OverflowError         # a nonzero value that underflows to 0
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number in the float "
                                         "range (use e.g. '2.76' or '69/25')") from None
    return value


def _grid(text: str) -> LambdaGrid:
    try:
        return LambdaGrid.from_spec(text)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _interval(text: str) -> Interval:
    try:
        lo, hi = (int(part) for part in text.split(":"))
        return Interval(lo=lo, hi=hi)
    except PreconditionError as exc:    # a ValueError too, so caught first
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"interval must look like 'lo:hi'; got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nfgaps",
        description="Inverse-pair modular curves and their angular gap statistics",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${_OUT_ENV} or ./nfgaps-out)")
        p.add_argument("--seed", type=int, default=42, help="64-bit RNG seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker thread cap (results do not depend on it)")

    p = sub.add_parser("curve", help="export a modular curve (or the union over shifts)")
    add_shared(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="shift (required unless --union)")
    p.add_argument("--raw", action="store_true",
                   help="raw representatives in [0, q-1] instead of centered")
    p.add_argument("--union", action="store_true",
                   help="export the raw curves for every shift h = 0..q-1")

    p = sub.add_parser("gaps", help="empirical gap distribution for one (q, h, t)")
    add_shared(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--t", type=_fraction, required=True,
                   help="observer parameter; decimals parse exactly")
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID, metavar="LO:HI:STEP")
    p.add_argument("--per-point", action="store_true",
                   help="also export per-point carried gaps (x,y,gap)")

    p = sub.add_parser("limit", help="closed-form limit distribution and density")
    add_shared(p)
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID, metavar="LO:HI:STEP")
    p.add_argument("--tile-t", type=_grid, default=None, metavar="LO:HI:STEP",
                   help="also export the region map on this t-grid")
    p.add_argument("--tile-lambda", type=_grid, default=None, metavar="LO:HI:STEP")

    p = sub.add_parser("omega", help="Monte Carlo / quadrature volume of the limit region")
    add_shared(p)
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--lambda", dest="lam", type=float, nargs="+", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--quadrature", action="store_true",
                   help="also run the deterministic quadrature (t >= 1/10)")

    p = sub.add_parser("expsum", help="character sums and box counts for inverse-pair tuples")
    add_shared(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--D", type=int, default=1)
    p.add_argument("--sum-a", type=int, default=None, help="linear coefficient a")
    p.add_argument("--sum-b", default=None,
                   help="comma-separated coefficients b1..bd for the maps")
    p.add_argument("--interval", type=_interval, default=None, metavar="LO:HI",
                   help="restrict the sum to this x-window (incomplete sum)")
    p.add_argument("--box", type=_interval, nargs="+", default=None, metavar="LO:HI",
                   help="x-window followed by one value-window per map")

    p = sub.add_parser("scan", help="orchestrated experiments")
    add_shared(p)
    p.add_argument("--kind", required=True, choices=list(_SCANS))
    p.add_argument("--t", type=_fraction, nargs="+", default=[Fraction("2.76")])
    p.add_argument("--h", type=int, nargs="+", default=[1])
    p.add_argument("--q", type=int, nargs="+", default=None,
                   help="moduli (primes where the kind requires them)")
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID, metavar="LO:HI:STEP")
    p.add_argument("--curves", action="store_true",
                   help="also export the raw empirical curves per cell")
    return top


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(_OUT_ENV) or "nfgaps-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _flag_value(value):
    if isinstance(value, list):
        return [_flag_value(v) for v in value]
    if isinstance(value, LambdaGrid):
        return f"{value.lo}:{value.hi}:{value.step}"
    if isinstance(value, Interval):
        return f"{value.lo}:{value.hi}"
    return str(value) if isinstance(value, (Fraction, Path)) else value


def _flags_dict(args: argparse.Namespace) -> dict:
    return {key: _flag_value(value) for key, value in sorted(vars(args).items())
            if key != "command"}


def _write_points(path: Path, ps: CurvePointSet) -> None:
    """Metadata block (q,h,centered) followed by one x,y row per point."""
    write_csv(path, ["q", "h", "centered"],
              [(ps.q, ps.h, "true" if ps.centered else "false"), ("x", "y")],
              (ps.x, ps.y))


def _write_csvs(out: Path, files: dict) -> list[str]:
    """Write each name -> (header, rows); callers build every file's rows
    first, so a validation error leaves no partial artifacts."""
    for name, (header, rows) in files.items():
        write_csv(out / name, header, rows)
    return list(files)


def _cmd_curve(args: argparse.Namespace, out: Path) -> list[str]:
    artifacts = []
    if args.union:
        if args.h is not None:
            raise PreconditionError("--h takes no value with --union, which exports every shift")
        _check_union(args.q)           # before any table or directory is made
        union_dir = out / f"union_q{args.q}"
        union_dir.mkdir(exist_ok=True)
        for h in range(args.q):        # one shift in memory at a time
            path = union_dir / f"h{h:04d}.csv"
            _write_points(path, build_nf_curve(args.q, h))
            artifacts.append(str(path.relative_to(out)))
        return artifacts
    if args.h is None:
        raise PreconditionError("--h is required unless --union is given")
    ps = build_nf_curve(args.q, args.h) if args.raw else build_curve(args.q, args.h)
    kind = "raw" if args.raw else "centered"
    base = f"curve_q{args.q}_h{args.h}_{kind}"
    _write_points(out / f"{base}.csv", ps)
    write_json(out / f"{base}.json", {"q": ps.q, "h": ps.h, "J": ps.J, "count": ps.count,
                                      "centered": ps.centered})
    return [f"{base}.csv", f"{base}.json"]


def _cmd_gaps(args: argparse.Namespace, out: Path) -> list[str]:
    ps = build_curve(args.q, args.h)
    seq = angle_sequence(ps, args.t)
    gaps = normalized_gaps(seq)
    summary = {"q": ps.q, "h": ps.h, "t": float(args.t), "J": ps.J, "n": seq.n,
               "alpha_min": seq.alpha_min, "alpha_max": seq.alpha_max,
               "delta_av": seq.delta_av}
    del seq                            # the angles: G sorts a copy of the gaps
    grid_values = args.grid.values()
    base = f"gaps_q{args.q}_h{args.h}"
    write_csv(out / f"{base}.csv", ["lambda", "G_emp"],
              (grid_values, empirical_G(gaps, grid_values)))
    write_json(out / f"{base}.json", summary)
    artifacts = [f"{base}.csv", f"{base}.json"]
    if args.per_point:
        del gaps                       # the per-point stage orders the curve again
        write_csv(out / f"{base}_points.csv", ["x", "y", "gap"], gap_per_point(ps, args.t))
        artifacts.append(f"{base}_points.csv")
    return artifacts


def _cmd_limit(args: argparse.Namespace, out: Path) -> list[str]:
    if (args.tile_t is None) != (args.tile_lambda is None):
        raise PreconditionError("--tile-t and --tile-lambda must be given together")
    if args.tile_t is not None and not args.tile_t.lo >= 1.0:
        raise PreconditionError(f"no closed form for t < 1 (--tile-t); got {args.tile_t.lo}")
    t = float(args.t)
    rows = [(lam, limit_G(t, lam), limit_density(t, lam), classify_region(t, lam).value)
            for lam in args.grid.values()]
    files = {f"limit_t{t:g}.csv": (["lambda", "G_limit", "g_limit", "region"], rows)}
    if args.tile_t is not None:
        lam_values = args.tile_lambda.values()
        files["tiles.csv"] = ["t", "lambda", "region"], [
            (tt, lam, classify_region(tt, lam).value)
            for tt in args.tile_t.values() for lam in lam_values]
    return _write_csvs(out, files)


def _cmd_omega(args: argparse.Namespace, out: Path) -> list[str]:
    """Rows t,lambda,D,samples,seed,estimate,std_error; quadrature rows carry
    samples=0, seed=0, std_error=0."""
    for lam in args.lam:       # every precondition holds before the first sample or node
        spec, _ = _check_volume(args.t, lam, args.samples, args.seed)
        if args.quadrature:
            _check_quadrature(spec.t)
    rows = []
    for lam in args.lam:
        est = omega_volume(args.t, lam, args.samples, args.seed, threads=args.threads)
        rows.append((est.t, est.lam, est.D, est.samples, est.seed, est.estimate,
                     est.std_error))
        if args.quadrature:
            value = omega_volume_quadrature(est.t, est.lam)
            rows.append((est.t, est.lam, est.D, 0, 0, value, 0))
    write_csv(out / "omega.csv", ["t", "lambda", "D", "samples", "seed", "estimate",
                                  "std_error"], rows)
    return ["omega.csv"]


def _cmd_expsum(args: argparse.Namespace, out: Path) -> list[str]:
    tup = neighbor_flip_tuple(args.p, args.h, args.D)
    if args.sum_b is None and args.box is None:
        raise PreconditionError("expsum needs --sum-b and/or --box")
    for flag, value in (("--sum-a", args.sum_a), ("--interval", args.interval)):
        if args.sum_b is None and value is not None:
            raise PreconditionError(f"{flag} applies to the sum, which needs --sum-b")
    if args.box is not None and len(args.box) != tup.d + 1:
        raise PreconditionError(
            f"--box needs 1 x-window plus {tup.d} value windows; got {len(args.box)}"
        )
    if args.sum_b is not None:
        try:
            b = [int(part) for part in args.sum_b.split(",")]
        except ValueError:
            raise PreconditionError(
                f"--sum-b must be comma-separated integers; got {args.sum_b!r}") from None
    _check_windows(tup.p, *filter(None, [args.interval, *(args.box or ())]))
    files = {}
    if args.sum_b is not None:
        a = args.sum_a or 0
        if args.interval is not None:
            value = incomplete_sum(tup, a, b, args.interval, args.threads)
            bound = 8 * tup.d * math.sqrt(tup.p) * math.log(tup.p)
        else:
            value = complete_sum(tup, a, b, args.threads)
            bound = 4 * tup.d * math.sqrt(tup.p)
        header = ["p", "d", "a", *(f"b{k + 1}" for k in range(len(b))), "re", "im",
                  "bound_ratio"]
        files["sums.csv"] = header, [(tup.p, tup.d, a, *b, value.real, value.imag,
                                      abs(value) / bound)]
    if args.box is not None:
        spec = BoxSpec(x_window=args.box[0], value_windows=tuple(args.box[1:]))
        r = box_count(tup, spec, args.threads)
        files["boxes.csv"] = (["p", "d", "count", "main_term", "normalized_error"],
                              [(r.p, r.d, r.count, r.main_term, r.normalized_error)])
    return _write_csvs(out, files)


def _equidistribution(args: argparse.Namespace, config: dict) -> tuple[list, dict]:
    config["ks_statistic"] = equidistribution_check(args.q[0], args.h[0], args.t[0])
    return [], {}


# kind -> (the one flag it reads as a list, what --q names, run(args, config) -> (cells, curves))
_SCANS = {
    "convergence": ("q", "prime moduli",
                    lambda a, _: convergence_scan(a.t[0], a.h[0], a.q, a.grid)),
    "h-independence": ("h", "one prime",
                       lambda a, _: h_independence(a.t[0], a.q[0], a.h, a.grid)),
    "composite": ("q", "modulus range",
                  lambda a, _: composite_contrast(a.q, a.t[0], a.h[0], a.grid)),
    "equidistribution": (None, "one prime", _equidistribution),
    "exponential": ("t", "one prime",
                    lambda a, _: exponential_limit_scan(a.q[0], a.h[0], a.t, a.grid)),
}


def _cmd_scan(args: argparse.Namespace, out: Path) -> list[str]:
    list_flag, what, scan = _SCANS[args.kind]
    config = _flags_dict(args)
    if not args.q:
        raise PreconditionError(f"--q ({what}) is required for {args.kind} scans")
    for flag in ("q", "h", "t"):
        values = getattr(args, flag)
        if flag != list_flag and len(values) > 1:
            raise PreconditionError(
                f"--{flag} takes one value for {args.kind} scans; got {len(values)}")
    ts = set(args.t)                   # curve files are named by (q, h, t): only t can collide
    if args.curves and len({f"{float(t):g}" for t in ts}) < len(ts):
        raise PreconditionError("--t values must differ in their first 6 significant digits "
                                "with --curves, which names each curve file by t")
    cells, curves = scan(args, config)
    lams = args.grid.values()
    files = {f"curve_q{q}_h{h}_t{float(t):g}.csv": (["lambda", "G_emp"], (lams, curve))
             for (q, h, t), curve in (curves.items() if args.curves else ())}
    write_json(out / "report.json", {"config": config, "cells": cells}, indent=2)
    return ["report.json", *_write_csvs(out, files)]


_HANDLERS = {
    "curve": _cmd_curve,
    "gaps": _cmd_gaps,
    "limit": _cmd_limit,
    "omega": _cmd_omega,
    "expsum": _cmd_expsum,
    "scan": _cmd_scan,
}


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # usage errors (status 2), --help and --version
        return exc.code
    try:
        _thread_count(args.threads)    # every command rejects --threads below 1 up front
        out = _out_dir(args)
        artifacts = _HANDLERS[args.command](args, out)
        write_json(out / "manifest.json", manifest(args.command, _flags_dict(args), args.seed,
                                                   __version__, artifacts), indent=2)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    for artifact in artifacts:
        print(Path(out) / artifact)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
