"""Outside-in layer tracing for in-process `nfgaps.cli.run` calls.

Each public function of a layer module is wrapped once, and that single
wrapper is installed at every module attribute bound to the original
object, so a function imported under several names (or two functions that
share a name, like `experiments.write_curve_csv` and
`limitdist.write_curve_csv`) yields exactly one span per call.  The
current span travels in a context variable; `omega`'s thread pool is
swapped for one that runs each job in a copy of the submitter's context,
so worker spans keep `omega_volume` as their parent.  Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "experiments", "modcurve", "angles", "limitdist", "omega", "expsum", "output")

# Private functions traced as well: the omega worker job, so rng time and
# predicate time can be told apart per thread.
EXTRA = {"omega": ("_count_chunk",)}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextThreadPool(ThreadPoolExecutor):
    """Thread pool whose jobs run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _curve_attrs(result) -> dict:
    return {"q": result.q, "h": result.h, "centered": result.centered,
            "points": len(result.points)}


def _volume_attrs(result) -> dict:
    return {"samples": result.samples, "D": result.D}


# Attributes recorded from return values, keyed by span name.
_NOTES = {"modcurve.build_curve": _curve_attrs, "modcurve.build_nf_curve": _curve_attrs,
          "omega.omega_volume": _volume_attrs}


class Tracer:
    """Collects spans for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "nfgaps_span", default=None)

    def wrap(self, fn, name: str, layer: str):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._current.get()
            token = self._current.set(span_id)
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs = note(result)
                return result
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self.spans.append(Span(span_id, name, layer, start, end, parent,
                                       threading.get_ident(), self.run_id, attrs))

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers into every nfgaps module; restore on exit."""
        wrappers = {id(fn): self.wrap(fn, name, layer) for name, layer, fn in layer_functions()}
        patched = []
        for mod in [importlib.import_module("nfgaps"), *_modules()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        omega = importlib.import_module("nfgaps.omega")
        patched.append((omega, "ThreadPoolExecutor", omega.ThreadPoolExecutor))
        omega.ThreadPoolExecutor = _ContextThreadPool
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)


def _modules():
    return [importlib.import_module(f"nfgaps.{name}") for name in LAYERS]


def layer_functions():
    """(span name, layer, function) for every function the tracer wraps."""
    for name, mod in zip(LAYERS, _modules()):
        for attr, obj in vars(mod).items():
            if _is_layer_function(mod, attr, obj, name):
                yield f"{name}.{attr}", ("output" if attr.startswith("write_") else name), obj


def _is_layer_function(mod, attr: str, obj, layer: str) -> bool:
    if isinstance(obj, type) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    if layer == "output":
        # fmt_float runs once per CSV cell; it is part of its caller's write.
        return attr.startswith("write_")
    return not attr.startswith("_") or attr in EXTRA.get(layer, ())


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, []), s.start, s.end) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics that follow from the spans of one traced run."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    layer_of = {s.id: s.layer for s in spans}
    own = self_times(spans)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(group):
        return sum(s.duration for s in group)

    def self_total(group):
        return sum(own[s.id] for s in group)

    def entries(layer):
        return [s for s in spans if s.layer == layer and layer_of.get(s.parent) != layer]

    (root,) = named("cli.run")
    builds = named("modcurve.build_curve", "modcurve.build_nf_curve")
    curves = {(s.attrs["q"], s.attrs["h"], s.attrs["centered"]) for s in builds}
    orders = named("angles.angle_sequence")
    volumes = named("omega.omega_volume")
    samples = sum(s.attrs["samples"] for s in volumes)
    return {
        "cli.run_s": root.duration,
        "cli.self_s": own[root.id],
        "modcurve.build_s": total(builds),
        "modcurve.calls": len(builds),
        "modcurve.points": sum(s.attrs["points"] for s in builds),
        "angles.order_s": total(orders),
        "angles.order_calls": len(orders),
        "angles.order_calls_per_curve": len(orders) / len(curves) if curves else 0.0,
        "angles.gaps_s": total(named("angles.normalized_gaps", "angles.empirical_G")),
        "angles.per_point_s": self_total(named("angles.gap_per_point")),
        "experiments.curve_calls": len(named("experiments.empirical_gap_curve")),
        "experiments.self_s": self_total(s for s in spans if s.layer == "experiments"),
        "limitdist.limit_calls": len(named("limitdist.limit_G")),
        "limitdist.limit_s": total(entries("limitdist")),
        "omega.volume_s": total(volumes),
        "omega.rng_busy_s": total(named("omega.counter_uniforms")),
        "omega.threads_seen": len({s.thread for s in named("omega._count_chunk")}),
        "omega.samples_per_s": samples / total(volumes) if volumes else 0.0,
        # Computed, not measured: 8 bytes per uniform, 2D+1 slots per sample.
        "omega.rng_bytes": sum(8 * (2 * s.attrs["D"] + 1) * s.attrs["samples"] for s in volumes),
        "expsum.inverse_table_s": total(named("expsum.inverse_table")),
        # Self time: phase accumulation and box counting without the inverse table.
        "expsum.sum_s": self_total(named("expsum.complete_sum", "expsum.incomplete_sum")),
        "expsum.box_s": self_total(named("expsum.box_count")),
        "output.write_s": total(entries("output")),
        "output.files": len(entries("output")),
    }
