"""Span tracer for the traced benchmark pass.

The tracer wraps the public entry points of each addgap layer where the
calling modules reference them, records one span per call (name, layer,
start, end, parent, the top-level operation it belongs to, and counters),
keeps every span in memory, and turns them into the per-layer metrics.
Nothing under ``src/`` is edited: `installed` patches module and class
attributes and restores the originals when it exits.

A span started in a thread with no open span of its own (a pool worker)
is parented to the innermost span the client thread has open at that
moment, and carries the client's top-level operation as its `op`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import threading
import time
from collections import defaultdict

ORIGINAL_ATTR = "__perfbench_original__"


@dataclasses.dataclass
class Span:
    name: str
    kind: str
    layer: str
    start: float
    parent: int | None
    op: int
    end: float | None = None
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; one client thread, any number of workers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, kind: str, layer: str) -> int:
        stack = self._stack()
        client = self._client_stack
        # A worker thread's first span hangs under what the client runs now.
        lineage = stack or client
        parent = lineage[-1] if lineage else None
        with self._lock:
            index = len(self.spans)
            op = client[0] if client else index
            self.spans.append(
                Span(name, kind, layer, time.perf_counter(), parent, op)
            )
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, kind: str, layer: str):
        index = self.begin(name, kind, layer)
        try:
            yield self.spans[index]
        finally:
            self.finish(index)


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover; overlapping children (from worker threads) count once."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        out.append(span.duration - covered)
    return out


def _outermost(spans: list[Span], kind: str) -> list[Span]:
    """Spans of `kind` with no ancestor of the same kind."""
    out = []
    for span in spans:
        if span.kind != kind:
            continue
        parent = span.parent
        while parent is not None and spans[parent].kind != kind:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics from a finished trace.

    ``*_calls`` and ``*_s`` count outermost spans of a kind, so a call that
    re-enters its own layer is counted once; counters (points, probes,
    jumps) sum over every span.
    """
    selfs = self_times(spans)

    def calls(kind):
        return len(_outermost(spans, kind))

    def busy(kind):
        return sum(span.duration for span in _outermost(spans, kind))

    def count(kind, key):
        return sum(span.counts.get(key, 0) for span in spans if span.kind == kind)

    def self_s(layer):
        return sum(s for span, s in zip(spans, selfs) if span.layer == layer)

    jumps = count("batch", "jumps")
    paths = count("batch", "paths")
    sample_s = busy("batch")
    return {
        "config.parse_calls": calls("parse"),
        "config.parse_s": busy("parse"),
        "processes.calls": calls("processes"),
        "processes.s": busy("processes"),
        "bounds.report_calls": calls("report"),
        "bounds.report_s": busy("report"),
        "bounds.self_s": self_s("bounds"),
        "measures.functional_calls": calls("functional"),
        "measures.functional_s": busy("functional"),
        "measures.ac_probes": count("functional", "probes"),
        "measures.mass_above_calls": calls("mass_above"),
        "measures.mass_above_s": busy("mass_above"),
        "measures.log_density_points": count("log_density", "points"),
        "measures.log_density_s": busy("log_density"),
        "quadrature.integrate_calls": calls("integrate"),
        "quadrature.integrand_points": count("integrate", "points"),
        "quadrature.integrate_s": busy("integrate"),
        "simulate.batch_calls": calls("batch"),
        "simulate.sample_s": sample_s,
        "simulate.jumps": jumps,
        "simulate.jumps_per_path": jumps / paths if paths else 0.0,
        "simulate.jumps_per_s": jumps / sample_s if sample_s else 0.0,
        "montecarlo.estimate_calls": calls("estimate"),
        "montecarlo.chunks": count("estimate", "chunks"),
        "montecarlo.self_s": self_s("montecarlo"),
        "cli.calls": calls("cli"),
        "cli.self_s": self_s("cli"),
    }


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _count_points(span: Span, request):
    """Replace the request's integrand with one that counts its points."""
    integrand = request.integrand
    span.counts["points"] = 0

    def counting(x):
        span.counts["points"] += getattr(x, "size", 1)
        return integrand(x)

    return dataclasses.replace(request, integrand=counting)


def _wrap(tracer: Tracer, fn, name: str, kind: str, layer: str, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name, kind, layer)
        span = tracer.spans[index]
        try:
            if before is not None:
                args = before(span, args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result
        finally:
            tracer.finish(index)

    setattr(wrapper, ORIGINAL_ATTR, fn)
    return wrapper


def _targets():
    """(owner, attribute, kind, layer, before, after) for every entry point.

    Module-level functions are patched in every loaded addgap module that
    references them, so calls are seen from each calling module; methods
    are patched on each class that defines them.
    """
    from addgap import bounds, cli, config, measures, montecarlo, processes, quadrature, simulate

    chunk = montecarlo.CHUNK_PATHS

    def paths_to_chunks(span, args, result):
        span.counts["chunks"] = -(-result.n_paths // chunk)

    def ac_probes(span, args, result):
        span.counts["probes"] = result.checked

    def log_points(span, args, result):
        span.counts["points"] = getattr(args[1], "size", 1)

    def batch_counts(span, args, result):
        span.counts["jumps"] = int(result.sizes.size)
        span.counts["paths"] = result.n_paths

    def integrate_before(span, args):
        return (_count_points(span, args[0]),) + tuple(args[1:])

    functions = [
        (config, "parse_config", "parse", "config", None, None),
        (config, "parse_config_dict", "parse", "config", None, None),
        (measures, "l1_distance", "functional", "measures", None, None),
        (measures, "hellinger_sq", "functional", "measures", None, None),
        (measures, "gamma_nu", "functional", "measures", None, None),
        (measures, "check_abs_continuity", "functional", "measures", None, ac_probes),
        (quadrature, "integrate", "integrate", "quadrature", integrate_before, None),
        (bounds, "compute_report", "report", "bounds", None, None),
        (bounds, "bound_thm1", "bound", "bounds", None, None),
        (bounds, "bound_thm2", "bound", "bounds", None, None),
        (bounds, "bound_simple_sqrt", "bound", "bounds", None, None),
        (bounds, "gaussian_tv_exact", "bound", "bounds", None, None),
        (simulate, "sample_jump_batch", "batch", "simulate", None, batch_counts),
        (montecarlo, "estimate_tv", "estimate", "montecarlo", None, paths_to_chunks),
        (montecarlo, "martingale_check", "estimate", "montecarlo", None, paths_to_chunks),
        (montecarlo, "estimate_sinh_oracle", "estimate", "montecarlo", None, paths_to_chunks),
        (cli, "main", "cli", "cli", None, None),
    ]
    modules = [m for n, m in sorted(sys.modules.items()) if n == "addgap" or n.startswith("addgap.")]
    out = []
    for home, attr, kind, layer, before, after in functions:
        original = getattr(home, attr)
        for module in modules:
            if module.__dict__.get(attr) is original:
                out.append((module, attr, kind, layer, before, after))

    for attr in ("xi_sq", "eta", "vol_class", "sigma_mismatch", "drift_matched"):
        out.append((processes.ProblemSpec, attr, "processes", "processes", None, None))
    levy_classes = [
        cls for cls in vars(measures).values()
        if isinstance(cls, type) and issubclass(cls, measures.LevyMeasure)
    ]
    for cls in levy_classes:
        if "mass_above" in cls.__dict__:
            out.append((cls, "mass_above", "mass_above", "measures", None, None))
        if "log_density" in cls.__dict__:
            out.append((cls, "log_density", "log_density", "measures", None, log_points))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target with a tracing wrapper; restore on exit."""
    patched = []
    try:
        for owner, attr, kind, layer, before, after in _targets():
            original = owner.__dict__[attr]
            name = f"{layer}.{attr}"
            setattr(owner, attr, _wrap(tracer, original, name, kind, layer, before, after))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of addgap module or class attributes that are still wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "addgap" and not name.startswith("addgap."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, ORIGINAL_ATTR):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                found.extend(
                    f"{name}.{attr}.{m}"
                    for m, v in vars(value).items()
                    if hasattr(v, ORIGINAL_ATTR)
                )
    return found
