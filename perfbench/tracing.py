"""Span tracing installed from outside the program, and the layer metrics.

The benchmark never edits the program: :func:`install` wraps the public
functions of each layer in the program's own process (the ``program.py``
bootstrap calls it before the workload starts), records one span per call
in memory, and :meth:`Recorder.dump` writes them out as JSON once the run
ends. :func:`layer_metrics` turns a span list into the per-layer metrics.

A span is ``{"id", "name", "start", "end", "parent", "ctx", ...attrs}``:
times are ``time.perf_counter()`` seconds, ``parent`` is the id of the
enclosing span on the same thread (``None`` at the top), and ``ctx`` is the
job key or request id the span works for, inherited from its parent.

This module imports nothing from the program at module level, so the
benchmark harness (``run.py``) can use :func:`layer_metrics` without
importing it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span names that stand for the benchmark's own request boundaries rather
#: than a layer of the program: a sweep request in ``program.py``, one
#: HTTP request in the daemon's handler thread.
ROOT_SPANS = ("bench.request", "service.handle")


class Recorder:
    """In-memory span sink; thread-safe through per-thread stacks."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict] = []
        self.installed: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float, ctx: Optional[str] = None) -> Dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ctx is None and parent is not None:
            ctx = parent["ctx"]
        span = {
            "id": next(self._ids),
            "name": name,
            "start": start,
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "ctx": ctx,
        }
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def dump(self, path: str) -> None:
        """Write every finished span as one JSON document."""
        finished = [span for span in self.spans if span["end"] is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"installed": self.installed, "spans": finished}, handle)


def _traced(recorder: Recorder, name: str, fn: Callable,
            ctx_of: Optional[Callable] = None,
            attrs_of: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped so that each call while recording becomes one span.

    ``ctx_of(args, kwargs)`` names the span's job or request; ``attrs_of(
    args, kwargs, result)`` adds counts measured at the boundary. Both run
    outside the timed interval.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        ctx = ctx_of(args, kwargs) if ctx_of is not None else None
        span = recorder.open(name, time.perf_counter(), ctx)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs_of is not None:
            span.update(attrs_of(args, kwargs, result))
        return result

    return wrapper


def _patch(recorder: Recorder, owner, attr: str, label: str, **hooks) -> None:
    """Replace ``owner.attr`` by its traced wrapper, if the program has it."""
    fn = getattr(owner, attr, None)
    if fn is None:
        return
    setattr(owner, attr, _traced(recorder, label, fn, **hooks))
    recorder.installed.append(label)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points in the current process.

    Every target is looked up by name and skipped when absent, so the
    wrappers keep working while the program's internals move; the span
    file lists which ones were installed.
    """
    import http.server

    from repro.eval import runner
    from repro.kernels import schemes
    from repro.sim.memory import MemoryHierarchy
    from repro.store.index import ResultStore

    original_job_key = runner.job_key

    def job_ctx(args, kwargs):
        return original_job_key(args[0])

    def source_attrs(args, kwargs, result):
        return {"source": repr(tuple(args[0]))}

    def job_attrs(args, kwargs, result):
        return {"source": repr(tuple(args[0].source))}

    def operand_attrs(args, kwargs, result):
        # With the source of the enclosing job, this identifies an operand:
        # the layout it was converted to, its orientation and SMASH ratios.
        smash = args[2] if len(args) > 2 else kwargs.get("smash_config")
        orientation = args[3] if len(args) > 3 else kwargs.get("orientation", "row")
        ratios = list(getattr(smash, "ratios", ())) if smash is not None else None
        return {"operand": repr((type(result).__name__, orientation, ratios))}

    def replay_attrs(args, kwargs, result):
        addresses = args[3] if len(args) > 3 else kwargs.get("addresses")
        return {"accesses": int(getattr(addresses, "size", 0))}

    def load_attrs(args, kwargs, result):
        return {"hit": result is not None}

    _patch(recorder, runner, "execute_job", "eval.execute", ctx_of=job_ctx,
           attrs_of=job_attrs)
    _patch(recorder, runner, "materialize_source", "workloads.materialize",
           attrs_of=source_attrs)
    _patch(recorder, schemes, "prepare_operand", "formats.prepare", attrs_of=operand_attrs)
    runners = getattr(schemes, "KERNEL_RUNNERS", None)
    if isinstance(runners, dict):
        for kind, fn in list(runners.items()):
            runners[kind] = _traced(recorder, "kernels.run", fn)
        recorder.installed.append("kernels.run")
    _patch(recorder, MemoryHierarchy, "replay", "sim.replay", attrs_of=replay_attrs)
    _patch(recorder, runner, "job_key", "eval.job_key")
    _patch(recorder, runner.ReportCache, "load", "eval.cache_load", attrs_of=load_attrs)
    _patch(recorder, runner.ReportCache, "store", "eval.cache_store")
    _patch(recorder, ResultStore, "ingest", "store.ingest")
    _patch(recorder, ResultStore, "query", "store.query")
    try:
        from repro.service.server import ServiceState
    except ImportError:
        ServiceState = None
    if ServiceState is not None:
        _patch(recorder, ServiceState, "submit", "service.submit")

    # One HTTP request: from the parsed request line (so keep-alive idle
    # time waiting for the next request is excluded) until the response has
    # been handed to the socket.
    handler = http.server.BaseHTTPRequestHandler
    parse_request = handler.parse_request
    handle_one_request = handler.handle_one_request

    def traced_parse_request(self):
        start = time.perf_counter()
        ok = parse_request(self)
        if recorder.enabled:
            rid = self.headers.get("X-Request-Id") if ok else None
            self._bench_span = recorder.open("service.handle", start, rid)
        return ok

    def traced_handle_one_request(self):
        self._bench_span = None
        try:
            handle_one_request(self)
        finally:
            if self._bench_span is not None:
                recorder.close(self._bench_span)

    handler.parse_request = traced_parse_request
    handler.handle_one_request = traced_handle_one_request
    recorder.installed.append("service.handle")


# --------------------------------------------------------------------------- #
# Analysis (runs in the benchmark harness, ``run.py``)
# --------------------------------------------------------------------------- #
#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "workloads.materialize_s": "s",
    "workloads.source_reuse": "ratio",
    "formats.prepare_s": "s",
    "formats.operand_reuse": "ratio",
    "kernels.emit_s": "s",
    "sim.replay_s": "s",
    "sim.replay_accesses": "count",
    "sim.replay_ns_per_access": "ns",
    "eval.job_key_s": "s",
    "eval.cache_load_s": "s",
    "eval.cache_hit_ratio": "ratio",
    "eval.cache_store_s": "s",
    "eval.pool_efficiency": "ratio",
    "eval.unattributed_s": "s",
    "store.ingest_s": "s",
    "store.ingest_calls": "count",
    "store.query_s": "s",
    "service.submit_s": "s",
    "service.http_s": "s",
    "service.read_p50_ms": "ms",
    "service.write_p50_ms": "ms",
    "service.query_p50_ms": "ms",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Dict], base_s: float,
                  latencies: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``base_s`` is the time the spans should account for: the timed
    phase's wall time for a sweep, the summed client latencies for the
    service. ``latencies`` maps request ids to client-measured seconds;
    HTTP time is what the client waited beyond the server's handler span.
    The pool-efficiency, overhead and per-kind latency metrics need
    untraced runs too and are filled in by ``run.py``.
    """
    by_id = {span["id"]: span for span in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] in by_id:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
            )

    def job_source(span: Dict) -> Optional[str]:
        while span is not None and span["name"] != "eval.execute":
            span = by_id.get(span["parent"])
        return span.get("source") if span is not None else None

    def spans_named(name: str) -> List[Dict]:
        return [span for span in spans if span["name"] == name]

    def self_time(name: str) -> float:
        return sum(
            span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            for span in spans_named(name)
        )

    def total_time(name: str) -> float:
        return sum(span["end"] - span["start"] for span in spans_named(name))

    materialize = spans_named("workloads.materialize")
    prepare = spans_named("formats.prepare")
    replay = spans_named("sim.replay")
    loads = spans_named("eval.cache_load")
    accesses = sum(span.get("accesses", 0) for span in replay)
    replay_s = self_time("sim.replay")
    # Top-level layer spans: named spans directly under a request boundary
    # (or with no parent at all). Whatever the boundaries hold beyond them
    # is scheduling, dispatch and serialization no wrapper names.
    top = [
        span for span in spans
        if span["name"] not in ROOT_SPANS
        and by_id.get(span["parent"], {"name": ROOT_SPANS[0]})["name"] in ROOT_SPANS
    ]
    covered = sum(span["end"] - span["start"] for span in top)
    roots = [span for span in spans if span["name"] in ROOT_SPANS]
    if any(span["name"] == "service.handle" for span in roots):
        unattributed = sum(span["end"] - span["start"] for span in roots) - covered
    else:
        unattributed = base_s - covered
    http_s = 0.0
    if latencies:
        handled: Dict[str, float] = {}
        for span in spans_named("service.handle"):
            handled[span["ctx"]] = handled.get(span["ctx"], 0.0) + span["end"] - span["start"]
        http_s = sum(latency - handled.get(rid, 0.0) for rid, latency in latencies.items())
    return {
        "workloads.materialize_s": self_time("workloads.materialize"),
        "workloads.source_reuse": _ratio(
            len({span["source"] for span in materialize}), len(materialize)
        ),
        "formats.prepare_s": self_time("formats.prepare"),
        "formats.operand_reuse": _ratio(
            len({(job_source(span), span["operand"]) for span in prepare}), len(prepare)
        ),
        "kernels.emit_s": self_time("kernels.run"),
        "sim.replay_s": replay_s,
        "sim.replay_accesses": float(accesses),
        "sim.replay_ns_per_access": _ratio(replay_s * 1e9, accesses),
        "eval.job_key_s": self_time("eval.job_key"),
        "eval.cache_load_s": self_time("eval.cache_load"),
        "eval.cache_hit_ratio": _ratio(sum(1 for span in loads if span["hit"]), len(loads)),
        "eval.cache_store_s": self_time("eval.cache_store"),
        "eval.unattributed_s": unattributed,
        "store.ingest_s": self_time("store.ingest"),
        "store.ingest_calls": float(len(spans_named("store.ingest"))),
        "store.query_s": self_time("store.query"),
        "service.submit_s": total_time("service.submit"),
        "service.http_s": http_s,
        "trace.span_coverage": _ratio(covered, base_s),
    }


def median_ms(values: List[float]) -> float:
    """Median of second-valued samples, in milliseconds (0 when empty)."""
    return statistics.median(values) * 1e3 if values else 0.0
