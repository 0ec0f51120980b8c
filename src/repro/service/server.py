"""The sweep daemon: a ThreadingHTTPServer over one shared Session.

Every request handler thread funnels into a single
:class:`~repro.api.session.Session` guarded by :class:`ServiceState` — so
the daemon has exactly one worker pool, one on-disk report cache and one
set of job statistics, and concurrent clients posting overlapping sweeps
deduplicate against each other through the scheduler's single-flight table
(DESIGN.md section 15).

The wire schema is the spec JSON round trip
(:meth:`~repro.api.specs.SweepSpec.to_payload`): a ``POST /sweeps`` body
carries ``{"specs": [...]}`` plus an optional ``"sim"`` default applied to
specs without their own override. Reports come back as
:meth:`~repro.sim.instrumentation.CostReport.to_dict` documents, which
round-trip JSON bit-for-bit — an HTTP client sees byte-identical numbers
to an in-process ``Session.sweep``.

Sweep ids are a plain in-process counter (``1``, ``2``, …): deterministic,
per-daemon, not persisted. The daemon is a front-end, not a database —
restart it and in-flight ids are gone, but the report cache survives. It
keeps only the newest :data:`MAX_RETAINED_SWEEPS` sweep records, so a
long-lived daemon's memory stays bounded, and a reports request waits at
most :data:`REPORT_WAIT_SECONDS` for its jobs, so a stuck job cannot pin a
handler thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import sqlite3
import threading
import urllib.parse
from concurrent.futures import Future, wait
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api.session import Session
from repro.api.specs import SweepSpec, sim_from_payload
from repro.eval.runner import SweepStats
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport
from repro.store import ResultStore, StoreError, query_from_mapping
from repro.store.query import inflate_rows

#: Top-level fields a ``POST /sweeps`` body may carry.
_SWEEP_FIELDS = frozenset({"specs", "sim"})

#: Largest ``POST`` body (bytes) the daemon reads, far above any real sweep.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest a ``GET /sweeps/<id>/reports`` waits for the sweep's jobs, over
#: the whole request; past it the daemon answers 504 and the client may ask
#: again.
REPORT_WAIT_SECONDS = 300.0

#: Most sweep records the daemon keeps; submitting one more evicts the
#: oldest, whose id then answers 404 (its reports stay in the cache).
MAX_RETAINED_SWEEPS = 1024


class _UnreadBody(Exception):
    """``(status, message)`` for a body rejected unread; the connection must close."""


def _stats_to_dict(stats: SweepStats) -> Dict[str, int]:
    return dataclasses.asdict(stats)


def _stats_delta(before: SweepStats, after: SweepStats) -> Dict[str, int]:
    """Per-sweep counters as the difference of two session snapshots.

    Submissions are serialized under the service lock, so for sweeps posted
    through the daemon the delta is exact; if the embedding process also
    drives the shared Session directly from other threads, concurrent
    activity lands in whichever sweep is being submitted at that moment.
    """
    return {
        field.name: getattr(after, field.name) - getattr(before, field.name)
        for field in dataclasses.fields(SweepStats)
    }


@dataclass(frozen=True)
class SweepRecord:
    """One accepted sweep: its futures and the submission-time stats delta."""

    sweep_id: str
    spec: SweepSpec
    futures: Tuple["Future[CostReport]", ...]
    stats: Dict[str, int]

    @property
    def done(self) -> int:
        return sum(1 for future in self.futures if future.done())

    def status(self) -> str:
        """``running`` | ``failed`` | ``completed`` (failed wins once done)."""
        if any(not future.done() for future in self.futures):
            return "running"
        if any(future.exception() is not None for future in self.futures):
            return "failed"
        return "completed"

    def describe(self) -> Dict:
        """The ``GET /sweeps/<id>`` response body (without session stats)."""
        return {
            "id": self.sweep_id,
            "status": self.status(),
            "jobs": len(self.futures),
            "done": self.done,
            "stats": dict(self.stats),
        }


class ServiceState:
    """Shared daemon state: the Session, the sweep table, the id counter.

    The sweep table holds at most :data:`MAX_RETAINED_SWEEPS` records and
    evicts the oldest on submit.

    The lock serializes sweep submission (making per-sweep stats deltas
    exact) and guards the sweep table; it is never held while waiting on a
    report future, so status and report reads stay responsive while jobs
    execute.
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        self._lock = threading.Lock()
        self._sweeps: Dict[str, SweepRecord] = {}
        self._ids = itertools.count(1)

    def submit(self, payload: Mapping) -> SweepRecord:
        """Validate and submit one sweep body; returns its record.

        Raises ``ValueError`` on a malformed document (the handler's 400)
        and ``RuntimeError`` if the Session is closed (the handler's 503).
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"sweep must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - _SWEEP_FIELDS)
        if unknown:
            raise ValueError(f"unknown sweep fields: {unknown}")
        sweep = SweepSpec.from_payload({"specs": payload.get("specs")})
        if not sweep.specs:
            raise ValueError("sweep carries no specs")
        sim_payload = payload.get("sim")
        sim: Optional[SimConfig] = (
            sim_from_payload(sim_payload) if sim_payload is not None else None
        )
        with self._lock:
            before = self.session.stats_snapshot()
            futures = tuple(self.session.submit(spec, sim=sim) for spec in sweep.specs)
            after = self.session.stats_snapshot()
            record = SweepRecord(
                sweep_id=str(next(self._ids)),
                spec=sweep,
                futures=futures,
                stats=_stats_delta(before, after),
            )
            self._sweeps[record.sweep_id] = record
            # Dicts keep insertion order, so the first key is the oldest.
            while len(self._sweeps) > MAX_RETAINED_SWEEPS:
                del self._sweeps[next(iter(self._sweeps))]
        return record

    def get(self, sweep_id: str) -> Optional[SweepRecord]:
        with self._lock:
            return self._sweeps.get(sweep_id)

    def session_stats(self) -> Dict[str, int]:
        return _stats_to_dict(self.session.stats_snapshot())

    def cache_stats(self) -> Optional[Dict[str, object]]:
        """The shared cache's identity card for ``/healthz`` (None = uncached).

        An unreadable database degrades sweeps to uncached successes, so
        the daemon stays live; the card then names the error instead of a
        report count.
        """
        cache = self.session.cache
        if cache is None:
            return None
        try:
            return cache.stats()
        except (OSError, sqlite3.Error) as error:
            return {"root": str(cache.root), "unreadable": str(error)}

    def runtime_info(self) -> Dict[str, object]:
        """The shared runtime's execution knobs for ``/healthz``.

        All of these are result-neutral (DESIGN.md sections 9-13, 17) —
        the card tells an operator how the daemon executes, never what it
        computes.
        """
        runtime = self.session.runtime
        return {
            "processes": runtime.processes,
            "trace_chunk": runtime.trace_chunk,
        }

    def query(self, params: Mapping[str, str]) -> List[Dict[str, object]]:
        """Run one read-only store query against the shared cache.

        Raises :class:`~repro.store.StoreError` on bad parameters (the
        handler's 400) or when the daemon runs without a cache. The query
        reads the Session's own cache database, so it sees every report
        the daemon has stored.
        """
        cache = self.session.cache
        if cache is None:
            raise StoreError("the daemon runs without a report cache; nothing to query")
        query = query_from_mapping(dict(params))
        return ResultStore(cache).query(query)


class SweepHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`ServiceState`."""

    # Handler threads must not outlive serve_forever(): the daemon shares
    # one Session, and shutdown tears it down underneath lingering threads.
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], state: ServiceState, quiet: bool) -> None:
        super().__init__(address, _SweepRequestHandler)
        self.state = state
        self.quiet = quiet

    @property
    def bound_port(self) -> int:
        """The actual port (the OS's pick when constructed with port 0)."""
        return int(self.server_address[1])


class _SweepRequestHandler(BaseHTTPRequestHandler):
    """Routes the endpoints; every response body is a JSON object."""

    protocol_version = "HTTP/1.1"
    # A response is two sends (headers, body); with Nagle on, the body waits
    # ~40 ms for the client's delayed ACK (DESIGN.md section 15).
    disable_nagle_algorithm = True
    server: SweepHTTPServer  # narrowed from BaseServer for .state/.quiet

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urllib.parse.urlsplit(self.path)
        if url.path == "/healthz":
            self._send(
                200,
                {
                    "status": "ok",
                    "cache": self.server.state.cache_stats(),
                    "runtime": self.server.state.runtime_info(),
                },
            )
            return
        if url.path == "/query":
            self._query(url.query)
            return
        parts = [part for part in self.path.split("/") if part]
        if len(parts) == 2 and parts[0] == "sweeps":
            self._sweep_status(parts[1])
            return
        if len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "reports":
            self._sweep_reports(parts[1])
            return
        self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/sweeps":
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            payload = self._read_json()
        except _UnreadBody as error:
            # The body is still on the wire: the next request cannot be framed.
            status, message = error.args
            self._send(status, {"error": message}, close=True)
            return
        except ValueError as error:
            self._send(400, {"error": str(error)})
            return
        try:
            record = self.server.state.submit(payload)
        except ValueError as error:
            self._send(400, {"error": str(error)})
            return
        except RuntimeError as error:
            # The shared Session was closed underneath the daemon.
            self._send(503, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 - reported to client
            # With a serial runtime jobs execute inside submit(), so an
            # execution failure surfaces here rather than in the future.
            self._send(500, {"error": f"sweep execution failed: {error}"})
            return
        self._send(201, record.describe())

    # ------------------------------------------------------------------ #
    # Endpoint bodies
    # ------------------------------------------------------------------ #
    def _sweep_status(self, sweep_id: str) -> None:
        record = self.server.state.get(sweep_id)
        if record is None:
            self._send(404, {"error": f"unknown sweep id {sweep_id!r}"})
            return
        body = record.describe()
        body["session_stats"] = self.server.state.session_stats()
        self._send(200, body)

    def _query(self, query_string: str) -> None:
        """``GET /query?...`` — read-only rows from the result store.

        Parameters mirror the ``smash-repro query`` flags (kernel, scheme,
        matrix, workload_kind, dim, sort, descending, limit, mean_by);
        repeated parameters are rejected rather than silently last-wins.
        """
        params: Dict[str, str] = {}
        for name, value in urllib.parse.parse_qsl(query_string, keep_blank_values=True):
            if name in params:
                self._send(400, {"error": f"duplicate query parameter {name!r}"})
                return
            params[name] = value
        try:
            rows = self.server.state.query(params)
        except StoreError as error:
            self._send(400, {"error": str(error)})
            return
        self._send(200, {"rows": inflate_rows(rows), "count": len(rows)})

    def _sweep_reports(self, sweep_id: str) -> None:
        record = self.server.state.get(sweep_id)
        if record is None:
            self._send(404, {"error": f"unknown sweep id {sweep_id!r}"})
            return
        _, pending = wait(record.futures, timeout=REPORT_WAIT_SECONDS)
        if pending:
            self._send(
                504,
                {
                    "error": (
                        f"{len(pending)} of {len(record.futures)} jobs still running "
                        f"after {REPORT_WAIT_SECONDS:g} s; ask again later"
                    ),
                    "id": sweep_id,
                },
            )
            return
        reports = []
        for index, future in enumerate(record.futures):
            try:
                reports.append(future.result().to_dict())
            except BaseException as error:  # noqa: BLE001 - reported to client
                self._send(
                    500,
                    {"error": f"job {index} failed: {error}", "id": sweep_id},
                )
                return
        self._send(200, {"id": sweep_id, "reports": reports})

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _read_json(self) -> Mapping:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise _UnreadBody(400, "malformed Content-Length header")
        if length > MAX_BODY_BYTES:
            raise _UnreadBody(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            raise ValueError("request body is empty")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, Mapping):
            raise ValueError(f"request body must be a JSON object, got {type(payload).__name__}")
        return payload

    def _send(self, status: int, payload: Dict, *, close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - http.server API
        if not self.server.quiet:
            super().log_message(format, *args)


# --------------------------------------------------------------------------- #
# Construction and lifecycle
# --------------------------------------------------------------------------- #
def build_server(
    session: Session, host: str, port: int, *, quiet: bool = True
) -> SweepHTTPServer:
    """Bind the daemon (port 0 = ephemeral); caller owns serve/shutdown."""
    return SweepHTTPServer((host, port), ServiceState(session), quiet)


def serve(
    session: Session,
    host: str,
    port: int,
    *,
    quiet: bool = False,
    ready=None,
) -> None:
    """Run the daemon until interrupted, then drain the shared Session.

    ``ready`` — called as ``ready(server)`` once the socket is bound,
    before the accept loop starts (the CLI uses it to print and persist
    the ephemeral port). Ctrl-C shuts the accept loop down cleanly; the
    Session is closed (draining in-flight futures) either way.
    """
    server = build_server(session, host, port, quiet=quiet)
    try:
        if ready is not None:
            ready(server)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    finally:
        server.server_close()
        session.close()


@contextlib.contextmanager
def running_server(
    session: Session, host: str = "127.0.0.1", port: int = 0
) -> Iterator[SweepHTTPServer]:
    """A daemon on a background thread, for tests and embedding.

    Yields the bound server (``server.bound_port`` is the ephemeral port);
    the accept loop is stopped and the socket closed on exit. The Session
    is the caller's — it is *not* closed here.
    """
    server = build_server(session, host, port, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
