"""Sweep engine: enumerable jobs, parallel execution, persistent report cache.

Every paper experiment boils down to a *job matrix*: run kernel K under
scheme S on a deterministically generated workload W with configurations
(SimConfig, SMASHConfig). This module expresses each cell of that matrix as
a pure, picklable :class:`Job`, executes batches of jobs through
:class:`SweepRunner` — serially or on a ``ProcessPoolExecutor`` — and
memoizes every resulting :class:`~repro.sim.instrumentation.CostReport` in a
content-keyed sqlite cache, so re-running an experiment (or a different
experiment sharing jobs, e.g. the ``taco_csr`` baselines) re-executes
nothing.

Design invariants (see DESIGN.md sections 9 and 15):

* **Jobs are pure.** A job carries a *description* of its workload (a
  ``source`` tuple naming the generator and its seed), never the matrix
  itself; workers rebuild the workload from the description through
  :func:`repro.workloads.sources.materialize_source`, so a job's result is
  a function of its fields alone. That memo builds each source at most
  once per process, and the format constructors that consume a shared
  matrix still validate every operand they build.
* **Keys are content hashes.** ``job_key`` is the SHA-256 of the canonical
  JSON of the job's fields (including the full ``SimConfig``), so any
  configuration change invalidates exactly the affected cache entries.
* **Every path is bit-identical.** Reports are always round-tripped through
  :meth:`CostReport.to_dict`/``from_dict`` — whether computed serially,
  computed in a worker process, or loaded from cache — and Python floats
  round-trip exactly through JSON, so the three paths return identical
  reports.
* **Submission is concurrent, execution single-flight.** Any thread may
  call :meth:`SweepRunner.submit`; an in-flight table keyed by ``job_key``
  guarantees that concurrent submissions of the same job share one future
  (the job executes once), and all scheduler state — statistics, the
  in-flight table, cache loads and stores — is guarded by one lock. Each
  resolved batch (a pool chunk, or a serial batch of misses) is stored in
  one transaction before its futures complete.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import sqlite3
import threading
import warnings
import weakref
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.config import DEFAULT_CACHE_DIR, RuntimeConfig
from repro.core.config import SMASHConfig
from repro.sim import trace as _trace
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport
# ``execute_job`` calls this module-global binding, so a tracer can wrap
# ``repro.eval.runner.materialize_source`` (perfbench's span does).
from repro.workloads.sources import materialize_source, source_fields

#: Bumped whenever the job payload or report layout changes incompatibly;
#: entries written under another schema are treated as cache misses.
CACHE_SCHEMA_VERSION = 1

#: Sentinel for "no explicit trace-chunk override": kernels fall back to the
#: ``SMASH_REPRO_TRACE_CHUNK`` environment default.
USE_ENV_CHUNK = object()

#: Kernel job kinds (dispatched through the scheme runners) and application
#: job kinds (dispatched through the graph drivers).
KERNEL_KINDS = ("spmv", "spmm", "spadd")
APP_KINDS = ("pagerank", "bc")

#: Schemes whose operand preparation consumes the SMASHConfig; for every
#: other scheme the config is irrelevant and is normalized out of the job
#: key so e.g. a ``taco_csr`` baseline is shared across drivers that pass
#: different per-matrix SMASH configurations.
_SMASH_SCHEMES = ("smash_sw", "smash_hw")


# --------------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Job:
    """One pure unit of evaluation work.

    ``kind`` selects the dispatcher: a kernel name (``spmv``/``spmm``/
    ``spadd``) runs one instrumented kernel through the scheme runners; an
    application name (``pagerank``/``bc``) runs one graph application.
    ``params`` holds the dispatcher's extra keyword arguments as a sorted
    tuple of pairs so the job stays hashable and canonically ordered.
    """

    kind: str
    scheme: str
    source: Tuple
    sim: SimConfig
    smash: Optional[SMASHConfig] = None
    params: Tuple[Tuple[str, Union[int, float, str]], ...] = ()

    def payload(self) -> Dict:
        """Canonical JSON-ready form of the job; the basis of its cache key.

        The sim part is encoded once per ``SimConfig`` instance, never per
        equal value (:meth:`SimConfig.to_payload`); each call gets a fresh dict.
        """
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": self.kind,
            "scheme": self.scheme,
            "source": list(self.source),
            "sim": self.sim.to_payload(),
            "smash": list(self.smash.ratios) if self.smash is not None else None,
            "params": dict(self.params),
        }


def kernel_job(
    kernel: str,
    scheme: str,
    source: Tuple,
    sim: SimConfig,
    smash_config: Optional[SMASHConfig] = None,
    **params,
) -> Job:
    """A kernel job; drops the SMASH config for schemes that ignore it."""
    if kernel not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNEL_KINDS}")
    smash = smash_config if scheme in _SMASH_SCHEMES else None
    return Job(kernel, scheme, tuple(source), sim, smash, _freeze_params(params))


def app_job(
    app: str,
    scheme: str,
    source: Tuple,
    sim: SimConfig,
    smash_config: Optional[SMASHConfig] = None,
    **params,
) -> Job:
    """A graph-application job (``pagerank`` or ``bc``)."""
    if app not in APP_KINDS:
        raise ValueError(f"unknown application {app!r}; expected one of {APP_KINDS}")
    smash = smash_config if scheme in _SMASH_SCHEMES else None
    return Job(app, scheme, tuple(source), sim, smash, _freeze_params(params))


def _freeze_params(params: Dict) -> Tuple[Tuple[str, Union[int, float, str]], ...]:
    return tuple(sorted(params.items()))


def job_key(job: Job) -> str:
    """Stable content hash of a job (SHA-256 of its canonical JSON)."""
    return hashlib.sha256(canonical_json(job.payload()).encode("utf-8")).hexdigest()


def execute_job(job: Job) -> CostReport:
    """Run one job to completion and return its cost report."""
    params = dict(job.params)
    if job.kind in KERNEL_KINDS:
        from repro.kernels.schemes import KERNEL_RUNNERS

        coo = materialize_source(job.source)
        kwargs = {"seed": int(params["seed"])} if "seed" in params else {}
        result = KERNEL_RUNNERS[job.kind](
            job.scheme, coo, smash_config=job.smash, sim_config=job.sim, **kwargs
        )
        return result.report
    if job.kind == "pagerank":
        from repro.graphs.pagerank import pagerank

        graph = materialize_source(job.source)
        _, report = pagerank(
            graph,
            job.scheme,
            iterations=int(params["iterations"]),
            smash_config=job.smash,
            sim_config=job.sim,
        )
        return report
    if job.kind == "bc":
        from repro.graphs.betweenness import betweenness_centrality

        graph = materialize_source(job.source)
        _, report = betweenness_centrality(
            graph,
            job.scheme,
            max_sources=int(params["max_sources"]),
            smash_config=job.smash,
            sim_config=job.sim,
        )
        return report
    raise ValueError(f"unknown job kind {job.kind!r}")


def _execute_job_payload(job: Job) -> Dict:
    """Worker entry point: execute a job and serialize its report."""
    return execute_job(job).to_dict()


def _execute_payloads(jobs: Sequence[Job]) -> List[Dict]:
    """Execute jobs in order and serialize their reports.

    The one execution loop: the serial miss path runs it in-process, and
    every pool task runs it inside a worker on one dispatch chunk, a
    one-job chunk included. Payload order matches job order.
    """
    return [_execute_job_payload(job) for job in jobs]


# --------------------------------------------------------------------------- #
# Persistent report cache
# --------------------------------------------------------------------------- #
#: The report database's file name, directly under the cache root.
REPORTS_FILENAME = "reports.sqlite"

#: Bumped whenever the ``reports`` table changes incompatibly (kept in the
#: database's ``PRAGMA user_version``); a database written under another
#: version is neither read nor written.
STORE_SCHEMA_VERSION = 1

#: The queryable columns of the ``reports`` table, in declaration order.
#: Every value derives from the job payload and its report alone;
#: ``report`` is the canonical JSON of the report payload.
REPORT_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("key", "TEXT PRIMARY KEY"),
    ("cache_schema", "INTEGER NOT NULL"),
    ("kind", "TEXT NOT NULL"),
    ("scheme", "TEXT NOT NULL"),
    ("workload_kind", "TEXT NOT NULL"),
    ("workload_key", "TEXT"),
    ("dim", "INTEGER"),
    ("workload", "TEXT NOT NULL"),
    ("params", "TEXT NOT NULL"),
    ("instructions", "INTEGER NOT NULL"),
    ("issue_cycles", "REAL NOT NULL"),
    ("memory_stall_cycles", "REAL NOT NULL"),
    ("cycles", "REAL NOT NULL"),
    ("dram_accesses", "INTEGER NOT NULL"),
    ("l1_miss_rate", "REAL NOT NULL"),
    ("l2_miss_rate", "REAL NOT NULL"),
    ("l3_miss_rate", "REAL NOT NULL"),
    ("report", "TEXT NOT NULL"),
)

#: Column names, for validation of sort/group arguments.
COLUMN_NAMES: Tuple[str, ...] = tuple(name for name, _ in REPORT_COLUMNS)

#: Columns only the cache reads: the canonical job payload (the staleness
#: guard of :meth:`ReportCache.load`) and the write instant in seconds
#: since the epoch, filled by sqlite's clock (the gc age predicate).
_CACHE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("job", "TEXT NOT NULL"),
    ("stored_at", "REAL NOT NULL DEFAULT ((julianday('now') - 2440587.5) * 86400.0)"),
)

_CREATE_SQL = "CREATE TABLE IF NOT EXISTS reports ({})".format(
    ", ".join(f"{name} {sqltype}" for name, sqltype in REPORT_COLUMNS + _CACHE_COLUMNS)
)
_UPSERT_SQL = "INSERT OR REPLACE INTO reports ({}, job) VALUES ({}, ?)".format(
    ", ".join(COLUMN_NAMES), ", ".join("?" for _ in COLUMN_NAMES)
)


def canonical_json(value: object) -> str:
    """The canonical JSON encoding of job keys and serialized columns."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def report_row(key: str, job_payload: Dict, report: Dict) -> Tuple:
    """The ``reports`` row of one job: :data:`COLUMN_NAMES`, then ``job``."""
    source = job_payload["source"]
    workload_kind, workload_key, dim = source_fields(source)
    issue_cycles = float(report["issue_cycles"])
    stall_cycles = float(report["memory_stall_cycles"])
    return (
        key,
        job_payload["schema"],
        job_payload["kind"],
        job_payload["scheme"],
        workload_kind,
        workload_key,
        int(dim) if dim is not None else None,
        canonical_json(source),
        canonical_json(job_payload["params"]),
        sum(int(v) for v in report["instructions"].values()),
        issue_cycles,
        stall_cycles,
        issue_cycles + stall_cycles,
        int(report["dram_accesses"]),
        float(report["l1_miss_rate"]),
        float(report["l2_miss_rate"]),
        float(report["l3_miss_rate"]),
        canonical_json(report),
        canonical_json(job_payload),
    )


class ReportCache:
    """Content-keyed cache of serialized cost reports in one sqlite file.

    ``<root>/reports.sqlite`` holds one ``reports`` row per job: the
    query columns of :data:`REPORT_COLUMNS`, the canonical job payload
    (hash-collision and staleness guard) and the write instant. The cache
    keeps one lazily opened connection in WAL mode with a busy timeout,
    guarded by its own lock, so concurrent writers — threads of one
    process, several CLI invocations, the service daemon — coordinate
    through sqlite's file locking, and each :meth:`store` batch lands in
    one transaction (all of it or none). A process that inherits the cache
    across a fork opens its own connection, and a database file deleted
    or replaced under an open connection is noticed on the next use and
    reopened, so later rows land in the file at the path.
    """

    def __init__(self, root: Union[str, pathlib.Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = pathlib.Path(root)
        self.path = self.root / REPORTS_FILENAME
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = 0
        self._identity: Optional[Tuple[int, int]] = None

    def _file_identity(self) -> Optional[Tuple[int, int]]:
        """``(st_dev, st_ino)`` of the database file, None when it is gone."""
        try:
            status = os.stat(self.path)
        except FileNotFoundError:
            return None
        return status.st_dev, status.st_ino

    def _open(self) -> sqlite3.Connection:
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            os.close(os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            # This process creates the database. A log and shared-memory
            # file left by a deleted one, still open in another process,
            # would wedge it (sqlite reads their frames against this file).
            for suffix in ("-wal", "-shm"):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(f"{self.path}{suffix}")
        conn = sqlite3.connect(str(self.path), timeout=30.0, check_same_thread=False)
        try:
            # Check the version first: a foreign database is left untouched.
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version not in (0, STORE_SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"report store schema {version} != supported {STORE_SCHEMA_VERSION}"
                )
            conn.execute("PRAGMA journal_mode=WAL")
            if version == 0:
                conn.execute(_CREATE_SQL)
                conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION}")
        except BaseException:
            conn.close()
            raise
        return conn

    @contextlib.contextmanager
    def connection(self) -> Iterator[sqlite3.Connection]:
        """The cache's connection, held under its lock for the block."""
        with self._lock:
            identity = self._file_identity()
            stale = identity is None or identity != self._identity
            if self._conn is not None and (stale or self._pid != os.getpid()):
                self._drop()
            if self._conn is None:
                self._conn = self._open()
                self._pid = os.getpid()
                self._identity = self._file_identity()
            yield self._conn

    def _drop(self) -> None:
        """Forget the connection; close it if this process opened it."""
        conn, self._conn = self._conn, None
        if conn is not None and self._pid == os.getpid():
            conn.close()

    def close(self) -> None:
        """Close the connection; the next use reopens it."""
        with self._lock:
            self._drop()

    def count(self) -> int:
        """Rows in the database (0 before the first store)."""
        if not self.path.exists():
            return 0
        with self.connection() as conn:
            return int(conn.execute("SELECT COUNT(*) FROM reports").fetchone()[0])

    def stats(self) -> Dict[str, object]:
        """The cache's identity card: root, writing schema, report count."""
        return {"root": str(self.root), "schema": CACHE_SCHEMA_VERSION, "reports": self.count()}

    def load(self, key: str, job: Job) -> Optional[Dict]:
        """The cached report payload for ``job``, or None on miss.

        An unreadable database (garbage bytes, a foreign schema, a torn
        row) is a miss, never an error.
        """
        try:
            with self.connection() as conn:
                row = conn.execute(
                    "SELECT job, report FROM reports WHERE key = ?", (key,)
                ).fetchone()
            if row is None or row[0] != canonical_json(job.payload()):
                return None
            report = json.loads(row[1])
        except (OSError, sqlite3.Error, ValueError):
            return None
        return report if isinstance(report, dict) else None

    def store(self, entries: Sequence[Tuple[str, Job, Dict]]) -> None:
        """Persist ``(key, job, report payload)`` entries in one transaction."""
        rows = [report_row(key, job.payload(), payload) for key, job, payload in entries]
        with self.connection() as conn, conn:
            conn.executemany(_UPSERT_SQL, rows)


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
@dataclass
class SweepStats:
    """Counters describing what a :class:`SweepRunner` actually did."""

    submitted: int = 0
    unique: int = 0
    executed: int = 0
    cache_hits: int = 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.submitted} submitted, {self.unique} unique, "
            f"{self.executed} executed, {self.cache_hits} cached"
        )


def _init_worker_chunk(chunk: Optional[int]) -> None:
    """Worker-pool initializer: pin the runner's trace-chunk override.

    The :data:`USE_ENV_CHUNK` sentinel cannot cross the process boundary
    (pickling creates a fresh object that no longer compares identical), so
    the pool installs this initializer only when the runner pins a chunk.
    """
    _trace.set_chunk_override(chunk)


class SweepRunner:
    """Futures-based job scheduler with dedup, caching and fan-out.

    ``processes=1`` (the default) runs everything in-process — no pool, no
    pickling — so debugging with pdb or print stays trivial; ``processes>1``
    fans cache misses out over a ``ProcessPoolExecutor`` that persists
    across :meth:`run`/:meth:`submit` calls (one pool for a whole
    multi-experiment sweep) until :meth:`close`. ``cache_dir=None`` disables
    the on-disk cache (in-batch deduplication still applies). ``trace_chunk``
    pins the bounded-memory replay budget for this runner's jobs — serial
    execution wraps a process-local override, pool workers are initialized
    with it — while the :data:`USE_ENV_CHUNK` default leaves each process
    on the ``SMASH_REPRO_TRACE_CHUNK`` budget. The runner reads no
    environment itself: a :class:`~repro.api.session.Session` resolves its
    knobs into a :class:`~repro.api.config.RuntimeConfig` and passes them
    in. Results are independent of all three knobs. Pooled misses travel
    in chunks of :meth:`_effective_pool_chunk` jobs per pool task, and
    every chunk runs the same per-job loop as serial execution. A worker killed mid-sweep
    breaks the pool; the runner then replaces the pool and re-dispatches
    the jobs it lost, once (DESIGN.md section 17).

    The runner is safe for concurrent use from multiple threads
    (DESIGN.md section 15). Scheduling is *single-flight*: an in-flight
    table keyed by :func:`job_key` ensures that while a job executes, any
    other submission of the same job — from any thread — joins the
    existing future instead of executing again. All scheduler state (the
    statistics, the in-flight table, cache loads/stores and pool creation)
    is guarded by one scheduler lock; serial in-process execution is
    additionally serialized by an execution lock, because the process-local
    trace-chunk override is module-level state that must not be entered
    concurrently. The scheduler lock is never held while a job executes,
    and the execution lock is never acquired while the scheduler lock is
    held.
    """

    def __init__(
        self,
        processes: int = 1,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        trace_chunk: object = USE_ENV_CHUNK,
    ) -> None:
        # RuntimeConfig holds the one copy of the knob checks; a pinned
        # chunk comes back normalized (0 -> None, monolithic).
        if trace_chunk is USE_ENV_CHUNK:
            RuntimeConfig(processes=processes)
        else:
            trace_chunk = RuntimeConfig(processes=processes, trace_chunk=trace_chunk).trace_chunk
        self.processes = processes
        self.cache = ReportCache(cache_dir) if cache_dir is not None else None
        self.stats = SweepStats()
        self.trace_chunk = trace_chunk
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None
        #: Scheduler lock: guards stats, the in-flight table, cache
        #: loads/stores and pool creation. Never held while a job executes.
        self._lock = threading.Lock()
        #: Execution lock: serializes in-process job execution, because the
        #: process-local chunk override is module-level state. Acquired
        #: only while the scheduler lock is NOT held.
        self._exec_lock = threading.Lock()
        #: Single-flight table: job key -> future resolving to the job's
        #: serialized report payload. Entries exist only while the job is
        #: being executed; completion stores to the cache and removes the
        #: entry under the scheduler lock, so at every instant a job is
        #: either in flight or (with a cache) loadable from disk.
        self._inflight: Dict[str, "Future[Dict]"] = {}
        #: Whether a failed cache store has already been warned about.
        self._store_warned = False

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                if self.trace_chunk is USE_ENV_CHUNK:
                    pool = ProcessPoolExecutor(max_workers=self.processes)
                else:
                    pool = ProcessPoolExecutor(
                        max_workers=self.processes,
                        initializer=_init_worker_chunk,
                        initargs=(self.trace_chunk,),
                    )
                self._pool = pool
                # Shut the workers down when the runner is garbage collected,
                # not only on explicit close().
                self._finalizer = weakref.finalize(self, pool.shutdown, wait=False)
            return self._pool

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Drop ``broken`` so the next :meth:`_ensure_pool` builds a fresh pool.

        Idempotent per pool: when one dead worker fails several chunks at
        once, only the first caller discards it, and the others find the
        replacement already in place. ``shutdown(wait=False)`` because this
        may run on the broken pool's own management thread.
        """
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = None
            finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        broken.shutdown(wait=False)

    def drain(self) -> None:
        """Block until every currently in-flight job has resolved."""
        with self._lock:
            pending = list(self._inflight.values())
        _futures_wait(pending)

    def close(self) -> None:
        """Drain in-flight jobs, shut down the worker pool, close the cache (idempotent)."""
        self.drain()
        with self._lock:
            pool, self._pool = self._pool, None
            finalizer, self._finalizer = self._finalizer, None
        if pool is not None:
            if finalizer is not None:
                finalizer.detach()
            pool.shutdown(wait=True)
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The scheduler
    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> SweepStats:
        """A consistent copy of the job counters (taken under the lock)."""
        with self._lock:
            return dataclasses.replace(self.stats)

    def _lookup_or_create(self, key: str, job: Job) -> Tuple["Future[Dict]", bool]:
        """The payload future for ``job``, creating it on a scheduling miss.

        Returns ``(future, owned)``. ``owned=False`` futures are either
        already completed (disk-cache hit) or owned by another caller
        (single-flight join); ``owned=True`` futures were registered in the
        in-flight table by this call and MUST be resolved by the caller via
        :meth:`_resolve` / :meth:`_resolve_error` on every code path —
        an unresolved owned future hangs every joiner forever.
        """
        with self._lock:
            self.stats.unique += 1
            existing = self._inflight.get(key)
            if existing is not None:
                return existing, False
            cached = self.cache.load(key, job) if self.cache is not None else None
            if cached is not None:
                self.stats.cache_hits += 1
                done: "Future[Dict]" = Future()
                done.set_result(cached)
                return done, False
            self.stats.executed += 1
            future: "Future[Dict]" = Future()
            self._inflight[key] = future
            return future, True

    def _resolve(self, resolved: Sequence[Tuple[str, Job, "Future[Dict]", Dict]]) -> None:
        """Store a batch of payloads, retire them, wake the waiters.

        ``resolved`` holds ``(key, job, future, payload)`` for every job of
        one resolution: one pool chunk, or one serial batch of misses. The
        batch is stored in one transaction and the table removals happen
        under the same lock acquisition, so a concurrent
        :meth:`_lookup_or_create` observes each job either still in flight
        or already on disk — never neither — which is what makes
        ``executed`` exactly the number of distinct jobs when a cache is
        configured. Only then do the futures complete.

        A store that fails (disk full, read-only cache, an unreadable or
        foreign database) degrades to an uncached success: the jobs still
        get their payloads, nothing of the batch is cached, and the runner
        warns once.
        """
        store_error: Optional[Exception] = None
        with self._lock:
            if self.cache is not None:
                try:
                    self.cache.store([(key, job, payload) for key, job, _, payload in resolved])
                except (OSError, sqlite3.Error) as error:
                    store_error = error
            for key, _, _, _ in resolved:
                self._inflight.pop(key, None)
            warn = store_error is not None and not self._store_warned
            self._store_warned |= warn
        if warn:
            warnings.warn(
                f"report cache store failed ({store_error}); affected reports "
                "are returned but not cached",
                RuntimeWarning,
                stacklevel=2,
            )
        for _, _, future, payload in resolved:
            future.set_result(payload)

    def _resolve_error(self, key: str, future: "Future[Dict]", error: BaseException) -> None:
        """Fail ``future`` and retire its in-flight entry (no-op once done).

        The entry is removed only while it is still this future: a resolved
        job's key may already belong to a later owner.
        """
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]
        if not future.done():
            future.set_exception(error)

    def _execute_owned_serial(self, owned: List[Tuple[str, Job, "Future[Dict]"]]) -> None:
        """Execute owned misses in this thread, resolving their futures.

        Jobs run in order through :func:`_execute_payloads`, the loop every
        pool chunk runs too; the execution lock keeps the module-level
        chunk override from interleaving between threads.
        """
        override = (
            contextlib.nullcontext()
            if self.trace_chunk is USE_ENV_CHUNK
            else _trace.chunk_override(self.trace_chunk)
        )
        try:
            with self._exec_lock, override:
                fresh = _execute_payloads([job for _, job, _ in owned])
            self._resolve(
                [(key, job, future, payload) for (key, job, future), payload in zip(owned, fresh)]
            )
        except BaseException as error:
            # Resolve every future this call still owns before propagating:
            # a joiner blocked on an owned future must see the failure, not
            # hang on a future nobody will complete. Futures ``_resolve``
            # already completed keep their results.
            for key, _, future in owned:
                self._resolve_error(key, future, error)
            raise

    def _effective_pool_chunk(self, n_owned: int) -> int:
        """Jobs carried per pool task: the misses split over ``processes * 4``.

        The oversubscription factor keeps workers busy when chunks finish
        unevenly; the floor is one job per task.
        """
        return max(1, -(-n_owned // (self.processes * 4)))

    def _execute_owned_pool(self, owned: List[Tuple[str, Job, "Future[Dict]"]]) -> None:
        """Fan owned misses out to the pool in chunks, resolving via callbacks.

        One pool task carries :meth:`_effective_pool_chunk` jobs, so a
        single IPC round-trip (one pickle each way) amortizes over the
        whole chunk, and a source's consecutive jobs share one worker's
        matrix memo. The single-flight futures this call owns are fanned
        back out per job by the chunk callback.
        """
        chunk_size = self._effective_pool_chunk(len(owned))
        for start in range(0, len(owned), chunk_size):
            try:
                self._dispatch_chunk(owned[start : start + chunk_size], retry=True)
            except BaseException as error:
                # A failed pool submission (e.g. pool already shut down)
                # must still resolve every owned future — this chunk and the
                # not-yet-submitted rest — or joiners hang forever.
                for failed_key, _, failed_future in owned[start:]:
                    self._resolve_error(failed_key, failed_future, error)
                raise

    def _dispatch_chunk(
        self, chunk: List[Tuple[str, Job, "Future[Dict]"]], retry: bool
    ) -> None:
        """Submit one chunk to the pool, replacing a broken pool at most once.

        A worker that dies (SIGKILL, OOM) breaks the whole
        ``ProcessPoolExecutor``: submissions raise and every pending task
        fails with :class:`~concurrent.futures.BrokenExecutor`. With
        ``retry`` the broken pool is discarded, a fresh one is built and
        the chunk is submitted again; a second break fails the chunk. The
        jobs were counted in ``executed`` when they were first owned, so a
        re-dispatch leaves the counters exact.
        """
        pool = self._ensure_pool()
        try:
            task = pool.submit(_execute_payloads, [job for _, job, _ in chunk])
        except BrokenExecutor:
            if not retry:
                raise
            self._discard_pool(pool)
            self._dispatch_chunk(chunk, retry=False)
            return
        task.add_done_callback(self._pool_chunk_callback(pool, chunk, retry))

    def _pool_chunk_callback(
        self,
        pool: ProcessPoolExecutor,
        chunk: List[Tuple[str, Job, "Future[Dict]"]],
        retry: bool,
    ) -> Callable[["Future"], None]:
        """Fan one pool task's payloads back out to its job futures.

        A failing job fails its whole chunk: none of the chunk's payloads
        exist (the worker raised before returning), so every joiner sees
        the error, nothing is cached, and a retry re-executes the chunk's
        jobs. A broken pool is the exception: the chunk is
        re-dispatched once on a fresh pool (:meth:`_dispatch_chunk`).
        """

        def done(task: "Future") -> None:
            error = task.exception()
            if isinstance(error, BrokenExecutor) and retry:
                self._discard_pool(pool)
                try:
                    self._dispatch_chunk(chunk, retry=False)
                    return
                except Exception as redispatch_error:  # resolve, never hang joiners
                    error = redispatch_error
            payloads: List[Dict] = []
            if error is None:
                payloads = task.result()
                if len(payloads) != len(chunk):
                    error = RuntimeError(
                        f"pool chunk returned {len(payloads)} payloads "
                        f"for {len(chunk)} jobs"
                    )
            if error is not None:
                for key, _, future in chunk:
                    self._resolve_error(key, future, error)
                return
            resolved = [
                (key, job, future, payload)
                for (key, job, future), payload in zip(chunk, payloads)
            ]
            try:
                self._resolve(resolved)
            except Exception as resolve_error:  # resolve, never hang joiners
                for key, _, future in chunk:
                    self._resolve_error(key, future, resolve_error)

        return done

    def submit(self, job: Job) -> "Future[CostReport]":
        """Schedule one job; the returned future resolves to its report.

        Concurrent submissions of an identical job share one execution
        (single-flight); a cached job resolves through an already-completed
        future without executing. With ``processes=1`` the job executes
        synchronously in the calling thread — the future is already
        resolved when ``submit`` returns — while ``processes>1`` schedules
        it on the worker pool and returns immediately. Every caller gets
        its own :class:`CostReport` built from the shared JSON payload, so
        reports are bit-identical to :meth:`run`'s on every path.
        """
        key = job_key(job)
        with self._lock:
            self.stats.submitted += 1
        future, owned = self._lookup_or_create(key, job)
        if owned:
            if self.processes > 1:
                self._execute_owned_pool([(key, job, future)])
            else:
                self._execute_owned_serial([(key, job, future)])
        return _report_future(future)

    def run(self, jobs: Sequence[Job]) -> List[CostReport]:
        """Execute ``jobs`` and return their reports in submission order.

        Jobs with identical keys are executed once; cached jobs are not
        executed at all. Every report — fresh or cached — is delivered
        through the JSON round trip, so repeated calls return equal reports
        regardless of where each one came from. A blocking wrapper over the
        futures scheduler: the batch is deduplicated up front, misses this
        call owns execute serially in this thread or fan out to the pool,
        and jobs another thread already has in flight are simply awaited.
        """
        jobs = list(jobs)
        keys = [job_key(job) for job in jobs]
        with self._lock:
            self.stats.submitted += len(jobs)
        unique: Dict[str, Job] = {}
        for key, job in zip(keys, jobs):
            unique.setdefault(key, job)

        futures: Dict[str, "Future[Dict]"] = {}
        owned: List[Tuple[str, Job, "Future[Dict]"]] = []
        for key, job in unique.items():
            future, is_owned = self._lookup_or_create(key, job)
            futures[key] = future
            if is_owned:
                owned.append((key, job, future))

        if owned:
            if self.processes > 1 and len(owned) > 1:
                self._execute_owned_pool(owned)
            else:
                self._execute_owned_serial(owned)

        return [CostReport.from_dict(futures[key].result()) for key in keys]


def _report_future(payload_future: "Future[Dict]") -> "Future[CostReport]":
    """A future yielding a fresh CostReport built from the shared payload.

    The payload future is shared by every single-flight joiner; chaining
    through ``from_dict`` per caller preserves the historical contract that
    each submission gets its own report object (reports are mutable
    dataclasses — sharing one across callers would let them corrupt each
    other), while the payload itself stays byte-identical for everyone.
    """
    report_future: "Future[CostReport]" = Future()

    def chain(done: "Future[Dict]") -> None:
        error = done.exception()
        if error is not None:
            report_future.set_exception(error)
            return
        try:
            report_future.set_result(CostReport.from_dict(done.result()))
        except BaseException as build_error:
            report_future.set_exception(build_error)

    payload_future.add_done_callback(chain)
    return report_future
