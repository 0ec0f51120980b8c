"""Sweep engine: enumerable jobs, parallel execution, persistent report cache.

Every paper experiment boils down to a *job matrix*: run kernel K under
scheme S on a deterministically generated workload W with configurations
(SimConfig, SMASHConfig). This module expresses each cell of that matrix as
a pure, picklable :class:`Job`, executes batches of jobs through
:class:`SweepRunner` — serially or on a ``ProcessPoolExecutor`` — and
memoizes every resulting :class:`~repro.sim.instrumentation.CostReport` in a
content-keyed on-disk cache, so re-running an experiment (or a different
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
  resolved batch (a pool chunk, or a serial batch of misses) is handed to
  the cache's indexer in one call, outside that lock, before its futures
  complete.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
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
from repro.workloads.sources import materialize_source

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
    blob = json.dumps(job.payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
#: Per-process atomic counter distinguishing temporary cache files written
#: by different threads of one process (the pid alone is not enough once
#: Session.submit allows concurrent in-process writers of the same key).
_TMP_COUNTER = itertools.count()


class ReportCache:
    """Content-keyed on-disk cache of serialized cost reports.

    Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per job
    holding the canonical job payload (for hash-collision and staleness
    guards, and debuggability) plus the serialized report. Writes go
    through a per-process, per-write temporary file and ``os.replace`` so
    concurrent writers — several pool workers, several threads of one
    process, or several CLI invocations — can never leave a torn entry
    behind.
    """

    def __init__(self, root: Union[str, pathlib.Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = pathlib.Path(root)
        #: Optional index hook ``(batch) -> None`` used by :mod:`repro.store`
        #: to keep its sqlite index warm incrementally. ``SweepRunner`` calls
        #: it once per resolved batch with that batch's ``(key, document)``
        #: pairs, as :meth:`store` returned them. Kept as a plain callback so
        #: this layer never imports the store (RL006: ``repro.store`` sits
        #: strictly above ``repro.eval.runner``).
        self.indexer: Optional[Callable[[Sequence[Tuple[str, Dict]]], None]] = None

    def path_for(self, key: str) -> pathlib.Path:
        """Where the entry for ``key`` lives on disk."""
        return self.root / key[:2] / f"{key}.json"

    def iter_entries(self) -> Iterator[Tuple[str, pathlib.Path]]:
        """Every ``(key, path)`` in the cache tree, in sorted key order.

        Only the documented ``<xx>/<key>.json`` shard layout is visited, so
        foreign files at the root (the sqlite index, editor droppings) are
        never mistaken for entries.
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem, path

    def stats(self) -> Dict[str, object]:
        """The cache's identity card: root, writing schema, report count."""
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA_VERSION,
            "reports": sum(1 for _ in self.iter_entries()),
        }

    def load(self, key: str, job: Job) -> Optional[Dict]:
        """The cached report payload for ``job``, or None on miss."""
        try:
            document = json.loads(self.path_for(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if document.get("job") != job.payload():
            return None
        report = document.get("report")
        return report if isinstance(report, dict) else None

    def store(self, key: str, job: Job, report_payload: Dict) -> Dict:
        """Persist the report payload for ``job`` (atomic replace).

        Returns the document written, for the caller to index.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "job": job.payload(),
            "report": report_payload,
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
        tmp.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        return document


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
        """Drain in-flight jobs and shut down the worker pool (idempotent)."""
        self.drain()
        with self._lock:
            pool, self._pool = self._pool, None
            finalizer, self._finalizer = self._finalizer, None
        if pool is not None:
            if finalizer is not None:
                finalizer.detach()
            pool.shutdown(wait=True)

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
        """Store a batch of payloads, retire them, index them, wake the waiters.

        ``resolved`` holds ``(key, job, future, payload)`` for every job of
        one resolution: one pool chunk, or one serial batch of misses. The
        cache stores and the table removals happen under one lock
        acquisition, so a concurrent :meth:`_lookup_or_create` observes each
        job either still in flight or already on disk — never neither —
        which is what makes ``executed`` exactly the number of distinct
        jobs when a cache is configured. The stored documents then go to the
        cache's indexer in one call, outside the lock, and only then do the
        futures complete, so the index holds the rows when a sweep returns.

        A store that raises ``OSError`` (disk full, read-only cache) degrades
        to an uncached success: the job still gets its payload, nothing is
        cached or indexed for it, and the runner warns once.
        """
        documents: List[Tuple[str, Dict]] = []
        store_error: Optional[OSError] = None
        with self._lock:
            for key, job, _, payload in resolved:
                if self.cache is not None:
                    try:
                        documents.append((key, self.cache.store(key, job, payload)))
                    except OSError as error:
                        store_error = error
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
        try:
            if documents and self.cache.indexer is not None:
                self.cache.indexer(documents)
        finally:
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
