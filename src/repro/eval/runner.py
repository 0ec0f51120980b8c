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
  itself; workers rebuild the workload from the description, so a job's
  result is a function of its fields alone. Each process builds a matrix
  source at most once: :func:`materialize_source` memoizes it in a bounded
  LRU with read-only arrays, and the format constructors that consume it
  still validate every operand they build.
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
  in-flight table, cache loads and stores — is guarded by one lock.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pathlib
import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.config import (
    DEFAULT_CACHE_DIR,
    DEFAULT_REPLAY_BACKEND,
    PROCESSES_ENV_VAR,
    RuntimeConfig,
)
from repro.core.config import SMASHConfig
from repro.sim import _replay_core
from repro.sim import trace as _trace
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport

#: Bumped whenever the job payload or report layout changes incompatibly;
#: entries written under another schema are treated as cache misses.
CACHE_SCHEMA_VERSION = 1

#: Sentinel for "no explicit trace-chunk override": kernels fall back to the
#: ``SMASH_REPRO_TRACE_CHUNK`` environment default.
USE_ENV_CHUNK = object()

#: Sentinel for "no explicit replay-backend override": hierarchies fall back
#: to the ``SMASH_REPRO_REPLAY_BACKEND`` environment default.
USE_ENV_BACKEND = object()

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
# Workload sources
# --------------------------------------------------------------------------- #
def suite_source(key: str, dim: Optional[int] = None, seed: Optional[int] = None) -> Tuple:
    """Workload description for a Table 3 suite matrix (``generate_matrix``)."""
    return ("suite", key, dim, seed)


def locality_source(
    rows: int, cols: int, nnz: int, block_size: int, locality_percent: float, seed: int
) -> Tuple:
    """Workload description for a controlled-locality matrix (Figures 16/17)."""
    return ("locality", rows, cols, nnz, block_size, locality_percent, seed)


def graph_source(key: str, n_vertices: Optional[int] = None) -> Tuple:
    """Workload description for a Table 4 graph (``generate_graph``)."""
    return ("graph", key, n_vertices)


#: Most matrices one process keeps built (see :func:`materialize_source`).
#: A Figure 10 sweep touches 15 sources; a Table 3 matrix at its scaled
#: dimension takes under 100 KB (24 bytes per non-zero).
MATRIX_MEMO_SIZE = 32


def materialize_source(source: Sequence):
    """Rebuild the workload (COO matrix or graph) a source tuple describes.

    Matrix sources (``suite``, ``locality``) are built at most once per
    process per source: the result is memoized in a bounded LRU and shared
    by every job that names the same source, with its arrays made read-only
    so an in-place write raises instead of leaking into a later job. Graph
    sources are rebuilt on every call.
    """
    tag = source[0]
    if tag in ("suite", "locality"):
        return _build_matrix(*source)
    if tag == "graph":
        from repro.graphs.generators import generate_graph, get_graph_spec

        _, key, n_vertices = source
        return generate_graph(get_graph_spec(key), n_vertices=n_vertices)
    raise ValueError(f"unknown workload source {source!r}")


@functools.lru_cache(maxsize=MATRIX_MEMO_SIZE, typed=True)
def _build_matrix(tag: str, *args):
    """The memoized, read-only COO matrix of one ``suite``/``locality`` source.

    ``typed=True`` keys each source field by its type as well as its value,
    so e.g. ``dim=64`` and ``dim=64.0`` never share an entry.
    """
    if tag == "suite":
        from repro.workloads.suite import generate_matrix

        key, dim, seed = args
        coo = generate_matrix(key, dim=dim, seed=seed)
    else:
        from repro.workloads.locality import matrix_with_locality

        rows, cols, nnz, block_size, locality_percent, seed = args
        coo = matrix_with_locality(rows, cols, nnz, block_size, locality_percent, seed=seed)
    for array in (coo.row, coo.col, coo.values):
        array.setflags(write=False)
    return coo


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


def _execute_jobs_batched(jobs: Sequence[Job], batch: int) -> List[Dict]:
    """Execute jobs in order, batching kernel jobs' replays up to ``batch``.

    Runs of consecutive kernel-kind jobs are grouped up to ``batch``; each
    group's trace segments defer through one
    :class:`~repro.sim.memory.ReplayBatcher` and replay in a single merged
    backend invocation per hierarchy at the end of the group, after which
    the memory-derived report fields are rebuilt from the hierarchy's final
    statistics (everything else in a kernel report is trace-independent).
    Application jobs merge several phase reports mid-run, so they execute
    unbatched, in order. Payloads are bit-identical to unbatched execution:
    per-job hierarchies are independent, and merging one hierarchy's
    segments is exact by the chunk-boundary contract.

    Shared by the serial miss path (``replay_batch > 1``) and the chunked
    worker-pool entry point :func:`_execute_chunk_payloads`.
    """
    from repro.sim.memory import ReplayBatcher, replay_batching

    payloads: List[Optional[Dict]] = [None] * len(jobs)
    group: List[int] = []

    def flush_group() -> None:
        if not group:
            return
        batcher = ReplayBatcher()
        pending: List[Tuple[int, CostReport, List]] = []
        for idx in group:
            with replay_batching(batcher):
                report = execute_job(jobs[idx])
            pending.append((idx, report, batcher.take_new_hierarchies()))
        batcher.flush()
        for idx, report, hierarchies in pending:
            if len(hierarchies) > 1:
                raise RuntimeError(
                    "replay batching expects one memory hierarchy per "
                    f"kernel job, found {len(hierarchies)}"
                )
            if hierarchies:
                report = _patch_memory_fields(
                    report, hierarchies[0].snapshot_stats()
                )
            payloads[idx] = report.to_dict()
        group.clear()

    for i, job in enumerate(jobs):
        if job.kind in KERNEL_KINDS:
            group.append(i)
            if len(group) >= batch:
                flush_group()
        else:
            flush_group()
            payloads[i] = _execute_job_payload(job)
    flush_group()
    return payloads  # type: ignore[return-value]


def _execute_chunk_payloads(jobs: List[Job], batch: int) -> List[Dict]:
    """Worker entry point for chunked dispatch: one pool task, many jobs.

    Executes a whole dispatch chunk inside the worker with the per-worker
    replay batcher: the chunk's kernel jobs defer their trace segments and
    flush through one merged backend call per hierarchy. An explicit
    ``replay_batch > 1`` bounds the group size as on the serial path;
    otherwise the whole chunk batches as one group (result-neutral either
    way by the chunk-boundary contract). Payload order matches job order.
    """
    return _execute_jobs_batched(jobs, batch if batch > 1 else max(1, len(jobs)))


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
        #: Optional post-store hook ``(key, document) -> None`` used by
        #: :mod:`repro.store` to keep its sqlite index warm incrementally.
        #: Kept as a plain callback so this layer never imports the store
        #: (RL006: ``repro.store`` sits strictly above ``repro.eval.runner``).
        self.indexer: Optional[Callable[[str, Dict], None]] = None

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

    def store(self, key: str, job: Job, report_payload: Dict) -> None:
        """Persist the report payload for ``job`` (atomic replace)."""
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
        if self.indexer is not None:
            self.indexer(key, document)


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


def resolve_processes(processes: Optional[int] = None) -> int:
    """The effective worker count: explicit value, else env var, else 1.

    Delegates to :meth:`RuntimeConfig.from_env` — the library's single
    environment-reading site — so explicit values take precedence over
    ``SMASH_REPRO_PROCESSES`` and non-positive or non-integer values fail
    with a clear ``ValueError`` naming the offending knob.
    """
    return RuntimeConfig.from_env(processes=processes).processes


def _init_worker_overrides(
    has_chunk: bool,
    chunk: Optional[int],
    has_backend: bool,
    backend: Optional[str],
    warmup: bool = False,
) -> None:
    """Worker-pool initializer: pin runtime overrides, pre-warm the backend.

    The "no override" sentinels cannot cross the process boundary (pickling
    creates fresh objects that no longer compare identical), so presence is
    carried as explicit booleans. With ``warmup`` the worker pays the
    effective replay backend's one-time setup cost — numba JIT for
    ``"compiled"`` — at pool start via
    :func:`repro.sim.memory.prime_replay_backend`, so the first real job is
    never the one that compiles. Overrides are pinned first, so the warm-up
    primes the backend the jobs will actually use.
    """
    if has_chunk:
        _trace.set_chunk_override(chunk)
    if has_backend:
        _replay_core.set_backend_override(backend)
    if warmup:
        from repro.sim.memory import prime_replay_backend

        prime_replay_backend()


class SweepRunner:
    """Futures-based job scheduler with dedup, caching and fan-out.

    ``processes=1`` (the default) runs everything in-process — no pool, no
    pickling — so debugging with pdb or print stays trivial; ``processes>1``
    fans cache misses out over a ``ProcessPoolExecutor`` that persists
    across :meth:`run`/:meth:`submit` calls (one pool for a whole
    multi-experiment sweep) until :meth:`close`. ``cache_dir=None`` disables
    the on-disk cache (in-batch deduplication still applies). ``trace_chunk``
    pins the bounded-memory replay budget and ``replay_backend`` the replay
    engine for this runner's jobs — serial execution wraps process-local
    overrides, pool workers are initialized with them — while the
    :data:`USE_ENV_CHUNK` / :data:`USE_ENV_BACKEND` defaults defer to the
    environment knobs. ``replay_batch`` groups up to that many consecutive
    kernel-job cache misses per serial batch, deferring their trace replays
    into one merged backend invocation each (see
    :class:`repro.sim.memory.ReplayBatcher`); ``replay_profile`` collects
    per-phase replay wall-clock of serial execution into
    :attr:`last_profile`. ``pool_chunk`` sets how many cache misses one
    worker-pool task carries (0 = auto-split across ``processes * 4``
    tasks, 1 = the historical one-job-per-task dispatch) — inside a worker
    a chunk's kernel jobs batch their replays through one merged backend
    call per hierarchy, exactly as the serial batcher does — and
    ``pool_warmup`` (default on) pre-JITs the replay backend in each worker
    at pool start. Results are independent of all eight knobs — ``None``
    defers ``replay_batch``/``replay_profile``/``pool_chunk``/
    ``pool_warmup`` to their environment variables.

    The runner is safe for concurrent use from multiple threads
    (DESIGN.md section 15). Scheduling is *single-flight*: an in-flight
    table keyed by :func:`job_key` ensures that while a job executes, any
    other submission of the same job — from any thread — joins the
    existing future instead of executing again. All scheduler state (the
    statistics, the in-flight table, cache loads/stores and pool creation)
    is guarded by one scheduler lock; serial in-process execution is
    additionally serialized by an execution lock, because the process-local
    trace-chunk/replay-backend overrides are module-level state that must
    not be entered concurrently. The scheduler lock is never held while a
    job executes, and the execution lock is never acquired while the
    scheduler lock is held.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        trace_chunk: object = USE_ENV_CHUNK,
        replay_backend: object = USE_ENV_BACKEND,
        replay_batch: Optional[int] = None,
        replay_profile: Optional[bool] = None,
        pool_chunk: Optional[int] = None,
        pool_warmup: Optional[bool] = None,
    ) -> None:
        self.processes = resolve_processes(processes)
        self.cache = ReportCache(cache_dir) if cache_dir is not None else None
        self.stats = SweepStats()
        self.trace_chunk = trace_chunk
        self.replay_backend = replay_backend
        # Validate through RuntimeConfig (also the env fallback for None);
        # the explicit backend suppresses that knob's unrelated env read.
        resolved = RuntimeConfig.from_env(
            processes=1,
            cache_dir=None,
            trace_chunk=None,
            replay_backend=DEFAULT_REPLAY_BACKEND,
            replay_batch=replay_batch,
            replay_profile=replay_profile,
            pool_chunk=pool_chunk,
            pool_warmup=pool_warmup,
        )
        self.replay_batch = resolved.replay_batch
        self.replay_profile = resolved.replay_profile
        self.pool_chunk = resolved.pool_chunk
        self.pool_warmup = resolved.pool_warmup
        #: Per-phase replay seconds of the last :meth:`run` call's serial
        #: execution (``None`` until a profiled run happens).
        self.last_profile: Optional[Dict[str, float]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None
        #: Scheduler lock: guards stats, the in-flight table, cache
        #: loads/stores and pool creation. Never held while a job executes.
        self._lock = threading.Lock()
        #: Execution lock: serializes in-process job execution, because the
        #: process-local chunk/backend override contexts are module-level
        #: state. Acquired only while the scheduler lock is NOT held.
        self._exec_lock = threading.Lock()
        #: Single-flight table: job key -> future resolving to the job's
        #: serialized report payload. Entries exist only while the job is
        #: being executed; completion stores to the cache and removes the
        #: entry under the scheduler lock, so at every instant a job is
        #: either in flight or (with a cache) loadable from disk.
        self._inflight: Dict[str, "Future[Dict]"] = {}

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                has_chunk = self.trace_chunk is not USE_ENV_CHUNK
                has_backend = self.replay_backend is not USE_ENV_BACKEND
                if not has_chunk and not has_backend and not self.pool_warmup:
                    pool = ProcessPoolExecutor(max_workers=self.processes)
                else:
                    pool = ProcessPoolExecutor(
                        max_workers=self.processes,
                        initializer=_init_worker_overrides,
                        initargs=(
                            has_chunk,
                            self.trace_chunk if has_chunk else None,
                            has_backend,
                            self.replay_backend if has_backend else None,
                            self.pool_warmup,
                        ),
                    )
                self._pool = pool
                # Shut the workers down when the runner is garbage collected,
                # not only on explicit close().
                self._finalizer = weakref.finalize(self, pool.shutdown, wait=False)
            return self._pool

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

    def _resolve(self, key: str, job: Job, future: "Future[Dict]", payload: Dict) -> None:
        """Store ``payload``, retire the in-flight entry, wake the waiters.

        The cache store and the table removal happen under one lock
        acquisition, so a concurrent :meth:`_lookup_or_create` observes the
        job either still in flight or already on disk — never neither —
        which is what makes ``executed`` exactly the number of distinct
        jobs when a cache is configured.
        """
        with self._lock:
            if self.cache is not None:
                self.cache.store(key, job, payload)
            self._inflight.pop(key, None)
        future.set_result(payload)

    def _resolve_error(self, key: str, future: "Future[Dict]", error: BaseException) -> None:
        with self._lock:
            self._inflight.pop(key, None)
        if not future.done():
            future.set_exception(error)

    def _execute_owned_serial(self, owned: List[Tuple[str, Job, "Future[Dict]"]]) -> None:
        """Execute owned misses in this thread, resolving their futures.

        Execution order, override handling, replay batching and profiling
        are exactly the historical serial path, so payloads stay
        bit-identical; the execution lock keeps the module-level override
        contexts from interleaving between threads.
        """
        pending = dict((key, future) for key, _, future in owned)
        try:
            with self._exec_lock:
                with contextlib.ExitStack() as overrides:
                    if self.trace_chunk is not USE_ENV_CHUNK:
                        overrides.enter_context(_trace.chunk_override(self.trace_chunk))
                    if self.replay_backend is not USE_ENV_BACKEND:
                        overrides.enter_context(
                            _replay_core.backend_override(self.replay_backend)
                        )
                    profile = None
                    if self.replay_profile:
                        profile = overrides.enter_context(
                            _replay_core.profile_collection()
                        )
                    jobs = [job for _, job, _ in owned]
                    if self.replay_batch > 1:
                        fresh = self._execute_serial_batched(jobs)
                    else:
                        fresh = [_execute_job_payload(job) for job in jobs]
                    if profile is not None:
                        self.last_profile = dict(profile)
            for (key, job, future), payload in zip(owned, fresh):
                self._resolve(key, job, future, payload)
                del pending[key]
        except BaseException as error:
            # Resolve every future this call still owns before propagating:
            # a joiner blocked on an owned future must see the failure, not
            # hang on a future nobody will complete.
            for key, future in pending.items():
                self._resolve_error(key, future, error)
            raise

    def _effective_pool_chunk(self, n_owned: int) -> int:
        """Jobs carried per pool task: the explicit knob, else an auto split.

        Auto (``pool_chunk=0``) divides the misses over ``processes * 4``
        tasks — the oversubscription factor keeps workers busy when chunks
        finish unevenly — with a floor of one job per task.
        """
        if self.pool_chunk:
            return self.pool_chunk
        return max(1, -(-n_owned // (self.processes * 4)))

    def _execute_owned_pool(self, owned: List[Tuple[str, Job, "Future[Dict]"]]) -> None:
        """Fan owned misses out to the pool in chunks, resolving via callbacks.

        One pool task carries :meth:`_effective_pool_chunk` jobs, so a
        single IPC round-trip (one pickle each way) amortizes over the
        whole chunk and the worker batches the chunk's replays. The
        single-flight futures this call owns are fanned back out per job by
        the chunk callback; single-job chunks take the historical
        one-job-per-task entry point.
        """
        pool = self._ensure_pool()
        chunk_size = self._effective_pool_chunk(len(owned))
        for start in range(0, len(owned), chunk_size):
            chunk = owned[start : start + chunk_size]
            try:
                if len(chunk) == 1:
                    key, job, future = chunk[0]
                    task = pool.submit(_execute_job_payload, job)
                    task.add_done_callback(self._pool_callback(key, job, future))
                else:
                    jobs = [job for _, job, _ in chunk]
                    task = pool.submit(_execute_chunk_payloads, jobs, self.replay_batch)
                    task.add_done_callback(self._pool_chunk_callback(chunk))
            except BaseException as error:
                # A failed pool submission (e.g. pool already shut down)
                # must still resolve every owned future — this chunk and the
                # not-yet-submitted rest — or joiners hang forever.
                for failed_key, _, failed_future in owned[start:]:
                    self._resolve_error(failed_key, failed_future, error)
                raise

    def _pool_callback(
        self, key: str, job: Job, future: "Future[Dict]"
    ) -> Callable[["Future[Dict]"], None]:
        def done(task: "Future[Dict]") -> None:
            error = task.exception()
            if error is not None:
                self._resolve_error(key, future, error)
                return
            try:
                self._resolve(key, job, future, task.result())
            except BaseException as store_error:  # e.g. cache store failed
                self._resolve_error(key, future, store_error)

        return done

    def _pool_chunk_callback(
        self, chunk: List[Tuple[str, Job, "Future[Dict]"]]
    ) -> Callable[["Future[List[Dict]]"], None]:
        """Fan one chunk task's payload list back out to its job futures.

        A failing job fails its whole chunk: none of the chunk's payloads
        exist (the worker raised before returning), so every joiner sees
        the error, nothing is cached, and a retry re-executes the chunk's
        jobs — the same retry semantics as per-job dispatch, at chunk
        granularity.
        """

        def done(task: "Future[List[Dict]]") -> None:
            error = task.exception()
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
            for (key, job, future), payload in zip(chunk, payloads):
                try:
                    self._resolve(key, job, future, payload)
                except BaseException as store_error:  # e.g. cache store failed
                    self._resolve_error(key, future, store_error)

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
        Submission-time batching (``replay_batch``) applies only to
        :meth:`run` batches, never across independent ``submit`` calls.
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

    def _execute_serial_batched(self, jobs: Sequence[Job]) -> List[Dict]:
        """Serial miss execution with kernel jobs' replays batched.

        Delegates to :func:`_execute_jobs_batched` (shared with the chunked
        worker-pool entry point) with this runner's ``replay_batch`` as the
        group bound.
        """
        return _execute_jobs_batched(jobs, self.replay_batch)

    def run_one(self, job: Job) -> CostReport:
        """Convenience wrapper for a single job."""
        return self.run([job])[0]


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


def _patch_memory_fields(report: CostReport, stats) -> CostReport:
    """Rebuild the memory-derived report fields from final hierarchy stats.

    A batched kernel job computes its report before its deferred trace has
    replayed; these five fields are exactly the ones a kernel report takes
    from ``MemoryHierarchy.snapshot_stats()`` (``cycles`` is a property over
    ``memory_stall_cycles``, so it follows along).
    """
    return dataclasses.replace(
        report,
        memory_stall_cycles=stats.stall_cycles,
        dram_accesses=stats.dram_accesses,
        l1_miss_rate=stats.l1.miss_rate,
        l2_miss_rate=stats.l2.miss_rate,
        l3_miss_rate=stats.l3.miss_rate,
        per_structure_accesses=dict(stats.per_structure_accesses),
    )
