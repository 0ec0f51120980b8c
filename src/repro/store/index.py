"""The sqlite result index: a queryable view over the report-cache tree.

``.smash-cache/`` is write-optimized: one content-keyed JSON document per
job, atomic replaces, no global state (DESIGN.md section 9). This module
adds the read side — a single-file sqlite database (stdlib ``sqlite3``)
living next to the shards (``<cache_root>/index.sqlite`` by default) whose
``reports`` table holds one row per cached job: the filter columns a query
needs (kind, scheme, workload key, dimension), the scalar cost metrics, and
the *canonical JSON* of the full report payload, so a query result is
bit-consistent with :meth:`~repro.sim.instrumentation.CostReport.to_dict`.

Two ingestion paths, one invariant (DESIGN.md section 16):

* **Incremental** — :func:`attach_indexer` hangs a :class:`StoreIndexer` on
  a :class:`~repro.eval.runner.ReportCache`. The sweep runner calls it once
  per resolved batch (one pool chunk, or one serial batch of misses) with
  the batch's ``(key, document)`` pairs, and :meth:`ResultStore.ingest`
  upserts their rows in one transaction, so the index stays warm while
  sweeps run.
* **Full** — :meth:`ResultStore.reindex` rebuilds the database from the
  cache tree alone (into a temp file, installed with ``os.replace``), for
  cold caches, foreign caches written by other hosts, or recovery.

The invariant: both paths derive every row *purely from the cache
document*, in particular never from wall-clock or file metadata, so a full
reindex of a warm cache reproduces the incrementally built index exactly
(:meth:`ResultStore.canonical_dump` equality; the sqlite *file bytes* are
not comparable — page layout depends on insertion order).

Tables other than ``reports`` and ``meta`` are ignored, so an index written
by an older release that also carries other tables keeps serving queries;
a ``reindex`` writes a fresh file without them.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import sqlite3
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.eval.runner import CACHE_SCHEMA_VERSION, ReportCache

#: Bumped whenever the index schema changes incompatibly; a database written
#: under another version refuses to serve queries until reindexed.
INDEX_SCHEMA_VERSION = 1

#: Default file name of the index, directly under the cache root (the shard
#: directories are two-hex-character names, so the index never collides with
#: or pollutes the ``<xx>/<key>.json`` report layout).
INDEX_FILENAME = "index.sqlite"

#: Columns of the ``reports`` table, in declaration order. Every value is
#: derived from the cache document alone (the reindex == incremental
#: invariant); ``report`` is the canonical JSON of the report payload.
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

#: The numeric metric columns a mean-aggregation averages.
METRIC_COLUMNS: Tuple[str, ...] = (
    "instructions",
    "issue_cycles",
    "memory_stall_cycles",
    "cycles",
    "dram_accesses",
    "l1_miss_rate",
    "l2_miss_rate",
    "l3_miss_rate",
)


class StoreError(RuntimeError):
    """A result-store operation failed (schema mismatch, malformed query)."""


def _canonical(value: object) -> str:
    """The canonical JSON encoding used for every serialized column."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def document_row(key: str, document: object) -> Optional[Dict[str, object]]:
    """The index row for one cache document, or ``None`` if unindexable.

    Unindexable means malformed (not the documented ``{schema, job,
    report}`` shape) or written under a foreign cache schema — both are
    cache misses to the sweep engine and stay invisible to queries.
    """
    if not isinstance(document, dict):
        return None
    if document.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    job = document.get("job")
    report = document.get("report")
    if not isinstance(job, dict) or not isinstance(report, dict):
        return None
    try:
        source = list(job["source"])
        workload_kind = str(source[0])
        workload_key = (
            str(source[1]) if workload_kind in ("suite", "graph") else None
        )
        if workload_kind in ("suite", "graph"):
            dim = source[2] if len(source) > 2 else None
        elif workload_kind == "locality":
            dim = source[1]
        else:
            dim = None
        issue_cycles = float(report["issue_cycles"])
        stall_cycles = float(report["memory_stall_cycles"])
        return {
            "key": key,
            "cache_schema": int(document["schema"]),
            "kind": str(job["kind"]),
            "scheme": str(job["scheme"]),
            "workload_kind": workload_kind,
            "workload_key": workload_key,
            "dim": int(dim) if dim is not None else None,
            "workload": _canonical(source),
            "params": _canonical(job.get("params", {})),
            "instructions": sum(
                int(v) for v in report["instructions"].values()
            ),
            "issue_cycles": issue_cycles,
            "memory_stall_cycles": stall_cycles,
            "cycles": issue_cycles + stall_cycles,
            "dram_accesses": int(report["dram_accesses"]),
            "l1_miss_rate": float(report["l1_miss_rate"]),
            "l2_miss_rate": float(report["l2_miss_rate"]),
            "l3_miss_rate": float(report["l3_miss_rate"]),
            "report": _canonical(report),
        }
    except (KeyError, IndexError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class Query:
    """A declarative filter over the ``reports`` table.

    ``matrix`` filters on the workload key (a Table 3 matrix id or a
    Table 4 graph id); ``keys`` restricts to an explicit job-key set (how
    the CLI's ``--experiment`` filter lowers); ``mean_by`` switches to
    aggregation mode — rows are grouped by that column and every metric
    column is averaged (in Python, in sorted-key order, so aggregates are
    deterministic regardless of database insertion order).
    """

    kernel: Optional[str] = None
    scheme: Optional[str] = None
    matrix: Optional[str] = None
    workload_kind: Optional[str] = None
    dim: Optional[int] = None
    keys: Optional[Tuple[str, ...]] = None
    sort: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    mean_by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sort is not None and self.sort not in COLUMN_NAMES:
            raise StoreError(
                f"unknown sort column {self.sort!r}; known columns: {list(COLUMN_NAMES)}"
            )
        if self.mean_by is not None and self.mean_by not in COLUMN_NAMES:
            raise StoreError(
                f"unknown mean-by column {self.mean_by!r}; "
                f"known columns: {list(COLUMN_NAMES)}"
            )
        if self.limit is not None and self.limit < 0:
            raise StoreError(f"limit must be non-negative, got {self.limit}")
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(self.keys))


_QUERY_PARAMS = frozenset(
    {
        "kernel",
        "scheme",
        "matrix",
        "workload_kind",
        "dim",
        "sort",
        "descending",
        "limit",
        "mean_by",
    }
)


def query_from_mapping(raw: Dict[str, str]) -> Query:
    """Build a :class:`Query` from string parameters (CLI flags, URL query).

    Raises :class:`StoreError` on unknown parameter names or malformed
    integer values, so HTTP handlers can map any bad request to a 400.
    """
    unknown = sorted(set(raw) - _QUERY_PARAMS)
    if unknown:
        raise StoreError(
            f"unknown query parameters: {unknown}; known: {sorted(_QUERY_PARAMS)}"
        )

    def _int(name: str) -> Optional[int]:
        value = raw.get(name)
        if value is None or value == "":
            return None
        try:
            return int(value)
        except ValueError:
            raise StoreError(f"{name} must be an integer, got {value!r}") from None

    descending = str(raw.get("descending", "")).strip().lower() in ("1", "true", "yes", "on")
    return Query(
        kernel=raw.get("kernel") or None,
        scheme=raw.get("scheme") or None,
        matrix=raw.get("matrix") or None,
        workload_kind=raw.get("workload_kind") or None,
        dim=_int("dim"),
        sort=raw.get("sort") or None,
        descending=descending,
        limit=_int("limit"),
        mean_by=raw.get("mean_by") or None,
    )


@dataclass(frozen=True)
class ReindexStats:
    """What a full :meth:`ResultStore.reindex` found in the cache tree."""

    indexed: int = 0
    skipped_foreign: int = 0
    skipped_malformed: int = 0

    def describe(self) -> str:
        return (
            f"{self.indexed} indexed, {self.skipped_foreign} foreign-schema, "
            f"{self.skipped_malformed} malformed"
        )


class ResultStore:
    """The sqlite index over one report-cache tree.

    Thread-safe: one internal lock serializes writers within the process,
    and every operation opens its own short-lived connection (with a busy
    timeout), so concurrent processes sharing the cache — pool parents,
    several CLI invocations, the service daemon — coordinate through
    sqlite's own file locking.
    """

    def __init__(
        self,
        cache_root: Union[str, pathlib.Path],
        index_path: Optional[Union[str, pathlib.Path]] = None,
    ) -> None:
        self.cache = ReportCache(cache_root)
        self.root = self.cache.root
        self.path = (
            pathlib.Path(index_path) if index_path is not None else self.root / INDEX_FILENAME
        )
        self._lock = threading.Lock()
        #: Whether :meth:`ingest` has ensured the schema on this object. A
        #: batch that finds the ``reports`` table missing (the file was
        #: deleted or replaced since) clears it and retries once.
        self._schema_ready = False

    # ------------------------------------------------------------------ #
    # Schema plumbing
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _connect(self, path: Optional[pathlib.Path] = None) -> Iterator[sqlite3.Connection]:
        target = path if path is not None else self.path
        target.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(target), timeout=30.0)
        try:
            yield conn
            conn.commit()
        finally:
            conn.close()

    @staticmethod
    def _ensure_schema(conn: sqlite3.Connection) -> None:
        columns = ", ".join(f"{name} {sqltype}" for name, sqltype in REPORT_COLUMNS)
        conn.execute(f"CREATE TABLE IF NOT EXISTS reports ({columns})")
        conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'index_schema'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('index_schema', ?)",
                (str(INDEX_SCHEMA_VERSION),),
            )
        elif row[0] != str(INDEX_SCHEMA_VERSION):
            raise StoreError(
                f"index schema {row[0]} != supported {INDEX_SCHEMA_VERSION}; "
                "rebuild with `smash-repro cache reindex`"
            )

    def exists(self) -> bool:
        """Whether the index file is present on disk."""
        return self.path.exists()

    def ensure(self) -> None:
        """Build the index from the cache tree if it does not exist yet."""
        if not self.exists():
            self.reindex()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    _UPSERT_SQL = (
        f"INSERT OR REPLACE INTO reports ({', '.join(COLUMN_NAMES)}) "
        f"VALUES ({', '.join('?' for _ in COLUMN_NAMES)})"
    )

    @classmethod
    def _upsert(cls, conn: sqlite3.Connection, rows: Sequence[Dict[str, object]]) -> None:
        conn.executemany(
            cls._UPSERT_SQL, [tuple(row[name] for name in COLUMN_NAMES) for row in rows]
        )

    def ingest(self, batch: Sequence[Tuple[str, object]]) -> int:
        """Index a batch of ``(key, document)`` pairs; returns rows written.

        Unindexable documents are skipped and not counted. The batch is
        upserted over one short-lived connection in one commit. The schema
        is ensured on the first batch only; a later batch that finds the
        ``reports`` table gone (the index file was deleted or replaced)
        ensures it again and retries once.
        """
        rows = [
            row
            for row in (document_row(key, document) for key, document in batch)
            if row is not None
        ]
        if not rows:
            return 0
        with self._lock:
            try:
                self._write_rows(rows)
            except sqlite3.OperationalError as error:
                if "no such table" not in str(error):
                    raise
                self._schema_ready = False
                self._write_rows(rows)
        return len(rows)

    def _write_rows(self, rows: Sequence[Dict[str, object]]) -> None:
        with self._connect() as conn:
            if not self._schema_ready:
                self._ensure_schema(conn)
            self._upsert(conn, rows)
        self._schema_ready = True

    def reindex(self) -> ReindexStats:
        """Rebuild the whole index from the cache tree (atomic install).

        The rebuild walks the ``<xx>/<key>.json`` shards in sorted order
        into a fresh temporary database, then ``os.replace``s it over the
        live index — a reader never observes a half-built file. Returns
        counts of indexed and skipped documents.
        """
        indexed = foreign = malformed = 0
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        with self._lock:
            with contextlib.suppress(FileNotFoundError):
                tmp.unlink()
            try:
                with self._connect(tmp) as conn:
                    self._ensure_schema(conn)
                    for key, path in self.cache.iter_entries():
                        try:
                            document = json.loads(path.read_text(encoding="utf-8"))
                        except (OSError, ValueError):
                            malformed += 1
                            continue
                        row = document_row(key, document)
                        if row is None:
                            if (
                                isinstance(document, dict)
                                and document.get("schema") != CACHE_SCHEMA_VERSION
                            ):
                                foreign += 1
                            else:
                                malformed += 1
                            continue
                        self._upsert(conn, [row])
                        indexed += 1
                os.replace(tmp, self.path)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    tmp.unlink()
        return ReindexStats(indexed, foreign, malformed)

    def delete(self, keys: Sequence[str]) -> int:
        """Drop the rows for ``keys`` (the gc path); returns rows removed."""
        keys = list(keys)
        if not keys or not self.exists():
            return 0
        removed = 0
        with self._lock, self._connect() as conn:
            self._ensure_schema(conn)
            for start in range(0, len(keys), 500):
                chunk = keys[start : start + 500]
                holes = ", ".join("?" for _ in chunk)
                cursor = conn.execute(
                    f"DELETE FROM reports WHERE key IN ({holes})", tuple(chunk)
                )
                removed += cursor.rowcount
        return removed

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _fetch(self, query: Query) -> List[Dict[str, object]]:
        clauses: List[str] = []
        params: List[object] = []
        for column, value in (
            ("kind", query.kernel),
            ("scheme", query.scheme),
            ("workload_key", query.matrix),
            ("workload_kind", query.workload_kind),
            ("dim", query.dim),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if query.keys is not None:
            if not query.keys:
                return []
            holes = ", ".join("?" for _ in query.keys)
            clauses.append(f"key IN ({holes})")
            params.extend(query.keys)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        order = (
            f"{query.sort} {'DESC' if query.descending else 'ASC'}, key ASC"
            if query.sort is not None
            else "kind ASC, scheme ASC, workload_kind ASC, "
            "workload_key ASC, dim ASC, key ASC"
        )
        names = ", ".join(COLUMN_NAMES)
        sql = f"SELECT {names} FROM reports{where} ORDER BY {order}"
        with self._connect() as conn:
            self._ensure_schema(conn)
            rows = conn.execute(sql, tuple(params)).fetchall()
        return [dict(zip(COLUMN_NAMES, row)) for row in rows]

    def query(self, query: Query) -> List[Dict[str, object]]:
        """Execute ``query``; each row is a plain dict in column order.

        In aggregation mode (``mean_by``) the result rows carry the group
        value, a ``count``, and the arithmetic mean of every metric column,
        computed in Python over key-sorted rows so the floats are identical
        for any database insertion order.
        """
        rows = self._fetch(query)
        if query.mean_by is None:
            if query.limit is not None:
                rows = rows[: query.limit]
            return rows
        groups: Dict[object, List[Dict[str, object]]] = {}
        for row in sorted(rows, key=lambda r: str(r["key"])):
            groups.setdefault(row[query.mean_by], []).append(row)
        aggregated = []
        for value in sorted(groups, key=lambda v: (v is None, str(v))):
            members = groups[value]
            entry: Dict[str, object] = {query.mean_by: value, "count": len(members)}
            for metric in METRIC_COLUMNS:
                entry[metric] = sum(float(m[metric]) for m in members) / len(members)
            aggregated.append(entry)
        if query.limit is not None:
            aggregated = aggregated[: query.limit]
        return aggregated

    def report_count(self) -> int:
        """Rows currently in the ``reports`` table (0 if no index)."""
        if not self.exists():
            return 0
        with self._connect() as conn:
            self._ensure_schema(conn)
            return int(conn.execute("SELECT COUNT(*) FROM reports").fetchone()[0])

    def canonical_dump(self) -> str:
        """A deterministic serialization of the whole index.

        Every report row, key-sorted, as canonical JSON plus the schema
        version — the equality witness of the "reindex reproduces the
        incremental index" invariant (sqlite file bytes are layout-
        dependent and deliberately not compared).
        """
        rows = self._fetch(Query(sort="key"))
        return _canonical({"index_schema": INDEX_SCHEMA_VERSION, "reports": rows})


class StoreIndexer:
    """The incremental ingest hook hung on ``ReportCache.indexer``.

    The sweep runner calls it once per resolved batch with the batch's
    ``(key, document)`` pairs, and it forwards the whole batch to
    :meth:`ResultStore.ingest`. The index is derived, rebuildable data — an
    ingest failure must never fail the sweep that produced the
    (successfully cached) reports. The first error disables the hook for
    the rest of the process with one ``RuntimeWarning``; a later
    ``reindex`` recovers the missed rows.
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self._failed = False
        # Pool callbacks can resolve batches on two threads at once; the lock
        # makes "the first error disables the hook" exact.
        self._lock = threading.Lock()

    def __call__(self, batch: Sequence[Tuple[str, Dict]]) -> None:
        with self._lock:
            if self._failed or not batch:
                return
            try:
                self.store.ingest(batch)
            except Exception as error:  # noqa: BLE001 - degraded, not fatal
                self._failed = True
                warnings.warn(
                    f"result-store ingest disabled after an index error: {error}; "
                    "rebuild later with `smash-repro cache reindex`",
                    RuntimeWarning,
                    stacklevel=2,
                )


def attach_indexer(
    cache: ReportCache,
    index_path: Optional[Union[str, pathlib.Path]] = None,
) -> StoreIndexer:
    """Wire a new incremental indexer onto ``cache``, replacing its hook.

    A cache holds one indexer: each call installs a fresh
    :class:`StoreIndexer` as ``cache.indexer`` and returns it.
    """
    indexer = StoreIndexer(ResultStore(cache.root, index_path))
    cache.indexer = indexer
    return indexer


#: Callable type of the ReportCache hook, for documentation purposes: one
#: call per resolved batch of ``(key, document)`` pairs.
IndexerHook = Callable[[Sequence[Tuple[str, Dict]]], None]
