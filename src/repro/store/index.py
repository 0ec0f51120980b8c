"""The result store: queries over the report cache's sqlite database.

The report cache (:class:`~repro.eval.runner.ReportCache`) keeps one
``reports`` row per cached job in ``<cache_root>/reports.sqlite``: the
filter columns a query needs (kind, scheme, workload key, dimension), the
scalar cost metrics, and the *canonical JSON* of the full report payload,
so a query result is bit-consistent with
:meth:`~repro.sim.instrumentation.CostReport.to_dict`. The row format
lives beside the cache in :mod:`repro.eval.runner`; this module only reads
it (DESIGN.md section 16). There is one copy of every report, so there is
nothing to rebuild or keep in step.

Rows written under a foreign cache schema are permanent misses to the
sweep engine and stay invisible to queries. Tables other than ``reports``
are ignored.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.eval.runner import (
    CACHE_SCHEMA_VERSION,
    COLUMN_NAMES,
    STORE_SCHEMA_VERSION,
    ReportCache,
    canonical_json,
)

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
    """A result-store operation failed (malformed query, no cache to query)."""


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


class ResultStore:
    """Read-side queries over one report cache's database.

    Built on a :class:`~repro.eval.runner.ReportCache` (sharing its
    connection and lock, as the service daemon does with its Session's
    cache) or on a cache root, which opens a cache of its own.
    """

    def __init__(self, cache: Union[ReportCache, str, pathlib.Path]) -> None:
        self.cache = cache if isinstance(cache, ReportCache) else ReportCache(cache)
        self.root = self.cache.root
        self.path = self.cache.path

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _fetch(self, query: Query) -> List[Dict[str, object]]:
        clauses: List[str] = ["cache_schema = ?"]
        params: List[object] = [CACHE_SCHEMA_VERSION]
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
        where = f" WHERE {' AND '.join(clauses)}"
        order = (
            f"{query.sort} {'DESC' if query.descending else 'ASC'}, key ASC"
            if query.sort is not None
            else "kind ASC, scheme ASC, workload_kind ASC, "
            "workload_key ASC, dim ASC, key ASC"
        )
        names = ", ".join(COLUMN_NAMES)
        sql = f"SELECT {names} FROM reports{where} ORDER BY {order}"
        with self.cache.connection() as conn:
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
        """Rows currently in the database (0 before the first store)."""
        return self.cache.count()

    def canonical_dump(self) -> str:
        """A deterministic serialization of every visible row.

        Every report row, key-sorted, as canonical JSON plus the schema
        version — the equality witness that two caches (say, one written
        serially and one by a pool) hold the same results; the sqlite
        *file bytes* are layout-dependent and deliberately not compared.
        """
        rows = self._fetch(Query(sort="key"))
        return canonical_json({"store_schema": STORE_SCHEMA_VERSION, "reports": rows})
