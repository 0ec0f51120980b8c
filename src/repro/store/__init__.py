"""repro.store: the queryable result store over the report cache.

The cache tree (``.smash-cache/``) is the source of truth; this package
maintains a derived, rebuildable sqlite index over it and the read-side
tooling on top (DESIGN.md section 16):

* :class:`ResultStore` / :func:`attach_indexer` — the index itself and the
  incremental ingest hook a :class:`~repro.api.session.Session` hangs on
  its report cache.
* :mod:`repro.store.query` — deterministic table/csv/json rendering.
* :mod:`repro.store.tables` — paper-ready per-figure summary tables.
* :mod:`repro.store.gc` — cache pruning by age or foreign schema.
* :mod:`repro.store.cli` — the ``smash-repro query/tables/cache``
  subcommands (mounted by :mod:`repro.eval.cli`).

Layering (RL006): strictly above ``repro.eval.runner`` and the config
layer, strictly below ``repro.api.session`` / ``repro.service`` — the
index can read everything the cache writes, and nothing result-producing
can ever depend on the index.
"""

from repro.store.index import (
    INDEX_SCHEMA_VERSION,
    Query,
    ReindexStats,
    ResultStore,
    StoreError,
    StoreIndexer,
    attach_indexer,
    query_from_mapping,
)

__all__ = [
    "INDEX_SCHEMA_VERSION",
    "Query",
    "ReindexStats",
    "ResultStore",
    "StoreError",
    "StoreIndexer",
    "attach_indexer",
    "query_from_mapping",
]
