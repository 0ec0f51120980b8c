"""repro.store: the queryable result store over the report cache.

The report cache's sqlite database (``.smash-cache/reports.sqlite``) is the
one copy of every cached report; this package is the read-side tooling
on top of it (DESIGN.md section 16):

* :class:`ResultStore` — filtered, sorted and aggregated queries over the
  cache's ``reports`` table.
* :mod:`repro.store.query` — deterministic table/csv/json rendering.
* :mod:`repro.store.tables` — paper-ready per-figure summary tables.
* :mod:`repro.store.gc` — cache pruning by age or foreign schema.
* :mod:`repro.store.cli` — the ``smash-repro query/tables/cache``
  subcommands (mounted by :mod:`repro.eval.cli`).

Layering (RL006): strictly above ``repro.eval.runner`` and the config
layer, strictly below ``repro.api.session`` / ``repro.service`` — the
store reads what the cache writes, and nothing result-producing depends
on the store.
"""

from repro.store.index import (
    Query,
    ResultStore,
    StoreError,
    query_from_mapping,
)

__all__ = [
    "Query",
    "ResultStore",
    "StoreError",
    "query_from_mapping",
]
