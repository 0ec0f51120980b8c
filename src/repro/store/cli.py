"""The ``smash-repro`` store subcommands: query, tables, cache.

:mod:`repro.eval.cli` mounts these onto its parser via
:func:`add_store_subcommands` and dispatches back through
:func:`run_store_command`. The experiment filter of ``query`` needs the
experiment registry, which lives *above* this package in the layer DAG
(``repro.eval`` > ``repro.store``), so the CLI layer injects a resolver
callback — ``(experiment_id, quick) -> tuple of job keys`` — instead of
this module importing it.

Every command resolves its cache location through
:meth:`RuntimeConfig.from_env` (the single environment-reading site), so
``--cache-dir`` and ``SMASH_REPRO_CACHE_DIR`` / ``SMASH_REPRO_STORE_INDEX``
behave exactly as they do for sweeps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from typing import Callable, Optional, Tuple

from repro.api.config import DEFAULT_CACHE_DIR, RuntimeConfig
from repro.eval.runner import ReportCache
from repro.store import gc as store_gc
from repro.store.index import (
    COLUMN_NAMES,
    INDEX_SCHEMA_VERSION,
    ResultStore,
    StoreError,
    query_from_mapping,
)
from repro.store.query import FORMATS, render_rows
from repro.store.tables import TABLE_IDS, render_tables
from repro.workloads.sources import SOURCE_TAGS

#: Signature of the injected experiment resolver (see module docstring).
ExperimentResolver = Callable[[str, bool], Tuple[str, ...]]


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=(
            f"report cache directory (default: ${{SMASH_REPRO_CACHE_DIR}} "
            f"or {DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--index",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help=(
            "sqlite index file (default: $SMASH_REPRO_STORE_INDEX or "
            "index.sqlite under the cache root)"
        ),
    )


def _add_format_argument(parser: argparse.ArgumentParser, default: str = "table") -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=default,
        help=f"output format (default: {default})",
    )


def add_store_subcommands(subparsers) -> None:
    """Mount the store subcommands onto the ``smash-repro`` subparsers."""
    query_parser = subparsers.add_parser(
        "query",
        help="query the result store (sqlite index over the report cache)",
        description=(
            "Filter, sort and aggregate the cached cost reports. The index "
            "is built on first use and kept warm by every cached sweep; "
            "--reindex forces a full rebuild from the cache tree."
        ),
    )
    query_parser.add_argument("--kernel", default=None, help="filter: kernel id (spmv, spmm, ...)")
    query_parser.add_argument("--scheme", default=None, help="filter: scheme id (taco_csr, smash_hw, ...)")
    query_parser.add_argument(
        "--matrix", default=None, help="filter: workload id (Table 3 matrix or graph key)"
    )
    query_parser.add_argument(
        "--workload-kind",
        default=None,
        choices=SOURCE_TAGS,
        help="filter: workload family",
    )
    query_parser.add_argument("--dim", type=int, default=None, help="filter: dense dimension")
    query_parser.add_argument(
        "--experiment",
        default=None,
        metavar="ID",
        help="filter: only jobs belonging to a registered experiment (e.g. figure10)",
    )
    query_parser.add_argument(
        "--quick",
        action="store_true",
        help="with --experiment: match the experiment's --quick job set",
    )
    query_parser.add_argument(
        "--sort", default=None, metavar="COLUMN", help=f"sort column ({', '.join(COLUMN_NAMES)})"
    )
    query_parser.add_argument("--desc", action="store_true", help="sort descending")
    query_parser.add_argument("--limit", type=int, default=None, metavar="N", help="keep first N rows")
    query_parser.add_argument(
        "--mean-by",
        default=None,
        metavar="COLUMN",
        help="aggregate: mean of every metric column, grouped by COLUMN",
    )
    query_parser.add_argument(
        "--reindex", action="store_true", help="rebuild the index from the cache tree first"
    )
    _add_format_argument(query_parser)
    _add_cache_arguments(query_parser)

    tables_parser = subparsers.add_parser(
        "tables",
        help="emit paper-ready summary tables from the result store",
        description=(
            "Per-figure ratio tables (speedup / DRAM reduction over "
            "taco_csr) computed from cached reports; output is "
            "byte-deterministic for a given cache."
        ),
    )
    tables_parser.add_argument(
        "tables",
        nargs="*",
        metavar="TABLE",
        help=f"tables to emit (default: all of {', '.join(TABLE_IDS)})",
    )
    tables_parser.add_argument("--dim", type=int, default=None, help="restrict to one dense dimension")
    tables_parser.add_argument(
        "--reindex", action="store_true", help="rebuild the index from the cache tree first"
    )
    _add_format_argument(tables_parser)
    _add_cache_arguments(tables_parser)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect and maintain the report cache and its index",
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)

    stats_parser = cache_sub.add_parser("stats", help="cache schema version, report and index counts")
    stats_parser.add_argument("--json", action="store_true", help="print as JSON")
    _add_cache_arguments(stats_parser)

    gc_parser = cache_sub.add_parser(
        "gc",
        help="prune cached reports (by age and/or foreign schema version)",
        description=(
            "Delete report documents older than --max-age-days and/or ones "
            "written under another cache schema (permanent misses); pruned "
            "keys are dropped from the sqlite index too."
        ),
    )
    gc_parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="prune entries whose file is older than DAYS days",
    )
    gc_parser.add_argument(
        "--orphaned",
        action="store_true",
        help="prune foreign-schema and unparseable documents",
    )
    gc_parser.add_argument("--dry-run", action="store_true", help="report without deleting")
    _add_cache_arguments(gc_parser)

    reindex_parser = cache_sub.add_parser(
        "reindex", help="rebuild the sqlite index from the cache tree"
    )
    _add_cache_arguments(reindex_parser)


def _resolve_store(args: argparse.Namespace) -> ResultStore:
    """The ResultStore for this invocation (flags win over environment)."""
    kwargs = {}
    if args.cache_dir is not None:
        kwargs["cache_dir"] = args.cache_dir
    if getattr(args, "index", None) is not None:
        kwargs["store_index"] = args.index
    runtime = RuntimeConfig.from_env(**kwargs)
    if not runtime.cache_enabled:
        raise StoreError(
            "the report cache is disabled (SMASH_REPRO_CACHE); the result "
            "store indexes the cache tree and needs one"
        )
    return ResultStore(runtime.cache_dir, runtime.store_index)


def _ensure_index(store: ResultStore, reindex: bool) -> None:
    if reindex:
        stats = store.reindex()
        print(f"smash-repro: reindexed {store.path}: {stats.describe()}", file=sys.stderr)
    else:
        store.ensure()


def run_store_command(
    args: argparse.Namespace,
    resolve_experiment: Optional[ExperimentResolver] = None,
) -> int:
    """Execute one mounted store subcommand; returns the exit code."""
    try:
        return _dispatch(args, resolve_experiment)
    except StoreError as error:
        print(f"smash-repro: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"smash-repro: {error}", file=sys.stderr)
        return 2


def _dispatch(
    args: argparse.Namespace, resolve_experiment: Optional[ExperimentResolver]
) -> int:
    if args.command == "query":
        store = _resolve_store(args)
        _ensure_index(store, args.reindex)
        mapping = {
            "kernel": args.kernel,
            "scheme": args.scheme,
            "matrix": args.matrix,
            "workload_kind": args.workload_kind,
            "dim": str(args.dim) if args.dim is not None else None,
            "sort": args.sort,
            "descending": "1" if args.desc else None,
            "limit": str(args.limit) if args.limit is not None else None,
            "mean_by": args.mean_by,
        }
        query = query_from_mapping({k: v for k, v in mapping.items() if v is not None})
        if args.experiment is not None:
            if resolve_experiment is None:
                raise StoreError("--experiment is not available in this context")
            keys = resolve_experiment(args.experiment, args.quick)
            query = dataclasses.replace(query, keys=keys)
        rows = store.query(query)
        sys.stdout.write(render_rows(rows, args.format, mean_by=args.mean_by))
        return 0

    if args.command == "tables":
        store = _resolve_store(args)
        _ensure_index(store, args.reindex)
        identifiers = tuple(args.tables) if args.tables else TABLE_IDS
        sys.stdout.write(render_tables(store, identifiers, fmt=args.format, dim=args.dim))
        return 0

    if args.command == "cache":
        if args.cache_command == "stats":
            store = _resolve_store(args)
            stats = dict(ReportCache(store.root).stats())
            stats["index"] = {
                "path": str(store.path),
                "exists": store.exists(),
                "schema": INDEX_SCHEMA_VERSION,
                "rows": store.report_count(),
            }
            if args.json:
                print(json.dumps(stats, sort_keys=True, indent=2))
            else:
                index = stats["index"]
                print(
                    f"cache {stats['root']}: schema {stats['schema']}, "
                    f"{stats['reports']} reports; index {index['path']}: "
                    + (f"{index['rows']} rows" if index["exists"] else "absent")
                )
            return 0
        if args.cache_command == "gc":
            if args.max_age_days is None and not args.orphaned:
                raise StoreError("nothing to prune: pass --max-age-days and/or --orphaned")
            store = _resolve_store(args)
            # The pruning cutoff is "now"; gc is maintenance, not a result,
            # and the instant is read once, here, so repro.store.gc itself
            # stays clock-free and testable.
            now = time.time() if args.max_age_days is not None else None  # repro-lint: disable=RL002 -- gc age cutoff needs the real clock; never enters a report
            stats = store_gc.gc_cache(
                store.root,
                index_path=store.path,
                max_age_days=args.max_age_days,
                now=now,
                orphaned=args.orphaned,
                dry_run=args.dry_run,
            )
            print(f"smash-repro: cache gc: {stats.describe()}")
            return 0
        if args.cache_command == "reindex":
            store = _resolve_store(args)
            stats = store.reindex()
            print(f"smash-repro: reindexed {store.path}: {stats.describe()}")
            return 0
        raise StoreError(f"unknown cache command {args.cache_command!r}")

    raise StoreError(f"unknown store command {args.command!r}")
