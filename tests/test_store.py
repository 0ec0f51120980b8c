"""Tests for repro.store: index consistency, queries, tables, gc.

The load-bearing invariants (DESIGN.md section 16):

* query rows are bit-consistent with ``CostReport.to_dict()`` — the store
  serves the cached payload verbatim, never a re-derivation;
* a full ``reindex`` of a warm cache reproduces the incrementally built
  index exactly (canonical-dump equality);
* an index written by an older release, with extra tables, keeps working;
* every output format is byte-deterministic for a given cache.
"""

import json
import sqlite3
import warnings

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import SweepSpec
from repro.eval.cli import main as cli_main
from repro.eval.runner import ReportCache, job_key
from repro.sim.config import SimConfig
from repro.store import (
    Query,
    ResultStore,
    StoreError,
    attach_indexer,
    query_from_mapping,
)
from repro.store.gc import gc_cache
from repro.store.query import render_rows
from repro.store.tables import build_table, render_tables

SIM = SimConfig.scaled(16)


def _sweep_spec(kernel="spmv", schemes=("taco_csr", "smash_hw"), keys=("M2", "M8"), dim=48):
    return SweepSpec.product(kernels=kernel, schemes=schemes, matrices=keys, dim=dim)


def _run_sweep(cache_dir, **kwargs):
    """Run the canonical small sweep into ``cache_dir``; returns its result."""
    runtime = RuntimeConfig(processes=1, cache_dir=cache_dir)
    with Session(sim=SIM, runtime=runtime) as session:
        return session.sweep(_sweep_spec(**kwargs))


@pytest.fixture()
def warm_store(tmp_path):
    """A cache dir holding the canonical sweep, plus its (warm) store."""
    result = _run_sweep(tmp_path)
    return ResultStore(tmp_path), result


class TestIngestAndReindex:
    def test_session_sweep_keeps_index_warm(self, warm_store):
        store, result = warm_store
        assert store.exists()
        assert store.report_count() == len(result.reports)

    def test_query_rows_bit_consistent_with_cost_report(self, warm_store):
        store, result = warm_store
        by_report = {
            json.dumps(report.to_dict(), sort_keys=True) for report in result.reports
        }
        rows = store.query(Query(kernel="spmv"))
        assert len(rows) == len(result.reports)
        for row in rows:
            payload = json.loads(row["report"])
            assert json.dumps(payload, sort_keys=True) in by_report

    def test_reindex_reproduces_incremental_index_exactly(self, warm_store):
        store, _ = warm_store
        incremental = store.canonical_dump()
        stats = store.reindex()
        assert stats.indexed == store.report_count()
        assert store.canonical_dump() == incremental

    # The schema of the BENCH history tables that older releases kept in
    # the index (``bench_<suffix>``), with one row each.
    LEGACY_TABLES = {
        "runs": (
            "id INTEGER PRIMARY KEY, label TEXT, source TEXT NOT NULL, "
            "sha256 TEXT NOT NULL, payload TEXT NOT NULL",
            "(1, 'base', 'BENCH_x.json', 'ab', '{}')",
        ),
        "metrics": (
            "run_id INTEGER NOT NULL, metric TEXT NOT NULL, value REAL NOT NULL, "
            "kind TEXT NOT NULL, PRIMARY KEY (run_id, metric)",
            "(1, 'wall_seconds', 1.5, 'seconds')",
        ),
    }

    def test_index_with_legacy_bench_tables_keeps_working(self, warm_store):
        """An index that still holds the retired BENCH history tables serves
        queries unchanged, and a reindex writes a fresh file without them."""
        store, result = warm_store
        clean = store.canonical_dump()
        conn = sqlite3.connect(str(store.path))
        with conn:
            for suffix, (columns, row) in self.LEGACY_TABLES.items():
                conn.execute(f"CREATE TABLE bench_{suffix} ({columns})")
                conn.execute(f"INSERT INTO bench_{suffix} VALUES {row}")
        conn.close()

        assert len(store.query(Query(kernel="spmv"))) == len(result.reports)
        assert store.canonical_dump() == clean
        assert store.reindex().indexed == len(result.reports)
        assert store.canonical_dump() == clean
        conn = sqlite3.connect(str(store.path))
        tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")}
        conn.close()
        assert tables == {"reports", "meta"}

    def test_reindex_skips_foreign_schema_and_malformed_documents(self, tmp_path):
        _run_sweep(tmp_path)
        cache = ReportCache(tmp_path)
        foreign = dict(json.loads(cache.path_for(next(cache.iter_entries())[0]).read_text()))
        foreign["schema"] = 999
        (tmp_path / "ff").mkdir(exist_ok=True)
        (tmp_path / "ff" / ("f" * 64 + ".json")).write_text(json.dumps(foreign))
        (tmp_path / "ee").mkdir(exist_ok=True)
        (tmp_path / "ee" / ("e" * 64 + ".json")).write_text("not json{")
        store = ResultStore(tmp_path)
        stats = store.reindex()
        assert stats.indexed == 4
        assert stats.skipped_foreign == 1
        assert stats.skipped_malformed == 1
        assert store.report_count() == 4

    def test_incremental_ingest_of_foreign_document_is_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.ingest([("ab" * 32, {"schema": 999})]) == 0
        assert store.ingest([("cd" * 32, "not a document")]) == 0

    def test_index_file_is_invisible_to_the_cache_tree(self, warm_store):
        store, result = warm_store
        cache = ReportCache(store.root)
        assert store.path.exists()
        keys = [key for key, _ in cache.iter_entries()]
        assert len(keys) == len(result.reports)
        assert all(len(key) == 64 for key in keys)

    def test_broken_indexer_degrades_without_failing_the_sweep(self, tmp_path):
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        with Session(sim=SIM, runtime=runtime) as session:
            # Point the already-attached indexer at an impossible location
            # (a directory cannot be opened as a sqlite database): ingest
            # errors must warn once and disable, never fail a sweep.
            indexer = session.cache.indexer
            indexer.store.path = tmp_path / "not-a-database"
            indexer.store.path.mkdir()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = session.sweep(_sweep_spec())
            assert len(result.reports) == 4
            assert any("ingest disabled" in str(w.message) for w in caught)
            assert indexer._failed is True

    def test_runtime_env_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SMASH_REPRO_STORE_INDEX", str(tmp_path / "alt.sqlite"))
        assert RuntimeConfig.from_env().store_index == str(tmp_path / "alt.sqlite")

    def test_store_index_knob_relocates_the_index(self, tmp_path):
        index_path = tmp_path / "elsewhere" / "idx.sqlite"
        runtime = RuntimeConfig(
            processes=1, cache_dir=tmp_path / "cache", store_index=index_path
        )
        with Session(sim=SIM, runtime=runtime) as session:
            session.sweep(_sweep_spec())
        assert index_path.exists()
        store = ResultStore(tmp_path / "cache", index_path)
        assert store.report_count() == 4


class TestQueries:
    def test_filters(self, warm_store):
        store, _ = warm_store
        assert len(store.query(Query(scheme="smash_hw"))) == 2
        assert len(store.query(Query(matrix="M2"))) == 2
        assert len(store.query(Query(matrix="M2", scheme="taco_csr"))) == 1
        assert store.query(Query(kernel="spmm")) == []
        assert store.query(Query(dim=96)) == []

    def test_keys_filter_matches_job_keys(self, warm_store):
        store, _ = warm_store
        spec = _sweep_spec()
        keys = tuple(job_key(s.to_job(sim=SIM)) for s in spec.specs)
        assert len(store.query(Query(keys=keys))) == len(spec.specs)
        assert store.query(Query(keys=())) == []

    def test_sort_and_limit(self, warm_store):
        store, _ = warm_store
        rows = store.query(Query(sort="cycles", descending=True, limit=2))
        assert len(rows) == 2
        cycles = [row["cycles"] for row in rows]
        assert cycles == sorted(cycles, reverse=True)

    def test_mean_aggregation_is_exact(self, warm_store):
        store, _ = warm_store
        rows = store.query(Query(mean_by="scheme"))
        plain = store.query(Query())
        for entry in rows:
            members = [r for r in plain if r["scheme"] == entry["scheme"]]
            assert entry["count"] == len(members)
            expected = sum(r["cycles"] for r in members) / len(members)
            assert entry["cycles"] == expected

    def test_invalid_queries_raise_store_error(self, warm_store):
        store, _ = warm_store
        with pytest.raises(StoreError, match="unknown sort column"):
            Query(sort="bogus")
        with pytest.raises(StoreError, match="unknown mean-by column"):
            Query(mean_by="bogus")
        with pytest.raises(StoreError, match="non-negative"):
            Query(limit=-1)
        with pytest.raises(StoreError, match="unknown query parameters"):
            query_from_mapping({"bogus": "1"})
        with pytest.raises(StoreError, match="must be an integer"):
            query_from_mapping({"dim": "abc"})

    def test_render_formats_are_deterministic(self, warm_store):
        store, _ = warm_store
        rows = store.query(Query(kernel="spmv"))
        for fmt in ("table", "csv", "json"):
            assert render_rows(rows, fmt) == render_rows(rows, fmt)
        parsed = json.loads(render_rows(rows, "json"))
        assert parsed[0]["report"] == json.loads(rows[0]["report"])
        with pytest.raises(StoreError, match="unknown format"):
            render_rows(rows, "yaml")


class TestTables:
    def test_speedup_table_matches_reports(self, warm_store):
        store, result = warm_store
        _, columns, rows = build_table(store, "spmv_speedup")
        assert columns == ["workload", "taco_csr", "smash_hw"]
        # suite workload tuples are ("suite", key, dim, seed).
        by = {(s.workload[1], s.scheme): r for s, r in zip(result.specs, result.reports)}
        for row in rows[:-1]:
            workload = row["workload"]
            expected = by[(workload, "taco_csr")].cycles / by[(workload, "smash_hw")].cycles
            assert row["smash_hw"] == format(expected, ".3f")
            assert row["taco_csr"] == "1.000"
        assert rows[-1]["workload"] == "gmean"

    def test_tables_output_is_byte_identical_across_runs(self, warm_store):
        store, _ = warm_store
        first = render_tables(store, ("spmv_speedup", "spmv_dram"), fmt="csv")
        store.reindex()
        second = render_tables(store, ("spmv_speedup", "spmv_dram"), fmt="csv")
        assert first == second

    def test_missing_kernel_and_unknown_table_raise(self, warm_store):
        store, _ = warm_store
        with pytest.raises(StoreError, match="no spmm reports"):
            build_table(store, "spmm_speedup")
        with pytest.raises(StoreError, match="unknown table"):
            build_table(store, "bogus")

    def test_missing_baseline_raises(self, tmp_path):
        _run_sweep(tmp_path, schemes=("smash_hw",))
        with pytest.raises(StoreError, match="baseline scheme"):
            build_table(ResultStore(tmp_path), "spmv_speedup")


class TestGc:
    def test_gc_by_age_prunes_files_and_index_rows(self, tmp_path):
        _run_sweep(tmp_path)
        store = ResultStore(tmp_path)
        assert store.report_count() == 4
        import os

        victims = [path for _, path in ReportCache(tmp_path).iter_entries()][:2]
        for path in victims:
            os.utime(path, (1_000_000, 1_000_000))  # long before any cutoff
        now = 1_000_000 + 10 * 86400
        dry = gc_cache(tmp_path, max_age_days=5, now=now, dry_run=True)
        assert dry.pruned_old == 2 and dry.index_rows_removed == 0
        assert all(path.exists() for path in victims)
        stats = gc_cache(tmp_path, max_age_days=5, now=now)
        assert stats.pruned_old == 2 and stats.kept == 2
        assert stats.index_rows_removed == 2
        assert not any(path.exists() for path in victims)
        assert store.report_count() == 2
        # The pruned index equals a cold rebuild of the pruned tree.
        remaining = store.canonical_dump()
        store.reindex()
        assert store.canonical_dump() == remaining

    def test_gc_orphaned_prunes_foreign_documents(self, tmp_path):
        _run_sweep(tmp_path)
        (tmp_path / "ff").mkdir()
        (tmp_path / "ff" / ("f" * 64 + ".json")).write_text(json.dumps({"schema": 999}))
        stats = gc_cache(tmp_path, orphaned=True)
        assert stats.pruned_foreign == 1 and stats.kept == 4
        assert not (tmp_path / "ff").exists()  # emptied shard removed too

    def test_gc_age_requires_now(self, tmp_path):
        with pytest.raises(ValueError, match="requires an explicit"):
            gc_cache(tmp_path, max_age_days=1)


class TestCacheStats:
    def test_stats_reports_schema_and_count(self, tmp_path):
        cache = ReportCache(tmp_path)
        assert cache.stats() == {"root": str(tmp_path), "schema": 1, "reports": 0}
        _run_sweep(tmp_path)
        assert cache.stats()["reports"] == 4


class TestStoreCli:
    def test_query_json_round_trip(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        code = cli_main(
            ["query", "--cache-dir", str(tmp_path), "--kernel", "spmv", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert {row["scheme"] for row in rows} == {"taco_csr", "smash_hw"}

    def test_query_experiment_filter_matches_quick_run(self, tmp_path, capsys):
        code = cli_main(
            ["run", "figure10", "--quick", "--cache-dir", str(tmp_path), "--json"]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_main(
            [
                "query", "--cache-dir", str(tmp_path),
                "--experiment", "figure10", "--quick", "--format", "json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 12  # 3 quick matrices x 4 MAIN_SCHEMES
        code = cli_main(["query", "--cache-dir", str(tmp_path), "--experiment", "table2"])
        assert code == 2

    def test_tables_cli_byte_identical_across_invocations(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        argv = ["tables", "spmv_speedup", "--cache-dir", str(tmp_path), "--format", "csv"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv + ["--reindex"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cache_stats_and_reindex_cli(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["reports"] == 4 and stats["index"]["rows"] == 4
        assert cli_main(["cache", "reindex", "--cache-dir", str(tmp_path)]) == 0
        assert "4 indexed" in capsys.readouterr().out

    def test_cache_gc_cli(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        (tmp_path / "ff").mkdir()
        (tmp_path / "ff" / ("f" * 64 + ".json")).write_text("broken{")
        assert cli_main(["cache", "gc", "--cache-dir", str(tmp_path), "--orphaned"]) == 0
        assert "(0 stale, 1 foreign/broken)" in capsys.readouterr().out


class TestIndexerAttachment:
    def test_attach_indexer_replaces_the_cache_hook(self, tmp_path):
        cache = ReportCache(tmp_path)
        first = attach_indexer(cache)
        assert cache.indexer is first
        second = attach_indexer(cache)
        assert second is not first
        assert cache.indexer is second
        # A cached Session wires an indexer onto the cache it owns.
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        with Session(sim=SIM, runtime=runtime) as session:
            assert session.cache.indexer is not None
