"""Tests for repro.store: queries, tables and gc over the report database.

The load-bearing invariants (DESIGN.md section 16):

* query rows are bit-consistent with ``CostReport.to_dict()`` — the store
  serves the cached payload verbatim, never a re-derivation;
* the cache root holds one database and nothing else;
* a database that also carries other tables keeps working;
* every output format is byte-deterministic for a given cache.
"""

import json
import sqlite3

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import SweepSpec
from repro.eval.cli import main as cli_main
from repro.eval.runner import REPORTS_FILENAME, ReportCache, job_key
from repro.sim.config import SimConfig
from repro.store import Query, ResultStore, StoreError, query_from_mapping
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


def _update_rows(cache_dir, sql, params=()):
    """Run one write statement against the cache database from outside."""
    conn = sqlite3.connect(str(cache_dir / REPORTS_FILENAME))
    with conn:
        conn.execute(sql, params)
    conn.close()


class TestIngestAndReindex:
    def test_session_sweep_keeps_index_warm(self, warm_store):
        store, result = warm_store
        assert store.path.exists()
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

    def test_index_with_legacy_bench_tables_keeps_working(self, warm_store, tmp_path):
        """A database that also holds other tables serves queries and
        cache hits unchanged."""
        store, result = warm_store
        clean = store.canonical_dump()
        for suffix, (columns, row) in self.LEGACY_TABLES.items():
            _update_rows(tmp_path, f"CREATE TABLE bench_{suffix} ({columns})")
            _update_rows(tmp_path, f"INSERT INTO bench_{suffix} VALUES {row}")

        assert len(store.query(Query(kernel="spmv"))) == len(result.reports)
        assert store.canonical_dump() == clean
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        with Session(sim=SIM, runtime=runtime) as session:
            assert session.sweep(_sweep_spec()).reports == result.reports
            assert session.stats_snapshot().executed == 0

    def test_foreign_schema_rows_are_invisible_to_queries(self, warm_store, tmp_path):
        store, result = warm_store
        victim = store.query(Query(sort="key"))[0]["key"]
        _update_rows(tmp_path, "UPDATE reports SET cache_schema = 999 WHERE key = ?", (victim,))
        keys = {row["key"] for row in store.query(Query())}
        assert len(keys) == len(result.reports) - 1 and victim not in keys
        assert store.report_count() == len(result.reports)

    def test_cache_root_holds_one_database(self, warm_store, tmp_path):
        store, result = warm_store
        store.cache.close()
        assert sorted(path.name for path in tmp_path.iterdir()) == [REPORTS_FILENAME]
        assert store.path == tmp_path / REPORTS_FILENAME
        keys = [row["key"] for row in store.query(Query(sort="key"))]
        assert len(keys) == len(result.reports)
        assert all(len(key) == 64 for key in keys)

    def test_runtime_env_knobs(self, monkeypatch, tmp_path):
        """The retired index-location variable relocates nothing."""
        monkeypatch.setenv("SMASH_REPRO_STORE_INDEX", str(tmp_path / "alt.sqlite"))
        runtime = RuntimeConfig.from_env(cache_dir=tmp_path / "cache")
        assert not hasattr(runtime, "store_index")
        with Session(sim=SIM, runtime=runtime) as session:
            session.sweep(_sweep_spec())
        assert not (tmp_path / "alt.sqlite").exists()
        assert ResultStore(tmp_path / "cache").report_count() == 4


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
        second = render_tables(ResultStore(store.root), ("spmv_speedup", "spmv_dram"), fmt="csv")
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
    def test_gc_by_age_prunes_rows(self, tmp_path):
        _run_sweep(tmp_path)
        store = ResultStore(tmp_path)
        assert store.report_count() == 4
        victims = [row["key"] for row in store.query(Query(sort="key"))][:2]
        for key in victims:  # long before any cutoff
            _update_rows(tmp_path, "UPDATE reports SET stored_at = 1e6 WHERE key = ?", (key,))
        now = 1_000_000 + 10 * 86400
        dry = gc_cache(tmp_path, max_age_days=5, now=now, dry_run=True)
        assert dry.pruned_old == 2 and dry.pruned_keys == victims
        assert store.report_count() == 4
        stats = gc_cache(tmp_path, max_age_days=5, now=now)
        assert stats.pruned_old == 2 and stats.kept == 2
        remaining = {row["key"] for row in store.query(Query())}
        assert store.report_count() == 2 and not remaining & set(victims)

    def test_gc_age_cutoff_reads_the_row_write_instant(self, tmp_path):
        """Fresh rows carry sqlite's clock: nothing is a day old yet."""
        import time

        _run_sweep(tmp_path)
        stats = gc_cache(tmp_path, max_age_days=1, now=time.time())
        assert (stats.pruned_old, stats.kept) == (0, 4)

    def test_gc_orphaned_prunes_foreign_documents(self, tmp_path):
        _run_sweep(tmp_path)
        store = ResultStore(tmp_path)
        victim = store.query(Query(sort="key"))[0]["key"]
        _update_rows(tmp_path, "UPDATE reports SET cache_schema = 999 WHERE key = ?", (victim,))
        stats = gc_cache(tmp_path, orphaned=True)
        assert stats.pruned_foreign == 1 and stats.kept == 3
        assert stats.pruned_keys == [victim]
        assert store.report_count() == 3

    def test_gc_orphaned_removes_the_pre_single_database_layout(self, tmp_path):
        _run_sweep(tmp_path)
        legacy = [
            tmp_path / "index.sqlite",
            tmp_path / "index.sqlite-wal",
            tmp_path / "ab" / f"{'ab' * 32}.json",
            tmp_path / "ab" / f"{'ab' * 32}.json.7.0.tmp",
            tmp_path / "0f" / f"{'0f' * 32}.json",
        ]
        kept = [tmp_path / "0f" / "notes.txt", tmp_path / "xy" / f"{'ab' * 32}.json"]
        for path in legacy + kept:
            path.parent.mkdir(exist_ok=True)
            path.write_text("{}")
        assert gc_cache(tmp_path, max_age_days=1, now=0.0).legacy_files == 0
        dry = gc_cache(tmp_path, orphaned=True, dry_run=True)
        assert dry.legacy_files == len(legacy) and all(path.exists() for path in legacy)
        assert "would prune 5 legacy files" in dry.describe()
        stats = gc_cache(tmp_path, orphaned=True)
        assert (stats.legacy_files, stats.kept) == (len(legacy), 4)
        assert not any(path.exists() for path in legacy) and all(path.exists() for path in kept)
        assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith("reports")) == [
            "0f",
            "xy",
        ]
        assert ResultStore(tmp_path).report_count() == 4

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
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cache_stats_cli(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"root": str(tmp_path), "schema": 1, "reports": 4}
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"cache {tmp_path}: schema 1, 4 reports\n"

    def test_store_cli_reports_an_unreadable_database(self, tmp_path, capsys):
        (tmp_path / REPORTS_FILENAME).write_bytes(b"not a database" * 100)
        assert cli_main(["query", "--cache-dir", str(tmp_path)]) == 2
        assert "smash-repro:" in capsys.readouterr().err

    def test_cache_gc_cli(self, tmp_path, capsys):
        _run_sweep(tmp_path)
        _update_rows(tmp_path, "UPDATE reports SET cache_schema = 0 WHERE scheme = 'smash_hw'")
        assert cli_main(["cache", "gc", "--cache-dir", str(tmp_path), "--orphaned"]) == 0
        assert "pruned 2 (0 stale, 2 foreign), 2 kept" in capsys.readouterr().out
