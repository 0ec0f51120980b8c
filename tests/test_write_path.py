"""Tests for the sweep write path: batched index ingest and its failure modes.

The write-path contract (DESIGN.md section 16):

* one resolution — one pool chunk, or one serial batch of misses — reaches
  the index in one ``ResultStore.ingest`` call, and the rows are indexed
  before the sweep returns;
* the index schema is ensured once per store object, and a batch that
  finds the index file gone re-creates it;
* a failing ``ReportCache.store`` (disk full) degrades to an uncached
  success: byte-identical reports, nothing cached or indexed for the job,
  one warning per runner, and joiners never hang;
* a failing ingest, a torn index file and a truncated cache document each
  end in a successful sweep, and ``reindex`` recovers an index equal to a
  clean one.
"""

import errno
import itertools
import json
import sqlite3
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import SweepSpec, Workload
from repro.eval.runner import ReportCache, SweepRunner, job_key, kernel_job
from repro.sim.config import SimConfig
from repro.store import Query, ResultStore, attach_indexer

SIM = SimConfig.scaled(16)

#: 12 distinct SpMV jobs: 3 matrices x 4 schemes, each source's schemes together.
JOBS = [
    kernel_job("spmv", scheme, Workload.suite(key, 48), SIM)
    for key, scheme in itertools.product(
        ("M2", "M8", "M13"), ("taco_csr", "smash_hw", "mkl_csr", "smash_sw")
    )
]
BAD_KEY = job_key(JOBS[5])


def _report_keys(reports):
    return [json.dumps(report.to_dict(), sort_keys=True) for report in reports]


def _indexed_runner(processes, cache_dir):
    runner = SweepRunner(processes=processes, cache_dir=cache_dir)
    attach_indexer(runner.cache)
    return runner


def _run_bounded(runner, jobs, timeout=300):
    """``runner.run(jobs)`` from a helper thread, failing instead of hanging."""
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        return helper.submit(runner.run, jobs).result(timeout=timeout)
    finally:
        helper.shutdown(wait=False)


def _runtime_warnings(caught, text):
    return [
        w for w in caught if issubclass(w.category, RuntimeWarning) and text in str(w.message)
    ]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uncached reports of ``JOBS`` and the dump of a clean index of them."""
    with SweepRunner(processes=1) as uncached:
        expected = _report_keys(uncached.run(JOBS))
    clean_dir = tmp_path_factory.mktemp("clean")
    with _indexed_runner(1, clean_dir) as runner:
        assert _report_keys(runner.run(JOBS)) == expected
    return expected, ResultStore(clean_dir).canonical_dump()


@pytest.fixture()
def ingest_calls(monkeypatch):
    """Batch sizes of every ``ResultStore.ingest`` call made in the test."""
    calls = []
    original = ResultStore.ingest

    def counting(self, batch):
        calls.append(len(batch))
        return original(self, batch)

    monkeypatch.setattr(ResultStore, "ingest", counting)
    return calls


class TestBatchedIngest:
    def test_serial_run_is_one_ingest_call(self, tmp_path, ingest_calls, reference):
        expected, clean = reference
        with _indexed_runner(1, tmp_path) as runner:
            assert _report_keys(runner.run(JOBS)) == expected
        assert ingest_calls == [len(JOBS)]
        store = ResultStore(tmp_path)
        assert store.report_count() == len(JOBS)
        assert store.canonical_dump() == clean

    def test_pooled_run_is_one_ingest_call_per_chunk(self, tmp_path, ingest_calls, reference):
        expected, clean = reference
        with _indexed_runner(2, tmp_path) as runner:
            chunk = runner._effective_pool_chunk(len(JOBS))
            assert chunk == 2  # several rows per batch: the leg is not vacuous
            reports = _run_bounded(runner, JOBS)
            # The rows are indexed before the futures complete.
            assert ResultStore(tmp_path).report_count() == len(JOBS)
        assert _report_keys(reports) == expected
        assert ingest_calls == [chunk] * -(-len(JOBS) // chunk)
        assert ResultStore(tmp_path).canonical_dump() == clean

    def test_deleted_index_is_recreated_by_the_next_sweep(self, tmp_path):
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        first, second = (
            SweepSpec.product(kernels="spmv", schemes=scheme, matrices=("M2", "M8"), dim=48)
            for scheme in ("taco_csr", "mkl_csr")
        )
        with Session(sim=SIM, runtime=runtime) as session:
            session.sweep(first)
            store = ResultStore(tmp_path)
            assert store.report_count() == 2
            store.path.unlink()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.sweep(second)
            assert session.cache.indexer._failed is False
        # Both schemes ignore the SMASH config, so the spec lowers to the
        # session's job key without it.
        keys = {row["key"] for row in store.query(Query(sort="key"))}
        assert keys == {job_key(spec.to_job(sim=SIM)) for spec in second.specs}

    def test_foreign_and_malformed_documents_are_not_counted(self, tmp_path, reference):
        cache = ReportCache(tmp_path)
        good = cache.store(job_key(JOBS[0]), JOBS[0], json.loads(reference[0][0]))
        store = ResultStore(tmp_path)
        batch = [("ab" * 32, {"schema": 999}), (job_key(JOBS[0]), good), ("cd" * 32, "x")]
        assert store.ingest(batch) == 1
        assert store.report_count() == 1


@pytest.fixture()
def disk_full_for_one_key(monkeypatch):
    """``ReportCache.store`` raises ENOSPC for ``BAD_KEY`` and works otherwise."""
    original = ReportCache.store

    def store(self, key, job, payload):
        if key == BAD_KEY:
            raise OSError(errno.ENOSPC, "No space left on device")
        return original(self, key, job, payload)

    monkeypatch.setattr(ReportCache, "store", store)


@pytest.mark.parametrize("processes", [1, 2])
class TestStoreFailureDegrades:
    def test_failed_store_is_an_uncached_success(
        self, processes, tmp_path, disk_full_for_one_key, reference
    ):
        expected, _ = reference
        with _indexed_runner(processes, tmp_path) as runner:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert _report_keys(_run_bounded(runner, JOBS)) == expected
                assert runner.stats_snapshot().executed == len(JOBS)
                assert not runner.cache.path_for(BAD_KEY).exists()
                store = ResultStore(tmp_path)
                assert store.report_count() == len(JOBS) - 1
                indexed = {row["key"] for row in store.query(Query(sort="key"))}
                assert BAD_KEY not in indexed
                # Only the uncached job re-executes on a second run.
                assert _report_keys(_run_bounded(runner, JOBS)) == expected
                assert runner.stats_snapshot().executed == len(JOBS) + 1
            assert len(_runtime_warnings(caught, "not cached")) == 1
            assert not _runtime_warnings(caught, "ingest disabled")

    def test_joiners_of_a_failed_store_never_hang(
        self, processes, tmp_path, disk_full_for_one_key, reference
    ):
        expected, _ = reference
        with _indexed_runner(processes, tmp_path) as runner:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with ThreadPoolExecutor(max_workers=2) as callers:
                    runs = [callers.submit(runner.run, JOBS) for _ in range(2)]
                    results = [run.result(timeout=300) for run in runs]
        assert [_report_keys(result) for result in results] == [expected, expected]


@pytest.mark.parametrize("processes", [1, 2])
class TestIndexFaults:
    def test_failing_ingest_warns_once_and_reindex_recovers(
        self, processes, tmp_path, monkeypatch, reference
    ):
        expected, clean = reference
        calls = []

        def failing(self, batch):
            calls.append(len(batch))
            raise sqlite3.OperationalError("disk I/O error")

        with monkeypatch.context() as patch:
            patch.setattr(ResultStore, "ingest", failing)
            with _indexed_runner(processes, tmp_path) as runner:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    reports = _run_bounded(runner, JOBS[:6]) + _run_bounded(runner, JOBS[6:])
        assert _report_keys(reports) == expected
        assert len(calls) == 1  # later batches are skipped
        assert len(_runtime_warnings(caught, "ingest disabled")) == 1
        store = ResultStore(tmp_path)
        assert store.reindex().indexed == len(JOBS)
        assert store.canonical_dump() == clean

    def test_torn_index_degrades_and_reindex_recovers(self, processes, tmp_path, reference):
        expected, clean = reference
        store = ResultStore(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        store.path.write_bytes(bytes(range(256)) * 16)
        with _indexed_runner(processes, tmp_path) as runner:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports = _run_bounded(runner, JOBS[:6]) + _run_bounded(runner, JOBS[6:])
        assert _report_keys(reports) == expected
        assert len(_runtime_warnings(caught, "ingest disabled")) == 1
        assert store.reindex().indexed == len(JOBS)
        assert store.canonical_dump() == clean


def test_truncated_cache_document_is_a_miss_and_reexecutes(tmp_path, reference):
    expected, clean = reference
    with _indexed_runner(1, tmp_path) as runner:
        runner.run(JOBS)
    path = ReportCache(tmp_path).path_for(BAD_KEY)
    text = path.read_bytes()
    path.write_bytes(text[: len(text) // 2])
    assert ReportCache(tmp_path).load(BAD_KEY, JOBS[5]) is None
    with _indexed_runner(1, tmp_path) as runner:
        assert _report_keys(runner.run(JOBS)) == expected
        stats = runner.stats_snapshot()
    assert (stats.executed, stats.cache_hits) == (1, len(JOBS) - 1)
    assert path.read_bytes() == text
    assert ResultStore(tmp_path).canonical_dump() == clean
