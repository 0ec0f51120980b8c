"""Tests for the sweep write path: one transaction per batch and its faults.

The write-path contract (DESIGN.md sections 9 and 16):

* one resolution — one pool chunk, or one serial batch of misses — is
  stored by one ``ReportCache.store`` call in one transaction, and the rows
  are in the database before the sweep returns;
* a failing store (disk full) degrades to an uncached success:
  byte-identical reports, nothing of that batch cached, one warning per
  runner, and joiners never hang;
* an unreadable database (garbage bytes, a truncated file, a foreign
  schema) degrades the same way and is never overwritten;
* a truncated row is a miss and is rewritten;
* a database deleted under open connections, in this process or another,
  is reopened: later rows land in the new file, with no warning;
* a writer killed in the middle of a batch leaves all of it or none, and
  two processes writing one cache at once both finish.
"""

import errno
import itertools
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import JobSpec, SweepSpec, Workload
from repro.eval.cli import main as cli_main
from repro.eval.runner import REPORTS_FILENAME, ReportCache, SweepRunner, job_key, kernel_job
from repro.service.server import running_server
from repro.sim.config import SimConfig
from repro.store import Query, ResultStore

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
    """The uncached reports of ``JOBS`` and the dump of a clean cache of them."""
    with SweepRunner(processes=1) as uncached:
        expected = _report_keys(uncached.run(JOBS))
    clean_dir = tmp_path_factory.mktemp("clean")
    with SweepRunner(processes=1, cache_dir=clean_dir) as runner:
        assert _report_keys(runner.run(JOBS)) == expected
    return expected, ResultStore(clean_dir).canonical_dump()


@pytest.fixture()
def store_calls(monkeypatch):
    """Batch sizes of every ``ReportCache.store`` call, and every transaction
    its connections began (sqlite's statement trace)."""
    calls, statements = [], []
    original_store, original_open = ReportCache.store, ReportCache._open

    def counting_store(self, entries):
        calls.append(len(entries))
        return original_store(self, entries)

    def tracing_open(self):
        conn = original_open(self)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(ReportCache, "store", counting_store)
    monkeypatch.setattr(ReportCache, "_open", tracing_open)
    return calls, statements


def _transactions(statements):
    return sum(1 for statement in statements if statement.startswith("BEGIN"))


class TestBatchedIngest:
    def test_serial_run_is_one_ingest_call(self, tmp_path, store_calls, reference):
        expected, clean = reference
        calls, statements = store_calls
        with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
            assert _report_keys(runner.run(JOBS)) == expected
        assert calls == [len(JOBS)]
        assert _transactions(statements) == 1
        store = ResultStore(tmp_path)
        assert store.report_count() == len(JOBS)
        assert store.canonical_dump() == clean

    def test_pooled_run_is_one_ingest_call_per_chunk(self, tmp_path, store_calls, reference):
        expected, clean = reference
        calls, statements = store_calls
        with SweepRunner(processes=2, cache_dir=tmp_path) as runner:
            chunk = runner._effective_pool_chunk(len(JOBS))
            assert chunk == 2  # several rows per batch: the leg is not vacuous
            reports = _run_bounded(runner, JOBS)
            # The rows are stored before the futures complete.
            assert ResultStore(tmp_path).report_count() == len(JOBS)
        assert _report_keys(reports) == expected
        assert calls == [chunk] * -(-len(JOBS) // chunk)
        assert _transactions(statements) == len(calls)
        assert ResultStore(tmp_path).canonical_dump() == clean

    def _sweep_across_a_deletion(self, tmp_path, delete):
        """Sweep, ``delete(store)``, sweep again in one Session; the second sweep's keys."""
        runtime = RuntimeConfig(processes=1, cache_dir=tmp_path)
        first, second = (
            SweepSpec.product(kernels="spmv", schemes=scheme, matrices=("M2", "M8"), dim=48)
            for scheme in ("taco_csr", "mkl_csr")
        )
        with Session(sim=SIM, runtime=runtime) as session:
            session.sweep(first)
            store = ResultStore(tmp_path)
            assert store.report_count() == 2
            delete(store)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.sweep(second)
            assert session.stats_snapshot().executed == 4
        with store.cache.connection() as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        # Both schemes ignore the SMASH config, so the spec lowers to the
        # session's job key without it.
        keys = {row["key"] for row in store.query(Query(sort="key"))}
        assert keys == {job_key(spec.to_job(sim=SIM)) for spec in second.specs}

    def test_deleted_index_is_recreated_by_the_next_sweep(self, tmp_path):
        """The database deleted under open connections; its log files stay."""
        self._sweep_across_a_deletion(tmp_path, lambda store: store.path.unlink())

    def test_deleted_cache_root_is_recreated_by_the_next_sweep(self, tmp_path):
        self._sweep_across_a_deletion(tmp_path, lambda store: shutil.rmtree(store.root))


@pytest.fixture()
def disk_full_for_one_key(monkeypatch):
    """``ReportCache.store`` raises ENOSPC for a batch holding ``BAD_KEY``."""
    original = ReportCache.store

    def store(self, entries):
        if any(key == BAD_KEY for key, _, _ in entries):
            raise OSError(errno.ENOSPC, "No space left on device")
        return original(self, entries)

    monkeypatch.setattr(ReportCache, "store", store)


@pytest.mark.parametrize("processes", [1, 2])
class TestStoreFailureDegrades:
    def test_failed_store_is_an_uncached_success(
        self, processes, tmp_path, disk_full_for_one_key, reference
    ):
        expected, _ = reference
        with SweepRunner(processes=processes, cache_dir=tmp_path) as runner:
            # The failing batch: every miss when serial, one chunk when pooled.
            lost = len(JOBS) if processes == 1 else runner._effective_pool_chunk(len(JOBS))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert _report_keys(_run_bounded(runner, JOBS)) == expected
                assert runner.stats_snapshot().executed == len(JOBS)
                assert runner.cache.load(BAD_KEY, JOBS[5]) is None
                store = ResultStore(tmp_path)
                assert store.report_count() == len(JOBS) - lost
                stored = {row["key"] for row in store.query(Query(sort="key"))}
                assert BAD_KEY not in stored
                # Only the uncached jobs re-execute on a second run.
                assert _report_keys(_run_bounded(runner, JOBS)) == expected
                assert runner.stats_snapshot().executed == len(JOBS) + lost
            assert len(_runtime_warnings(caught, "not cached")) == 1

    def test_joiners_of_a_failed_store_never_hang(
        self, processes, tmp_path, disk_full_for_one_key, reference
    ):
        expected, _ = reference
        with SweepRunner(processes=processes, cache_dir=tmp_path) as runner:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with ThreadPoolExecutor(max_workers=2) as callers:
                    runs = [callers.submit(runner.run, JOBS) for _ in range(2)]
                    results = [run.result(timeout=300) for run in runs]
        assert [_report_keys(result) for result in results] == [expected, expected]


def _garbage(path):
    path.write_bytes(bytes(range(256)) * 16)


def _truncated(path):
    """A real report database cut down to its first page."""
    with SweepRunner(processes=1, cache_dir=path.parent) as runner:
        runner.run(JOBS[:2])
    with open(path, "r+b") as handle:
        handle.truncate(4096)


def _foreign(path):
    conn = sqlite3.connect(str(path))
    conn.execute("PRAGMA user_version = 999")
    conn.close()


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("damage", [_garbage, _truncated, _foreign], ids=lambda f: f.__name__[1:])
def test_unreadable_database_is_an_uncached_success(processes, damage, tmp_path, reference):
    expected, _ = reference
    path = tmp_path / REPORTS_FILENAME
    damage(path)
    before = path.read_bytes()
    with SweepRunner(processes=processes, cache_dir=tmp_path) as runner:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = _run_bounded(runner, JOBS[:6]) + _run_bounded(runner, JOBS[6:])
        stats = runner.stats_snapshot()
    assert _report_keys(reports) == expected
    assert (stats.executed, stats.cache_hits) == (len(JOBS), 0)
    assert len(_runtime_warnings(caught, "not cached")) == 1
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
    assert path.read_bytes() == before


def test_truncated_cache_document_is_a_miss_and_reexecutes(tmp_path, reference):
    expected, clean = reference
    with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
        runner.run(JOBS)
    conn = sqlite3.connect(str(tmp_path / REPORTS_FILENAME))
    (text,) = conn.execute("SELECT report FROM reports WHERE key = ?", (BAD_KEY,)).fetchone()
    with conn:
        conn.execute(
            "UPDATE reports SET report = substr(report, 1, length(report) / 2) WHERE key = ?",
            (BAD_KEY,),
        )
    assert ReportCache(tmp_path).load(BAD_KEY, JOBS[5]) is None
    with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
        assert _report_keys(runner.run(JOBS)) == expected
        stats = runner.stats_snapshot()
    assert (stats.executed, stats.cache_hits) == (1, len(JOBS) - 1)
    assert conn.execute("SELECT report FROM reports WHERE key = ?", (BAD_KEY,)).fetchone() == (text,)
    conn.close()
    assert ResultStore(tmp_path).canonical_dump() == clean


#: A writer that commits JOBS[:6], then is stopped inside the transaction
#: of its JOBS[6:] batch, after half of that batch's rows are inserted.
_KILLED_WRITER = textwrap.dedent(
    """
    import itertools, pathlib, sys, time
    from repro.eval import runner
    from repro.api.specs import Workload
    from repro.sim.config import SimConfig

    sim = SimConfig.scaled(16)
    jobs = [
        runner.kernel_job("spmv", scheme, Workload.suite(key, 48), sim)
        for key, scheme in itertools.product(
            ("M2", "M8", "M13"), ("taco_csr", "smash_hw", "mkl_csr", "smash_sw")
        )
    ]
    cache_dir, marker = sys.argv[1], pathlib.Path(sys.argv[2])
    with runner.SweepRunner(processes=1, cache_dir=cache_dir) as sweep:
        sweep.run(jobs[:6])
        original = runner.ReportCache.store

        def stalling_store(self, entries):
            with self.connection() as conn:
                start = conn.total_changes

                def progress():
                    if conn.total_changes - start >= len(entries) // 2:
                        marker.write_text("mid-batch")
                        time.sleep(600)
                    return 0

                conn.set_progress_handler(progress, 10)
            original(self, entries)

        runner.ReportCache.store = stalling_store
        sweep.run(jobs[6:])
    """
)


def test_writer_killed_mid_batch_leaves_all_or_nothing(tmp_path, reference):
    expected, clean = reference
    marker = tmp_path / "marker"
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    writer = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WRITER, str(cache_dir), str(marker)], env=env
    )
    try:
        deadline = time.monotonic() + 240
        while not marker.exists():
            assert writer.poll() is None, "the writer exited before its second batch"
            assert time.monotonic() < deadline, "the writer never reached its second batch"
            time.sleep(0.05)
    finally:
        writer.send_signal(signal.SIGKILL)
        writer.wait()
    store = ResultStore(cache_dir)
    assert store.report_count() == 6
    with store.cache.connection() as conn:
        assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
    store.cache.close()
    specs = [JobSpec(job.kind, job.scheme, job.source) for job in JOBS]
    runtime = RuntimeConfig(processes=1, cache_dir=cache_dir)
    with Session(sim=SIM, runtime=runtime) as session:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = session.sweep(specs).reports
        stats = session.stats_snapshot()
    assert _report_keys(reports) == expected
    assert (stats.executed, stats.cache_hits) == (6, 6)
    assert store.canonical_dump() == clean


#: Holds the cache's database open, then counts its rows again on request.
_HOLDER = textwrap.dedent(
    """
    import sys
    from repro.eval.runner import ReportCache
    cache = ReportCache(sys.argv[1])
    print(cache.count(), flush=True)
    sys.stdin.readline()
    print(cache.count(), flush=True)
    """
)


def test_database_deleted_while_another_process_holds_it(tmp_path, reference):
    """Only the database file goes; its log files stay open in another process."""
    expected, _ = reference
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
        first = runner.run(JOBS[:6])
        with subprocess.Popen(
            [sys.executable, "-c", _HOLDER, str(tmp_path)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as holder:
            try:
                assert holder.stdout.readline().strip() == "6"
                (tmp_path / REPORTS_FILENAME).unlink()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    second = runner.run(JOBS[6:])
                out, _ = holder.communicate("\n", timeout=120)
            finally:
                holder.kill()
        stats = runner.stats_snapshot()
    assert _report_keys(first + second) == expected
    assert stats.executed == len(JOBS)
    assert out.strip() == "6"  # the holder reopened the new file
    store = ResultStore(tmp_path)
    assert store.report_count() == 6
    with store.cache.connection() as conn:
        assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
    store.cache.close()


def test_cli_sweep_and_serve_share_one_cache(tmp_path, reference):
    """A CLI sweep in another process and an in-process daemon write one
    database at the same time; both finish and every row lands once."""
    import urllib.request

    spec = SweepSpec.product(
        kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M5", "M11"), dim=48
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    session = Session(sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=tmp_path))
    with running_server(session) as server:
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro.eval", "run", "figure10", "--quick",
             "--cache-dir", str(tmp_path), "--output", str(tmp_path / "fig10.json")],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        base = f"http://127.0.0.1:{server.bound_port}"
        request = urllib.request.Request(
            f"{base}/sweeps", data=json.dumps(spec.to_payload()).encode(), method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            created = json.load(response)
        with urllib.request.urlopen(f"{base}/sweeps/{created['id']}/reports") as response:
            served = json.load(response)["reports"]
        _, err = cli.communicate(timeout=300)
    session.close()
    assert cli.returncode == 0, err
    assert "12 executed" in err
    with Session(sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=None)) as ref:
        assert json.dumps(served, sort_keys=True) == json.dumps(
            [report.to_dict() for report in ref.sweep(spec).reports], sort_keys=True
        )
    # The figure's 12 jobs and the daemon's 4 share the taco_csr / smash_hw
    # reports of no matrix, so every row is distinct.
    assert ResultStore(tmp_path).report_count() == 12 + len(spec.specs)
    assert cli_main(["run", "figure10", "--quick", "--cache-dir", str(tmp_path),
                     "--output", str(tmp_path / "warm.json")]) == 0
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "fig10.json").read_bytes()
