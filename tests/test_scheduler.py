"""Tests for the futures scheduler: single-flight, locking, lifecycle.

The sweep engine's concurrency contract (DESIGN.md section 15):

* concurrent submissions of an identical job share one execution,
* statistics are exact under any thread interleaving,
* every caller's report is bit-identical to a serial ``run()``'s,
* ``close()`` drains in-flight futures before tearing the pool down.

The deterministic-interleaving tests gate the module-level
``_execute_job_payload`` on a ``threading.Event`` so the test controls
exactly when an execution completes; the stress test hammers one Session
from several threads and checks the counters afterwards.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import SweepSpec, Workload
from repro.eval import runner as runner_module
from repro.eval.runner import SweepRunner, job_key, kernel_job
from repro.sim.config import SimConfig

SIM = SimConfig.scaled(16)


def _job(key="M8", scheme="taco_csr", dim=48):
    return kernel_job("spmv", scheme, Workload.suite(key, dim), SIM)


def _sweep_spec(dim=48):
    return SweepSpec.product(
        kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M5", "M8"), dim=dim
    )


def _report_keys(reports):
    return [json.dumps(report.to_dict(), sort_keys=True) for report in reports]


class TestSubmit:
    def test_serial_submit_resolves_synchronously(self, tmp_path):
        with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
            future = runner.submit(_job())
            assert future.done()
            report = future.result()
            assert report.kernel == "spmv"
            assert runner.stats.submitted == 1
            assert runner.stats.executed == 1

    def test_submit_matches_run_bit_identically(self, tmp_path):
        job = _job()
        with SweepRunner(processes=1, cache_dir=None) as runner:
            expected = _report_keys(runner.run([job]))
        with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
            executed = runner.submit(job).result()
            cached = runner.submit(job).result()
        assert _report_keys([executed]) == expected
        assert _report_keys([cached]) == expected
        # Distinct report objects per caller, shared payload underneath.
        assert executed is not cached

    def test_cached_submit_does_not_execute(self, tmp_path):
        job = _job()
        with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
            runner.submit(job).result()
            runner.submit(job).result()
            assert runner.stats.executed == 1
            assert runner.stats.cache_hits == 1
            assert runner.stats.submitted == 2
            assert runner.stats.unique == 2

    def test_submit_exception_clears_inflight_and_retries(self, tmp_path, monkeypatch):
        calls = []
        real = runner_module._execute_job_payload

        def flaky(job):
            calls.append(job)
            if len(calls) == 1:
                raise RuntimeError("injected failure")
            return real(job)

        monkeypatch.setattr(runner_module, "_execute_job_payload", flaky)
        with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
            with pytest.raises(RuntimeError, match="injected failure"):
                runner.submit(_job())
            assert not runner._inflight  # the failed entry was retired
            # The failure was not cached; a retry re-executes and succeeds.
            assert runner.submit(_job()).result().kernel == "spmv"
        assert len(calls) == 2


class TestSingleFlight:
    def test_concurrent_identical_submissions_share_one_execution(
        self, tmp_path, monkeypatch
    ):
        """A join while the owner executes waits for the owner's payload."""
        real = runner_module._execute_job_payload
        started, gate = threading.Event(), threading.Event()
        executions = []

        def gated(job):
            executions.append(job)
            started.set()
            assert gate.wait(timeout=30)
            return real(job)

        monkeypatch.setattr(runner_module, "_execute_job_payload", gated)
        with SweepRunner(processes=1, cache_dir=tmp_path) as runner:
            owner_future = []

            def owner():
                owner_future.append(runner.submit(_job()))

            thread = threading.Thread(target=owner)
            thread.start()
            assert started.wait(timeout=30)
            # The job is mid-execution: a second submit must join, not
            # re-execute — and must return without blocking on the result.
            joined = runner.submit(_job())
            assert not joined.done()
            assert runner.stats.executed == 1
            gate.set()
            thread.join(timeout=30)
            assert _report_keys([joined.result(timeout=30)]) == _report_keys(
                [owner_future[0].result()]
            )
            assert len(executions) == 1
            assert runner.stats.submitted == 2
            assert runner.stats.unique == 2

    def test_close_drains_inflight_futures(self, tmp_path, monkeypatch):
        real = runner_module._execute_job_payload
        started, gate = threading.Event(), threading.Event()

        def gated(job):
            started.set()
            assert gate.wait(timeout=30)
            return real(job)

        monkeypatch.setattr(runner_module, "_execute_job_payload", gated)
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        futures = []
        thread = threading.Thread(target=lambda: futures.append(runner.submit(_job())))
        thread.start()
        assert started.wait(timeout=30)
        releaser = threading.Timer(0.2, gate.set)
        releaser.start()
        try:
            runner.close()  # must block until the gated execution finishes
        finally:
            releaser.cancel()
            gate.set()
        thread.join(timeout=30)
        assert futures[0].done()
        assert futures[0].result().kernel == "spmv"


class TestConcurrentSessions:
    def test_threaded_overlapping_sweeps_stress(self, tmp_path):
        """N threads, overlapping specs: exact stats, identical reports."""
        spec = _sweep_spec()
        with Session(runtime=RuntimeConfig(processes=1, cache_dir=None)) as baseline:
            expected = _report_keys(baseline.sweep(spec).reports)

        threads, errors, results = [], [], {}
        session = Session(runtime=RuntimeConfig(processes=1, cache_dir=tmp_path))
        barrier = threading.Barrier(4)

        def worker(name):
            try:
                barrier.wait(timeout=30)
                futures = [session.submit(job_spec) for job_spec in spec]
                results[name] = _report_keys(f.result(timeout=60) for f in futures)
            except BaseException as error:  # surfaces in the main thread
                errors.append((name, error))

        for index in range(4):
            thread = threading.Thread(target=worker, args=(f"t{index}",))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        unique_jobs = len({job_key(s.to_job(sim=session.sim)) for s in spec})
        stats = session.stats_snapshot()
        # Single-flight + cache: every distinct job executed exactly once,
        # no matter how the four threads interleaved.
        assert stats.executed == unique_jobs
        assert stats.submitted == 4 * len(spec.specs)
        assert stats.unique == 4 * len(spec.specs)
        # Non-executions split between disk hits and in-flight joins; both
        # are bounded by the lookups that happened.
        assert stats.cache_hits + stats.executed <= stats.unique
        for name, keys in results.items():
            assert keys == expected, f"{name} diverged from the serial baseline"
        session.close()

        # The result-store index survived the concurrent store() traffic:
        # one row per unique job, and the incrementally built index is
        # exactly what a cold rebuild of the same cache tree produces.
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        assert store.exists()
        assert store.report_count() == unique_jobs
        incremental = store.canonical_dump()
        store.reindex()
        assert store.canonical_dump() == incremental

    def test_mixed_sweep_and_submit_share_cache(self, tmp_path):
        spec = _sweep_spec()
        with Session(runtime=RuntimeConfig(processes=1, cache_dir=tmp_path)) as session:
            blocking = _report_keys(session.sweep(spec).reports)
            executed_after_sweep = session.stats_snapshot().executed
            futures = [session.submit(job_spec) for job_spec in spec]
            submitted = _report_keys(f.result() for f in futures)
            assert submitted == blocking
            # Everything was already on disk: submit executed nothing new.
            assert session.stats_snapshot().executed == executed_after_sweep


class TestPoolSubmit:
    def test_pool_submit_resolves_and_matches_serial(self, tmp_path):
        jobs = [_job("M5"), _job("M8"), _job("M5", scheme="mkl_csr")]
        with SweepRunner(processes=1, cache_dir=None) as serial:
            expected = _report_keys(serial.run(jobs))
        with SweepRunner(processes=2, cache_dir=tmp_path) as pooled:
            futures = [pooled.submit(job) for job in jobs]
            got = _report_keys(future.result(timeout=300) for future in futures)
            assert got == expected
            assert pooled.stats.executed == len(jobs)
        # Warm pool submissions resolve from disk without executing.
        with SweepRunner(processes=2, cache_dir=tmp_path) as warm:
            future = warm.submit(jobs[0])
            assert future.done()  # cache hit: resolved without the pool
            assert _report_keys([future.result()]) == expected[:1]
            assert warm.stats.executed == 0


class TestCacheTmpNames:
    def test_store_tmp_names_are_unique_per_call(self, tmp_path, monkeypatch):
        """Two stores of one key never collide on the staging file name."""
        sources = []
        real_replace = os.replace

        def recording_replace(src, dst, *args, **kwargs):
            sources.append(str(src))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", recording_replace)
        with SweepRunner(processes=1, cache_dir=None) as runner:
            payload = runner.run([_job()])[0].to_dict()
        cache = runner_module.ReportCache(tmp_path)
        job = _job()
        key = job_key(job)
        cache.store(key, job, payload)
        cache.store(key, job, payload)
        tmp_names = [source for source in sources if source.endswith(".tmp")]
        assert len(tmp_names) == 2
        assert len(set(tmp_names)) == 2
        assert all(f".{os.getpid()}." in name for name in tmp_names)


class TestSessionLifecycle:
    def test_submit_after_close_raises(self, tmp_path):
        session = Session(runtime=RuntimeConfig(processes=1, cache_dir=tmp_path))
        session.close()
        with pytest.raises(RuntimeError, match="closed Session"):
            session.submit(next(iter(_sweep_spec())))

    def test_sweep_and_run_after_close_raise_and_start_no_pool(self):
        before = set(multiprocessing.active_children())
        session = Session(runtime=RuntimeConfig(processes=2, cache_dir=None))
        session.close()
        spec = _sweep_spec()
        with pytest.raises(RuntimeError, match="closed Session"):
            session.sweep(spec)
        with pytest.raises(RuntimeError, match="closed Session"):
            session.run(next(iter(spec)))
        assert set(multiprocessing.active_children()) <= before

    def test_as_completed_yields_every_future(self, tmp_path):
        spec = _sweep_spec()
        with Session(runtime=RuntimeConfig(processes=1, cache_dir=tmp_path)) as session:
            futures = [session.submit(job_spec) for job_spec in spec]
            done = list(Session.as_completed(futures, timeout=60))
            assert sorted(map(id, done)) == sorted(map(id, futures))
            assert all(future.done() for future in done)
