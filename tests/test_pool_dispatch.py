"""Tests for the chunked worker-pool path: dispatch, failure, recovery.

The pool-dispatch contract (DESIGN.md section 17):

* the only chunk size is the automatic split, ``ceil(misses / (processes
  * 4))``, so tests reach one-job and multi-job chunks through the worker
  count and the number of jobs, and assert the size they get;
* chunked dispatch is byte-identical to serial execution, with one job or
  many per pool task and at any trace chunk budget — every chunk runs the
  serial per-job loop, and the single-flight futures fan back out per job;
* ``executed`` counts distinct jobs exactly, chunked or not, and warm
  (cache-hit) runs execute nothing;
* a failing job fails its whole chunk — every joiner sees the error,
  nothing from the chunk is cached, and a retry re-executes;
* the pool initializer pins the runner's trace-chunk override inside each
  worker, and a default runner installs none;
* a worker killed mid-sweep costs one pool rebuild, not the runner: the
  lost jobs are re-dispatched once, reports stay byte-identical and
  ``executed`` stays exact.
"""

import itertools
import json
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.config import RuntimeConfig
from repro.api.specs import Workload
from repro.eval.cli import build_parser
from repro.eval.runner import SweepRunner, kernel_job
from repro.sim.config import SimConfig

SIM = SimConfig.scaled(16)


def _job(key="M8", scheme="taco_csr", dim=48):
    return kernel_job("spmv", scheme, Workload.suite(key, dim), SIM)


_SCHEMES = ("taco_csr", "smash_hw", "mkl_csr", "smash_sw", "taco_bcsr", "ideal_csr")


def _jobs(n=6, dim=48):
    """``n`` distinct SpMV jobs, each source's schemes next to each other."""
    pairs = itertools.product(("M5", "M8", "M2", "M13"), _SCHEMES)
    return [_job(key, scheme, dim) for key, scheme in itertools.islice(pairs, n)]


#: Jobs per pool task -> the ``(processes, misses)`` whose automatic split
#: gives it.
CHUNK_LEGS = {1: (3, 12), 2: (2, 10), 3: (2, 20)}


def _pooled(chunk, **kwargs):
    """A pooled runner and a miss count it splits into ``chunk``-job tasks."""
    processes, n_jobs = CHUNK_LEGS[chunk]
    runner = SweepRunner(processes=processes, **kwargs)
    assert runner._effective_pool_chunk(n_jobs) == chunk  # no leg passes vacuously
    return runner, n_jobs


def _report_keys(reports):
    return [json.dumps(report.to_dict(), sort_keys=True) for report in reports]


def _run_bounded(runner, jobs, timeout=300):
    """``runner.run(jobs)`` from a helper thread, failing instead of hanging."""
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        return helper.submit(runner.run, jobs).result(timeout=timeout)
    finally:
        helper.shutdown(wait=False)


def _worker_knobs():
    """Probe executed inside a pool worker: its effective runtime knobs."""
    from repro.sim import trace as _trace

    override = _trace._chunk_override
    return {"chunk_override": None if override is _trace._NO_OVERRIDE else override}


class TestChunkedByteIdentity:
    def test_chunked_auto_and_unchunked_match_serial(self, tmp_path):
        for chunk in (1, 3):
            pooled, n_jobs = _pooled(chunk, cache_dir=None)
            jobs = _jobs(n_jobs)
            with SweepRunner(processes=1, cache_dir=None) as serial:
                expected = _report_keys(serial.run(jobs))
            with pooled:
                got = _report_keys(pooled.run(jobs))
                assert got == expected, f"{chunk}-job chunks diverged from serial"
                # Cache disabled: every distinct job executed exactly once.
                assert pooled.stats.executed == len(jobs)

    def test_warm_chunked_runs_execute_nothing(self, tmp_path):
        cold, n_jobs = _pooled(3, cache_dir=tmp_path)
        jobs = _jobs(n_jobs)
        with cold:
            first = _report_keys(cold.run(jobs))
            assert cold.stats.executed == len(jobs)
        with _pooled(3, cache_dir=tmp_path)[0] as warm:
            second = _report_keys(warm.run(jobs))
            assert second == first
            assert warm.stats.executed == 0
            assert warm.stats.cache_hits == len(jobs)

    @pytest.mark.parametrize("trace_chunk", [7, 4096])
    def test_pool_chunked_dispatch_at_trace_chunks(self, trace_chunk):
        """Replay exactness across process boundaries at tiny/large trace chunks.

        Workers pin the trace-chunk override and run two jobs per pool
        task; the payloads must still be byte-identical to plain serial
        execution — the chunk-boundary contract across processes.
        """
        pooled, n_jobs = _pooled(2, cache_dir=None, trace_chunk=trace_chunk)
        jobs = _jobs(n_jobs)
        with SweepRunner(processes=1, cache_dir=None) as serial:
            expected = _report_keys(serial.run(jobs))
        with pooled:
            assert _report_keys(pooled.run(jobs)) == expected


class TestChunkFailure:
    def test_failing_job_fails_its_chunk_and_nothing_is_cached(self, tmp_path):
        # Ten misses over two workers travel two per task; the good and the
        # bad job come last, so they share the final chunk and every other
        # chunk has resolved by the time the failure surfaces.
        runner, n_jobs = _pooled(2, cache_dir=tmp_path)
        good = _job("M5", dim=56)
        # A raw, unvalidated source: the job fails in its worker.
        bad = kernel_job("spmv", "taco_csr", ("suite", "NOPE", None, None), SIM)
        jobs = _jobs(n_jobs - 2) + [good, bad]
        with runner:
            with pytest.raises(Exception):
                runner.run(jobs)
            assert not runner._inflight  # every owned future was resolved
            assert runner.stats.executed == len(jobs)
            # The good job rode the failed chunk: it was never cached, so a
            # retry re-executes it (and succeeds).
            report = runner.run([good])[0]
            assert report.kernel == "spmv"
            assert runner.stats.executed == len(jobs) + 1
            assert runner.stats.cache_hits == 0


class TestEffectivePoolChunk:
    def test_auto_chunk_splits_with_oversubscription(self):
        with SweepRunner(processes=4, cache_dir=None) as runner:
            # ceil(n / (processes * 4)), floored at one job per task.
            assert runner._effective_pool_chunk(100) == 7
            assert runner._effective_pool_chunk(16) == 1
            assert runner._effective_pool_chunk(1) == 1
        with SweepRunner(processes=2, cache_dir=None) as runner:
            assert runner._effective_pool_chunk(36) == 5


class TestWorkerInitializer:
    def test_worker_sees_pinned_chunk_override(self):
        """A 1-worker pool probe reports the runner's pinned chunk budget."""
        with SweepRunner(processes=1, cache_dir=None, trace_chunk=1234) as runner:
            pool = runner._ensure_pool()
            knobs = pool.submit(_worker_knobs).result(timeout=300)
        assert knobs["chunk_override"] == 1234

    def test_default_worker_has_no_override(self):
        with SweepRunner(processes=1, cache_dir=None) as runner:
            pool = runner._ensure_pool()
            knobs = pool.submit(_worker_knobs).result(timeout=300)
        assert knobs["chunk_override"] is None  # no override pinned


@pytest.fixture
def kill_first_worker_job(monkeypatch, tmp_path):
    """Make the first job any pool worker starts SIGKILL that worker.

    The patched ``execute_job`` reaches the workers because they fork from
    this process after the patch; a marker file makes the kill happen once
    across all of them, so the re-dispatched jobs run normally.
    """
    if multiprocessing.get_start_method() != "fork" or sys.platform == "win32":
        pytest.skip("needs fork-started pool workers")
    from repro.eval import runner as runner_module

    marker = tmp_path / "killed"
    parent = os.getpid()
    execute = runner_module.execute_job

    def execute_or_die(job):
        if os.getpid() != parent:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return execute(job)

    monkeypatch.setattr(runner_module, "execute_job", execute_or_die)
    return marker


class TestWorkerDeath:
    """A SIGKILLed worker breaks the pool; the runner rebuilds it once."""

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_sweep_survives_a_killed_worker(self, kill_first_worker_job, tmp_path, chunk):
        pooled, n_jobs = _pooled(chunk, cache_dir=tmp_path / "cache")
        jobs = _jobs(n_jobs)
        with SweepRunner(processes=1, cache_dir=None) as serial:
            expected = _report_keys(serial.run(jobs))
        with pooled:
            assert _report_keys(_run_bounded(pooled, jobs)) == expected
            assert kill_first_worker_job.exists()  # a worker really died
            assert pooled.stats.executed == len(jobs)
            assert not pooled._inflight
            # The rebuilt pool keeps serving: a following run executes the
            # new job and loads the rest from the cache.
            extra = _job("M5", dim=56)
            reports = _report_keys(_run_bounded(pooled, jobs + [extra]))
            assert reports[: len(jobs)] == expected
            assert pooled.stats.executed == len(jobs) + 1

    def test_pool_broken_between_runs_is_replaced(self):
        jobs = _jobs()[:4]
        with SweepRunner(processes=2, cache_dir=None) as pooled:
            expected = _report_keys(_run_bounded(pooled, jobs))
            broken = pooled._pool
            for pid in list(broken._processes):
                os.kill(pid, signal.SIGKILL)
            assert _report_keys(_run_bounded(pooled, jobs)) == expected
            assert pooled._pool is not broken
            assert pooled.stats.executed == 2 * len(jobs)

    def test_second_break_fails_the_jobs(self, monkeypatch, tmp_path):
        """Re-dispatch happens once: a pool that breaks again fails the sweep."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork-started pool workers")
        from concurrent.futures.process import BrokenProcessPool

        from repro.eval import runner as runner_module

        def always_die(job):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(runner_module, "execute_job", always_die)
        with SweepRunner(processes=2, cache_dir=tmp_path) as pooled:
            with pytest.raises(BrokenProcessPool):
                _run_bounded(pooled, _jobs()[:2])
            assert not pooled._inflight
            monkeypatch.undo()
            # The failure cached nothing, and the runner recovers.
            assert len(_run_bounded(pooled, _jobs()[:2])) == 2
            assert pooled.stats.executed == 4


class TestKnobSurface:
    def test_sweep_runner_knobs_are_pinned(self):
        """The runner takes explicit knobs only; env resolution is the Session's."""
        import inspect

        from repro.eval.runner import USE_ENV_CHUNK

        parameters = inspect.signature(SweepRunner.__init__).parameters
        assert {name: p.default for name, p in parameters.items() if name != "self"} == {
            "processes": 1,
            "cache_dir": None,
            "trace_chunk": USE_ENV_CHUNK,
        }

    def test_environment_is_resolved_only_at_front_doors(self):
        """``RuntimeConfig.from_env`` is called by the front doors alone."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        callers = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_env"
                ):
                    callers.add(path.relative_to(root).as_posix())
        assert callers == {
            "api/session.py",
            "eval/cli.py",
            "eval/experiments.py",
            "store/cli.py",
        }

    def test_runtime_config_fields_are_pinned(self):
        """A knob cannot come back (or go) unnoticed."""
        import dataclasses

        assert tuple(field.name for field in dataclasses.fields(RuntimeConfig)) == (
            "processes",
            "cache_dir",
            "trace_chunk",
            "service_host",
            "service_port",
            "store_index",
        )

    @pytest.mark.parametrize(
        "flag",
        [
            ["--replay-backend", "reference"],
            ["--no-pool-warmup"],
            ["--replay-batch", "4"],
            ["--pool-chunk", "1"],
            ["--replay-profile"],
        ],
    )
    def test_removed_cli_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "figure10", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_bench_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench", "ingest", "x.json"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
