"""Batched multi-trace replay and per-phase profiling: knobs and exactness.

``RuntimeConfig.replay_batch`` groups several kernel jobs' trace segments
into one merged replay call per hierarchy (amortizing per-call
dispatch in many-small-job serial sweeps); ``replay_profile`` collects
per-phase replay wall-clock.  Neither knob may change a single report bit:
the suite compares batched against unbatched execution across kernels,
schemes, and mixed kernel/application batches, and unit-tests the
``ReplayBatcher`` merge (structure-table union, per-hierarchy isolation).
"""

import sys

import numpy as np
import pytest

import repro.sim._replay_core as replay_core
from repro.api import JobSpec, Session, SweepSpec, Workload
from repro.api.config import RuntimeConfig
from repro.eval.runner import SweepRunner, app_job, graph_source, kernel_job, suite_source
from repro.sim.config import SimConfig
from repro.sim.memory import MemoryHierarchy, ReplayBatcher, replay_batching

SIM = SimConfig.scaled(16)


def _sweep_jobs(dim=48):
    return [
        kernel_job(kernel, scheme, suite_source(key, dim), SIM)
        for kernel in ("spmv",)
        for scheme in ("taco_csr", "smash_hw")
        for key in ("M2", "M8", "M13")
    ]


class TestBatchedSweepEquivalence:
    """Batched serial execution returns bit-identical payloads."""

    @pytest.mark.parametrize("batch", [2, 4, 100])
    def test_kernel_jobs_match_unbatched(self, batch):
        jobs = _sweep_jobs()
        with SweepRunner(processes=1, cache_dir=None) as plain:
            expected = plain.run(jobs)
        with SweepRunner(processes=1, cache_dir=None, replay_batch=batch) as batched:
            assert batched.run(jobs) == expected

    def test_mixed_kernel_and_app_jobs(self):
        """Application jobs break the batch but stay in submission order."""
        jobs = _sweep_jobs()[:2]
        jobs.insert(1, app_job("pagerank", "taco_csr", graph_source("G1", 64), SIM, iterations=2))
        with SweepRunner(processes=1, cache_dir=None) as plain:
            expected = plain.run(jobs)
        with SweepRunner(processes=1, cache_dir=None, replay_batch=8) as batched:
            assert batched.run(jobs) == expected

    def test_batched_with_chunked_traces(self):
        """Batching composes with the bounded-memory chunked replay."""
        jobs = _sweep_jobs()[:4]
        with SweepRunner(processes=1, cache_dir=None, trace_chunk=512) as plain:
            expected = plain.run(jobs)
        with SweepRunner(
            processes=1, cache_dir=None, trace_chunk=512, replay_batch=4
        ) as batched:
            assert batched.run(jobs) == expected

    def test_session_threads_the_knob(self):
        sweep = SweepSpec.product(
            kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M2", "M8")
        )
        runtime = RuntimeConfig(processes=1, cache_dir=None)
        with Session(sim=SIM, runtime=runtime) as session:
            expected = session.sweep(sweep)
        with Session(sim=SIM, runtime=runtime.replace(replay_batch=4)) as session:
            assert session.sweep(sweep).reports == expected.reports


class TestReplayBatcher:
    """The deferral/merge machinery itself."""

    def _trace(self, seed, n=600, base=0):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 2, n).astype(np.int64)
        addresses = (rng.integers(0, 1 << 12, n) * 8 + base).astype(np.int64)
        kinds = rng.choice([0, 0, 1, 2], size=n).astype(np.uint8)
        return ids, addresses, kinds

    def test_deferred_replay_matches_direct(self):
        direct = MemoryHierarchy(SIM)
        deferred = MemoryHierarchy(SIM)
        segments = [self._trace(seed, base=seed * 4096) for seed in (1, 2, 3)]
        for ids, addresses, kinds in segments:
            direct.replay(("a", "b"), ids, addresses, kinds)
        batcher = ReplayBatcher()
        with replay_batching(batcher):
            for ids, addresses, kinds in segments:
                assert deferred.replay(("a", "b"), ids, addresses, kinds) == 0.0
            # Nothing replayed yet: state still pristine inside the context.
            assert deferred.stats.requests == 0
        batcher.flush()
        assert deferred.snapshot_stats() == direct.snapshot_stats()
        assert deferred.l1._sets == direct.l1._sets

    def test_merge_unions_structure_tables_by_name(self):
        """Segments naming the same structure under different ids merge."""
        direct = MemoryHierarchy(SIM)
        deferred = MemoryHierarchy(SIM)
        ids, addresses, kinds = self._trace(7)
        direct.replay(("a", "b"), ids, addresses, kinds)
        direct.replay(("b", "a"), ids, addresses, kinds)
        batcher = ReplayBatcher()
        with replay_batching(batcher):
            deferred.replay(("a", "b"), ids, addresses, kinds)
            deferred.replay(("b", "a"), ids, addresses, kinds)
        batcher.flush()
        assert deferred.snapshot_stats() == direct.snapshot_stats()

    def test_hierarchies_stay_independent(self):
        """One flush, several hierarchies: no cross-contamination."""
        solo = [MemoryHierarchy(SIM) for _ in range(2)]
        together = [MemoryHierarchy(SIM) for _ in range(2)]
        traces = [self._trace(11), self._trace(12, base=1 << 20)]
        for h, (ids, addresses, kinds) in zip(solo, traces):
            h.replay(("x",), np.zeros_like(ids), addresses, kinds)
        batcher = ReplayBatcher()
        with replay_batching(batcher):
            for h, (ids, addresses, kinds) in zip(together, traces):
                h.replay(("x",), np.zeros_like(ids), addresses, kinds)
        batcher.flush()
        for h_solo, h_batched in zip(solo, together):
            assert h_batched.snapshot_stats() == h_solo.snapshot_stats()

    def test_take_new_hierarchies_is_a_per_job_cursor(self):
        h1, h2 = MemoryHierarchy(SIM), MemoryHierarchy(SIM)
        ids, addresses, kinds = self._trace(21)
        batcher = ReplayBatcher()
        with replay_batching(batcher):
            h1.replay(("x",), np.zeros_like(ids), addresses, kinds)
            assert batcher.take_new_hierarchies() == [h1]
            h2.replay(("x",), np.zeros_like(ids), addresses, kinds)
            h1.replay(("x",), np.zeros_like(ids), addresses, kinds)  # not new
            assert batcher.take_new_hierarchies() == [h2]
        batcher.flush()
        assert batcher.take_new_hierarchies() == []


class TestReplayProfile:
    """Per-phase timing: collected when asked, absent when not."""

    def test_runner_collects_phases(self):
        with SweepRunner(processes=1, cache_dir=None, replay_profile=True) as runner:
            runner.run(_sweep_jobs()[:2])
            profile = runner.last_profile
        assert profile
        assert set(profile) <= {"prefetch", "lru", "stalls", "walk"}
        assert all(seconds >= 0.0 for seconds in profile.values())

    def test_reference_backend_records_the_fused_walk(self, monkeypatch):
        # Above every segment length, each replay runs the reference loop.
        monkeypatch.setattr(replay_core, "MIN_VECTORIZED_HEADS", sys.maxsize)
        with SweepRunner(processes=1, cache_dir=None, replay_profile=True) as runner:
            runner.run(_sweep_jobs()[:1])
            assert set(runner.last_profile) == {"walk"}

    def test_sweep_result_surfaces_stats(self):
        spec = JobSpec("spmv", "taco_csr", Workload.suite("M2", dim=48))
        runtime = RuntimeConfig(processes=1, cache_dir=None, replay_profile=True)
        with Session(sim=SIM, runtime=runtime) as session:
            result = session.sweep((spec,))
        assert result.stats is not None
        assert result.stats["replay_phases"]
        with Session(
            sim=SIM, runtime=RuntimeConfig(processes=1, cache_dir=None)
        ) as session:
            assert session.sweep((spec,)).stats is None

    def test_profiling_does_not_change_reports(self):
        jobs = _sweep_jobs()[:3]
        with SweepRunner(processes=1, cache_dir=None) as plain:
            expected = plain.run(jobs)
        with SweepRunner(processes=1, cache_dir=None, replay_profile=True) as profiled:
            assert profiled.run(jobs) == expected

    def test_profile_collection_nests_without_losing_time(self):
        with replay_core.profile_collection() as outer:
            with replay_core.profile_collection() as inner:
                replay_core._record_phase("lru", 1.0)
            replay_core._record_phase("lru", 0.5)
        assert inner is outer
        assert outer["lru"] == 1.5


class TestKnobPlumbing:
    """Environment parsing, validation, and describe() for the new knobs."""

    def test_env_batch(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_BATCH", "8")
        assert RuntimeConfig.from_env().replay_batch == 8

    def test_env_batch_invalid(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_BATCH", "many")
        with pytest.raises(ValueError, match="SMASH_REPRO_REPLAY_BATCH"):
            RuntimeConfig.from_env()

    def test_env_profile_truthy_and_falsy(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_PROFILE", "1")
        assert RuntimeConfig.from_env().replay_profile is True
        monkeypatch.setenv("SMASH_REPRO_REPLAY_PROFILE", "off")
        assert RuntimeConfig.from_env().replay_profile is False
        monkeypatch.delenv("SMASH_REPRO_REPLAY_PROFILE")
        assert RuntimeConfig.from_env().replay_profile is False

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_BATCH", "8")
        assert RuntimeConfig.from_env(replay_batch=2).replay_batch == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="replay batch"):
            RuntimeConfig(replay_batch=0)
        with pytest.raises(ValueError, match="replay batch"):
            RuntimeConfig(replay_batch=True)
        with pytest.raises(ValueError, match="replay profile"):
            RuntimeConfig(replay_profile="yes")

    def test_describe_mentions_non_defaults(self):
        summary = RuntimeConfig(replay_batch=4, replay_profile=True).describe()
        assert "replay_batch=4" in summary
        assert "replay_profile=on" in summary
        assert "replay_batch" not in RuntimeConfig().describe()

    def test_session_reconstructs_runtime_from_runner(self):
        with SweepRunner(processes=1, cache_dir=None, replay_batch=4) as runner:
            session = Session(sim=SIM, runner=runner)
            assert session.runtime.replay_batch == 4
            assert session.runtime.replay_profile is False

    def test_cli_flags_reach_the_session(self):
        from repro.eval.cli import build_parser

        args = build_parser().parse_args(
            ["run", "figure10", "--replay-batch", "4", "--replay-profile"]
        )
        assert args.replay_batch == 4
        assert args.replay_profile is True
        defaults = build_parser().parse_args(["run", "figure10"])
        assert defaults.replay_batch is None
        assert defaults.replay_profile is None
