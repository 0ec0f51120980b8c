"""Per-phase replay profiling: the ``replay_profile`` knob and its data.

``RuntimeConfig.replay_profile`` collects per-phase replay wall-clock into
``SweepRunner.last_profile`` and ``SweepResult.stats``. It may not change a
single report bit: the suite compares profiled against plain execution and
pins the knob's environment parsing, validation, ``describe()`` text and
CLI flag.
"""

import sys

import pytest

import repro.sim._replay_core as replay_core
from repro.api import JobSpec, Session, Workload
from repro.api.config import RuntimeConfig
from repro.eval.runner import SweepRunner, kernel_job, suite_source
from repro.sim.config import SimConfig

SIM = SimConfig.scaled(16)


def _sweep_jobs(dim=48):
    return [
        kernel_job(kernel, scheme, suite_source(key, dim), SIM)
        for kernel in ("spmv",)
        for scheme in ("taco_csr", "smash_hw")
        for key in ("M2", "M8", "M13")
    ]


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
    """Environment parsing, validation, and describe() for the profile knob."""

    def test_env_profile_truthy_and_falsy(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_PROFILE", "1")
        assert RuntimeConfig.from_env().replay_profile is True
        monkeypatch.setenv("SMASH_REPRO_REPLAY_PROFILE", "off")
        assert RuntimeConfig.from_env().replay_profile is False
        monkeypatch.delenv("SMASH_REPRO_REPLAY_PROFILE")
        assert RuntimeConfig.from_env().replay_profile is False

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("SMASH_REPRO_REPLAY_PROFILE", "1")
        assert RuntimeConfig.from_env(replay_profile=False).replay_profile is False

    def test_validation(self):
        with pytest.raises(ValueError, match="replay profile"):
            RuntimeConfig(replay_profile="yes")

    def test_describe_mentions_non_defaults(self):
        assert "replay_profile=on" in RuntimeConfig(replay_profile=True).describe()
        assert "replay_profile" not in RuntimeConfig().describe()

    def test_cli_flags_reach_the_session(self):
        from repro.eval.cli import build_parser

        args = build_parser().parse_args(["run", "figure10", "--replay-profile"])
        assert args.replay_profile is True
        defaults = build_parser().parse_args(["run", "figure10"])
        assert defaults.replay_profile is None
