"""Tests for the sweep engine: jobs, keys, cache, parallel execution, CLI."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import PROCESSES_ENV_VAR, RuntimeConfig
from repro.api.session import Session
from repro.api.specs import JobSpec, Workload
from repro.core.config import SMASHConfig
from repro.eval.cli import main as cli_main
from repro.eval.experiments import experiment_fig10_11, experiment_fig16_17, experiment_spadd
from repro.eval.runner import (
    APP_KINDS,
    CACHE_SCHEMA_VERSION,
    KERNEL_KINDS,
    Job,
    ReportCache,
    SweepRunner,
    app_job,
    execute_job,
    job_key,
    kernel_job,
)
from repro.kernels.registry import registered_schemes
from repro.workloads.sources import MEMO_SIZE, materialize_source
from repro.workloads.sources import _build as workload_memo
from repro.sim.config import CacheConfig, CPUConfig, DRAMConfig, InstructionCosts, SimConfig
from repro.sim.instrumentation import CostReport

QUICK = ("M5", "M8")
SIM = SimConfig.scaled(16)


def _quick_jobs(dim=48):
    config = SMASHConfig((2, 4, 16))
    return [
        kernel_job("spmv", scheme, Workload.suite(key, dim), SIM, smash_config=config)
        for key in QUICK
        for scheme in ("taco_csr", "smash_hw")
    ]


class TestJobsAndKeys:
    def test_key_is_stable_and_content_addressed(self):
        job = _quick_jobs()[0]
        assert job_key(job) == job_key(job)
        assert len(job_key(job)) == 64

    def test_key_changes_with_sim_config(self):
        source = Workload.suite("M8", 48)
        a = kernel_job("spmv", "taco_csr", source, SimConfig.scaled(16))
        b = kernel_job("spmv", "taco_csr", source, SimConfig.scaled(32))
        assert job_key(a) != job_key(b)

    def test_key_changes_with_workload_and_scheme(self):
        base = kernel_job("spmv", "taco_csr", Workload.suite("M8", 48), SIM)
        assert job_key(base) != job_key(
            kernel_job("spmv", "taco_csr", Workload.suite("M5", 48), SIM)
        )
        assert job_key(base) != job_key(
            kernel_job("spmv", "mkl_csr", Workload.suite("M8", 48), SIM)
        )
        assert job_key(base) != job_key(
            kernel_job("spmm", "taco_csr", Workload.suite("M8", 48), SIM)
        )

    def test_smash_config_normalized_out_for_csr_schemes(self):
        source = Workload.suite("M8", 48)
        plain = kernel_job("spmv", "taco_csr", source, SIM)
        with_config = kernel_job(
            "spmv", "taco_csr", source, SIM, smash_config=SMASHConfig((8, 4, 16))
        )
        assert job_key(plain) == job_key(with_config)
        # ... but it matters for SMASH schemes.
        a = kernel_job("spmv", "smash_hw", source, SIM, smash_config=SMASHConfig((2, 4, 16)))
        b = kernel_job("spmv", "smash_hw", source, SIM, smash_config=SMASHConfig((8, 4, 16)))
        assert job_key(a) != job_key(b)

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            kernel_job("spgemm", "taco_csr", Workload.suite("M8"), SIM)
        with pytest.raises(ValueError):
            app_job("bfs", "taco_csr", Workload.graph("G1"), SIM)
        with pytest.raises(ValueError):
            execute_job(Job("nope", "taco_csr", Workload.suite("M8"), SIM))

    def test_materialize_sources(self):
        coo = materialize_source(Workload.suite("M8", 48))
        assert coo.shape == (48, 48) and coo.nnz > 0
        loc = materialize_source(Workload.locality(32, 32, 16, 8, 50.0, seed=3))
        assert loc.nnz > 0
        graph = materialize_source(Workload.graph("G2", 32))
        assert graph.n_vertices == 32
        with pytest.raises(ValueError):
            materialize_source(("nonsense", 1))


def _all_sections_non_default() -> SimConfig:
    return SimConfig(
        cpu=CPUConfig(
            frequency_ghz=2, issue_width=2, rob_entries=64, load_queue_entries=16,
            store_queue_entries=8, memory_level_parallelism=2.5, dependent_miss_exposure=0.7,
        ),
        l1=CacheConfig("L1", 16 * 1024, 4, 3, line_bytes=32, mshr_entries=6, prefetcher=False),
        l2=CacheConfig("L2", 128 * 1024, 4, 10, mshr_entries=12),
        l3=CacheConfig("L3", 512 * 1024, 8, 25, mshr_entries=32, prefetcher=False),
        dram=DRAMConfig(
            latency_cycles=150, channels=2, banks=8, open_row_policy=False,
            capacity_bytes=2 * 1024 ** 3,
        ),
        costs=InstructionCosts(index=2.0, compute=0.5, load=1.5, store=3, branch=1.25, bmu=0.0),
    )


def _cpu_sim(frequency_ghz) -> SimConfig:
    return SimConfig(cpu=CPUConfig(frequency_ghz=frequency_ghz))


class TestSimPayloadMemo:
    """``Job.payload()["sim"]`` is encoded once per SimConfig *instance*."""

    SOURCE = Workload.suite("M8", 48)

    @pytest.mark.parametrize(
        "sim",
        [SimConfig.default(), SimConfig.scaled(), _all_sections_non_default()],
        ids=["default", "scaled", "non_default"],
    )
    def test_payload_sim_is_asdict_with_its_types(self, sim):
        job = kernel_job("spmv", "taco_csr", self.SOURCE, sim)
        for _ in range(2):  # cold memo, then warm
            got = job.payload()["sim"]
            assert got == dataclasses.asdict(sim)
            # Dict equality says 4 == 4.0; the JSON text keeps int vs float.
            assert json.dumps(got) == json.dumps(dataclasses.asdict(sim))

    @pytest.mark.parametrize("order", [(4, 4.0), (4.0, 4)])
    def test_equal_configs_keep_their_own_keys_in_either_order(self, order):
        sims = [_cpu_sim(frequency_ghz) for frequency_ghz in order]
        assert sims[0] == sims[1] and hash(sims[0]) == hash(sims[1])
        keys = {
            type(sim.cpu.frequency_ghz): job_key(kernel_job("spmv", "taco_csr", self.SOURCE, sim))
            for sim in sims
        }
        assert keys[int] != keys[float]
        # Each key is the one a never-keyed instance of the same config gets.
        for frequency_ghz in order:
            fresh = kernel_job("spmv", "taco_csr", self.SOURCE, _cpu_sim(frequency_ghz))
            assert job_key(fresh) == keys[type(frequency_ghz)]

    def test_mutating_a_payload_leaves_the_next_one_alone(self):
        sim = _all_sections_non_default()
        job = kernel_job("spmv", "taco_csr", self.SOURCE, sim)
        key, expected = job_key(job), job.payload()
        mutated = job.payload()
        mutated["sim"]["cpu"]["frequency_ghz"] = 9.9
        mutated["sim"]["l1"].clear()
        del mutated["sim"]["dram"]
        sim.to_payload()["costs"]["bmu"] = 7.0
        assert job.payload() == expected
        assert job_key(job) == key

    def test_pickle_eq_hash_and_replace_ignore_the_memo(self):
        sim = _all_sections_non_default()
        job = kernel_job("spmv", "taco_csr", self.SOURCE, sim)
        key = job_key(job)  # fills the memo before pickling, as pool dispatch does
        clone = pickle.loads(pickle.dumps(job))
        assert job_key(clone) == key
        assert clone == job and clone.sim == sim and hash(clone.sim) == hash(sim)
        assert repr(clone.sim) == repr(sim)
        assert dataclasses.asdict(sim) == dataclasses.asdict(_all_sections_non_default())
        same = dataclasses.replace(sim)
        assert same == sim and hash(same) == hash(sim)
        assert job_key(kernel_job("spmv", "taco_csr", self.SOURCE, same)) == key
        # A replaced config encodes its own fields, not the original's memo.
        slower = dataclasses.replace(sim, dram=DRAMConfig(latency_cycles=201))
        assert slower.to_payload()["dram"] == dataclasses.asdict(slower.dram)
        assert job_key(kernel_job("spmv", "taco_csr", self.SOURCE, slower)) != key


class TestMatrixMemo:
    """``materialize_source`` builds each workload source once per process."""

    def test_equal_sources_share_one_matrix(self):
        source = Workload.suite("M8", 48, 5)
        first = materialize_source(source)
        assert materialize_source(Workload.suite("M8", 48, 5)) is first
        assert materialize_source(list(source)) is first
        loc = Workload.locality(32, 32, 16, 8, 50.0, seed=3)
        assert materialize_source(loc) is materialize_source(tuple(loc))

    def test_cached_arrays_are_read_only(self):
        coo = materialize_source(Workload.suite("M8", 48, 5))
        for array in (coo.row, coo.col, coo.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]
            with pytest.raises(ValueError):
                array += 0

    def test_different_seed_or_dim_gives_another_matrix(self):
        base = materialize_source(Workload.suite("M8", 48, 5))
        other_seed = materialize_source(Workload.suite("M8", 48, 6))
        other_dim = materialize_source(Workload.suite("M8", 64, 5))
        assert other_seed is not base and other_dim is not base
        assert other_dim.shape == (64, 64)
        assert not (
            np.array_equal(base.row, other_seed.row)
            and np.array_equal(base.col, other_seed.col)
        )
        # Equal-valued fields of another type are another key.
        int_loc = materialize_source(Workload.locality(32, 32, 16, 8, 50, seed=3))
        assert int_loc is not materialize_source(Workload.locality(32, 32, 16, 8, 50.0, seed=3))

    def test_memo_is_bounded(self):
        assert workload_memo.cache_info().maxsize == MEMO_SIZE > 0
        workload_memo.cache_clear()
        for seed in range(MEMO_SIZE + 3):
            materialize_source(Workload.locality(16, 16, 8, 4, 50.0, seed=seed))
        assert workload_memo.cache_info().currsize == MEMO_SIZE

    def test_graph_sources_are_memoized(self):
        first = materialize_source(Workload.graph("G2", 32))
        assert materialize_source(Workload.graph("G2", 32)) is first
        assert materialize_source(list(Workload.graph("G2", 32))) is first
        assert first.n_vertices == 32
        assert isinstance(first._edges, tuple)
        first.edges.append((0, 1))
        assert first.edges == list(first._edges)

    def test_no_job_mutates_a_shared_matrix(self):
        """Every kernel/scheme pair and both apps, twice on one memoized source."""
        config = SMASHConfig((2, 4, 16))
        source = Workload.suite("M8", 48, 5)
        jobs = [
            kernel_job(kernel, scheme, source, SIM, smash_config=config)
            for kernel in KERNEL_KINDS
            for scheme in registered_schemes(kernel)
        ]
        graph = Workload.graph("G2", 32)
        app_params = {"pagerank": {"iterations": 2}, "bc": {"max_sources": 2}}
        jobs += [
            app_job(app, scheme, graph, SIM, smash_config=config, **app_params[app])
            for app in APP_KINDS
            for scheme in ("taco_csr", "smash_hw")
        ]

        def dump(payloads):
            return json.dumps(payloads, sort_keys=True).encode()

        workload_memo.cache_clear()
        matrix = materialize_source(source)
        shared = [dump([execute_job(job).to_dict() for job in jobs]) for _ in range(2)]
        assert workload_memo.cache_info().misses == 2  # the matrix and the graph
        fresh = []
        for job in jobs:
            workload_memo.cache_clear()
            fresh.append(execute_job(job).to_dict())
        assert shared[0] == shared[1] == dump(fresh)
        # Values never reach a report, so compare the arrays themselves too.
        workload_memo.cache_clear()
        rebuilt = materialize_source(source)
        for name in ("row", "col", "values"):
            assert getattr(matrix, name).tobytes() == getattr(rebuilt, name).tobytes()


class TestSweepRunner:
    def test_serial_and_parallel_reports_identical(self):
        jobs = _quick_jobs()
        serial = SweepRunner(processes=1).run(jobs)
        parallel = SweepRunner(processes=2).run(jobs)
        assert len(serial) == len(parallel) == len(jobs)
        for left, right in zip(serial, parallel):
            assert left == right  # dataclass equality: every field, exactly

    def test_serial_vs_parallel_driver_equivalence(self):
        def fig10(processes):
            runtime = RuntimeConfig(processes=processes, cache_dir=None)
            with Session(runtime=runtime) as session:
                return experiment_fig10_11(keys=QUICK, dim=48, session=session)

        assert json.dumps(fig10(1), sort_keys=True) == json.dumps(fig10(2), sort_keys=True)

    def test_in_batch_deduplication(self):
        job = _quick_jobs()[0]
        runner = SweepRunner()
        reports = runner.run([job, job, job])
        assert runner.stats.executed == 1 and runner.stats.submitted == 3
        assert reports[0] == reports[1] == reports[2]

    def test_cache_second_run_executes_zero_jobs(self, tmp_path):
        jobs = _quick_jobs()
        cold = SweepRunner(cache_dir=tmp_path)
        cold_reports = cold.run(jobs)
        assert cold.stats.executed == len(jobs) and cold.stats.cache_hits == 0
        warm = SweepRunner(cache_dir=tmp_path)
        warm_reports = warm.run(jobs)
        assert warm.stats.executed == 0 and warm.stats.cache_hits == len(jobs)
        assert cold_reports == warm_reports

    def test_cache_invalidated_by_sim_config_change(self, tmp_path):
        source = Workload.suite("M8", 48)
        first = SweepRunner(cache_dir=tmp_path)
        first.run([kernel_job("spmv", "taco_csr", source, SimConfig.scaled(16))])
        second = SweepRunner(cache_dir=tmp_path)
        second.run([kernel_job("spmv", "taco_csr", source, SimConfig.scaled(32))])
        assert second.stats.executed == 1 and second.stats.cache_hits == 0

    def test_cache_ignores_corrupt_and_mismatched_entries(self, tmp_path):
        job = _quick_jobs()[0]
        key = job_key(job)
        cache = ReportCache(tmp_path)
        runner = SweepRunner(cache_dir=tmp_path)
        report = runner.run([job])[0]

        def corrupt(column, value):
            with cache.connection() as conn, conn:
                conn.execute(f"UPDATE reports SET {column} = ? WHERE key = ?", (value, key))

        # Corrupt entry -> miss, then re-executed and repaired.
        corrupt("report", "{ not json")
        rerun = SweepRunner(cache_dir=tmp_path)
        assert rerun.run([job])[0] == report and rerun.stats.executed == 1
        # Wrong schema version in the stored job payload -> miss.
        payload = dict(job.payload(), schema=CACHE_SCHEMA_VERSION + 1)
        corrupt("job", json.dumps(payload, sort_keys=True, separators=(",", ":")))
        stale = SweepRunner(cache_dir=tmp_path)
        assert stale.run([job])[0] == report and stale.stats.executed == 1
        assert SweepRunner(cache_dir=tmp_path).run([job])[0] == report

    def test_cached_report_round_trips_exactly(self, tmp_path):
        job = _quick_jobs()[0]
        fresh = SweepRunner().run([job])[0]
        SweepRunner(cache_dir=tmp_path).run([job])
        cached = SweepRunner(cache_dir=tmp_path).run([job])[0]
        assert isinstance(cached, CostReport)
        assert cached == fresh
        assert cached.cycles == fresh.cycles

    def test_processes_from_environment(self, monkeypatch):
        """Only RuntimeConfig.from_env reads the knob; the runner never does."""
        monkeypatch.setenv(PROCESSES_ENV_VAR, "3")
        assert SweepRunner().processes == 1
        with pytest.raises(ValueError, match="at least 1"):
            SweepRunner(processes=0)

    def test_pinned_trace_chunk_zero_means_monolithic(self):
        job = _quick_jobs()[0]
        runner = SweepRunner(trace_chunk=0)
        assert runner.trace_chunk is None
        assert runner.run([job])[0] == SweepRunner(trace_chunk=None).run([job])[0]

    @pytest.mark.parametrize("chunk", [-1, True])
    def test_invalid_trace_chunk_raises_at_construction(self, chunk):
        with pytest.raises(ValueError, match="trace chunk budget"):
            SweepRunner(trace_chunk=chunk)

    def test_app_jobs_execute(self):
        job = app_job(
            "pagerank", "taco_csr", Workload.graph("G2", 32), SIM,
            smash_config=SMASHConfig((2, 4, 16)), iterations=2,
        )
        report = execute_job(job)
        assert report.kernel == "pagerank" and report.total_instructions > 0


class TestDriverSessions:
    def test_default_session_is_closed_after_the_driver(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV_VAR, "2")
        before = set(multiprocessing.active_children())
        experiment_fig10_11(keys=("M2",), dim=64)
        leaked = [c for c in multiprocessing.active_children() if c not in before]
        assert leaked == []

    def test_passed_session_stays_open(self):
        runtime = RuntimeConfig(processes=1, cache_dir=None)
        with Session(runtime=runtime) as session:
            experiment_fig10_11(keys=("M2",), dim=64, session=session)
            spec = JobSpec("spmv", "taco_csr", Workload.suite("M2", 64))
            assert session.submit(spec).result() == session.run(spec)


class TestDeterminism:
    def test_fig16_17_two_invocations_identical(self):
        kwargs = dict(keys=("M8",), kernel="spmv", dim=48, localities=(12.5, 100))
        first = experiment_fig16_17(**kwargs)
        second = experiment_fig16_17(**kwargs)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_fig16_byte_identical_across_hash_seeds(self):
        """The PYTHONHASHSEED regression test for the Figure 16/17 seeding."""
        repo_root = Path(__file__).resolve().parent.parent
        code = (
            "import sys, json; sys.path.insert(0, 'src'); "
            "from repro.eval.experiments import experiment_fig16_17; "
            "print(json.dumps(experiment_fig16_17(keys=('M8',), kernel='spmv', "
            "dim=48, localities=(12.5, 100)), sort_keys=True))"
        )
        outputs = []
        for hash_seed in ("1", "31337"):
            completed = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                cwd=repo_root,
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]

    def test_spadd_sweep_shapes(self):
        result = experiment_spadd(keys=QUICK, dim=48)
        for entry in result["per_matrix"].values():
            assert entry["speedup"]["taco_csr"] == pytest.approx(1.0)
        assert result["average"]["speedup"]["smash_hw"] > 1.0
        assert result["average"]["normalized_instructions"]["smash_hw"] < 1.0


class TestCLIIntegration:
    def test_run_with_processes_output_and_cache(self, tmp_path, capsys):
        output = tmp_path / "fig10.json"
        cache = tmp_path / "cache"
        argv = [
            "run", "figure10", "--quick", "--processes", "2",
            "--matrices", "M5,M8",
            "--output", str(output), "--cache-dir", str(cache),
        ]
        assert cli_main(argv) == 0
        first_err = capsys.readouterr().err
        assert "executed" in first_err
        payload = json.loads(output.read_text())
        assert payload["figure"] == "10/11"
        assert set(payload["per_matrix"]) == {"M5.16.4.2", "M8.16.4.2"}
        # Second invocation: same bytes, zero jobs executed.
        output2 = tmp_path / "fig10_again.json"
        argv[argv.index(str(output))] = str(output2)
        assert cli_main(argv) == 0
        assert ", 0 executed" in capsys.readouterr().err
        assert output.read_text() == output2.read_text()

    def test_run_no_cache_leaves_no_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "area", "--no-cache"]) == 0
        assert not (tmp_path / ".smash-cache").exists()

    def test_schemes_flag_restricts_sweep(self, tmp_path, capsys):
        argv = [
            "run", "figure10", "--quick", "--json", "--no-cache",
            "--matrices", "M8", "--schemes", "taco_csr,smash_hw",
        ]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["average"]["speedup"]) == {"taco_csr", "smash_hw"}

    def test_bad_selection_is_a_clean_error(self, capsys):
        # Matrix ids passed where graph ids are expected (figure18), unknown
        # matrix ids, and baseline-free scheme sweeps all exit 2 with a
        # message instead of an uncaught traceback.
        assert cli_main(["run", "figure18", "--no-cache", "--matrices", "M2"]) == 2
        assert "unknown graph id" in capsys.readouterr().err
        assert cli_main(["run", "figure10", "--no-cache", "--matrices", "M99"]) == 2
        assert "M99" in capsys.readouterr().err
        assert cli_main(
            ["run", "figure10", "--quick", "--no-cache", "--schemes", "smash_hw"]
        ) == 2
        assert "taco_csr" in capsys.readouterr().err

    def test_inapplicable_flags_warn_but_run(self, capsys):
        assert cli_main(["run", "table5", "--matrices", "M1", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "ignoring inapplicable options" in captured.err
        assert "Xeon" in captured.out
