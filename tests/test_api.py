"""Tests for the repro.api facade: RuntimeConfig, Registry, specs, Session."""

import json
import pathlib

import numpy as np
import pytest

from repro.api.config import (
    CACHE_DIR_ENV_VAR,
    CACHE_ENV_VAR,
    PROCESSES_ENV_VAR,
    TRACE_CHUNK_ENV_VAR,
    RuntimeConfig,
)
from repro.api.registry import Registry, UnknownNameError
from repro.api.session import Session
from repro.api.specs import JobSpec, SweepResult, SweepSpec, Workload, sim_to_payload, suite_nnz
from repro.eval.cli import main as cli_main
from repro.eval.experiments import experiment_fig10_11
from repro.eval.runner import SweepRunner, app_job, job_key, kernel_job
from repro.kernels.schemes import run_spadd, run_spmm, run_spmv
from repro.sim.config import CPUConfig, SimConfig
from repro.sim.trace import DEFAULT_CHUNK_ACCESSES
from repro.workloads.suite import generate_matrix
from repro.core.config import SMASHConfig

SIM = SimConfig.scaled(16)


def _uncached_session(**kwargs) -> Session:
    return Session(runtime=RuntimeConfig(cache_dir=None), **kwargs)


class TestRuntimeConfig:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.processes == 1
        assert config.cache_enabled and str(config.cache_dir) == ".smash-cache"
        assert config.trace_chunk == DEFAULT_CHUNK_ACCESSES

    def test_from_env_reads_all_knobs(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV_VAR, "3")
        monkeypatch.setenv(TRACE_CHUNK_ENV_VAR, "4096")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, "/tmp/some-cache")
        config = RuntimeConfig.from_env()
        assert config.processes == 3
        assert config.trace_chunk == 4096
        assert str(config.cache_dir) == "/tmp/some-cache"

    def test_explicit_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV_VAR, "5")
        assert RuntimeConfig.from_env(processes=2).processes == 2
        assert RuntimeConfig.from_env(cache_dir=None).cache_dir is None

    def test_cache_disabled_through_environment(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "0")
        assert not RuntimeConfig.from_env().cache_enabled

    def test_trace_chunk_zero_means_monolithic(self, monkeypatch):
        assert RuntimeConfig(trace_chunk=0).trace_chunk is None
        monkeypatch.setenv(TRACE_CHUNK_ENV_VAR, "0")
        assert RuntimeConfig.from_env().trace_chunk is None

    def test_rejects_non_positive_processes(self):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="at least 1"):
                RuntimeConfig(processes=bad)
        with pytest.raises(ValueError, match="positive integer"):
            RuntimeConfig(processes=True)

    def test_env_parse_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV_VAR, "two")
        with pytest.raises(ValueError, match=PROCESSES_ENV_VAR):
            RuntimeConfig.from_env()
        monkeypatch.delenv(PROCESSES_ENV_VAR)
        monkeypatch.setenv(TRACE_CHUNK_ENV_VAR, "lots")
        with pytest.raises(ValueError, match=TRACE_CHUNK_ENV_VAR):
            RuntimeConfig.from_env()

    def test_environment_is_read_only_in_from_env(self):
        """The environment is read nowhere in src/repro outside api/config.

        Enforced by the RL001 AST rule (repro.lint), which unlike the old
        string grep ignores docstrings/comments and also catches os.getenv.
        """
        from repro.lint import lint_paths, select_rules

        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        result = lint_paths([root], select_rules("RL001"))
        assert result.parse_errors == []
        assert [v.render() for v in result.violations] == []

    def test_env_rule_catches_getenv_the_grep_missed(self):
        """RL001 is not vacuous: a stray os.getenv in eval code is flagged."""
        from repro.lint import SourceFile, lint_source, select_rules

        source = SourceFile(
            "src/repro/eval/sneaky.py",
            "import os\nCHUNK = os.getenv('SMASH_REPRO_TRACE_CHUNK')\n",
        )
        violations = lint_source(source, select_rules("RL001"))
        assert [v.rule for v in violations] == ["RL001"]
        assert violations[0].line == 2


class TestRegistry:
    def test_register_get_alias_unregister(self):
        registry = Registry("thing")
        registry.register("alpha", 1, aliases=("a",))

        @registry.register("beta")
        def beta():
            return 2

        assert registry.get("alpha") == 1 and registry.get("a") == 1
        assert registry.get("beta") is beta
        assert registry.names() == ("alpha", "beta")
        assert "a" in registry and len(registry) == 2
        registry.unregister("alpha")
        assert "alpha" not in registry and "a" not in registry

    def test_duplicate_registration_rejected_same_object_ok(self):
        registry = Registry("thing")
        registry.register("x", 1)
        registry.register("x", 1)  # idempotent re-bind of the same object
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", 2)

    def test_did_you_mean_suggestion(self):
        registry = Registry("scheme")
        registry.register("taco_csr", object())
        with pytest.raises(UnknownNameError, match="did you mean 'taco_csr'"):
            registry.get("tacocsr")

    def test_unknown_name_error_is_keyerror_and_valueerror(self):
        registry = Registry("thing")
        with pytest.raises(KeyError):
            registry.get("nope")
        with pytest.raises(ValueError):
            registry.get("nope")

    def test_lazy_loader_runs_once_on_first_access(self):
        calls = []

        def loader(reg):
            calls.append(1)
            reg.register("late", 42)

        registry = Registry("thing", loader=loader)
        assert not calls
        assert registry.get("late") == 42 and registry.get("late") == 42
        assert calls == [1]

    def test_failing_loader_does_not_poison_the_registry(self):
        attempts = []

        def loader(reg):
            reg.register("partial", 1)
            if len(attempts) == 0:
                attempts.append(1)
                raise ImportError("broken dependency")

        registry = Registry("thing", loader=loader)
        # First access surfaces the real error, not a bare unknown-name one.
        with pytest.raises(ImportError, match="broken dependency"):
            registry.get("partial")
        # Partial registrations were rolled back, and the retry succeeds.
        assert registry.get("partial") == 1


class TestBoundaryValidation:
    def test_scheme_typo_suggested_at_spec_construction(self):
        with pytest.raises(ValueError, match="did you mean 'taco_csr'"):
            JobSpec("spmv", "tacocsr", Workload.suite("M8"))

    def test_kernel_typo_suggested(self):
        with pytest.raises(ValueError, match="did you mean 'spmv'"):
            JobSpec("spvm", "taco_csr", Workload.suite("M8"))

    def test_matrix_id_typo_suggested(self):
        with pytest.raises(KeyError, match="did you mean"):
            Workload.suite("M0")
        with pytest.raises(ValueError):
            Workload.suite("M99")

    def test_unknown_graph_id_lists_known_ids(self):
        with pytest.raises(KeyError, match="unknown graph id 'G9'.*known graph ids"):
            Workload.graph("G9")
        with pytest.raises(ValueError):
            Workload.graph("G9")

    def test_experiment_typo_suggested(self):
        from repro.eval.figures import get_experiment

        with pytest.raises(KeyError, match="did you mean 'figure9'"):
            get_experiment("figure91")

    def test_unknown_workload_source_tag(self):
        with pytest.raises(ValueError, match="unknown workload source"):
            JobSpec("spmv", "taco_csr", ("nonsense", 1))


class TestSpecLowering:
    def test_job_keys_identical_to_hand_built_jobs(self):
        config = SMASHConfig((2, 4, 16))
        pairs = [
            (
                JobSpec("spmv", "taco_csr", Workload.suite("M8", 48)),
                kernel_job("spmv", "taco_csr", ("suite", "M8", 48, None), SIM),
            ),
            (
                JobSpec("spmm", "smash_hw", Workload.suite("M5", 48), smash=config),
                kernel_job("spmm", "smash_hw", ("suite", "M5", 48, None), SIM, smash_config=config),
            ),
            (
                JobSpec("spmv", "smash_hw", Workload.locality(32, 32, 16, 8, 50.0, seed=3), smash=config),
                kernel_job("spmv", "smash_hw", ("locality", 32, 32, 16, 8, 50.0, 3), SIM, smash_config=config),
            ),
            (
                JobSpec("pagerank", "taco_csr", Workload.graph("G2", 32), params={"iterations": 2}),
                app_job("pagerank", "taco_csr", ("graph", "G2", 32), SIM, iterations=2),
            ),
            (
                JobSpec("spmv", "taco_csr", Workload.suite("M8", 48), params={"seed": 11}),
                kernel_job("spmv", "taco_csr", ("suite", "M8", 48, None), SIM, seed=11),
            ),
        ]
        for spec, job in pairs:
            assert job_key(spec.to_job(sim=SIM)) == job_key(job)

    @pytest.mark.parametrize(
        "sim",
        [
            SimConfig.default(), SIM, SIM.with_costs(bmu=2.0),
            SimConfig(cpu=CPUConfig(frequency_ghz=4)),
        ],
        ids=["default", "scaled", "costs", "int_frequency"],
    )
    def test_sim_to_payload_is_the_job_key_encoding(self, sim):
        job = kernel_job("spmv", "taco_csr", ("suite", "M8", 48, None), sim)
        assert json.dumps(sim_to_payload(sim)) == json.dumps(job.payload()["sim"])
        assert sim_to_payload(sim) is not sim_to_payload(sim)

    def test_smash_config_dropped_for_non_smash_schemes(self):
        config = SMASHConfig((8, 4, 16))
        spec = JobSpec("spmv", "taco_csr", Workload.suite("M8", 48), smash=config)
        plain = kernel_job("spmv", "taco_csr", ("suite", "M8", 48, None), SIM)
        assert job_key(spec.to_job(sim=SIM)) == job_key(plain)

    def test_spec_sim_override_beats_session_default(self):
        spec = JobSpec("spmv", "taco_csr", Workload.suite("M8", 48), sim=SimConfig.scaled(32))
        assert spec.to_job(sim=SIM).sim == SimConfig.scaled(32)

    def test_product_order_and_per_matrix_smash(self):
        sweep = SweepSpec.product(
            kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M5", "M8"), dim=48
        )
        assert len(sweep) == 4
        assert [s.scheme for s in sweep] == ["taco_csr", "smash_hw"] * 2
        assert sweep.workload_keys == ("M5", "M8")
        from repro.workloads.suite import get_spec

        smash_specs = [s for s in sweep if s.scheme == "smash_hw"]
        assert smash_specs[0].smash == get_spec("M5").smash_config()
        assert smash_specs[1].smash == get_spec("M8").smash_config()

    def test_product_skips_empty_suite_matrices(self):
        # At dim 48 the sparsest matrices generate no non-zeros; the product
        # applies the same guard the drivers always did.
        keys = ("M1", "M8")
        expected = tuple(key for key in keys if suite_nnz(key, 48) > 0)
        sweep = SweepSpec.product(kernels="spmv", schemes="taco_csr", matrices=keys, dim=48)
        assert sweep.workload_keys == expected

    def test_product_with_graphs_and_params(self):
        sweep = SweepSpec.product(
            kernels="pagerank", schemes=("taco_csr", "smash_hw"),
            graphs=("G2",), n_vertices=32, params={"iterations": 2},
            smash=SMASHConfig((2, 4, 16)),
        )
        assert len(sweep) == 2
        assert all(s.workload == ("graph", "G2", 32) for s in sweep)
        assert all(dict(s.params) == {"iterations": 2} for s in sweep)


class TestSession:
    def test_run_matches_raw_runner(self):
        spec = JobSpec("spmv", "smash_hw", Workload.suite("M8", 48), smash=SMASHConfig((2, 4, 16)))
        facade = _uncached_session().run(spec)
        direct = SweepRunner().run_one(spec.to_job(sim=SimConfig.default()))
        assert facade == direct

    def test_sweep_pairs_specs_with_reports(self):
        sweep = SweepSpec.product(
            kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M5", "M8"), dim=48
        )
        result = _uncached_session().sweep(sweep, sim=SIM)
        assert isinstance(result, SweepResult) and len(result) == 4
        assert result.select(scheme="smash_hw").reports[0].scheme == "smash_hw"
        assert result.one(key="M5", scheme="taco_csr").kernel == "spmv"
        assert set(result.select(key="M8").by_scheme()) == {"taco_csr", "smash_hw"}

    def test_driver_equivalence_session_vs_runner(self):
        via_runner = experiment_fig10_11(keys=("M5", "M8"), dim=48, runner=SweepRunner())
        via_session = experiment_fig10_11(keys=("M5", "M8"), dim=48, session=_uncached_session())
        assert json.dumps(via_runner, sort_keys=True) == json.dumps(via_session, sort_keys=True)

    def test_session_owns_cache_warm_run_executes_nothing(self, tmp_path):
        sweep = SweepSpec.product(kernels="spmv", schemes="taco_csr", matrices=("M8",), dim=48)
        with Session(runtime=RuntimeConfig(cache_dir=tmp_path)) as cold:
            cold_result = cold.sweep(sweep, sim=SIM)
            assert cold.stats.executed == 1
        with Session(runtime=RuntimeConfig(cache_dir=tmp_path)) as warm:
            warm_result = warm.sweep(sweep, sim=SIM)
            assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
        assert cold_result.reports == warm_result.reports

    def test_trace_chunk_override_never_changes_reports(self):
        spec = JobSpec("spmv", "smash_hw", Workload.suite("M8", 48), smash=SMASHConfig((2, 4, 16)))
        chunked = Session(runtime=RuntimeConfig(cache_dir=None, trace_chunk=7)).run(spec)
        monolithic = Session(runtime=RuntimeConfig(cache_dir=None, trace_chunk=0)).run(spec)
        assert chunked == monolithic

    def test_parallel_session_matches_serial(self):
        sweep = SweepSpec.product(
            kernels="spmv", schemes=("taco_csr", "smash_hw"), matrices=("M5", "M8"), dim=48
        )
        serial = _uncached_session().sweep(sweep, sim=SIM)
        with Session(runtime=RuntimeConfig(processes=2, cache_dir=None)) as parallel:
            parallel_result = parallel.sweep(sweep, sim=SIM)
        assert serial.reports == parallel_result.reports

    def test_close_is_idempotent(self):
        session = _uncached_session()
        session.close()
        session.close()

    def test_wrapping_a_runner_preserves_its_trace_chunk(self):
        session = Session(runner=SweepRunner(trace_chunk=None))
        assert session.runtime.trace_chunk is None
        session = Session(runner=SweepRunner(trace_chunk=123))
        assert session.runtime.trace_chunk == 123

    def test_bad_processes_env_does_not_break_serial_kernels(self, monkeypatch, medium_coo):
        """Reading the chunk knob must not validate unrelated env variables."""
        from repro.sim.trace import trace_chunk_accesses

        monkeypatch.setenv(PROCESSES_ENV_VAR, "garbage")
        assert trace_chunk_accesses() == DEFAULT_CHUNK_ACCESSES
        result = _uncached_session(sim=SIM).run_kernel("spmv", "taco_csr", medium_coo)
        assert result.report.total_instructions > 0

    def test_run_kernel_validates_kernel_name(self, medium_coo):
        with pytest.raises(ValueError, match="did you mean 'spmv' or 'spmm'"):
            _uncached_session().run_kernel("spm", "taco_csr", medium_coo)


class TestDeprecationShims:
    def test_shims_warn(self, medium_coo):
        with pytest.warns(DeprecationWarning, match="run_spmv is deprecated"):
            run_spmv("taco_csr", medium_coo, sim_config=SIM)
        with pytest.warns(DeprecationWarning, match="run_spmm is deprecated"):
            run_spmm("taco_csr", medium_coo, sim_config=SIM)
        with pytest.warns(DeprecationWarning, match="run_spadd is deprecated"):
            run_spadd("taco_csr", medium_coo, sim_config=SIM)

    def test_shim_reports_bit_identical_to_session_run(self):
        # The same workload addressed declaratively (Session.run, JSON
        # round-tripped through the sweep engine) and imperatively (the
        # deprecated module-level runner on the materialized matrix) must
        # produce equal reports, field for field.
        coo = generate_matrix("M8", dim=48)
        config = SMASHConfig((2, 4, 16))
        for kernel, shim in (("spmv", run_spmv), ("spmm", run_spmm), ("spadd", run_spadd)):
            scheme = "smash_hw" if kernel != "spadd" else "taco_csr"
            spec = JobSpec(
                kernel, scheme, Workload.suite("M8", 48),
                smash=config if scheme == "smash_hw" else None,
            )
            declarative = _uncached_session().run(spec)
            with pytest.warns(DeprecationWarning):
                imperative = shim(scheme, coo, smash_config=config, sim_config=SimConfig.default())
            assert imperative.report == declarative, kernel

    def test_shim_matches_run_kernel_exactly(self, medium_coo):
        session = _uncached_session(sim=SIM)
        direct = session.run_kernel("spmv", "taco_csr", medium_coo)
        with pytest.warns(DeprecationWarning):
            shimmed = run_spmv("taco_csr", medium_coo, sim_config=SIM)
        np.testing.assert_array_equal(direct.output, shimmed.output)
        assert direct.report == shimmed.report

    def test_shims_still_validate_schemes(self, medium_coo):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="did you mean"):
                run_spmv("taco_cs", medium_coo)


class TestCLIRuntimeValidation:
    def test_non_positive_processes_is_a_clean_error(self, capsys):
        assert cli_main(["run", "area", "--processes", "0", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "smash-repro:" in err and "at least 1" in err

    def test_bad_processes_env_var_is_a_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV_VAR, "many")
        assert cli_main(["run", "area", "--no-cache"]) == 2
        assert PROCESSES_ENV_VAR in capsys.readouterr().err

    def test_explicit_processes_beats_env(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV_VAR, "7")
        assert RuntimeConfig.from_env(processes=2).processes == 2
        monkeypatch.delenv(PROCESSES_ENV_VAR)
        assert RuntimeConfig.from_env().processes == 1

    def test_cli_honours_cache_environment_knobs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        env_cache = tmp_path / "env-cache"
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(env_cache))
        assert cli_main(["run", "area"]) == 0
        # area runs no kernel jobs, so neither directory is created yet; a
        # kernel experiment writes into the env-selected cache.
        assert cli_main(["run", "figure10", "--quick", "--matrices", "M8"]) == 0
        assert env_cache.exists()
        assert not (tmp_path / ".smash-cache").exists()
        monkeypatch.delenv(CACHE_DIR_ENV_VAR)
        monkeypatch.setenv(CACHE_ENV_VAR, "0")
        assert cli_main(["run", "figure10", "--quick", "--matrices", "M8"]) == 0
        assert not (tmp_path / ".smash-cache").exists()
