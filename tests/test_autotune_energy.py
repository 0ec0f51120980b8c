"""Tests for the configuration autotuner and the energy model."""

import numpy as np
import pytest

from repro.core.autotune import ConfigAutotuner, TuningResult
from repro.core.config import SMASHConfig
from repro.formats.coo import COOMatrix
from repro.sim.config import SimConfig
from repro.sim.energy import EnergyModel, EnergyParameters
from repro.workloads.locality import matrix_with_locality
from repro.workloads.synthetic import clustered_matrix, uniform_random_matrix


@pytest.fixture(scope="module")
def sim():
    return SimConfig.scaled(16)


class TestAutotuner:
    def test_candidates_are_unique_valid_configs(self):
        tuner = ConfigAutotuner()
        candidates = tuner.candidates()
        labels = [c.label() for c in candidates]
        assert len(labels) == len(set(labels))
        assert all(isinstance(c, SMASHConfig) for c in candidates)

    def test_best_config_is_cheapest_candidate(self, sim):
        coo = clustered_matrix(96, 96, 0.03, cluster_size=6, cluster_height=3, seed=1)
        result = ConfigAutotuner(sim).tune(coo)
        assert isinstance(result, TuningResult)
        cycles = [c.cycles for c in result.ranking]
        assert cycles == sorted(cycles)
        assert result.best.cycles == cycles[0]
        assert result.best_config == result.ranking[0].config

    def test_highly_clustered_matrix_prefers_larger_blocks(self, sim):
        clustered = matrix_with_locality(128, 128, nnz=800, block_size=8,
                                         locality_percent=100, seed=2)
        scattered = matrix_with_locality(128, 128, nnz=800, block_size=8,
                                         locality_percent=12.5, seed=2)
        tuner = ConfigAutotuner(sim)
        block_clustered = tuner.tune(clustered).best_config.block_size
        block_scattered = tuner.tune(scattered).best_config.block_size
        assert block_clustered >= block_scattered

    def test_sample_dim_reduces_work_but_returns_valid_config(self, sim):
        coo = uniform_random_matrix(192, 192, 0.02, seed=3)
        result = ConfigAutotuner(sim).tune(coo, sample_dim=64)
        assert result.best_config.block_size in (2, 4, 8)

    def test_storage_weight_prefers_compact_configs(self, sim):
        coo = uniform_random_matrix(96, 96, 0.02, seed=4)
        fast = ConfigAutotuner(sim, storage_weight=0.0).tune(coo)
        compact = ConfigAutotuner(sim, storage_weight=100.0).tune(coo)
        assert compact.best.storage_bytes <= fast.best.storage_bytes

    def test_tuned_config_runs_end_to_end(self, kernel_session, sim):
        coo = clustered_matrix(96, 96, 0.03, seed=5)
        best = ConfigAutotuner(sim).tune(coo).best_config
        x = np.random.default_rng(7).uniform(0.1, 1.0, size=96)
        result = kernel_session.run_kernel("spmv", "smash_hw", coo, x=x, smash=best, sim=sim)
        np.testing.assert_allclose(result.output, coo.to_dense() @ x)
        assert result.report.cycles > 0

    def test_empty_matrix_rejected(self, sim):
        with pytest.raises(ValueError):
            ConfigAutotuner(sim).tune(COOMatrix((16, 16), [], [], []))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ConfigAutotuner(block_sizes=())
        with pytest.raises(ValueError):
            ConfigAutotuner(storage_weight=-1.0)


class TestEnergyModel:
    def _reports(self, kernel_session, sim):
        coo = clustered_matrix(96, 96, 0.03, cluster_size=6, cluster_height=3, seed=6)
        config = SMASHConfig.from_label_ratios(16, 4, 2)
        csr = kernel_session.run_kernel("spmv", "taco_csr", coo, smash=config, sim=sim)
        smash = kernel_session.run_kernel("spmv", "smash_hw", coo, smash=config, sim=sim)
        return csr.report, smash.report

    def test_energy_positive_and_decomposed(self, kernel_session, sim):
        csr_report, _ = self._reports(kernel_session, sim)
        energy = EnergyModel().estimate(csr_report)
        assert energy.dynamic_core_pj > 0
        assert energy.dynamic_memory_pj > 0
        assert energy.static_pj > 0
        assert energy.total_pj == pytest.approx(
            energy.dynamic_core_pj + energy.dynamic_memory_pj + energy.static_pj
        )
        assert energy.total_nj == pytest.approx(energy.total_pj / 1000.0)

    def test_smash_saves_energy_over_csr(self, kernel_session, sim):
        csr_report, smash_report = self._reports(kernel_session, sim)
        ratio = EnergyModel().compare(csr_report, smash_report)
        assert ratio < 1.0

    def test_custom_parameters_change_estimate(self, kernel_session, sim):
        csr_report, _ = self._reports(kernel_session, sim)
        default = EnergyModel().estimate(csr_report)
        expensive_dram = EnergyModel(EnergyParameters(dram_access_pj=20000.0)).estimate(csr_report)
        assert expensive_dram.total_pj >= default.total_pj

    def test_relative_to_handles_zero_baseline(self):
        from repro.sim.energy import EnergyReport

        zero = EnergyReport(0.0, 0.0, 0.0)
        nonzero = EnergyReport(1.0, 1.0, 1.0)
        assert nonzero.relative_to(zero) == float("inf")

    def test_energy_scales_with_instruction_count(self, kernel_session, sim):
        small = clustered_matrix(64, 64, 0.02, seed=7)
        large = clustered_matrix(64, 64, 0.10, seed=7)
        model = EnergyModel()
        small_energy = model.estimate(
            kernel_session.run_kernel("spmv", "taco_csr", small, sim=sim).report
        )
        large_energy = model.estimate(
            kernel_session.run_kernel("spmv", "taco_csr", large, sim=sim).report
        )
        assert large_energy.total_pj > small_energy.total_pj
