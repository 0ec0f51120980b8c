"""Tests for the energy model."""

import pytest

from repro.core.config import SMASHConfig
from repro.sim.config import SimConfig
from repro.sim.energy import EnergyModel, EnergyParameters
from repro.workloads.synthetic import clustered_matrix


@pytest.fixture(scope="module")
def sim():
    return SimConfig.scaled(16)


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
