"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.config import SMASHConfig
from repro.core.conversion import csr_to_smash, smash_to_csr
from repro.core.smash_matrix import SMASHMatrix
from repro.formats.convert import coo_to_csr
from repro.graphs.generators import generate_graph
from repro.graphs.pagerank import pagerank, pagerank_reference
from repro.hardware.isa import SMASHISA
from repro.kernels.schemes import SCHEMES
from repro.sim.config import SimConfig
from repro.workloads.suite import generate_matrix, get_spec


@pytest.fixture(scope="module")
def sim():
    return SimConfig.scaled(16)


class TestWorkloadToKernelPipeline:
    """Generate a suite matrix, encode it every way, run every kernel."""

    @pytest.mark.parametrize("key", ["M2", "M8", "M14"])
    def test_spmv_pipeline_per_matrix(self, kernel_session, key, sim):
        spec = get_spec(key)
        coo = generate_matrix(spec, dim=96)
        dense = coo.to_dense()
        x = np.random.default_rng(1).uniform(size=96)
        expected = dense @ x
        reports = {}
        for scheme in SCHEMES:
            result = kernel_session.run_kernel(
                "spmv", scheme, coo, x=x, smash=spec.smash_config(), sim=sim
            )
            np.testing.assert_allclose(result.output, expected, err_msg=f"{key}/{scheme}")
            reports[scheme] = result.report
        # The structural relationships the paper relies on hold end to end.
        assert reports["smash_hw"].total_instructions < reports["smash_sw"].total_instructions
        assert reports["ideal_csr"].total_instructions < reports["taco_csr"].total_instructions

    def test_spmm_pipeline(self, kernel_session, sim):
        coo = generate_matrix("M8", dim=48)
        dense = coo.to_dense()
        expected = dense @ dense
        for scheme in ("taco_csr", "taco_bcsr", "smash_hw"):
            result = kernel_session.run_kernel(
                "spmm", scheme, coo, smash=SMASHConfig.single_level(2), sim=sim
            )
            np.testing.assert_allclose(result.output, expected, err_msg=scheme)


class TestConversionAndKernelConsistency:
    def test_kernel_result_identical_after_format_round_trip(self, sim):
        coo = generate_matrix("M6", dim=96)
        csr = coo_to_csr(coo)
        config = get_spec("M6").smash_config()
        smash, _ = csr_to_smash(csr, config)
        back, _ = smash_to_csr(smash)
        x = np.random.default_rng(5).uniform(size=96)
        from repro.kernels.spmv import spmv_csr_instrumented, spmv_smash_hardware_instrumented

        y_csr, _ = spmv_csr_instrumented(back, x, sim)
        y_smash, _ = spmv_smash_hardware_instrumented(smash, x, sim)
        np.testing.assert_allclose(y_csr, y_smash)


class TestISADrivenApplication:
    def test_manual_isa_spmv_matches_numpy(self, sim):
        """Drive the BMU through the raw ISA exactly as Algorithm 1 does."""
        coo = generate_matrix("M7", dim=64)
        dense = coo.to_dense()
        config = SMASHConfig.from_label_ratios(16, 4, 2)
        matrix = SMASHMatrix.from_dense(dense, config)
        x = np.random.default_rng(2).uniform(size=64)
        y = np.zeros(64)

        isa = SMASHISA()
        isa.matinfo(matrix.rows, matrix.cols, 0)
        for level in range(config.levels):
            isa.bmapinfo(config.ratios[level], level, 0)
        for level in range(config.levels):
            isa.rdbmap(matrix.hierarchy.bitmap(level), level, 0)
        while isa.pbmap(0):
            row, col = isa.rdind(0)
            block = matrix.nza.block(isa.current_nza_block(0))
            base = row * matrix.cols + col
            for offset, value in enumerate(block):
                linear = base + offset
                if linear >= matrix.rows * matrix.cols:
                    break
                y[linear // matrix.cols] += value * x[linear % matrix.cols]
        np.testing.assert_allclose(y, dense @ x)


class TestGraphApplicationEndToEnd:
    def test_pagerank_full_stack(self, sim):
        graph = generate_graph("G4", n_vertices=96)
        reference = pagerank_reference(graph, iterations=10)
        ranks, report = pagerank(graph, "smash_hw", iterations=10, sim_config=sim)
        np.testing.assert_allclose(ranks, reference, rtol=1e-9)


class TestEnergyOfChangeInConfig:
    def test_cost_model_knobs_change_results_consistently(self, kernel_session, sim):
        coo = generate_matrix("M8", dim=64)
        expensive_bmu = sim.with_costs(bmu=20.0)
        cheap = kernel_session.run_kernel("spmv", "smash_hw", coo, sim=sim)
        costly = kernel_session.run_kernel("spmv", "smash_hw", coo, sim=expensive_bmu)
        assert costly.report.issue_cycles > cheap.report.issue_cycles
        np.testing.assert_allclose(cheap.output, costly.output)
