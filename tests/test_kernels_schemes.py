"""Tests for the scheme registry and dispatch layer."""

import numpy as np
import pytest

from repro.core.config import SMASHConfig
from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.schemes import SCHEME_REGISTRY, SCHEMES, prepare_operand
from repro.sim.config import SimConfig


@pytest.fixture
def sim():
    return SimConfig.scaled(16)


class TestPrepareOperand:
    def test_csr_family_row_orientation(self, medium_coo):
        for scheme in ("taco_csr", "mkl_csr", "ideal_csr"):
            operand = prepare_operand(medium_coo, scheme, orientation="row")
            assert isinstance(operand, CSRMatrix)

    def test_csr_family_col_orientation(self, medium_coo):
        operand = prepare_operand(medium_coo, "taco_csr", orientation="col")
        assert isinstance(operand, CSCMatrix)

    def test_bcsr_row_and_col(self, medium_coo):
        assert isinstance(prepare_operand(medium_coo, "taco_bcsr", orientation="row"), BCSRMatrix)
        assert isinstance(prepare_operand(medium_coo, "taco_bcsr", orientation="col"), CSCMatrix)

    def test_smash_row_orientation(self, medium_coo, smash_config):
        operand = prepare_operand(medium_coo, "smash_hw", smash_config, orientation="row")
        assert isinstance(operand, SMASHMatrix)
        np.testing.assert_allclose(operand.to_dense(), medium_coo.to_dense())

    def test_smash_col_orientation_is_transpose(self, medium_coo, smash_config):
        operand = prepare_operand(medium_coo, "smash_sw", smash_config, orientation="col")
        np.testing.assert_allclose(operand.to_dense(), medium_coo.to_dense().T)

    def test_unknown_scheme_raises(self, medium_coo):
        with pytest.raises(ValueError):
            prepare_operand(medium_coo, "csr5")

    def test_unknown_orientation_raises(self, medium_coo):
        with pytest.raises(ValueError):
            prepare_operand(medium_coo, "taco_csr", orientation="diagonal")


class TestRunners:
    def test_run_spmv_all_schemes_consistent(
        self, kernel_session, medium_coo, smash_config, sim, rng
    ):
        x = rng.uniform(size=medium_coo.cols)
        expected = medium_coo.to_dense() @ x
        for scheme in SCHEMES:
            result = kernel_session.run_kernel(
                "spmv", scheme, medium_coo, x=x, smash=smash_config, sim=sim
            )
            np.testing.assert_allclose(result.output, expected, err_msg=scheme)
            assert result.kernel == "spmv"
            assert result.scheme == scheme

    def test_run_spmv_generates_vector_when_missing(self, kernel_session, medium_coo, sim):
        result = kernel_session.run_kernel("spmv", "taco_csr", medium_coo, sim=sim)
        assert result.output.shape == (medium_coo.rows,)

    def test_run_spmm_default_b_is_a(self, kernel_session, medium_coo, sim):
        dense = medium_coo.to_dense()
        result = kernel_session.run_kernel("spmm", "taco_csr", medium_coo, sim=sim)
        np.testing.assert_allclose(result.output, dense @ dense)

    def test_run_spmm_smash_uses_single_block_config(self, kernel_session, medium_coo, sim):
        config = SMASHConfig.single_level(2)
        result = kernel_session.run_kernel("spmm", "smash_hw", medium_coo, smash=config, sim=sim)
        dense = medium_coo.to_dense()
        np.testing.assert_allclose(result.output, dense @ dense)

    def test_run_spadd(self, kernel_session, medium_coo, smash_config, sim):
        dense = medium_coo.to_dense()
        for scheme in ("taco_csr", "ideal_csr", "smash_hw"):
            result = kernel_session.run_kernel(
                "spadd", scheme, medium_coo, smash=smash_config, sim=sim
            )
            np.testing.assert_allclose(result.output, dense + dense, err_msg=scheme)

    def test_run_spadd_unsupported_scheme(self, kernel_session, medium_coo, sim):
        with pytest.raises(ValueError):
            kernel_session.run_kernel("spadd", "taco_bcsr", medium_coo, sim=sim)

    def test_run_spmv_unknown_scheme(self, kernel_session, medium_coo):
        with pytest.raises(ValueError):
            kernel_session.run_kernel("spmv", "not_a_scheme", medium_coo)

    def test_reports_differ_across_schemes(self, kernel_session, medium_coo, smash_config, sim):
        run = kernel_session.run_kernel
        csr = run("spmv", "taco_csr", medium_coo, smash=smash_config, sim=sim)
        smash = run("spmv", "smash_hw", medium_coo, smash=smash_config, sim=sim)
        assert csr.report.total_instructions != smash.report.total_instructions


class TestDisplayNames:
    def test_paper_names(self):
        assert SCHEME_REGISTRY.get("taco_csr") == "TACO-CSR"
        assert SCHEME_REGISTRY.get("smash_hw") == "SMASH"
        assert SCHEME_REGISTRY.get("smash_sw") == "Software-only SMASH"
