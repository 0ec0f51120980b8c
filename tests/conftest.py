"""Shared fixtures for the SMASH reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.core.config import SMASHConfig
from repro.core.smash_matrix import SMASHMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.sim.config import SimConfig
from repro.workloads.synthetic import clustered_matrix, uniform_random_matrix


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_example_dense() -> np.ndarray:
    """The 4x4 matrix of Figure 1 in the paper (6 non-zero elements)."""
    return np.array(
        [
            [3.2, 0.0, 0.0, 0.0],
            [1.2, 0.0, 4.2, 0.0],
            [0.0, 0.0, 0.0, 5.1],
            [5.3, 3.3, 0.0, 0.0],
        ]
    )


@pytest.fixture
def small_dense(rng: np.random.Generator) -> np.ndarray:
    """A small random sparse matrix as a dense array (16x16, ~12% dense)."""
    dense = np.zeros((16, 16))
    mask = rng.random((16, 16)) < 0.12
    dense[mask] = rng.uniform(0.1, 1.0, size=mask.sum())
    return dense


@pytest.fixture
def medium_coo() -> COOMatrix:
    """A 64x64 clustered matrix used by kernel and experiment tests."""
    return clustered_matrix(64, 64, density=0.05, cluster_size=6, cluster_height=3, seed=7)


@pytest.fixture
def sparse_coo() -> COOMatrix:
    """A 96x96 very sparse uniform matrix."""
    return uniform_random_matrix(96, 96, density=0.01, seed=11)


@pytest.fixture
def medium_csr(medium_coo: COOMatrix) -> CSRMatrix:
    """CSR view of the 64x64 clustered matrix."""
    return CSRMatrix.from_dense(medium_coo.to_dense())


@pytest.fixture
def smash_config() -> SMASHConfig:
    """The paper's most common configuration (16.4.2)."""
    return SMASHConfig.from_label_ratios(16, 4, 2)


@pytest.fixture
def medium_smash(medium_coo: COOMatrix, smash_config: SMASHConfig) -> SMASHMatrix:
    """SMASH encoding of the 64x64 clustered matrix."""
    return SMASHMatrix.from_dense(medium_coo.to_dense(), smash_config)


@pytest.fixture
def scaled_sim_config() -> SimConfig:
    """The scaled cache hierarchy used by the experiment drivers."""
    return SimConfig.scaled(16)


@pytest.fixture
def kernel_session():
    """A serial, uncached Session for kernels run on in-memory matrices."""
    with Session(runtime=RuntimeConfig(processes=1, cache_dir=None)) as session:
        yield session
