"""Synthetic sparse-matrix workloads.

The paper evaluates SMASH on 15 SuiteSparse matrices (Table 3) and 4 SNAP
graphs (Table 4). Those datasets are not available offline, so this package
provides generators that reproduce the properties the evaluation depends on —
matrix shape class, sparsity (non-zero fraction) and locality of sparsity
(clustering of non-zeros) — at sizes small enough for the pure-Python cost
model. See DESIGN.md section 2 for the substitution rationale.
:mod:`repro.workloads.sources` holds the source tuples that name these
workloads in jobs, and the one per-process memo that builds them.
"""

from repro.workloads.synthetic import (
    banded_matrix,
    block_diagonal_matrix,
    clustered_matrix,
    diagonal_matrix,
    power_law_matrix,
    uniform_random_matrix,
)
from repro.workloads.locality import (
    locality_of_sparsity,
    matrix_with_locality,
)
from repro.workloads.suite import (
    MatrixSpec,
    SUITE_SPECS,
    generate_suite,
    generate_matrix,
    get_spec,
)
from repro.workloads.mtx_io import read_matrix_market, write_matrix_market

__all__ = [
    "banded_matrix",
    "block_diagonal_matrix",
    "clustered_matrix",
    "diagonal_matrix",
    "power_law_matrix",
    "uniform_random_matrix",
    "locality_of_sparsity",
    "matrix_with_locality",
    "MatrixSpec",
    "SUITE_SPECS",
    "generate_suite",
    "generate_matrix",
    "get_spec",
    "read_matrix_market",
    "write_matrix_market",
]
