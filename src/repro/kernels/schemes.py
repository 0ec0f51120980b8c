"""Scheme runners: prepare operands and dispatch through the kernel registry.

The evaluation compares the same kernel across several *schemes* (storage
format + indexing mechanism). This module centralizes two things:

* :func:`prepare_operand` — converting a COO workload matrix into the
  representation each scheme operates on (CSR, CSC, BCSR or SMASH), using
  the sparse-native constructors (:meth:`BCSRMatrix.from_coo`,
  :meth:`SMASHMatrix.from_coo`) so no dense intermediate is ever
  materialized;
* the internal kernel runners behind :meth:`repro.api.Session.run_kernel`
  and the sweep engine — running one scheme's instrumented kernel and
  packaging the result with its cost report. Implementations are resolved
  through :mod:`repro.kernels.registry`, where each kernel registered
  itself with ``@register_kernel(kernel, scheme)``.

Scheme names follow the paper's figures and are registered in
:data:`SCHEME_REGISTRY` (an instance of the unified
:class:`repro.api.registry.Registry`), so an unknown or misspelled scheme
fails at the boundary with a did-you-mean error.

Randomized inputs (currently only SpMV's ``x`` vector) are derived from a
single seed handled uniformly by all three runners: pass ``seed`` to
change it, or pass explicit operands to bypass generation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.registry import Registry
from repro.core.config import SMASHConfig
from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csc, coo_to_csr
from repro.kernels.registry import get_kernel
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport

#: Registry of scheme identifiers; the registered object is the scheme's
#: human-readable display name (the paper's label).
SCHEME_REGISTRY = Registry("scheme")
SCHEME_REGISTRY.register("taco_csr", "TACO-CSR")
SCHEME_REGISTRY.register("taco_bcsr", "TACO-BCSR")
SCHEME_REGISTRY.register("mkl_csr", "MKL-CSR")
SCHEME_REGISTRY.register("ideal_csr", "Ideal CSR")
SCHEME_REGISTRY.register("smash_sw", "Software-only SMASH")
SCHEME_REGISTRY.register("smash_hw", "SMASH")

#: All scheme identifiers used across the evaluation, in figure order.
SCHEMES = SCHEME_REGISTRY.names()

#: Block shape used for every BCSR operand (the paper does not state TACO's
#: block size; 4x4 is the common OSKI/TACO default).
BCSR_BLOCK_SHAPE = (4, 4)

#: Seed shared by every runner for generated operands, so repeated runs (and
#: the different entry points) see the same random inputs by default.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class KernelResult:
    """Numeric output plus cost report of one scheme's kernel run."""

    scheme: str
    kernel: str
    output: np.ndarray
    report: CostReport


def _require_scheme(scheme: str) -> None:
    SCHEME_REGISTRY.resolve(scheme)


def default_input_vector(length: int, seed: Optional[int] = None) -> np.ndarray:
    """The dense input vector generated when a runner is not given one."""
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    return rng.uniform(0.1, 1.0, size=length)


def prepare_operand(
    coo: COOMatrix,
    scheme: str,
    smash_config: Optional[SMASHConfig] = None,
    orientation: str = "row",
):
    """Convert a COO matrix into the representation ``scheme`` operates on.

    ``orientation`` selects row-major (``"row"``, used for A and SpMV
    operands) or column-major (``"col"``, used for the B operand of SpMM):
    CSR-family schemes store the column-major operand in CSC, SMASH schemes
    encode its transpose so that columns become contiguous bit runs.

    Every conversion is sparse-to-sparse: the non-zero coordinates are
    regrouped directly into the target layout, so preparing an operand costs
    O(nnz) time and memory regardless of the matrix dimensions.
    """
    _require_scheme(scheme)
    if orientation not in ("row", "col"):
        raise ValueError("orientation must be 'row' or 'col'")
    if scheme in ("taco_csr", "mkl_csr", "ideal_csr"):
        return coo_to_csr(coo) if orientation == "row" else coo_to_csc(coo)
    if scheme == "taco_bcsr":
        if orientation == "row":
            return BCSRMatrix.from_coo(coo, block_shape=BCSR_BLOCK_SHAPE)
        return coo_to_csc(coo)
    # SMASH schemes.
    config = smash_config or SMASHConfig()
    source = coo if orientation == "row" else coo.transpose()
    return SMASHMatrix.from_coo(source, config)


# --------------------------------------------------------------------------- #
# Internal runners (the execution path of Session.run_kernel and the sweep
# engine)
# --------------------------------------------------------------------------- #
def _spmv_runner(
    scheme: str,
    coo: COOMatrix,
    x: Optional[np.ndarray] = None,
    smash_config: Optional[SMASHConfig] = None,
    sim_config: Optional[SimConfig] = None,
    seed: int = DEFAULT_SEED,
) -> KernelResult:
    """Run one scheme's instrumented SpMV on a COO workload matrix.

    ``seed`` feeds :func:`default_input_vector` when ``x`` is not supplied.
    """
    _require_scheme(scheme)
    kernel = get_kernel("spmv", scheme)
    if x is None:
        x = default_input_vector(coo.cols, seed)
    operand = prepare_operand(coo, scheme, smash_config, orientation="row")
    output, report = kernel(operand, x, sim_config)
    return KernelResult(scheme=scheme, kernel="spmv", output=output, report=report)


def _spmm_runner(
    scheme: str,
    a_coo: COOMatrix,
    b_coo: Optional[COOMatrix] = None,
    smash_config: Optional[SMASHConfig] = None,
    sim_config: Optional[SimConfig] = None,
    seed: int = DEFAULT_SEED,
) -> KernelResult:
    """Run one scheme's instrumented SpMM (``B`` defaults to ``A``).

    ``seed`` is accepted for signature uniformity with :func:`_spmv_runner`;
    SpMM generates no random operands today, so it is currently unused.
    """
    _require_scheme(scheme)
    kernel = get_kernel("spmm", scheme)
    b_coo = b_coo if b_coo is not None else a_coo
    a_operand = prepare_operand(a_coo, scheme, smash_config, orientation="row")
    b_operand = prepare_operand(b_coo, scheme, smash_config, orientation="col")
    output, report = kernel(a_operand, b_operand, sim_config)
    return KernelResult(scheme=scheme, kernel="spmm", output=output, report=report)


def _spadd_runner(
    scheme: str,
    a_coo: COOMatrix,
    b_coo: Optional[COOMatrix] = None,
    smash_config: Optional[SMASHConfig] = None,
    sim_config: Optional[SimConfig] = None,
    seed: int = DEFAULT_SEED,
) -> KernelResult:
    """Run one scheme's instrumented sparse addition (``B`` defaults to ``A``).

    Only the schemes used in the motivation experiment (Figure 3) and the
    SMASH hardware variant are available for sparse addition. ``seed`` is
    accepted for signature uniformity with :func:`_spmv_runner`; sparse addition
    generates no random operands today, so it is currently unused.
    """
    _require_scheme(scheme)
    kernel = get_kernel("spadd", scheme)
    b_coo = b_coo if b_coo is not None else a_coo
    a_operand = prepare_operand(a_coo, scheme, smash_config, orientation="row")
    b_operand = prepare_operand(b_coo, scheme, smash_config, orientation="row")
    output, report = kernel(a_operand, b_operand, sim_config)
    return KernelResult(scheme=scheme, kernel="spadd", output=output, report=report)


#: Internal dispatch used by :meth:`repro.api.Session.run_kernel`.
KERNEL_RUNNERS = {"spmv": _spmv_runner, "spmm": _spmm_runner, "spadd": _spadd_runner}  # repro-lint: disable=RL005 -- closed three-kernel set validated upstream by KERNEL_KINDS; part of the stable job-key lowering, not user-facing dispatch
