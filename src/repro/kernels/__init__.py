"""Sparse matrix kernels for every evaluated scheme.

Each kernel exists in two flavours:

* a **functional** path (:mod:`repro.kernels.reference`) that computes the
  mathematical result as fast as Python/numpy allows — used for correctness
  validation and for the real-machine (wall-clock) benchmarks of Figure 9;
* an **instrumented** path (:mod:`repro.kernels.spmv`, :mod:`~repro.kernels.spmm`,
  :mod:`~repro.kernels.spadd`) that models the traversal the corresponding C
  implementation would perform, charging instructions and memory accesses to
  the analytic performance model through the batched trace engine, and
  returns both the numeric result and a
  :class:`~repro.sim.instrumentation.CostReport`.

The original per-element instrumented kernels are preserved in
:mod:`repro.kernels.legacy` as the executable specification the batched
kernels are tested against (``tests/test_trace_equivalence.py``).

:mod:`repro.kernels.schemes` ties everything together: it prepares the right
matrix representation for a scheme name (``taco_csr``, ``taco_bcsr``,
``mkl_csr``, ``smash_sw``, ``smash_hw``, ``ideal_csr``) and dispatches
through the :mod:`repro.kernels.registry`, where every instrumented kernel
registered itself with ``@register_kernel(kernel, scheme)``.
"""

from repro.kernels.reference import (
    spmv_csr,
    spmv_bcsr,
    spmv_smash,
    spmm_csr_csc,
    spmm_smash,
    spadd_csr,
    spadd_smash,
)
from repro.kernels.spmv import (
    spmv_csr_instrumented,
    spmv_ideal_csr_instrumented,
    spmv_mkl_csr_instrumented,
    spmv_bcsr_instrumented,
    spmv_smash_software_instrumented,
    spmv_smash_hardware_instrumented,
)
from repro.kernels.spmm import (
    spmm_csr_instrumented,
    spmm_ideal_csr_instrumented,
    spmm_mkl_csr_instrumented,
    spmm_bcsr_instrumented,
    spmm_smash_software_instrumented,
    spmm_smash_hardware_instrumented,
)
from repro.kernels.spadd import (
    spadd_csr_instrumented,
    spadd_ideal_csr_instrumented,
    spadd_smash_hardware_instrumented,
)
from repro.kernels.registry import (
    get_kernel,
    kernels_for,
    register_kernel,
    registered_schemes,
)
from repro.kernels.schemes import (
    SCHEMES,
    KernelResult,
    prepare_operand,
)

__all__ = [
    "spmv_csr",
    "spmv_bcsr",
    "spmv_smash",
    "spmm_csr_csc",
    "spmm_smash",
    "spadd_csr",
    "spadd_smash",
    "spmv_csr_instrumented",
    "spmv_ideal_csr_instrumented",
    "spmv_mkl_csr_instrumented",
    "spmv_bcsr_instrumented",
    "spmv_smash_software_instrumented",
    "spmv_smash_hardware_instrumented",
    "spmm_csr_instrumented",
    "spmm_ideal_csr_instrumented",
    "spmm_mkl_csr_instrumented",
    "spmm_bcsr_instrumented",
    "spmm_smash_software_instrumented",
    "spmm_smash_hardware_instrumented",
    "spadd_csr_instrumented",
    "spadd_ideal_csr_instrumented",
    "spadd_smash_hardware_instrumented",
    "SCHEMES",
    "KernelResult",
    "prepare_operand",
    "register_kernel",
    "get_kernel",
    "kernels_for",
    "registered_schemes",
]
