"""Reproduction of SMASH (MICRO 2019): hierarchical-bitmap sparse compression
with hardware-accelerated indexing.

Public API overview
-------------------

The recommended entry point is the :mod:`repro.api` facade::

    from repro import JobSpec, Session, SweepSpec, Workload

    with Session() as session:
        report = session.run(JobSpec("spmv", "smash_hw", Workload.suite("M8")))
        sweep = SweepSpec.product(
            kernels="spmv", schemes=("taco_csr", "smash_hw"),
            matrices=("M2", "M8", "M13"),
        )
        result = session.sweep(sweep)

* :class:`~repro.api.session.Session` — owns the sweep engine (worker pool,
  on-disk report cache) and executes declarative specs: ``run(spec)`` /
  ``sweep(specs)``; ``run_kernel`` for ad-hoc in-memory matrices.
* :class:`~repro.api.specs.JobSpec` / :class:`~repro.api.specs.SweepSpec` —
  typed job descriptions (kernel, scheme, workload, overrides) with
  cross-product builders and did-you-mean validation.
* :class:`~repro.api.config.RuntimeConfig` — frozen execution knobs
  (processes, cache, trace chunking); ``RuntimeConfig.from_env()`` builds
  one from the environment, which only :mod:`repro.api.config` reads.
* :class:`~repro.api.registry.Registry` — the plugin mechanism behind
  kernels, schemes, workload ids and experiments.

The layers underneath remain importable directly:

* :mod:`repro.formats` — baseline sparse formats (CSR, CSC, COO, BCSR, DIA).
* :mod:`repro.core` — the SMASH encoding: bitmap hierarchy, NZA,
  :class:`~repro.core.smash_matrix.SMASHMatrix`, configuration and conversion.
* :mod:`repro.hardware` — the Bitmap Management Unit, the SMASH ISA and the
  area model.
* :mod:`repro.sim` — the analytic performance model (cache hierarchy,
  instruction accounting, bounded-memory trace replay, cost reports).
* :mod:`repro.kernels` — SpMV / SpMM / sparse-add kernels for every scheme,
  self-registered in the kernel registry.
* :mod:`repro.graphs` — PageRank and Betweenness Centrality on top of the
  sparse kernels, plus synthetic graph workloads.
* :mod:`repro.workloads` — synthetic matrix generators and the paper's
  M1-M15 evaluation suite.
* :mod:`repro.eval` — experiment drivers (thin spec lists over the facade)
  that regenerate every table and figure of the paper's evaluation, and the
  ``smash-repro`` CLI.
"""

from repro._lazy import lazy_attributes
from repro.api import RuntimeConfig
from repro.core import SMASHConfig, SMASHMatrix
from repro.formats import CSRMatrix, CSCMatrix, COOMatrix, BCSRMatrix
from repro.hardware import BitmapManagementUnit, SMASHISA
from repro.sim import SimConfig

__version__ = "4.0.0"

#: Facade classes loaded lazily (they pull in the evaluation stack).
_LAZY = {
    name: "repro.api"
    for name in ("Session", "JobSpec", "SweepSpec", "SweepResult", "Workload")
}

__all__ = [
    "RuntimeConfig",
    "SMASHConfig",
    "SMASHMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "COOMatrix",
    "BCSRMatrix",
    "BitmapManagementUnit",
    "SMASHISA",
    "SimConfig",
    "__version__",
    *_LAZY,
]

__getattr__, __dir__ = lazy_attributes(__name__, _LAZY)
