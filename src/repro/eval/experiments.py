"""Experiment drivers — one per table/figure of the paper's evaluation.

Every driver returns a plain dictionary (JSON-serializable, directly
printable by :mod:`repro.eval.reporting`) containing the rows/series of the
corresponding table or figure. All drivers accept sizing knobs (matrix ids,
scaled dimension, iteration counts) so the same code can run as a quick test
or as the full benchmark sweep; the defaults are the benchmark settings.

Since the ``repro.api`` facade the drivers are *declarative spec lists plus
post-processing*: each one describes its (kernel, scheme, workload,
configuration) matrix as :class:`~repro.api.specs.JobSpec` /
:class:`~repro.api.specs.SweepSpec` values, submits it through a
:class:`~repro.api.session.Session` (serial and uncached by default; pass
``session=Session(runtime=RuntimeConfig(processes=N, cache_dir=...))`` for
parallel and/or incremental execution; ``session`` is a driver's only
execution argument) and assembles the figure from the returned
:class:`~repro.api.specs.SweepResult`. Identical jobs — e.g. the
``taco_csr`` baselines shared between figures — are deduplicated by the
session's sweep engine and memoized on disk when a cache is enabled. Spec
lowering reuses the historical job constructors, so cache keys (and
therefore existing caches) are unchanged.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.api.config import RuntimeConfig
from repro.api.session import Session
from repro.api.specs import JobSpec, SweepSpec
from repro.core.config import SMASHConfig
from repro.core.conversion import csr_to_smash, estimate_conversion_cost, smash_to_csr
from repro.core.smash_matrix import SMASHMatrix
from repro.eval.comparison import arithmetic_mean, geometric_mean
from repro.formats.convert import coo_to_csr
from repro.graphs.generators import GRAPH_SPECS
from repro.hardware.area import AreaModel
from repro.hardware.bmu import BitmapManagementUnit
from repro.sim.config import RealSystemConfig, SimConfig
from repro.workloads.sources import Workload, materialize_source, suite_nnz
from repro.workloads.suite import SUITE_SPECS, get_spec, stable_seed

#: Default matrix ids (the full Table 3 suite).
ALL_MATRICES = tuple(spec.key for spec in SUITE_SPECS)
#: Default graph ids (the full Table 4 set).
ALL_GRAPHS = tuple(spec.key for spec in GRAPH_SPECS)
#: Schemes shown in the main simulation figures (10-13).
MAIN_SCHEMES = ("taco_csr", "taco_bcsr", "smash_sw", "smash_hw")
#: Schemes shown in the software-only comparison (Figure 9).
SOFTWARE_SCHEMES = ("taco_csr", "taco_bcsr", "mkl_csr", "smash_sw")
#: Schemes with a sparse-addition kernel (see ``repro.kernels.spadd``): the
#: motivation-figure CSR variants plus the SMASH hardware scheme.
SPADD_SCHEMES = ("taco_csr", "mkl_csr", "ideal_csr", "smash_hw")
#: Default scaled dimension for SpMV-shaped experiments. ``None`` is a
#: sentinel meaning "use each matrix spec's own ``scaled_dim``" (sparser
#: matrices get larger dims so they keep a meaningful number of non-zeros);
#: every parameter annotated ``Optional[int]`` that defaults to this constant
#: inherits the sentinel meaning. SpMM's O(rows*cols) outer loop needs a
#: fixed smaller matrix to stay fast in pure Python, so its default is a
#: concrete dimension.
DEFAULT_SPMV_DIM: Optional[int] = None
DEFAULT_SPMM_DIM = 96
DEFAULT_GRAPH_VERTICES = 192
#: Cache scaling factor applied to the Table 2 hierarchy for the scaled-down
#: workloads (see ``SimConfig.scaled``).
DEFAULT_CACHE_SCALE = 16

def _sim_config(cache_scale: Optional[int] = DEFAULT_CACHE_SCALE) -> SimConfig:
    return SimConfig.default() if not cache_scale or cache_scale <= 1 else SimConfig.scaled(cache_scale)


def _suite(keys: Optional[Iterable[str]]) -> List:
    return [get_spec(key) for key in (keys or ALL_MATRICES)]


@contextlib.contextmanager
def _session(session: Optional[Session] = None) -> Iterator[Session]:
    """The Session one driver call submits its specs through.

    A Session passed in is yielded as is and stays open for the caller.
    Otherwise a default one is built for this call — uncached, honouring
    the environment knobs for worker count and trace chunking — and closed
    on exit, so its worker pool does not outlive the driver.
    """
    if session is not None:
        yield session
        return
    with Session(runtime=RuntimeConfig.from_env(cache_dir=None)) as owned:
        yield owned


# --------------------------------------------------------------------------- #
# Figure 3 — motivation: ideal indexing vs CSR
# --------------------------------------------------------------------------- #
def experiment_fig3(
    keys: Optional[Sequence[str]] = None,
    spmv_dim: Optional[int] = DEFAULT_SPMV_DIM,
    spmm_dim: int = DEFAULT_SPMM_DIM,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    session: Optional[Session] = None,
) -> Dict:
    """Speedup and normalized instructions of Ideal CSR over CSR (Figure 3)."""
    kernels = {"spadd": spmv_dim, "spmv": spmv_dim, "spmm": spmm_dim}
    specs = [
        JobSpec(kernel, scheme, Workload.suite(spec.key, dim))
        for kernel, dim in kernels.items()
        for spec in _suite(keys)
        if suite_nnz(spec.key, dim)
        for scheme in ("taco_csr", "ideal_csr")
    ]
    with _session(session) as engine:
        result = engine.sweep(specs, sim=_sim_config(cache_scale))
    results = {}
    for kernel in kernels:
        baselines = result.select(kernel=kernel, scheme="taco_csr").reports
        ideals = result.select(kernel=kernel, scheme="ideal_csr").reports
        results[kernel] = {
            "ideal_speedup": arithmetic_mean(
                [ideal.speedup_over(base) for base, ideal in zip(baselines, ideals)]
            ),
            "ideal_normalized_instructions": arithmetic_mean(
                [ideal.instruction_ratio_over(base) for base, ideal in zip(baselines, ideals)]
            ),
        }
    return {
        "figure": "3",
        "description": "Ideal indexing vs CSR (speedup and normalized instructions)",
        "results": results,
        "paper_reference": {
            "spadd": {"ideal_speedup": 2.21, "ideal_normalized_instructions": 0.51},
            "spmv": {"ideal_speedup": 2.13, "ideal_normalized_instructions": 0.58},
            "spmm": {"ideal_speedup": 2.81, "ideal_normalized_instructions": 0.35},
        },
    }


# --------------------------------------------------------------------------- #
# Tables 2-5 — configurations and workloads
# --------------------------------------------------------------------------- #
def experiment_table2() -> Dict:
    """The simulated system configuration (Table 2)."""
    return {
        "table": "2",
        "description": "Simulated system configuration",
        "rows": SimConfig.default().describe(),
    }


def experiment_table3(dim: Optional[int] = None) -> Dict:
    """The evaluated matrices (Table 3) and their synthetic analogues."""
    rows = []
    for spec in SUITE_SPECS:
        coo = materialize_source(Workload.suite(spec.key, dim))
        rows.append(
            {
                "id": spec.key,
                "name": spec.name,
                "paper_rows": spec.rows,
                "paper_nnz": spec.nnz,
                "paper_sparsity_percent": spec.sparsity_percent,
                "synthetic_rows": coo.rows,
                "synthetic_nnz": coo.nnz,
                "synthetic_sparsity_percent": round(coo.sparsity_percent, 4),
                "structure": spec.structure,
                "smash_config": spec.smash_config().label(),
            }
        )
    return {"table": "3", "description": "Evaluated sparse matrices", "rows": rows}


def experiment_table4(n_vertices: Optional[int] = None) -> Dict:
    """The input graphs (Table 4) and their synthetic analogues."""
    rows = []
    for spec in GRAPH_SPECS:
        graph = materialize_source(Workload.graph(spec.key, n_vertices))
        rows.append(
            {
                "id": spec.key,
                "name": spec.name,
                "paper_vertices": spec.vertices,
                "paper_edges": spec.edges,
                "synthetic_vertices": graph.n_vertices,
                "synthetic_edges": graph.n_edges,
                "structure": spec.structure,
            }
        )
    return {"table": "4", "description": "Input graphs", "rows": rows}


def experiment_table5() -> Dict:
    """The real-system configuration (Table 5)."""
    return {
        "table": "5",
        "description": "Real system configuration",
        "rows": RealSystemConfig.default().describe(),
    }


# --------------------------------------------------------------------------- #
# Figure 9 — software-only schemes
# --------------------------------------------------------------------------- #
def experiment_fig9(
    keys: Optional[Sequence[str]] = None,
    spmv_dim: Optional[int] = DEFAULT_SPMV_DIM,
    spmm_dim: int = DEFAULT_SPMM_DIM,
    session: Optional[Session] = None,
) -> Dict:
    """Software-only schemes normalized to TACO-CSR (Figure 9).

    This experiment models the real-machine study: the full (unscaled)
    cache hierarchy is used, so the comparison is dominated by instruction
    counts, exactly as on the paper's Xeon where the working sets are
    cache-resident relative to its large caches.
    """
    specs = [
        JobSpec(kernel, scheme, Workload.suite(spec.key, dim), smash=spec.smash_config())
        for kernel, dim in (("spmv", spmv_dim), ("spmm", spmm_dim))
        for spec in _suite(keys)
        if suite_nnz(spec.key, dim)
        for scheme in SOFTWARE_SCHEMES
    ]
    with _session(session) as engine:
        result = engine.sweep(specs, sim=_sim_config(cache_scale=None))
    baselines = {
        (spec.kernel, spec.workload_key): report
        for spec, report in result
        if spec.scheme == "taco_csr"
    }
    per_kernel: Dict[str, Dict[str, List[float]]] = {
        kernel: {scheme: [] for scheme in SOFTWARE_SCHEMES} for kernel in ("spmv", "spmm")
    }
    for spec, report in result:
        if spec.scheme == "taco_csr":
            per_kernel[spec.kernel][spec.scheme].append(1.0)
        else:
            baseline = baselines[(spec.kernel, spec.workload_key)]
            per_kernel[spec.kernel][spec.scheme].append(report.speedup_over(baseline))
    results = {
        kernel: {scheme: geometric_mean(vals) for scheme, vals in per_scheme.items() if vals}
        for kernel, per_scheme in per_kernel.items()
    }
    return {
        "figure": "9",
        "description": "Software-only schemes on the real system (speedup vs TACO-CSR)",
        "results": results,
        "paper_reference": {
            "spmv": {"taco_csr": 1.0, "taco_bcsr": 1.12, "mkl_csr": 1.15, "smash_sw": 1.05},
            "spmm": {"taco_csr": 1.0, "taco_bcsr": 1.20, "mkl_csr": 1.25, "smash_sw": 1.10},
        },
    }


# --------------------------------------------------------------------------- #
# Figures 10-13 — main SpMV / SpMM / SpAdd results
# --------------------------------------------------------------------------- #
def kernel_sweep_specs(
    kernel: str,
    keys: Optional[Sequence[str]] = None,
    dim: Optional[int] = None,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    schemes: Sequence[str] = MAIN_SCHEMES,
):
    """The exact ``(SweepSpec, SimConfig)`` a kernel-sweep experiment runs.

    Factored out of :func:`_kernel_sweep` so other layers (the result
    store's ``--experiment`` query filter) can lower an experiment to its
    job keys without executing anything — by construction the keys match
    what the driver submits.
    """
    sweep = SweepSpec.product(
        kernels=kernel, schemes=schemes, matrices=keys or ALL_MATRICES, dim=dim
    )
    return sweep, _sim_config(cache_scale)


def _kernel_sweep(
    kernel: str,
    keys: Optional[Sequence[str]],
    dim: Optional[int],
    cache_scale: int,
    schemes: Sequence[str] = MAIN_SCHEMES,
    session: Optional[Session] = None,
) -> Dict:
    """Per-matrix scheme sweep for one kernel, normalized to ``taco_csr``."""
    if "taco_csr" not in schemes:
        raise ValueError("the scheme sweep needs the 'taco_csr' baseline")
    sweep, sim = kernel_sweep_specs(
        kernel, keys=keys, dim=dim, cache_scale=cache_scale, schemes=schemes
    )
    with _session(session) as engine:
        result = engine.sweep(sweep, sim=sim)
    per_matrix: Dict[str, Dict[str, Dict[str, float]]] = {}
    for key in sweep.workload_keys:
        reports = result.select(key=key).by_scheme()
        baseline = reports["taco_csr"]
        per_matrix[get_spec(key).label()] = {
            "speedup": {s: reports[s].speedup_over(baseline) for s in schemes},
            "normalized_instructions": {
                s: reports[s].instruction_ratio_over(baseline) for s in schemes
            },
        }
    averages = {
        "speedup": {
            s: geometric_mean([m["speedup"][s] for m in per_matrix.values()])
            for s in schemes
        },
        "normalized_instructions": {
            s: arithmetic_mean([m["normalized_instructions"][s] for m in per_matrix.values()])
            for s in schemes
        },
    }
    return {"per_matrix": per_matrix, "average": averages}


def experiment_fig10_11(
    keys: Optional[Sequence[str]] = None,
    dim: Optional[int] = DEFAULT_SPMV_DIM,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    schemes: Sequence[str] = MAIN_SCHEMES,
    session: Optional[Session] = None,
) -> Dict:
    """SpMV speedup (Fig. 10) and instruction count (Fig. 11) per matrix."""
    data = _kernel_sweep(
        "spmv", keys, dim, cache_scale, schemes=schemes, session=session
    )
    data.update(
        {
            "figure": "10/11",
            "description": "SpMV speedup and executed instructions (normalized to TACO-CSR)",
            "paper_reference": {
                "average_speedup": {"taco_bcsr": 1.06, "smash_sw": 0.98, "smash_hw": 1.38},
                "average_normalized_instructions": {"smash_hw": 0.53},
            },
        }
    )
    return data


def experiment_fig12_13(
    keys: Optional[Sequence[str]] = None,
    dim: int = DEFAULT_SPMM_DIM,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    schemes: Sequence[str] = MAIN_SCHEMES,
    session: Optional[Session] = None,
) -> Dict:
    """SpMM speedup (Fig. 12) and instruction count (Fig. 13) per matrix."""
    data = _kernel_sweep(
        "spmm", keys, dim, cache_scale, schemes=schemes, session=session
    )
    data.update(
        {
            "figure": "12/13",
            "description": "SpMM speedup and executed instructions (normalized to TACO-CSR)",
            "paper_reference": {
                "average_speedup": {"taco_bcsr": 1.11, "smash_sw": 1.10, "smash_hw": 1.44},
                "average_normalized_instructions": {"smash_hw": 0.50},
            },
        }
    )
    return data


def experiment_spadd(
    keys: Optional[Sequence[str]] = None,
    dim: Optional[int] = DEFAULT_SPMV_DIM,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    schemes: Sequence[str] = SPADD_SCHEMES,
    session: Optional[Session] = None,
) -> Dict:
    """SpAdd scheme sweep in the style of the main figures.

    The paper's main figures sweep SpMV and SpMM only; SpAdd appears just in
    the motivation study (Figure 3). This extra experiment runs the same
    per-matrix scheme sweep for sparse addition over every scheme that
    implements it, for scenario coverage beyond the paper.
    """
    data = _kernel_sweep(
        "spadd", keys, dim, cache_scale, schemes=schemes, session=session
    )
    data.update(
        {
            "experiment": "spadd",
            "description": "SpAdd speedup and executed instructions (normalized to TACO-CSR)",
            "paper_reference": {
                "note": "no direct figure; Figure 3 reports ideal_speedup 2.21 for SpAdd, "
                "which upper-bounds the smash_hw column here"
            },
        }
    )
    return data


# --------------------------------------------------------------------------- #
# Figures 14-15 — sensitivity to the Bitmap-0 compression ratio
# --------------------------------------------------------------------------- #
def experiment_fig14_15(
    keys: Optional[Sequence[str]] = None,
    kernel: str = "spmv",
    dim: Optional[int] = None,
    ratios: Sequence[int] = (2, 4, 8),
    cache_scale: int = DEFAULT_CACHE_SCALE,
    session: Optional[Session] = None,
) -> Dict:
    """SMASH speedup sensitivity to the Bitmap-0 compression ratio."""
    if kernel not in ("spmv", "spmm"):
        raise ValueError("kernel must be 'spmv' or 'spmm'")
    dim = dim or (DEFAULT_SPMV_DIM if kernel == "spmv" else DEFAULT_SPMM_DIM)
    specs = [
        JobSpec(
            kernel, "smash_hw", Workload.suite(spec.key, dim),
            smash=spec.smash_config().with_block_size(ratio),
        )
        for spec in _suite(keys)
        if suite_nnz(spec.key, dim)
        for ratio in ratios
    ]
    with _session(session) as engine:
        result = engine.sweep(specs, sim=_sim_config(cache_scale))
    per_matrix: Dict[str, Dict[str, float]] = {}
    keys_in_order = dict.fromkeys(spec.workload_key for spec in result.specs)
    for key in keys_in_order:
        reports = dict(zip(ratios, result.select(key=key).reports))
        baseline = reports[ratios[0]]
        per_matrix[key] = {
            f"B0-{ratio}:1": reports[ratio].speedup_over(baseline) for ratio in ratios
        }
    averages = {
        f"B0-{ratio}:1": geometric_mean([m[f"B0-{ratio}:1"] for m in per_matrix.values()])
        for ratio in ratios
    }
    return {
        "figure": "14" if kernel == "spmv" else "15",
        "description": f"Sensitivity of SMASH {kernel.upper()} speedup to the Bitmap-0 ratio",
        "per_matrix": per_matrix,
        "average": averages,
        "paper_reference": {
            "note": "2:1 is best on average; 8:1 loses ~4-5% on average but can win "
            "for clustered matrices such as M12 and M14",
        },
    }


# --------------------------------------------------------------------------- #
# Figures 16-17 — sensitivity to locality of sparsity
# --------------------------------------------------------------------------- #
def experiment_fig16_17(
    keys: Sequence[str] = ("M2", "M8", "M13"),
    kernel: str = "spmv",
    dim: Optional[int] = None,
    localities: Sequence[float] = (12.5, 25, 37.5, 50, 62.5, 75, 87.5, 100),
    block_size: int = 8,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    session: Optional[Session] = None,
) -> Dict:
    """SMASH speedup vs locality of sparsity for selected matrices.

    The per-point generator seeds derive from :func:`stable_seed` (CRC-32 of
    the matrix key and locality), not Python's randomized ``hash()``, so the
    figure is identical across processes regardless of ``PYTHONHASHSEED``.
    """
    if kernel not in ("spmv", "spmm"):
        raise ValueError("kernel must be 'spmv' or 'spmm'")
    dim = dim or (256 if kernel == "spmv" else DEFAULT_SPMM_DIM)
    specs, points = [], []
    for key in keys:
        spec = get_spec(key)
        nnz = max(block_size, int(round(spec.density * dim * dim)))
        config = SMASHConfig((block_size,) + spec.smash_config().ratios[1:])
        for locality in localities:
            # nnz >= block_size >= 1 above, so the generated matrix always
            # holds at least one non-zero — no empty-workload guard needed.
            specs.append(
                JobSpec(
                    kernel, "smash_hw",
                    Workload.locality(
                        dim, dim, nnz, block_size, locality, seed=stable_seed(key, locality)
                    ),
                    smash=config,
                )
            )
            points.append((key, config, locality))
    with _session(session) as engine:
        result = engine.sweep(specs, sim=_sim_config(cache_scale))
    series: Dict[str, Dict[float, object]] = {}
    labels: Dict[str, str] = {}
    for (key, config, locality), report in zip(points, result.reports):
        series.setdefault(key, {})[locality] = report
        labels[key] = f"{key}.{config.label()}"
    per_matrix: Dict[str, Dict[str, float]] = {}
    for key, reports in series.items():
        baseline = reports[min(reports)]
        per_matrix[labels[key]] = {
            f"{locality}%": reports[locality].speedup_over(baseline) for locality in reports
        }
    return {
        "figure": "16" if kernel == "spmv" else "17",
        "description": f"Sensitivity of SMASH {kernel.upper()} speedup to locality of sparsity",
        "per_matrix": per_matrix,
        "paper_reference": {
            "note": "speedup rises with locality (up to ~25% for M13 SpMV); the benefit "
            "shrinks for the sparsest matrices"
        },
    }


# --------------------------------------------------------------------------- #
# Figure 18 — graph applications
# --------------------------------------------------------------------------- #
def experiment_fig18(
    keys: Optional[Sequence[str]] = None,
    n_vertices: int = DEFAULT_GRAPH_VERTICES,
    pagerank_iterations: int = 5,
    bc_sources: int = 4,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    smash_config: Optional[SMASHConfig] = None,
    session: Optional[Session] = None,
) -> Dict:
    """PageRank and Betweenness Centrality, SMASH vs CSR (Figure 18)."""
    config = smash_config or SMASHConfig((2, 4, 16))
    apps = (("pagerank", {"iterations": pagerank_iterations}), ("bc", {"max_sources": bc_sources}))
    graph_keys = list(keys or ALL_GRAPHS)
    specs = [
        JobSpec(app, scheme, Workload.graph(key, n_vertices), smash=config, params=params)
        for key in graph_keys
        for app, params in apps
        for scheme in ("taco_csr", "smash_hw")
    ]
    with _session(session) as engine:
        result = engine.sweep(specs, sim=_sim_config(cache_scale))
    per_graph: Dict[str, Dict[str, Dict[str, float]]] = {}
    for key in graph_keys:
        entry: Dict[str, Dict[str, float]] = {}
        for app, _ in apps:
            csr_report = result.one(kernel=app, key=key, scheme="taco_csr")
            smash_report = result.one(kernel=app, key=key, scheme="smash_hw")
            entry[app] = {
                "speedup": smash_report.speedup_over(csr_report),
                "normalized_instructions": smash_report.instruction_ratio_over(csr_report),
            }
        per_graph[key] = entry
    averages = {
        app: {
            "speedup": geometric_mean([g[app]["speedup"] for g in per_graph.values()]),
            "normalized_instructions": arithmetic_mean(
                [g[app]["normalized_instructions"] for g in per_graph.values()]
            ),
        }
        for app in ("pagerank", "bc")
    }
    return {
        "figure": "18",
        "description": "PageRank and Betweenness Centrality, SMASH vs CSR",
        "per_graph": per_graph,
        "average": averages,
        "paper_reference": {"pagerank_speedup": 1.27, "bc_speedup": 1.31},
    }


# --------------------------------------------------------------------------- #
# Figure 19 — storage efficiency
# --------------------------------------------------------------------------- #
def _paper_scale_storage(spec, synthetic: SMASHMatrix, block_size: int) -> Dict[str, float]:
    """Estimate CSR and SMASH storage for the *original* (paper-scale) matrix.

    Storage is a purely structural quantity, so it can be evaluated at the
    matrix's true dimensions instead of the scaled-down analogue's: CSR needs
    ``(rows + 1)`` pointers plus one index and one value per non-zero; SMASH
    needs the NZA (whose size follows from the measured locality of sparsity)
    plus the bitmap hierarchy (top level stored in full, lower levels stored
    one group per set parent bit, as in Figure 4(b)). The per-level set-bit
    ratios are taken from the synthetic analogue, which was generated to
    match the original's non-zero distribution.
    """
    rows = cols = spec.rows
    nnz = spec.nnz
    csr_bytes = (rows + 1) * 4 + nnz * (4 + 8)

    locality = max(synthetic.nza.fill_ratio(), 1.0 / block_size)
    n_blocks0 = min(nnz / (block_size * locality), rows * cols / block_size)
    # Ratio of set bits at each level relative to Bitmap-0 on the analogue.
    base_popcount = max(1, synthetic.hierarchy.base.popcount())
    level_ratios = [
        synthetic.hierarchy.bitmap(level).popcount() / base_popcount
        for level in range(synthetic.hierarchy.levels)
    ]
    ratios = synthetic.config.ratios
    total_top_bits = rows * cols
    for ratio in ratios:
        total_top_bits = -(-total_top_bits // ratio)
    bitmap_bits = float(total_top_bits)
    for level in range(synthetic.hierarchy.levels - 1):
        parent_popcount = n_blocks0 * level_ratios[level + 1]
        parent_popcount = min(parent_popcount, rows * cols / np.prod(ratios[: level + 2]))
        bitmap_bits += parent_popcount * ratios[level + 1]
    smash_bytes = bitmap_bits / 8 + n_blocks0 * block_size * 8
    dense_bytes = rows * cols * 8
    return {
        "csr": dense_bytes / csr_bytes,
        "smash": dense_bytes / smash_bytes,
        "locality_of_sparsity": 100.0 * locality,
        "sparsity_percent": spec.sparsity_percent,
    }


def experiment_fig19(
    keys: Optional[Sequence[str]] = None,
    dim: Optional[int] = DEFAULT_SPMV_DIM,
    block_size: int = 2,
) -> Dict:
    """Total compression ratio of CSR and SMASH for every matrix (Figure 19).

    The reported ratios are evaluated at the original Table 3 dimensions (see
    :func:`_paper_scale_storage`); the synthetic analogue only supplies the
    non-zero clustering statistics that determine SMASH's NZA and bitmap
    sizes. The analogue's own (scaled-down) ratios are included for
    reference. No instrumented kernels run here, so this driver does not use
    the sweep engine.
    """
    per_matrix: Dict[str, Dict[str, float]] = {}
    for spec in _suite(keys):
        coo = materialize_source(Workload.suite(spec.key, dim))
        if coo.nnz == 0:
            continue
        csr = coo_to_csr(coo)
        config = SMASHConfig((block_size,) + spec.smash_config().ratios[1:])
        smash = SMASHMatrix.from_coo(coo, config)
        entry = _paper_scale_storage(spec, smash, block_size)
        entry["scaled_csr"] = csr.compression_ratio()
        entry["scaled_smash"] = smash.compression_ratio()
        per_matrix[spec.key] = entry
    csr_values = [m["csr"] for m in per_matrix.values()]
    smash_values = [m["smash"] for m in per_matrix.values()]
    return {
        "figure": "19",
        "description": "Total compression ratio of CSR and SMASH (paper-scale estimate)",
        "per_matrix": per_matrix,
        "geometric_mean": {
            "csr": geometric_mean(csr_values),
            "smash": geometric_mean(smash_values),
        },
        "paper_reference": {
            "note": "CSR compresses better for the sparsest matrices (M1-M4); SMASH "
            "matches or beats CSR (up to 2.48x) as density/locality grow"
        },
    }


# --------------------------------------------------------------------------- #
# Figure 20 — conversion overhead
# --------------------------------------------------------------------------- #
def experiment_fig20(
    spmv_key: str = "M8",
    spmm_key: str = "M8",
    graph_key: str = "G2",
    spmv_dim: Optional[int] = DEFAULT_SPMV_DIM,
    spmm_dim: int = DEFAULT_SPMM_DIM,
    n_vertices: int = DEFAULT_GRAPH_VERTICES,
    pagerank_iterations: int = 40,
    cache_scale: int = DEFAULT_CACHE_SCALE,
    session: Optional[Session] = None,
) -> Dict:
    """End-to-end execution breakdown with CSR<->SMASH conversion (Figure 20).

    PageRank is an iterative, long-running application (the paper runs it to
    convergence on million-vertex graphs), so its default iteration count
    here is high enough that the one-off conversion cost is amortized the
    same way. The kernel runs go through the sweep engine; the (cheap,
    structural) conversion-cost estimates are computed in-driver.
    """
    sim = _sim_config(cache_scale)
    breakdown: Dict[str, Dict[str, float]] = {}

    def record(name: str, to_cycles: float, kernel_cycles: float, back_cycles: float) -> None:
        total = to_cycles + kernel_cycles + back_cycles
        breakdown[name] = {
            "csr_to_smash_percent": 100.0 * to_cycles / total if total else 0.0,
            "kernel_percent": 100.0 * kernel_cycles / total if total else 0.0,
            "smash_to_csr_percent": 100.0 * back_cycles / total if total else 0.0,
        }

    spmv_spec = get_spec(spmv_key)
    spmm_spec = get_spec(spmm_key)
    pagerank_config = SMASHConfig((2, 4, 16))
    specs = [
        JobSpec(
            "spmv", "smash_hw", Workload.suite(spmv_spec.key, spmv_dim),
            smash=spmv_spec.smash_config(),
        ),
        JobSpec(
            "spmm", "smash_hw", Workload.suite(spmm_spec.key, spmm_dim),
            smash=spmm_spec.smash_config(),
        ),
        JobSpec(
            "pagerank", "smash_hw", Workload.graph(graph_key, n_vertices),
            smash=pagerank_config, params={"iterations": pagerank_iterations},
        ),
    ]
    with _session(session) as engine:
        spmv_report, spmm_report, pr_report = engine.sweep(specs, sim=sim).reports

    # SpMV: single short-running kernel invocation.
    csr = coo_to_csr(materialize_source(specs[0].workload))
    smash, to_cost = csr_to_smash(csr, spmv_spec.smash_config())
    _, back_cost = smash_to_csr(smash)
    record("spmv", to_cost.cycles(sim), spmv_report.cycles, back_cost.cycles(sim))

    # SpMM: a much longer-running kernel.
    csr = coo_to_csr(materialize_source(specs[1].workload))
    smash, to_cost = csr_to_smash(csr, spmm_spec.smash_config())
    _, back_cost = smash_to_csr(smash)
    record("spmm", to_cost.cycles(sim), spmm_report.cycles, back_cost.cycles(sim))

    # PageRank: many SpMV iterations over the same matrix.
    graph = materialize_source(specs[2].workload)
    csr = coo_to_csr(graph.transition_matrix())
    round_trip = estimate_conversion_cost(csr, pagerank_config, round_trip=True)
    record("pagerank", round_trip.cycles(sim) / 2.0, pr_report.cycles, round_trip.cycles(sim) / 2.0)

    return {
        "figure": "20",
        "description": "Execution-time breakdown including CSR<->SMASH conversion",
        "breakdown": breakdown,
        "paper_reference": {
            "spmv": {"conversion_percent": 55.0},
            "spmm": {"conversion_percent": 10.0},
            "pagerank": {"conversion_percent": 0.5},
        },
    }


# --------------------------------------------------------------------------- #
# Scale sweep — dimensions beyond the monolithic trace engine's reach
# --------------------------------------------------------------------------- #
#: Documented memory budget for trace replay (DESIGN.md section 10). The
#: monolithic build-then-replay path peaks at roughly
#: ``accesses * TRACE_BYTES_PER_ACCESS * MONOLITHIC_PEAK_FACTOR`` bytes —
#: the assembled columns, the concatenated trace and the replay's
#: address/line scratch all coexist — so any dimension whose estimate
#: exceeds this budget is only reachable through the chunked replay.
TRACE_MEMORY_BUDGET_MB = 64.0
#: Bytes per trace access: two int64 columns (structure id, offset) plus one
#: uint8 kind column.
TRACE_BYTES_PER_ACCESS = 17
#: Peak multiplier of the monolithic path over the bare column footprint.
MONOLITHIC_PEAK_FACTOR = 3


def experiment_scale(
    keys: Sequence[str] = ("M13",),
    dims: Sequence[int] = (512, 1024, 2048, 4096),
    schemes: Sequence[str] = ("taco_csr", "smash_hw"),
    cache_scale: int = DEFAULT_CACHE_SCALE,
    session: Optional[Session] = None,
) -> Dict:
    """SpMV dimension sweep at sizes beyond the monolithic trace engine.

    Extends the paper's evaluation toward the ROADMAP's ever-larger scenario
    coverage: the same Table 3 analogues are regenerated at growing
    dimensions and run through the sweep engine under the bounded-memory
    chunked replay. For every point the driver reports the estimated peak
    memory the *monolithic* build-then-replay path would have needed, and
    flags the dimensions where that estimate exceeds
    :data:`TRACE_MEMORY_BUDGET_MB` — those points are only reachable because
    replay memory is now decoupled from workload size. The default sweep
    (the clustered M13 analogue, whose non-zero count grows quadratically
    with the dimension) crosses the budget at its largest dimension.
    """
    from repro.sim.trace import DEFAULT_CHUNK_ACCESSES

    if "taco_csr" not in schemes:
        raise ValueError("the scale sweep needs the 'taco_csr' baseline")
    specs, points = [], []
    for key in keys:
        spec = get_spec(key)
        for dim in dims:
            nnz = suite_nnz(spec.key, dim)
            if nnz == 0:
                continue
            for scheme in schemes:
                specs.append(
                    JobSpec(
                        "spmv", scheme, Workload.suite(spec.key, dim),
                        smash=spec.smash_config(),
                    )
                )
            points.append((key, dim, nnz))
    with _session(session) as engine:
        result = engine.sweep(specs, sim=_sim_config(cache_scale))
        # The budget the sweep actually ran under: the session's runtime pins
        # it (the runner wraps a chunk override around every execution path).
        chunk = engine.runtime.trace_chunk
    chunked_peak_mb = (
        (chunk or 0) * TRACE_BYTES_PER_ACCESS * MONOLITHIC_PEAK_FACTOR / 2**20
        if chunk
        else None
    )
    per_point: Dict[str, Dict] = {}
    stride = len(schemes)
    for index, (key, dim, nnz) in enumerate(points):
        reports = dict(zip(schemes, result.reports[stride * index : stride * (index + 1)]))
        baseline = reports["taco_csr"]
        # Trace volume of the CSR baseline traversal: one row_ptr load and
        # one y store per row, three accesses (col_ind, value, x) per nnz.
        accesses = 2 * dim + 3 * nnz
        monolithic_mb = accesses * TRACE_BYTES_PER_ACCESS * MONOLITHIC_PEAK_FACTOR / 2**20
        per_point[f"{key}@{dim}"] = {
            "rows": dim,
            "nnz": nnz,
            "trace_accesses": accesses,
            "monolithic_trace_mb": round(monolithic_mb, 2),
            "exceeds_monolithic_budget": monolithic_mb > TRACE_MEMORY_BUDGET_MB,
            "cycles": {s: reports[s].cycles for s in schemes},
            "dram_accesses": {s: reports[s].dram_accesses for s in schemes},
            "speedup": {s: reports[s].speedup_over(baseline) for s in schemes},
        }
    return {
        "experiment": "scale",
        "description": "SpMV dimension sweep under bounded-memory chunked replay",
        "trace_chunk_accesses": chunk,
        "default_chunk_accesses": DEFAULT_CHUNK_ACCESSES,
        "chunked_peak_trace_mb": chunked_peak_mb,
        "memory_budget_mb": TRACE_MEMORY_BUDGET_MB,
        "per_point": per_point,
        "paper_reference": {
            "note": "beyond the paper: the monolithic batched engine (PR 1) held the "
            "whole columnar trace in memory, capping the largest runnable dimension; "
            "chunked replay bounds peak trace memory by the chunk budget"
        },
    }


# --------------------------------------------------------------------------- #
# Section 7.6 — area overhead
# --------------------------------------------------------------------------- #
def experiment_area(
    n_groups: int = 4,
    buffer_bytes: int = 256,
    buffers_per_group: int = 3,
) -> Dict:
    """BMU area overhead relative to a Xeon-class core (Section 7.6)."""
    bmu = BitmapManagementUnit(n_groups, buffer_bytes, buffers_per_group)
    report = AreaModel().estimate(bmu)
    return {
        "section": "7.6",
        "description": "BMU area overhead",
        "sram_bytes": report.sram_bytes,
        "register_bytes": report.register_bytes,
        "total_area_mm2": report.total_area_mm2,
        "core_area_mm2": report.core_area_mm2,
        "overhead_percent": report.overhead_percent,
        "paper_reference": {"overhead_percent_max": 0.076, "sram_bytes": 3072, "register_bytes": 140},
    }
