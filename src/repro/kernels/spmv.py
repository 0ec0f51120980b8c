"""Instrumented Sparse Matrix-Vector multiplication kernels (batched engine).

Every function computes ``y = A @ x`` for one scheme while charging the
analytic performance model, and returns ``(y, CostReport)``. The kernels are
*vectorized*: instead of one ``instr.load()`` call per non-zero they assemble
the access trace of the traversal as numpy arrays — interleaved in the exact
order the compiled implementation would issue the accesses — one row block
at a time, streaming each block through the bounded-memory chunked replay
(DESIGN.md section 10), so peak trace memory is set by the chunk budget
rather than the matrix size. Instruction-class totals are charged in bulk.
The resulting cost reports are bit-identical to the per-element reference
kernels in :mod:`repro.kernels.legacy` at any chunk size (asserted by
``tests/test_trace_equivalence.py``).

Schemes
-------

``taco_csr``      — the paper's baseline CSR implementation (Code Listing 1).
``ideal_csr``     — CSR with position discovery free of charge (Figure 3).
``mkl_csr``       — CSR traversal with tighter code generation (MKL proxy).
``taco_bcsr``     — 4x4 block CSR.
``smash_sw``      — hierarchical bitmap encoding indexed in software (§4.4).
``smash_hw``      — hierarchical bitmap encoding indexed by the BMU (§5.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.csr import CSRMatrix
from repro.hardware.bmu import BitmapManagementUnit
from repro.kernels._costs import (
    IDX,
    VAL,
    CSRCosts,
    MKLCosts,
    SMASHCosts,
    register_bcsr,
    register_csr,
    register_smash,
    register_vector,
)
from repro.kernels._smash import (
    WORD_BYTES,
    accumulate_spmv,
    bitmap_transfers,
    block_bodies,
    hardware_scan_plan,
    software_scan_plan,
)
from repro.kernels.registry import register_kernel
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport, InstructionClass, KernelInstrumentation
from repro.sim.trace import KIND_DEPENDENT, KIND_STREAM, KIND_WRITE

KernelOutput = Tuple[np.ndarray, CostReport]


def _check_vector(x: np.ndarray, cols: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cols,):
        raise ValueError(f"x must have length {cols}, got {x.shape}")
    return x


def _rows_per_chunk(chunk_accesses: Optional[int], rows: int, total_accesses: int) -> int:
    """Row-block height whose assembled trace stays near the chunk budget.

    With chunking disabled (``None``) the whole matrix is one block — the
    monolithic assembly path. Otherwise the height is chosen from the
    average per-row access count, so both the scatter scratch arrays and the
    builder's buffered columns stay O(chunk) instead of O(total accesses).
    """
    if not chunk_accesses or rows <= 1:
        return max(rows, 1)
    per_row = max(1.0, total_accesses / rows)
    return max(1, min(rows, int(chunk_accesses / per_row)))


# --------------------------------------------------------------------------- #
# CSR family
# --------------------------------------------------------------------------- #
def _spmv_csr_like(
    csr: CSRMatrix,
    x: np.ndarray,
    scheme: str,
    costs: CSRCosts,
    ideal_indexing: bool,
    config: Optional[SimConfig],
) -> KernelOutput:
    """Shared CSR traversal used by taco_csr, mkl_csr and ideal_csr.

    Per-row access order (mirroring the compiled loop nest): one ``row_ptr``
    load, then per non-zero ``[col_ind, values, x]`` (``[values, x]`` under
    ideal indexing, where positions are known for free), then the ``y``
    store. The trace is assembled one row block at a time — scattering the
    three per-nnz columns and the two per-row columns into their
    program-order positions within the block — and streamed through the
    chunked replay, so peak trace memory is bounded by the chunk budget
    (one block spans all rows when chunking is disabled).
    """
    x = _check_vector(x, csr.cols)
    instr = KernelInstrumentation("spmv", scheme, config)
    register_csr(instr, "A", csr)
    register_vector(instr, "x", csr.cols)
    register_vector(instr, "y", csr.rows)

    rows, nnz = csr.rows, csr.nnz
    row_ptr = csr.row_ptr.astype(np.int64, copy=False)
    col = csr.col_ind.astype(np.int64, copy=False)

    builder = instr.trace_builder()
    id_rp = builder.structure_id("A_row_ptr")
    if ideal_indexing:
        id_ci = None
        id_av = builder.structure_id("A_values")
        id_x = builder.structure_id("x")
    else:
        id_ci = builder.structure_id("A_col_ind")
        id_av = builder.structure_id("A_values")
        id_x = builder.structure_id("x")
    id_y = builder.structure_id("y")
    width = 2 if ideal_indexing else 3

    chunk_rows = _rows_per_chunk(builder.chunk_accesses, rows, 2 * rows + width * nnz)
    for r0 in range(0, rows, chunk_rows):
        r1 = min(rows, r0 + chunk_rows)
        z0, z1 = int(row_ptr[r0]), int(row_ptr[r1])
        n_rows = r1 - r0
        n_nnz = z1 - z0
        local_ptr = row_ptr[r0 : r1 + 1] - z0
        row_ids = np.arange(n_rows, dtype=np.int64)
        nnz_ids = np.arange(n_nnz, dtype=np.int64)
        row_of = np.repeat(row_ids, np.diff(local_ptr))
        block_col = col[z0:z1]

        total = 2 * n_rows + width * n_nnz
        ids = np.empty(total, dtype=np.int64)
        offsets = np.empty(total, dtype=np.int64)
        kinds = np.empty(total, dtype=np.uint8)

        prefix = width * local_ptr[:-1] + 2 * row_ids
        ids[prefix] = id_rp
        offsets[prefix] = (r0 + row_ids + 1) * IDX
        kinds[prefix] = KIND_STREAM

        body = width * nnz_ids + 2 * row_of + 1
        if ideal_indexing:
            ids[body] = id_av
            offsets[body] = (z0 + nnz_ids) * VAL
            kinds[body] = KIND_STREAM
            ids[body + 1] = id_x
            offsets[body + 1] = block_col * VAL
            kinds[body + 1] = KIND_STREAM
        else:
            ids[body] = id_ci
            offsets[body] = (z0 + nnz_ids) * IDX
            kinds[body] = KIND_STREAM
            ids[body + 1] = id_av
            offsets[body + 1] = (z0 + nnz_ids) * VAL
            kinds[body + 1] = KIND_STREAM
            # The x address depends on the loaded column index: this is the
            # pointer-chasing access the paper highlights.
            ids[body + 2] = id_x
            offsets[body + 2] = block_col * VAL
            kinds[body + 2] = KIND_DEPENDENT

        suffix = width * local_ptr[1:] + 2 * row_ids + 1
        ids[suffix] = id_y
        offsets[suffix] = (r0 + row_ids) * VAL
        kinds[suffix] = KIND_WRITE

        builder.add_columns(ids, offsets, kinds)
    instr.replay_trace(builder.build())

    instr.count_batch(
        {
            InstructionClass.LOAD: rows + width * nnz,
            InstructionClass.INDEX: rows * (1 if ideal_indexing else costs.index_per_row)
            + nnz * (1 if ideal_indexing else costs.index_per_nnz),
            InstructionClass.BRANCH: rows * costs.branch_per_row + nnz * costs.branch_per_nnz,
            InstructionClass.COMPUTE: nnz * costs.compute_per_nnz,
            InstructionClass.STORE: rows,
        }
    )

    products = csr.values * x[col]
    row_of_nnz = np.repeat(np.arange(rows, dtype=np.int64), np.diff(row_ptr))
    y = np.bincount(row_of_nnz, weights=products, minlength=rows) if nnz else np.zeros(rows)
    return y, instr.report()


@register_kernel("spmv", "taco_csr")
def spmv_csr_instrumented(
    csr: CSRMatrix, x: np.ndarray, config: Optional[SimConfig] = None
) -> KernelOutput:
    """TACO-style CSR SpMV (the paper's baseline)."""
    return _spmv_csr_like(csr, x, "taco_csr", CSRCosts(), False, config)


@register_kernel("spmv", "ideal_csr")
def spmv_ideal_csr_instrumented(
    csr: CSRMatrix, x: np.ndarray, config: Optional[SimConfig] = None
) -> KernelOutput:
    """CSR SpMV with idealized (free) position discovery, as in Figure 3."""
    return _spmv_csr_like(csr, x, "ideal_csr", CSRCosts(), True, config)


@register_kernel("spmv", "mkl_csr")
def spmv_mkl_csr_instrumented(
    csr: CSRMatrix, x: np.ndarray, config: Optional[SimConfig] = None
) -> KernelOutput:
    """MKL-like CSR SpMV: same traversal, lower loop overhead."""
    return _spmv_csr_like(csr, x, "mkl_csr", MKLCosts(), False, config)


# --------------------------------------------------------------------------- #
# BCSR
# --------------------------------------------------------------------------- #
@register_kernel("spmv", "taco_bcsr")
def spmv_bcsr_instrumented(
    bcsr: BCSRMatrix, x: np.ndarray, config: Optional[SimConfig] = None
) -> KernelOutput:
    """BCSR SpMV: one dense block multiply per stored block.

    BCSR needs one column-index load and one dependent ``x`` access per
    *block* instead of per element, but multiplies every stored element of
    the block, including the padding zeros. Each block's body is a fixed
    ``1 + br*bc + bc`` access pattern, so the whole trace scatters from 2-D
    broadcasts.
    """
    x = _check_vector(x, bcsr.cols)
    instr = KernelInstrumentation("spmv", "taco_bcsr", config)
    register_bcsr(instr, "A", bcsr)
    register_vector(instr, "x", bcsr.cols)
    register_vector(instr, "y", bcsr.rows)

    br, bc = bcsr.block_shape
    block_elems = br * bc
    block_rows = bcsr.block_rows
    n_blocks = bcsr.n_blocks
    block_ptr = bcsr.block_row_ptr.astype(np.int64, copy=False)
    all_block_col = bcsr.block_col_ind.astype(np.int64, copy=False)

    builder = instr.trace_builder()
    id_rp = builder.structure_id("A_block_row_ptr")
    id_ci = builder.structure_id("A_block_col_ind")
    id_blk = builder.structure_id("A_blocks")
    id_x = builder.structure_id("x")
    id_y = builder.structure_id("y")

    unit = 1 + block_elems + bc
    per_row = 1 + br
    chunk_rows = _rows_per_chunk(
        builder.chunk_accesses, block_rows, block_rows * per_row + n_blocks * unit
    )
    for r0 in range(0, block_rows, chunk_rows):
        r1 = min(block_rows, r0 + chunk_rows)
        z0, z1 = int(block_ptr[r0]), int(block_ptr[r1])
        n_rows = r1 - r0
        n_blk = z1 - z0
        local_ptr = block_ptr[r0 : r1 + 1] - z0
        row_ids = np.arange(n_rows, dtype=np.int64)
        blk_ids = np.arange(n_blk, dtype=np.int64)
        row_of = np.repeat(row_ids, np.diff(local_ptr))
        block_col = all_block_col[z0:z1]

        total = n_rows * per_row + n_blk * unit
        ids = np.empty(total, dtype=np.int64)
        offsets = np.empty(total, dtype=np.int64)
        kinds = np.empty(total, dtype=np.uint8)

        prefix = unit * local_ptr[:-1] + per_row * row_ids
        ids[prefix] = id_rp
        offsets[prefix] = (r0 + row_ids + 1) * IDX
        kinds[prefix] = KIND_STREAM

        start = unit * blk_ids + per_row * row_of + 1
        ids[start] = id_ci
        offsets[start] = (z0 + blk_ids) * IDX
        kinds[start] = KIND_STREAM
        elems = start[:, None] + 1 + np.arange(block_elems)
        ids[elems] = id_blk
        offsets[elems] = ((z0 + blk_ids)[:, None] * block_elems + np.arange(block_elems)) * VAL
        kinds[elems] = KIND_STREAM
        # The x sub-vector address depends on the loaded block column index:
        # first access dependent, the rest of the sub-vector streams.
        xpos = start[:, None] + 1 + block_elems + np.arange(bc)
        ids[xpos] = id_x
        offsets[xpos] = (block_col[:, None] * bc + np.arange(bc)) * VAL
        kinds[xpos] = KIND_STREAM
        kinds[xpos[:, 0]] = KIND_DEPENDENT

        suffix = (unit * local_ptr[1:] + per_row * row_ids + 1)[:, None] + np.arange(br)
        ids[suffix] = id_y
        offsets[suffix] = ((r0 + row_ids)[:, None] * br + np.arange(br)) * VAL
        kinds[suffix] = KIND_WRITE

        builder.add_columns(ids, offsets, kinds)
    instr.replay_trace(builder.build())

    instr.count_batch(
        {
            InstructionClass.LOAD: block_rows + n_blocks * unit,
            InstructionClass.INDEX: 3 * block_rows + 3 * n_blocks,
            InstructionClass.BRANCH: block_rows + n_blocks,
            InstructionClass.COMPUTE: 2 * block_elems * n_blocks,
            InstructionClass.STORE: block_rows * br,
        }
    )

    padded_x = np.zeros(bcsr.block_cols * bc, dtype=np.float64)
    padded_x[: bcsr.cols] = x
    x_blocks = padded_x.reshape(bcsr.block_cols, bc)
    y_blocks = np.zeros((block_rows, br), dtype=np.float64)
    if n_blocks:
        row_of_blk = np.repeat(np.arange(block_rows, dtype=np.int64), np.diff(block_ptr))
        contributions = np.einsum("kij,kj->ki", bcsr.blocks, x_blocks[all_block_col])
        np.add.at(y_blocks, row_of_blk, contributions)
    return y_blocks.reshape(-1)[: bcsr.rows], instr.report()


# --------------------------------------------------------------------------- #
# SMASH (software-only and hardware-accelerated)
# --------------------------------------------------------------------------- #
@register_kernel("spmv", "smash_sw")
def spmv_smash_software_instrumented(
    matrix: SMASHMatrix, x: np.ndarray, config: Optional[SimConfig] = None
) -> KernelOutput:
    """Software-only SMASH SpMV (Section 4.4): bitmap scanning on the CPU.

    The scan's bitmap word loads are planned as arrays, each with the block
    it precedes (:func:`~repro.kernels._smash.software_scan_plan`), and
    :meth:`~repro.kernels._smash.BlockBodies.splice` appends the block
    bodies with those loads inserted, one append per budget-sized window.
    """
    x = _check_vector(x, matrix.cols)
    instr = KernelInstrumentation("spmv", "smash_sw", config)
    register_smash(instr, "A", matrix)
    register_vector(instr, "x", matrix.cols)
    register_vector(instr, "y", matrix.rows)
    levels = matrix.hierarchy.levels
    for level in range(levels):
        instr.register_array(f"bitmap{level}", matrix.hierarchy.bitmap(level).storage_bytes())

    builder = instr.trace_builder()
    bodies = block_bodies(matrix, builder)
    load_levels, load_words, before, n_top_scans = software_scan_plan(matrix)
    # Structure ids in first-load order: the scan starts on the top level.
    level_ids = np.zeros(levels, dtype=np.int64)
    for level in (levels - 1, 0):
        if np.any(load_levels == level):
            level_ids[level] = builder.structure_id(f"bitmap{level}")
    word_loads = int(load_levels.size)
    bodies.splice(
        builder,
        before,
        level_ids[load_levels],
        load_words * WORD_BYTES,
        np.full(word_loads, KIND_STREAM, dtype=np.uint8),
    )
    instr.replay_trace(builder.build())

    costs = SMASHCosts()
    n_blocks = bodies.n_blocks
    n_elements = bodies.n_elements
    instr.count_batch(
        {
            InstructionClass.LOAD: word_loads + 2 * n_elements,
            # Per top-level hit: one bit scan. Per block: the Bitmap-0 scan
            # (4), the bit-to-coordinates arithmetic (5), and the block-body
            # address setup (index_per_block).
            InstructionClass.INDEX: 4 * n_top_scans
            + (4 + 5 + costs.index_per_block) * n_blocks
            + costs.index_per_element * n_elements,
            InstructionClass.BRANCH: costs.branch_per_block * n_blocks,
            InstructionClass.COMPUTE: costs.compute_per_element * n_elements,
            InstructionClass.STORE: costs.store_per_block * n_blocks,
        }
    )
    y = accumulate_spmv(matrix, bodies, x)
    return y, instr.report()


@register_kernel("spmv", "smash_hw")
def spmv_smash_hardware_instrumented(
    matrix: SMASHMatrix,
    x: np.ndarray,
    config: Optional[SimConfig] = None,
    bmu: Optional[BitmapManagementUnit] = None,
) -> KernelOutput:
    """Hardware-accelerated SMASH SpMV (Algorithm 1 of the paper).

    Indexing is performed by the BMU through the SMASH ISA: each non-zero
    block costs one ``PBMAP`` and one ``RDIND``; the bitmap traffic is the
    BMU's buffer refills rather than per-element loads. The window walk
    (:func:`~repro.kernels._smash.hardware_scan_plan`) gives the initial
    ``RDBMAP`` transfers, which precede the first block, and every reload
    with the block it precedes; :meth:`~repro.kernels._smash.BlockBodies.splice`
    appends the block bodies with those transfers inserted.
    """
    x = _check_vector(x, matrix.cols)
    instr = KernelInstrumentation("spmv", "smash_hw", config)
    register_smash(instr, "A", matrix)
    register_vector(instr, "x", matrix.cols)
    register_vector(instr, "y", matrix.rows)

    bmu = bmu or BitmapManagementUnit()
    group = bmu.group(0)
    buffer_bits = group.buffers[0].capacity_bits if group.buffers else 0
    setup_bytes, reload_before, reload_bytes, n_blocks = hardware_scan_plan(
        matrix, buffer_bits, len(group.buffers)
    )

    builder = instr.trace_builder()
    buffer_ids = []
    for level, n_bytes in enumerate(setup_bytes):
        name = f"bmu_bitmap_g0b{level}"
        instr.register_array(name, max(n_bytes, 64))
        buffer_ids.append(builder.structure_id(name))
    bodies = block_bodies(matrix, builder)
    # The initial RDBMAPs precede the first block; each reload refills the
    # Bitmap-0 buffer (level 0) right before the block it precedes.
    n_reloads = int(reload_before.size)
    transfer_before = np.concatenate([np.zeros(len(setup_bytes), dtype=np.int64), reload_before])
    transfer_ids = buffer_ids + [buffer_ids[0]] * n_reloads
    lines, offsets = bitmap_transfers(np.concatenate([setup_bytes, reload_bytes]))
    bodies.splice(
        builder,
        np.repeat(transfer_before, lines),
        np.repeat(transfer_ids, lines),
        offsets,
        np.full(offsets.size, KIND_STREAM, dtype=np.uint8),
    )
    instr.replay_trace(builder.build())

    costs = SMASHCosts()
    levels = matrix.config.levels
    n_elements = bodies.n_elements
    instr.count_batch(
        {
            # MATINFO + one BMAPINFO per level + one RDBMAP per buffered
            # level, then a PBMAP/RDIND pair per block and the final
            # exhausted PBMAP.
            InstructionClass.BMU: 1 + levels + len(setup_bytes) + 2 * n_blocks + 1,
            InstructionClass.LOAD: 2 * n_elements,
            InstructionClass.INDEX: costs.index_per_block * n_blocks
            + costs.index_per_element * n_elements,
            InstructionClass.BRANCH: costs.branch_per_block * n_blocks,
            InstructionClass.COMPUTE: costs.compute_per_element * n_elements,
            InstructionClass.STORE: costs.store_per_block * n_blocks,
        }
    )

    # Keep the (possibly caller-provided) BMU's observable counters in sync
    # with what the modelled scan did.
    group.pbmap_count = n_blocks + 1
    group.buffer_reloads = n_reloads
    group.blocks_found = n_blocks

    y = accumulate_spmv(matrix, bodies, x)
    report = instr.report()
    report.metadata["pbmap_count"] = float(n_blocks + 1)
    report.metadata["bmu_buffer_reloads"] = float(n_reloads)
    return y, report
