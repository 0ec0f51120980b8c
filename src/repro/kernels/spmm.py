"""Instrumented Sparse Matrix-Matrix multiplication kernels (batched engine).

All kernels compute the inner-product formulation ``C = A @ B`` the paper
uses (Code Listing 2 / Algorithm 2): the outer loops iterate over every
(row of A, column of B) pair and an index-matching merge determines which
non-zero pairs contribute to the dot product. The schemes differ in how that
index matching is performed:

* ``taco_csr`` / ``mkl_csr`` — merge the CSR ``col_ind`` of A's row with the
  CSC ``row_ind`` of B's column, element by element;
* ``ideal_csr`` — the matching positions are known for free (Figure 3);
* ``taco_bcsr`` — A is blocked 4x4; matching happens at block granularity
  against B's CSC column, at the cost of computing on block padding;
* ``smash_sw`` — both operands use the hierarchical bitmap encoding (B is
  encoded column-major, i.e. as the SMASH encoding of ``B^T``) and the block
  merge is driven by software bitmap scans;
* ``smash_hw`` — same data layout, but every scan step is a ``PBMAP``/
  ``RDIND`` pair executed by the BMU and the bitmaps are streamed into the
  BMU buffers by ``RDBMAP`` (Algorithm 2 of the paper).

The batched implementations have no per-(row, column) Python loop. Each row
of A runs one *keyed* merge against every column of B at once: with every
index keyed as ``column * span + index``, A's row replicated once per column
and B's column-major entries are two sorted arrays, one sort of their union
yields every pair's merge steps in order, and ``searchsorted`` gives both
cursors at each step (BCSR keys its two per-block ``searchsorted`` calls the
same way, once per block row). The row's trace — the
row-pointer load, then per column its pointer or bitmap loads, merge steps,
match loads and ``C`` write — is scattered in program order and appended
with one ``add_columns`` call. A row longer than the trace builder's chunk
budget is appended in tiles of whole columns that fit it, so peak trace
memory stays bounded (DESIGN.md section 10). Per-pair accumulators are
summed left to right (:func:`~repro.sim.trace.segment_sums`), exactly like
the sequential ``acc +=`` that decides the ``C`` writes, so cost reports are
bit-identical to the per-element reference kernels in
:mod:`repro.kernels.legacy`, at any chunk size.

Every function returns ``(C, CostReport)`` where ``C`` is a dense result
array.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels._costs import (
    IDX,
    VAL,
    CSRCosts,
    MKLCosts,
    register_bcsr,
    register_csc,
    register_csr,
    register_smash,
)
from repro.kernels._smash import row_block_table
from repro.kernels.registry import register_kernel
from repro.sim.config import SimConfig
from repro.sim.instrumentation import CostReport, InstructionClass, KernelInstrumentation
from repro.sim.trace import (
    KIND_DEPENDENT,
    KIND_STREAM,
    KIND_WRITE,
    TraceBuilder,
    exclusive_cumsum,
    grouped_arange,
    segment_sums,
)

KernelOutput = Tuple[np.ndarray, CostReport]


def _check_dims(a_shape, b_shape) -> None:
    if a_shape[1] != b_shape[0]:
        raise ValueError(f"inner dimensions do not match: {a_shape} x {b_shape}")


def _keyed(index: np.ndarray, ptr: np.ndarray, span: int) -> np.ndarray:
    """Merge keys ``column * span + index`` of a CSC-style ``(index, ptr)`` pair.

    Columns are stored in order and each column's indices ascend, so the keys
    are sorted; ``span`` exceeds every index, so columns never interleave.
    """
    column = np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))
    return column * span + index


def _keyed_merge(
    a_idx: np.ndarray, b_keys: np.ndarray, b_ptr: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-pointer merges of one sorted index row against every B column.

    Step ``t`` of a pair visits the pair's ``t``-th distinct index, where
    each cursor has consumed its elements smaller than it; one sort of the
    keyed union yields every pair's steps in order and ``searchsorted`` both
    cursors. ``ka < la and kb < lb`` is monotone within a pair, so filtering
    on it keeps exactly the steps of each pair's ``while ka < la and kb <
    lb`` loop. Returns ``(pair, ka, kb, match)`` per step in program order:
    ``ka`` indexes A's row, ``kb`` B's entries (absolute).
    """
    la = a_idx.size
    a_keys = (np.arange(b_ptr.size - 1, dtype=np.int64)[:, None] * span + a_idx).ravel()
    keys = np.concatenate((a_keys, b_keys))
    keys.sort(kind="stable")  # merges the two sorted runs
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    pair = keys // span
    ka = np.searchsorted(a_keys, keys) - pair * la
    kb = np.searchsorted(b_keys, keys)
    alive = (ka < la) & (kb < b_ptr[pair + 1])
    pair, ka, kb = pair[alive], ka[alive], kb[alive]
    return pair, ka, kb, b_keys[kb] == pair * span + a_idx[ka]


def _layout(
    head: int, pre: np.ndarray, body_pair: np.ndarray, body_len: np.ndarray, post: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-relative positions of one row's trace.

    The row is ``head`` accesses, then for each pair ``j`` in order
    ``pre[j]`` accesses, the pair's body items (``body_pair`` ascending,
    ``body_len`` accesses each) and ``post[j]`` accesses (a bool counts as
    0 or 1). Returns ``(pair_pos, body_pos, post_pos, pair_end)``.
    """
    counts = np.bincount(body_pair, minlength=pre.size)
    first = exclusive_cumsum(counts)
    csum = np.zeros(body_len.size + 1, dtype=np.int64)
    np.cumsum(body_len, out=csum[1:])
    body_total = csum[first + counts] - csum[first]
    length = pre + body_total + post
    pair_end = head + np.cumsum(length)
    pair_pos = pair_end - length
    body_pos = (pair_pos + pre - csum[first])[body_pair] + csum[:-1]
    return pair_pos, body_pos, pair_pos + pre + body_total, pair_end


def _row_cuts(head: int, pair_end: np.ndarray, budget: Optional[int]) -> List[int]:
    """Append boundaries for one row's trace.

    The whole row when it fits the chunk budget (or chunking is off);
    otherwise the longest runs of whole pairs that fit, cutting only after
    the head or between pairs, so a piece exceeds the budget only when it
    is a single oversized pair (or head).
    """
    total = int(pair_end[-1]) if pair_end.size else head
    if budget is None or total <= budget:
        return [0, total]
    ends = np.concatenate(([head], pair_end))
    cuts = [0]
    while cuts[-1] < total:
        fit = int(np.searchsorted(ends, cuts[-1] + budget, side="right")) - 1
        if fit < 0 or ends[fit] <= cuts[-1]:
            fit += 1
        cuts.append(int(ends[fit]))
    return cuts


#: One run of a row's trace: ``(positions, structure id, offsets, kind)``,
#: positions ascending and row-relative.
Part = Tuple[np.ndarray, int, np.ndarray, int]


def _emit_row(builder: TraceBuilder, parts: List[Part], cuts: List[int]) -> None:
    """Scatter one row's parts into trace columns, one append per cut."""
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ids = np.empty(hi - lo, dtype=np.int64)
        offsets = np.empty(hi - lo, dtype=np.int64)
        kinds = np.full(hi - lo, KIND_STREAM, dtype=np.uint8)
        for positions, sid, offs, kind in parts:
            first, last = np.searchsorted(positions, (lo, hi))
            at = positions[first:last] - lo
            ids[at] = sid
            offsets[at] = offs[first:last]
            if kind != KIND_STREAM:
                kinds[at] = kind
        builder.add_columns(ids, offsets, kinds)


# --------------------------------------------------------------------------- #
# CSR x CSC inner product
# --------------------------------------------------------------------------- #
def _spmm_csr_like(
    a_csr: CSRMatrix,
    b_csc: CSCMatrix,
    scheme: str,
    costs: CSRCosts,
    ideal_indexing: bool,
    config: Optional[SimConfig],
) -> KernelOutput:
    _check_dims(a_csr.shape, b_csc.shape)
    instr = KernelInstrumentation("spmm", scheme, config)
    register_csr(instr, "A", a_csr)
    register_csc(instr, "B", b_csc)
    instr.register_array("C", a_csr.rows * b_csc.cols * VAL)

    n_cols = b_csc.cols
    c = np.zeros((a_csr.rows, n_cols), dtype=np.float64)
    builder = instr.trace_builder()
    id_aci = builder.structure_id("A_col_ind")
    id_bri = builder.structure_id("B_row_ind")
    id_av = builder.structure_id("A_values")
    id_bv = builder.structure_id("B_values")
    id_rp = builder.structure_id("A_row_ptr")
    id_cp = builder.structure_id("B_col_ptr")
    id_c = builder.structure_id("C")

    b_ptr = b_csc.col_ptr.astype(np.int64)
    span = max(b_csc.rows, 1)
    b_keys = _keyed(b_csc.row_ind.astype(np.int64), b_ptr, span)
    columns = np.arange(n_cols, dtype=np.int64)
    ptr_loads = np.ones(n_cols, dtype=np.int64)

    busy_rows = 0
    total_steps = 0
    total_matches = 0
    for i in range(a_csr.rows):
        a_start, a_end = int(a_csr.row_ptr[i]), int(a_csr.row_ptr[i + 1])
        if a_start == a_end:
            builder.add_one("A_row_ptr", (i + 1) * IDX, KIND_STREAM)
            continue
        busy_rows += 1
        a_cols = a_csr.col_ind[a_start:a_end].astype(np.int64)
        pair, ka, kb, match = _keyed_merge(a_cols, b_keys, b_ptr, span)
        m_pair, m_ka, m_kb = pair[match], ka[match], kb[match]
        total_matches += m_pair.size
        acc = segment_sums(
            a_csr.values[a_start + m_ka] * b_csc.values[m_kb],
            np.bincount(m_pair, minlength=n_cols),
        )
        written = acc != 0.0
        c[i, written] = acc[written]
        parts: List[Part] = [
            (np.zeros(1, dtype=np.int64), id_rp, np.array([(i + 1) * IDX]), KIND_STREAM)
        ]
        if ideal_indexing:
            # Matching positions known a priori: only touch the matches.
            pair_pos, body_pos, post_pos, pair_end = _layout(
                1, ptr_loads, m_pair, np.full(m_pair.size, 2, dtype=np.int64), written
            )
            parts += [
                (body_pos, id_av, (a_start + m_ka) * VAL, KIND_STREAM),
                (body_pos + 1, id_bv, m_kb * VAL, KIND_STREAM),
            ]
        else:
            # Index matching: load both indices and compare, then touch
            # both values on a match.
            total_steps += pair.size
            pair_pos, body_pos, post_pos, pair_end = _layout(
                1, ptr_loads, pair, np.where(match, 4, 2), written
            )
            match_pos = body_pos[match]
            parts += [
                (body_pos, id_aci, (a_start + ka) * IDX, KIND_STREAM),
                (body_pos + 1, id_bri, kb * IDX, KIND_STREAM),
                (match_pos + 2, id_av, (a_start + m_ka) * VAL, KIND_STREAM),
                (match_pos + 3, id_bv, m_kb * VAL, KIND_STREAM),
            ]
        parts += [
            (pair_pos, id_cp, (columns + 1) * IDX, KIND_STREAM),
            (post_pos[written], id_c, (i * n_cols + columns[written]) * VAL, KIND_WRITE),
        ]
        _emit_row(builder, parts, _row_cuts(1, pair_end, builder.chunk_accesses))

    instr.replay_trace(builder.build())
    rows_visited = a_csr.rows
    pairs_visited = busy_rows * n_cols
    per_step_index = 2 if not ideal_indexing else 0
    per_step_branch = costs.branch_per_nnz if not ideal_indexing else 0
    stores = int(np.count_nonzero(c))
    instr.count_batch(
        {
            InstructionClass.LOAD: rows_visited
            + pairs_visited
            + 2 * total_steps
            + 2 * total_matches,
            InstructionClass.INDEX: (rows_visited + pairs_visited) * costs.index_per_row
            + per_step_index * total_steps,
            InstructionClass.BRANCH: (rows_visited + pairs_visited) * costs.branch_per_row
            + per_step_branch * total_steps,
            InstructionClass.COMPUTE: (2 if ideal_indexing else costs.compute_per_nnz)
            * total_matches,
            InstructionClass.STORE: stores,
        }
    )
    return c, instr.report()


@register_kernel("spmm", "taco_csr")
def spmm_csr_instrumented(
    a_csr: CSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """TACO-style CSR x CSC inner-product SpMM (the paper's baseline)."""
    return _spmm_csr_like(a_csr, b_csc, "taco_csr", CSRCosts(), False, config)


@register_kernel("spmm", "ideal_csr")
def spmm_ideal_csr_instrumented(
    a_csr: CSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """SpMM with idealized (free) index matching, as in Figure 3."""
    return _spmm_csr_like(a_csr, b_csc, "ideal_csr", CSRCosts(), True, config)


@register_kernel("spmm", "mkl_csr")
def spmm_mkl_csr_instrumented(
    a_csr: CSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """MKL-like CSR x CSC SpMM: same traversal, lower loop overhead."""
    return _spmm_csr_like(a_csr, b_csc, "mkl_csr", MKLCosts(), False, config)


# --------------------------------------------------------------------------- #
# BCSR x CSC
# --------------------------------------------------------------------------- #
@register_kernel("spmm", "taco_bcsr")
def spmm_bcsr_instrumented(
    a_bcsr: BCSRMatrix, b_csc: CSCMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """BCSR(A) x CSC(B) inner-product SpMM.

    Index matching happens at A's block granularity: for each block row of A
    and each column of B, every stored block of the block row is matched
    against the B entries whose row index falls inside the block's column
    range. Each match multiplies a full block column (including padding
    zeros) by the B value. Per block row, the advance/match structure of
    every (column, block) pair comes from two searchsorted calls over B's
    keyed row indices.
    """
    _check_dims(a_bcsr.shape, b_csc.shape)
    instr = KernelInstrumentation("spmm", "taco_bcsr", config)
    register_bcsr(instr, "A", a_bcsr)
    register_csc(instr, "B", b_csc)
    instr.register_array("C", a_bcsr.rows * b_csc.cols * VAL)

    br, bc = a_bcsr.block_shape
    block_elems = br * bc
    n_cols = b_csc.cols
    c = np.zeros((a_bcsr.block_rows * br, n_cols), dtype=np.float64)
    builder = instr.trace_builder()
    id_bci = builder.structure_id("A_block_col_ind")
    id_bri = builder.structure_id("B_row_ind")
    id_blk = builder.structure_id("A_blocks")
    id_bv = builder.structure_id("B_values")
    id_rp = builder.structure_id("A_block_row_ptr")
    id_cp = builder.structure_id("B_col_ptr")
    id_c = builder.structure_id("C")
    match_unit = 1 + br + 1
    block_r = np.arange(br, dtype=np.int64)

    b_ptr = b_csc.col_ptr.astype(np.int64)
    b_rows = b_csc.row_ind.astype(np.int64)
    # Padded block columns reach past A's last column: keep every block's
    # column range inside its B column's key range.
    span = max(b_csc.rows, a_bcsr.block_cols * bc, 1)
    b_keys = _keyed(b_rows, b_ptr, span)
    columns = np.arange(n_cols, dtype=np.int64)
    busy = np.flatnonzero(np.diff(b_ptr))  # columns of B with entries
    ptr_loads = np.ones(n_cols, dtype=np.int64)

    block_rows_visited = a_bcsr.block_rows
    busy_block_rows = 0
    blocks_visited = 0
    total_skips = 0
    total_matches = 0
    total_stores = 0
    for bi in range(a_bcsr.block_rows):
        blk_start, blk_end = int(a_bcsr.block_row_ptr[bi]), int(a_bcsr.block_row_ptr[bi + 1])
        if blk_start == blk_end:
            builder.add_one("A_block_row_ptr", (bi + 1) * IDX, KIND_STREAM)
            continue
        busy_block_rows += 1
        n_blk = blk_end - blk_start
        blocks = np.tile(np.arange(blk_start, blk_end, dtype=np.int64), busy.size)
        col_lo = np.tile(a_bcsr.block_col_ind[blk_start:blk_end].astype(np.int64) * bc, busy.size)
        pair = np.repeat(busy, n_blk)
        # Per (column, block): the B cursor before the block (the previous
        # block's range start), the first entry in its range and past it.
        s_lo = np.searchsorted(b_keys, pair * span + col_lo)
        s_hi = np.searchsorted(b_keys, pair * span + col_lo + bc)
        kb_prev = np.empty_like(s_lo)
        kb_prev[1:] = s_lo[:-1]
        kb_prev[::n_blk] = b_ptr[busy]
        n_skip = s_lo - kb_prev
        n_match = s_hi - s_lo
        blocks_visited += pair.size
        total_skips += int(n_skip.sum())
        matches_here = int(n_match.sum())
        total_matches += matches_here

        kk = np.repeat(s_lo, n_match) + grouped_arange(n_match)
        local_col = b_rows[kk] - np.repeat(col_lo, n_match)
        blk_of = np.repeat(blocks, n_match)
        pair_matches = np.bincount(np.repeat(pair, n_match), minlength=n_cols)
        touched = pair_matches > 0
        if matches_here:
            products = a_bcsr.blocks[blk_of, :, local_col] * b_csc.values[kk][:, None]
            sums = segment_sums(products, pair_matches)
            c[bi * br:(bi + 1) * br, touched] += sums[touched].T
        total_stores += br * int(touched.sum())
        pair_pos, body_pos, post_pos, pair_end = _layout(
            1, ptr_loads, pair, 1 + n_skip + match_unit * n_match, br * touched
        )
        # Per block: its column-index load, the B_row_ind loads that advance
        # the column pointer, and one match event per B entry inside the
        # block's columns (its index, a block column, the dependent B value).
        skip_at = grouped_arange(n_skip)
        event = np.repeat(body_pos + 1 + n_skip, n_match) + match_unit * grouped_arange(n_match)
        c_rows = bi * br + block_r
        parts: List[Part] = [
            (np.zeros(1, dtype=np.int64), id_rp, np.array([(bi + 1) * IDX]), KIND_STREAM),
            (pair_pos, id_cp, (columns + 1) * IDX, KIND_STREAM),
            (body_pos, id_bci, blocks * IDX, KIND_STREAM),
            (
                np.repeat(body_pos + 1, n_skip) + skip_at,
                id_bri,
                (np.repeat(kb_prev, n_skip) + skip_at) * IDX,
                KIND_STREAM,
            ),
            (event, id_bri, kk * IDX, KIND_STREAM),
            (
                (event[:, None] + 1 + block_r).ravel(),
                id_blk,
                ((blk_of * block_elems + local_col)[:, None] + block_r * bc).ravel() * VAL,
                KIND_STREAM,
            ),
            (event + 1 + br, id_bv, kk * VAL, KIND_DEPENDENT),
            (
                (post_pos[touched][:, None] + block_r).ravel(),
                id_c,
                (c_rows * n_cols + columns[touched][:, None]).ravel() * VAL,
                KIND_WRITE,
            ),
        ]
        _emit_row(builder, parts, _row_cuts(1, pair_end, builder.chunk_accesses))

    instr.replay_trace(builder.build())
    pairs_visited = busy_block_rows * n_cols
    instr.count_batch(
        {
            InstructionClass.LOAD: block_rows_visited
            + pairs_visited
            + blocks_visited
            + total_skips
            + (1 + br + 1) * total_matches,
            InstructionClass.INDEX: 3 * block_rows_visited
            + 2 * pairs_visited
            + 2 * blocks_visited
            + 2 * total_skips
            + 2 * total_matches,
            InstructionClass.BRANCH: block_rows_visited
            + pairs_visited
            + blocks_visited
            + total_skips
            + total_matches,
            InstructionClass.COMPUTE: 2 * br * total_matches,
            InstructionClass.STORE: total_stores,
        }
    )
    return c[: a_bcsr.rows, :], instr.report()


# --------------------------------------------------------------------------- #
# SMASH (software-only and hardware-accelerated)
# --------------------------------------------------------------------------- #
def _spmm_smash_common(
    a: SMASHMatrix,
    b_transposed: SMASHMatrix,
    scheme: str,
    hardware: bool,
    config: Optional[SimConfig],
) -> KernelOutput:
    """Shared implementation of the two SMASH SpMM variants.

    ``b_transposed`` is the SMASH encoding of ``B^T``: its rows are B's
    columns, which is the access order the inner-product algorithm needs
    (the paper compresses B with a column-major bitmap for the same reason).
    """
    if a.cols != b_transposed.cols:
        raise ValueError(
            f"A has {a.cols} columns but B (transposed) rows have length {b_transposed.cols}"
        )
    if a.block_size != b_transposed.block_size:
        raise ValueError("both operands must use the same Bitmap-0 block size for SpMM")
    if a.cols % a.block_size != 0:
        raise ValueError(
            "the instrumented SMASH SpMM requires the row length to be a multiple of the "
            "Bitmap-0 block size so that NZA blocks never straddle row boundaries; "
            f"got {a.cols} columns with block size {a.block_size} "
            "(pad the matrix or pick a block size that divides the column count)"
        )
    instr = KernelInstrumentation("spmm", scheme, config)
    register_smash(instr, "A", a)
    register_smash(instr, "B", b_transposed)
    instr.register_array("A_bitmap0", a.hierarchy.base.storage_bytes())
    instr.register_array("B_bitmap0", b_transposed.hierarchy.base.storage_bytes())
    n_rows, n_cols = a.rows, b_transposed.rows
    instr.register_array("C", n_rows * n_cols * VAL)

    block = a.block_size
    a_bounds, a_offsets, a_nza = row_block_table(a)
    b_bounds, b_offsets, b_nza = row_block_table(b_transposed)
    a_data = a.nza.data.reshape(-1, block) if a.nza.n_blocks else a.nza.data.reshape(0, block)
    b_data = (
        b_transposed.nza.data.reshape(-1, block)
        if b_transposed.nza.n_blocks
        else b_transposed.nza.data.reshape(0, block)
    )
    c = np.zeros((n_rows, n_cols), dtype=np.float64)
    builder = instr.trace_builder()
    id_an = builder.structure_id("A_nza")
    id_bn = builder.structure_id("B_nza")
    id_abm = builder.structure_id("A_bitmap0")
    id_bbm = builder.structure_id("B_bitmap0")
    id_c = builder.structure_id("C")

    span = max(a.cols, 1)
    b_keys = _keyed(b_offsets, b_bounds, span)
    bitmap_words_per_row = max(1, -(-(a.cols // block) // 64))
    # Bitmap-window read per row of A and per column of B: one RDBMAP for
    # the BMU, explicit word loads for the software scan.
    window = 1 if hardware else bitmap_words_per_row
    window_at = np.arange(window, dtype=np.int64)
    word_offsets = window_at * 8
    row_bytes = bitmap_words_per_row * 8
    columns = np.arange(n_cols, dtype=np.int64)
    b_windows = (columns[:, None] * row_bytes + word_offsets).ravel()
    window_loads = np.full(n_cols, window, dtype=np.int64)
    elems = np.arange(block, dtype=np.int64)
    bitmap_reads = 0
    total_steps = 0
    total_matches = 0
    stores = 0

    for i in range(n_rows):
        bitmap_reads += 1
        lo, hi = int(a_bounds[i]), int(a_bounds[i + 1])
        if lo == hi:
            builder.add("A_bitmap0", i * row_bytes + word_offsets, KIND_STREAM)
            continue
        bitmap_reads += n_cols
        pair, ka, kb, match = _keyed_merge(a_offsets[lo:hi], b_keys, b_bounds, span)
        total_steps += pair.size
        m_pair = pair[match]
        nza_a = a_nza[lo + ka[match]]
        nza_b = b_nza[kb[match]]
        total_matches += m_pair.size
        # Stacked matmul computes each block's dot like the reference
        # kernel's np.dot (einsum would sum the block in another order).
        dots = np.matmul(a_data[nza_a][:, None, :], b_data[nza_b][:, :, None])[:, 0, 0]
        acc = segment_sums(dots, np.bincount(m_pair, minlength=n_cols))
        written = acc != 0.0
        c[i, written] = acc[written]
        stores += int(written.sum())
        pair_pos, body_pos, post_pos, pair_end = _layout(
            window,
            window_loads,
            m_pair,
            np.full(m_pair.size, 2 * block, dtype=np.int64),
            written,
        )
        # Each matching block pair streams both blocks, element-interleaved.
        a_at = (body_pos[:, None] + 2 * elems).ravel()
        parts: List[Part] = [
            (window_at, id_abm, i * row_bytes + word_offsets, KIND_STREAM),
            ((pair_pos[:, None] + window_at).ravel(), id_bbm, b_windows, KIND_STREAM),
            (a_at, id_an, (nza_a[:, None] * block + elems).ravel() * VAL, KIND_STREAM),
            (a_at + 1, id_bn, (nza_b[:, None] * block + elems).ravel() * VAL, KIND_STREAM),
            (post_pos[written], id_c, (i * n_cols + columns[written]) * VAL, KIND_WRITE),
        ]
        _emit_row(builder, parts, _row_cuts(window, pair_end, builder.chunk_accesses))

    instr.replay_trace(builder.build())
    counts = {
        InstructionClass.LOAD: (0 if hardware else bitmap_words_per_row * bitmap_reads)
        + 2 * block * total_matches,
        InstructionClass.INDEX: (1 if hardware else 4) * total_steps,
        InstructionClass.BRANCH: total_steps,
        InstructionClass.COMPUTE: 2 * block * total_matches,
        InstructionClass.STORE: stores,
    }
    if hardware:
        # Setup (Algorithm 2 lines 2-5) plus one RDBMAP per bitmap-window
        # read and a PBMAP/RDIND pair per merge step.
        counts[InstructionClass.BMU] = (
            2 + a.config.levels + b_transposed.config.levels + bitmap_reads + 2 * total_steps
        )
    instr.count_batch(counts)
    return c, instr.report()


@register_kernel("spmm", "smash_sw")
def spmm_smash_software_instrumented(
    a: SMASHMatrix, b_transposed: SMASHMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """Software-only SMASH SpMM: block-granular index matching in software."""
    return _spmm_smash_common(a, b_transposed, "smash_sw", False, config)


@register_kernel("spmm", "smash_hw")
def spmm_smash_hardware_instrumented(
    a: SMASHMatrix, b_transposed: SMASHMatrix, config: Optional[SimConfig] = None
) -> KernelOutput:
    """Hardware-accelerated SMASH SpMM (Algorithm 2 of the paper)."""
    return _spmm_smash_common(a, b_transposed, "smash_hw", True, config)
