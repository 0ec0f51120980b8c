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

The batched implementations have no Python loop over rows or (row,
column) pairs. Each kernel plans a *window* of A's rows at once, sized by
a per-row bound on merge steps (:data:`WINDOW_STEPS`). In a window, pair
``k * n_cols + column`` merges busy row ``k`` with one column of B: keyed
as ``pair * span + index``, the entries each pair's merge can reach on
either side form two sorted runs, one sort merges them, and counts of the
entries merged ahead of each step give both cursors (BCSR matches whole
blocks with two ``searchsorted`` calls over every (row, column, block)
item instead). The window's trace — per row its head (row pointer or
bitmap window), then per pair its pointer or bitmap loads, merge steps,
match loads and ``C`` write — is laid out in program order and appended in
windows of the trace builder's chunk budget, so peak trace memory stays
bounded (DESIGN.md section 10). Per-pair accumulators are summed left to
right (:func:`~repro.sim.trace.segment_sums`), exactly like the sequential
``acc +=`` that decides the ``C`` writes, so cost reports are
bit-identical to the per-element reference kernels in
:mod:`repro.kernels.legacy`, at any chunk size.

Every function returns ``(C, CostReport)`` where ``C`` is a dense result
array.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

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
    Columns,
    TraceBuilder,
    exclusive_cumsum,
    grouped_arange,
    segment_sums,
)

KernelOutput = Tuple[np.ndarray, CostReport]

#: Row-window limit: the most merge steps (by the per-row upper bound) one
#: window plans, so planning scratch stays bounded at any dimension.
WINDOW_STEPS = 1 << 16


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


def _row_windows(
    row_len: np.ndarray, n_cols: int, nnz_b: int
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Split rows into windows of at most :data:`WINDOW_STEPS` merge steps.

    A row with ``la`` entries takes at most ``la * n_cols + nnz_b`` steps
    (an empty row none). A window holds at least one row, so a row over the
    limit is planned alone. Yields ``(r0, r1, busy, rows)``: ``busy`` flags
    the window's non-empty rows and ``rows`` lists them.
    """
    ends = np.cumsum(row_len * n_cols + (row_len > 0) * nnz_b)
    lo = 0
    while lo < row_len.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + WINDOW_STEPS, side="right")), lo + 1)
        busy = row_len[lo:hi] > 0
        yield lo, hi, busy, np.flatnonzero(busy) + lo
        lo = hi


def _keyed_merge(
    a_idx: np.ndarray, la: np.ndarray, b_keys: np.ndarray, b_ptr: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-pointer merges of a window of sorted index rows against every B column.

    ``a_idx`` holds the rows back to back, row ``k`` being the next
    ``la[k] > 0`` entries. Pair ``k * n_cols + column`` merges row ``k``
    with one B column; its ``while ka < la and kb < lb`` loop visits, in
    order, the distinct indices up to the smaller of the two last indices,
    and each side's entries up to that bound are a prefix of it. Keyed as
    ``pair * span + index``, the A prefixes of every pair and the B
    prefixes of every pair are two sorted runs; one sort merges them,
    tagged by origin in the low bit (A's copy of a shared key sorts first).
    Each distinct key is one step, and the B entries merged ahead of it
    give both cursors. Returns ``(pair, ka, kb, match)`` per step in
    program order: ``ka`` indexes ``a_idx``, ``kb`` B's entries.
    """
    n_cols = b_ptr.size - 1
    a_ptr = np.zeros(la.size + 1, dtype=np.int64)
    np.cumsum(la, out=a_ptr[1:])
    row_base = np.arange(la.size, dtype=np.int64) * span
    col_base = np.arange(n_cols, dtype=np.int64) * span
    a_keys = np.repeat(row_base, la) + a_idx
    # Each row's and column's last index (-1: an empty column takes no step).
    a_last = a_idx[a_ptr[1:] - 1]
    b_last = np.full(n_cols, -1, dtype=np.int64)
    filled = np.flatnonzero(np.diff(b_ptr))
    b_last[filled] = b_keys[b_ptr[filled + 1] - 1] - col_base[filled]
    # Per pair: the entries each side takes (a prefix), and the shift from
    # a run position to its entry index.
    a_take = np.searchsorted(a_keys, row_base[:, None] + b_last, "right") - a_ptr[:-1, None]
    b_take = np.searchsorted(b_keys, col_base + a_last[:, None], "right") - b_ptr[:-1]
    a_take, b_take = a_take.ravel(), b_take.ravel()
    a_shift = exclusive_cumsum(a_take) - np.repeat(a_ptr[:-1], n_cols)
    b_shift = exclusive_cumsum(b_take) - np.tile(b_ptr[:-1], la.size)
    pair_base = np.arange(a_take.size, dtype=np.int64) * (2 * span)
    a_run = np.repeat(pair_base - np.repeat(2 * row_base, n_cols), a_take)
    a_run += 2 * a_keys[np.arange(a_run.size, dtype=np.int64) - np.repeat(a_shift, a_take)]
    b_run = np.repeat(pair_base - np.tile(2 * col_base, la.size) + 1, b_take)
    b_run += 2 * b_keys[np.arange(b_run.size, dtype=np.int64) - np.repeat(b_shift, b_take)]
    merged = np.concatenate((a_run, b_run))
    merged.sort(kind="stable")  # merges the two sorted runs
    from_b = merged & 1
    key = merged >> 1
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    step = np.flatnonzero(first)
    b_seen = np.cumsum(from_b)[step] - from_b[step]
    pair = key[step] // span
    match = np.diff(step, append=key.size) == 2  # an A and a B copy
    return pair, step - b_seen - a_shift[pair], b_seen - b_shift[pair], match


def _layout(
    head: int,
    busy: np.ndarray,
    n_cols: int,
    pre: int,
    body_pair: np.ndarray,
    body_len: np.ndarray,
    post: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Window-relative positions of a row window's trace.

    Every row is ``head`` accesses; a busy row (``busy`` flags one per row)
    then has ``n_cols`` pairs. Pair ``p`` (busy row ``p // n_cols``) is
    ``pre`` accesses, its body items (``body_pair`` ascending, ``body_len``
    accesses each) and ``post[p]`` accesses (a bool counts as 0 or 1).
    Returns ``(row_pos, pair_pos, body_pos, post_pos, total)``.
    """
    counts = np.bincount(body_pair, minlength=post.size)
    first = exclusive_cumsum(counts)
    csum = np.zeros(body_len.size + 1, dtype=np.int64)
    np.cumsum(body_len, out=csum[1:])
    body_total = csum[first + counts] - csum[first]
    ends = np.zeros(post.size + 1, dtype=np.int64)
    np.cumsum(pre + body_total + post, out=ends[1:])
    row_pos = head * np.arange(busy.size, dtype=np.int64) + ends[exclusive_cumsum(busy) * n_cols]
    pair_pos = head * np.repeat(np.flatnonzero(busy) + 1, n_cols) + ends[:-1]
    body_pos = (pair_pos + pre - csum[first])[body_pair] + csum[:-1]
    total = head * busy.size + int(ends[-1])
    return row_pos, pair_pos, body_pos, pair_pos + pre + body_total, total


#: One run of a window's trace: ``(positions, structure id, offsets, kind)``,
#: positions ascending and window-relative.
Part = Tuple[np.ndarray, int, np.ndarray, int]


def _emit(builder: TraceBuilder, parts: List[Part], total: int) -> None:
    """Scatter a window's parts into trace columns, one append per budget window."""

    def window(lo: int, hi: int) -> Columns:
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
        return ids, offsets, kinds

    builder.add_windows(total, window)


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
    row_ptr = a_csr.row_ptr.astype(np.int64)
    a_cols = a_csr.col_ind.astype(np.int64)
    c_flat = c.reshape(-1)
    row_len = np.diff(row_ptr)

    # One row window per call: its planning scratch is freed on return,
    # before the next window and before replay.
    def emit_window(r0: int, r1: int, busy: np.ndarray, rows: np.ndarray) -> Tuple[int, ...]:
        a0 = int(row_ptr[r0])
        pair, ka, kb, match = _keyed_merge(
            a_cols[a0:row_ptr[r1]], row_len[rows], b_keys, b_ptr, span
        )
        ka += a0
        m_pair, m_ka, m_kb = pair[match], ka[match], kb[match]
        c_at = (rows[:, None] * n_cols + columns).ravel()
        acc = segment_sums(
            a_csr.values[m_ka] * b_csc.values[m_kb], np.bincount(m_pair, minlength=c_at.size)
        )
        written = acc != 0.0
        c_flat[c_at[written]] = acc[written]
        if ideal_indexing:
            # Matching positions known a priori: only touch the matches.
            row_pos, pair_pos, body_pos, post_pos, total = _layout(
                1, busy, n_cols, 1, m_pair, np.full(m_pair.size, 2, dtype=np.int64), written
            )
            parts: List[Part] = [
                (body_pos, id_av, m_ka * VAL, KIND_STREAM),
                (body_pos + 1, id_bv, m_kb * VAL, KIND_STREAM),
            ]
        else:
            # Index matching: load both indices and compare, then touch
            # both values on a match.
            row_pos, pair_pos, body_pos, post_pos, total = _layout(
                1, busy, n_cols, 1, pair, np.where(match, 4, 2), written
            )
            match_pos = body_pos[match]
            parts = [
                (body_pos, id_aci, ka * IDX, KIND_STREAM),
                (body_pos + 1, id_bri, kb * IDX, KIND_STREAM),
                (match_pos + 2, id_av, m_ka * VAL, KIND_STREAM),
                (match_pos + 3, id_bv, m_kb * VAL, KIND_STREAM),
            ]
        parts += [
            (row_pos, id_rp, np.arange(r0 + 1, r1 + 1, dtype=np.int64) * IDX, KIND_STREAM),
            (pair_pos, id_cp, np.tile(columns + 1, rows.size) * IDX, KIND_STREAM),
            (post_pos[written], id_c, c_at[written] * VAL, KIND_WRITE),
        ]
        _emit(builder, parts, total)
        return (0 if ideal_indexing else pair.size), m_pair.size

    totals = np.zeros(2, dtype=np.int64)
    for bounds in _row_windows(row_len, n_cols, b_keys.size):
        totals += emit_window(*bounds)
    total_steps, total_matches = (int(t) for t in totals)

    instr.replay_trace(builder.build())
    rows_visited = a_csr.rows
    pairs_visited = int(np.count_nonzero(row_len)) * n_cols
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
    zeros) by the B value. Per row window, the advance/match structure of
    every (block row, column, block) item comes from two searchsorted calls
    over B's keyed row indices.
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
    busy_cols = np.flatnonzero(np.diff(b_ptr))  # columns of B with entries
    row_ptr = a_bcsr.block_row_ptr.astype(np.int64)
    col_ind = a_bcsr.block_col_ind.astype(np.int64)
    row_len = np.diff(row_ptr)

    block_rows_visited = a_bcsr.block_rows

    # One row window per call (scratch freed on return, as for CSR).
    def emit_window(r0: int, r1: int, busy: np.ndarray, rows: np.ndarray) -> Tuple[int, ...]:
        # One item per (block row, busy column, block), in program order.
        group_len = np.repeat(row_len[rows], busy_cols.size)
        group = np.repeat(np.arange(group_len.size, dtype=np.int64), group_len)
        row, col = np.divmod(group, max(busy_cols.size, 1))
        blocks = row_ptr[rows][row] + grouped_arange(group_len)
        col = busy_cols[col]
        pair = row * n_cols + col
        col_lo = col_ind[blocks] * bc
        # Per item: the B cursor before the block (the previous block's
        # range start), the first entry in its range and past it.
        s_lo = np.searchsorted(b_keys, col * span + col_lo)
        s_hi = np.searchsorted(b_keys, col * span + col_lo + bc)
        kb_prev = np.empty_like(s_lo)
        kb_prev[1:] = s_lo[:-1]
        group_first = exclusive_cumsum(group_len)
        kb_prev[group_first] = b_ptr[col[group_first]]
        n_skip = s_lo - kb_prev
        n_match = s_hi - s_lo

        kk = np.repeat(s_lo, n_match) + grouped_arange(n_match)
        local_col = b_rows[kk] - np.repeat(col_lo, n_match)
        blk_of = np.repeat(blocks, n_match)
        pair_matches = np.bincount(np.repeat(pair, n_match), minlength=rows.size * n_cols)
        touched = pair_matches > 0
        hit = np.flatnonzero(touched)
        c_rows = (rows * br)[hit // n_cols][:, None] + block_r
        c_cols = (hit % n_cols)[:, None]
        if hit.size:
            products = a_bcsr.blocks[blk_of, :, local_col] * b_csc.values[kk][:, None]
            c[c_rows, c_cols] += segment_sums(products, pair_matches)[hit]
        row_pos, pair_pos, body_pos, post_pos, total = _layout(
            1, busy, n_cols, 1, pair, 1 + n_skip + match_unit * n_match, br * touched
        )
        # Per block: its column-index load, the B_row_ind loads that advance
        # the column pointer, and one match event per B entry inside the
        # block's columns (its index, a block column, the dependent B value).
        skip_at = grouped_arange(n_skip)
        event = np.repeat(body_pos + 1 + n_skip, n_match) + match_unit * grouped_arange(n_match)
        parts: List[Part] = [
            (row_pos, id_rp, np.arange(r0 + 1, r1 + 1, dtype=np.int64) * IDX, KIND_STREAM),
            (pair_pos, id_cp, np.tile(columns + 1, rows.size) * IDX, KIND_STREAM),
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
                (c_rows * n_cols + c_cols).ravel() * VAL,
                KIND_WRITE,
            ),
        ]
        _emit(builder, parts, total)
        return pair.size, int(n_skip.sum()), int(n_match.sum()), br * hit.size

    totals = np.zeros(4, dtype=np.int64)
    for bounds in _row_windows(row_len, n_cols, b_keys.size):
        totals += emit_window(*bounds)
    blocks_visited, total_skips, total_matches, total_stores = (int(t) for t in totals)

    instr.replay_trace(builder.build())
    pairs_visited = int(np.count_nonzero(row_len)) * n_cols
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
    a_data = a.nza.data.reshape(-1, block)
    b_data = b_transposed.nza.data.reshape(-1, block)
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
    elems = np.arange(block, dtype=np.int64)
    c_flat = c.reshape(-1)
    row_len = np.diff(a_bounds)
    # One row window per call (scratch freed on return, as for CSR).
    def emit_window(r0: int, r1: int, busy: np.ndarray, rows: np.ndarray) -> Tuple[int, ...]:
        a0 = int(a_bounds[r0])
        pair, ka, kb, match = _keyed_merge(
            a_offsets[a0:a_bounds[r1]], row_len[rows], b_keys, b_bounds, span
        )
        m_pair = pair[match]
        nza_a = a_nza[a0 + ka[match]]
        nza_b = b_nza[kb[match]]
        # Stacked matmul computes each block's dot like the reference
        # kernel's np.dot (einsum would sum the block in another order).
        dots = np.matmul(a_data[nza_a][:, None, :], b_data[nza_b][:, :, None])[:, 0, 0]
        c_at = (rows[:, None] * n_cols + columns).ravel()
        acc = segment_sums(dots, np.bincount(m_pair, minlength=c_at.size))
        written = acc != 0.0
        c_flat[c_at[written]] = acc[written]
        row_pos, pair_pos, body_pos, post_pos, total = _layout(
            window, busy, n_cols, window, m_pair,
            np.full(m_pair.size, 2 * block, dtype=np.int64), written,
        )
        # Each matching block pair streams both blocks, element-interleaved.
        a_at = (body_pos[:, None] + 2 * elems).ravel()
        a_windows = np.arange(r0, r1, dtype=np.int64)[:, None] * row_bytes + word_offsets
        b_at = (pair_pos[:, None] + window_at).ravel()
        parts: List[Part] = [
            ((row_pos[:, None] + window_at).ravel(), id_abm, a_windows.ravel(), KIND_STREAM),
            (b_at, id_bbm, np.tile(b_windows, rows.size), KIND_STREAM),
            (a_at, id_an, (nza_a[:, None] * block + elems).ravel() * VAL, KIND_STREAM),
            (a_at + 1, id_bn, (nza_b[:, None] * block + elems).ravel() * VAL, KIND_STREAM),
            (post_pos[written], id_c, c_at[written] * VAL, KIND_WRITE),
        ]
        _emit(builder, parts, total)
        return pair.size, m_pair.size, int(written.sum())

    totals = np.zeros(3, dtype=np.int64)
    for bounds in _row_windows(row_len, n_cols, b_keys.size):
        totals += emit_window(*bounds)
    total_steps, total_matches, stores = (int(t) for t in totals)

    instr.replay_trace(builder.build())
    bitmap_reads = n_rows + int(np.count_nonzero(row_len)) * n_cols
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
