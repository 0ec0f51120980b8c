"""Vectorized trace planning for the SMASH kernels.

The batched SMASH SpMV kernels replicate, array-at-a-time, the exact access
sequences of the per-element reference implementations in
:mod:`repro.kernels.legacy`. Each trace is the block bodies in Bitmap-0
order with the bitmap-scan accesses spliced in between them, and every part
is planned with array operations:

* :func:`block_bodies` plans the multiply-accumulate bodies of *all*
  non-zero blocks (interleaved NZA and ``x`` loads plus the ``y`` store):
  bit positions, element counts and access-offset prefix sums;
* :func:`software_scan_plan` plans the
  :class:`~repro.core.indexing.SoftwareIndexer` traversal: every bitmap word
  load, in traversal order, with the block it precedes;
* :func:`hardware_scan_plan` plans the BMU window walk: the initial
  ``RDBMAP`` transfers and every buffer reload the ``PBMAP`` scan triggers,
  with the block each reload precedes;
* :meth:`BlockBodies.splice` appends the bodies with the scan accesses
  inserted before their blocks, one append per budget-sized window instead
  of one per scan event;
* :func:`row_block_table` lists each row's blocks for the SMASH SpMM merge.

Planning works on the packed bitmap words directly (via
:meth:`~repro.core.bitmap.Bitmap.set_bit_array` and ``searchsorted``), so its
cost is O(set bits + bitmap words), not O(matrix elements).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.core.smash_matrix import SMASHMatrix
from repro.formats.base import VALUE_BYTES as VAL
from repro.sim.trace import (
    KIND_STREAM,
    KIND_WRITE,
    Columns,
    TraceBuilder,
    exclusive_cumsum,
    grouped_arange,
)

#: Bytes per packed bitmap word (matches ``repro.core.indexing.WORD_BYTES``).
WORD_BYTES = 8


class BlockBodies:
    """The SpMV block bodies of every non-zero block, assembled on demand.

    Each block's body is the access pattern ``[nza load, x load] * valid +
    [y store]``. Only the O(blocks) plan is held: bit positions, per-block
    element counts and access-offset prefix sums. :meth:`splice` scatters
    the columns of one budget-sized window at a time, so peak trace memory
    stays bounded at any matrix size; when the whole trace fits the budget
    (every cache-scale workload) that is a single window.
    """

    __slots__ = ("bits", "valid", "starts", "block", "cols", "id_nza", "id_x", "id_y")

    def __init__(self, bits, valid, starts, block, cols, id_nza, id_x, id_y) -> None:
        self.bits = bits
        self.valid = valid
        self.starts = starts
        self.block = block
        self.cols = cols
        self.id_nza = id_nza
        self.id_x = id_x
        self.id_y = id_y

    @property
    def n_blocks(self) -> int:
        return int(self.bits.size)

    @property
    def n_elements(self) -> int:
        """Stored elements visited (bounded by the matrix tail)."""
        return int(self.valid.sum())

    @property
    def total_len(self) -> int:
        """Accesses across all block bodies."""
        n = self.n_blocks
        return int(self.starts[n - 1] + 2 * self.valid[n - 1] + 1) if n else 0

    def splice(self, builder: TraceBuilder, before, ids, offsets, kinds) -> None:
        """Append every block body to ``builder`` with event accesses spliced in.

        Event access ``k`` (``ids[k]``, ``offsets[k]``, ``kinds[k]``) goes
        right before the body of block ``before[k]``, or after the last body
        when ``before[k] == n_blocks``. ``before`` must be non-decreasing;
        events before the same block keep their order.

        The spliced trace is appended through
        :meth:`~repro.sim.trace.TraceBuilder.add_windows`, in windows of the
        builder's chunk budget (one window when the builder is monolithic),
        each assembled from only the blocks it overlaps.
        """
        before = np.asarray(before, dtype=np.int64)
        total = self.total_len + before.size
        # Spliced position of event k: the start of its block's body, moved
        # past the k events spliced in ahead of it.
        body_start = np.append(self.starts, self.total_len)
        event_pos = body_start[before] + np.arange(before.size, dtype=np.int64)

        def window(lo: int, hi: int) -> Columns:
            k0, k1 = (int(k) for k in np.searchsorted(event_pos, (lo, hi)))
            n = hi - lo
            columns = (np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, np.uint8))
            is_body = np.ones(n, dtype=bool)
            is_body[event_pos[k0:k1] - lo] = False
            b0, b1 = lo - k0, hi - k1  # body accesses in the window
            if b1 > b0:
                first = int(np.searchsorted(self.starts, b0, side="right")) - 1
                last = int(np.searchsorted(self.starts, b1, side="left"))
                cut = slice(b0 - int(self.starts[first]), b1 - int(self.starts[first]))
                for column, body in zip(columns, self._assemble(first, last)):
                    column[is_body] = body[cut]
            for column, event in zip(columns, (ids, offsets, kinds)):
                column[~is_body] = event[k0:k1]
            return columns

        builder.add_windows(total, window)

    def _assemble(self, lo: int, hi: int):
        """Scatter the interleaved columns of blocks ``[lo, hi)``."""
        bits = self.bits[lo:hi]
        valid = self.valid[lo:hi]
        block, cols = self.block, self.cols
        lengths = 2 * valid + 1
        starts = exclusive_cumsum(lengths)
        total_len = int(lengths.sum())
        ids = np.empty(total_len, dtype=np.int64)
        offsets = np.empty(total_len, dtype=np.int64)
        kinds = np.empty(total_len, dtype=np.uint8)

        elem_block = np.repeat(np.arange(hi - lo, dtype=np.int64), valid)
        elem = grouped_arange(valid)
        pos = np.repeat(starts, valid) + 2 * elem
        linear = bits[elem_block] * block + elem
        ids[pos] = self.id_nza
        offsets[pos] = ((lo + elem_block) * block + elem) * VAL
        kinds[pos] = KIND_STREAM
        ids[pos + 1] = self.id_x
        offsets[pos + 1] = (linear % cols) * VAL
        kinds[pos + 1] = KIND_STREAM
        store_pos = starts + 2 * valid
        ids[store_pos] = self.id_y
        offsets[store_pos] = ((bits * block) // cols) * VAL
        kinds[store_pos] = KIND_WRITE
        return ids, offsets, kinds


def block_bodies(
    matrix: SMASHMatrix,
    builder: TraceBuilder,
    nza_name: str = "A_nza",
    x_name: str = "x",
    y_name: str = "y",
) -> BlockBodies:
    """Plan the SpMV bodies of every non-zero block (no columns yet)."""
    bits = matrix.hierarchy.base.set_bit_array()
    block = matrix.block_size
    rows, cols = matrix.shape
    total = rows * cols
    valid = np.minimum(block, total - bits * block)
    starts = exclusive_cumsum(2 * valid + 1)
    return BlockBodies(
        bits,
        valid,
        starts,
        block,
        cols,
        builder.structure_id(nza_name),
        builder.structure_id(x_name),
        builder.structure_id(y_name),
    )


def accumulate_spmv(matrix: SMASHMatrix, bodies: BlockBodies, x: np.ndarray) -> np.ndarray:
    """Numeric ``y = A @ x`` over the planned blocks (element order preserved)."""
    y = np.zeros(matrix.rows, dtype=np.float64)
    if bodies.n_blocks == 0:
        return y
    block = matrix.block_size
    cols = matrix.cols
    elem_block = np.repeat(np.arange(bodies.n_blocks, dtype=np.int64), bodies.valid)
    elem = grouped_arange(bodies.valid)
    linear = bodies.bits[elem_block] * block + elem
    values = matrix.nza.data[elem_block * block + elem]
    nz = values != 0.0
    np.add.at(y, linear[nz] // cols, values[nz] * x[linear[nz] % cols])
    return y


# --------------------------------------------------------------------------- #
# Software-only scan (Section 4.4) — mirrors SoftwareIndexer.iter_blocks
# --------------------------------------------------------------------------- #
def software_scan_plan(
    matrix: SMASHMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Plan the software bitmap scan as word loads placed between blocks.

    Returns ``(levels, words, before_block, n_top_scans)``. In traversal
    order, load ``i`` reads word ``words[i]`` of bitmap ``levels[i]`` right
    before the body of block ``before_block[i]`` (``n_blocks`` means after
    the last body). ``n_top_scans`` is the number of top-level set bits
    found; each costs one bit-scan charge in the software cost model.

    A one-level hierarchy loads every Bitmap-0 word in turn. A deeper one
    loads every top-level word, each followed by the Bitmap-0 words that
    overlap the span ``[s * span, (s + 1) * span)`` of each of its set bits
    ``s``. Top-level word ``tw`` goes before the first block at or after
    Bitmap-0 bit ``tw * 64 * span``; Bitmap-0 word ``w`` under top bit ``s``
    before the first block at or after bit ``max(s * span, w * 64)``.

    Those positions make the blocks between consecutive loads contiguous
    ranges that cover every block only because of a hierarchy invariant:
    every set Bitmap-0 bit lies under a set top-level bit. No block sits in
    a span the scan skips, so the blocks after a load are exactly the set
    bits below the next load's threshold.
    """
    hierarchy = matrix.hierarchy
    base = hierarchy.base
    bits = base.set_bit_array()
    if hierarchy.levels == 1:
        words = np.arange(base.n_words, dtype=np.int64)
        return np.zeros_like(words), words, np.searchsorted(bits, words * 64), 0

    top_level = hierarchy.levels - 1
    top = hierarchy.bitmap(top_level)
    span = math.prod(hierarchy.config.ratios[1:])
    top_bits = top.set_bit_array()
    span_start = top_bits * span
    span_end = np.minimum(span_start + span, base.n_bits)
    first_word = span_start // 64
    n_under = np.maximum(np.minimum(-(-span_end // 64), base.n_words) - first_word, 0)
    base_words = np.repeat(first_word, n_under) + grouped_arange(n_under)

    # Interleave: each top-level word's load, then the Bitmap-0 words under
    # its set bits in bit order.
    top_words = np.arange(top.n_words, dtype=np.int64)
    under_top_word = np.bincount(np.repeat(top_bits // 64, n_under), minlength=top.n_words)
    is_top = np.zeros(top_words.size + base_words.size, dtype=bool)
    is_top[top_words + exclusive_cumsum(under_top_word)] = True
    is_base = ~is_top
    levels = np.where(is_top, top_level, 0)
    words = np.empty(is_top.size, dtype=np.int64)
    words[is_top] = top_words
    words[is_base] = base_words
    thresholds = np.empty(is_top.size, dtype=np.int64)
    thresholds[is_top] = top_words * 64 * span
    thresholds[is_base] = np.maximum(np.repeat(span_start, n_under), base_words * 64)
    return levels, words, np.searchsorted(bits, thresholds), int(top_bits.size)


# --------------------------------------------------------------------------- #
# Hardware (BMU) scan — mirrors BMUGroup.scan_next's window walk
# --------------------------------------------------------------------------- #
def hardware_scan_plan(
    matrix: SMASHMatrix,
    buffer_bits: int,
    n_buffers: int,
) -> Tuple[List[int], np.ndarray, np.ndarray, int]:
    """Plan the BMU's Bitmap-0 window walk.

    Returns ``(setup_bytes, reload_before, reload_bytes, n_blocks)``:

    * ``setup_bytes[level]`` — bytes transferred by the initial ``RDBMAP`` of
      each buffered level (levels ``0..min(levels, n_buffers))``);
    * ``reload_before[i]``, ``reload_bytes[i]`` — buffer reload ``i`` moves
      ``reload_bytes[i]`` bytes right before the body of block
      ``reload_before[i]``, i.e. after that many blocks have been emitted;
    * ``n_blocks`` — total non-zero blocks the scan emits.

    The walk takes one scalar step per BMU window, not per block.
    """
    hierarchy = matrix.hierarchy
    base = hierarchy.base
    bits = base.set_bit_array()
    n_bits = base.n_bits
    levels = hierarchy.levels
    buffered = min(levels, n_buffers)

    setup_bytes: List[int] = []
    for level in range(buffered):
        bitmap = hierarchy.bitmap(level)
        valid = max(0, min(buffer_bits, bitmap.n_bits))
        setup_bytes.append(-(-valid // 8) if valid else buffer_bits // 8)

    # Upper-level set bits for the all-zero-span skip (full bitmaps: the BMU
    # keeps the complete source attached, only Bitmap-0 is windowed).
    upper: Dict[int, Tuple[np.ndarray, int, int]] = {}
    for level in range(1, buffered):
        bitmap = hierarchy.bitmap(level)
        span = math.prod(hierarchy.config.ratios[1 : level + 1])
        upper[level] = (bitmap.set_bit_array(), span, bitmap.n_bits)

    def skip(from_bit: int) -> int:
        best = from_bit
        for level in sorted(upper):
            arr, span, level_bits = upper[level]
            upper_bit = best // span
            if upper_bit >= level_bits:
                continue
            pos = int(np.searchsorted(arr, upper_bit))
            if pos == arr.size:
                return n_bits
            candidate = int(arr[pos]) * span
            if candidate > best:
                best = candidate
        return best

    reload_before: List[int] = []
    reload_bytes: List[int] = []
    base_bit = 0
    valid = max(0, min(buffer_bits, n_bits))
    while True:
        window_end = base_bit + valid
        if window_end >= n_bits:
            break
        next_start = skip(window_end)
        if next_start >= n_bits:
            break
        aligned = (next_start // 64) * 64
        valid = max(0, min(buffer_bits, n_bits - aligned))
        reload_before.append(int(np.searchsorted(bits, window_end)))
        reload_bytes.append(-(-valid // 8) if valid else buffer_bits // 8)
        base_bit = aligned
    return (
        setup_bytes,
        np.array(reload_before, dtype=np.int64),
        np.array(reload_bytes, dtype=np.int64),
        int(bits.size),
    )


def bitmap_transfers(n_bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Cache-line transfers of RDBMAPs/reloads moving ``n_bytes[i]`` bytes each.

    Returns ``(lines, offsets)``: transfer ``i`` moves ``lines[i]`` lines (at
    least one), and ``offsets`` holds every transfer's line byte offsets,
    concatenated in transfer order.
    """
    lines = (np.maximum(np.asarray(n_bytes, dtype=np.int64), 1) + 63) // 64
    return lines, grouped_arange(lines) * 64


# --------------------------------------------------------------------------- #
# Row/column block lists for the SMASH SpMM merge
# --------------------------------------------------------------------------- #
def row_block_table(matrix: SMASHMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.kernels.legacy._row_block_lists`.

    Returns ``(row_bounds, offsets, nza_indices)`` where blocks of row ``r``
    are the slice ``[row_bounds[r], row_bounds[r + 1])`` of the two arrays
    (``offsets`` is the block's starting column). Requires the row length to
    be a multiple of the block size, as the kernels enforce.
    """
    bits = matrix.hierarchy.base.set_bit_array()
    block = matrix.block_size
    cols = matrix.cols
    linear = bits * block
    rows = linear // cols
    offsets = linear % cols
    row_bounds = np.searchsorted(rows, np.arange(matrix.rows + 1, dtype=np.int64))
    return row_bounds, offsets, np.arange(bits.size, dtype=np.int64)
