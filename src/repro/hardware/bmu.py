"""The Bitmap Management Unit (BMU).

The BMU (Section 4.2 of the paper) buffers bitmap blocks in small SRAM
buffers, scans them for set bits, converts bit positions into row/column
indices of the original matrix using the latched matrix/bitmap parameters, and
exposes the result through output registers. It supports multiple independent
*groups* so that kernels operating on two sparse matrices at once (e.g. SpMM)
can index both concurrently.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.bitmap import Bitmap
from repro.core.config import MAX_LEVELS
from repro.core.smash_matrix import SMASHMatrix
from repro.hardware.registers import BMURegisters, OutputRegisters
from repro.hardware.sram import SRAMBuffer, DEFAULT_BUFFER_BYTES

#: Default number of groups in the BMU (Section 7.6 assumes four).
DEFAULT_GROUPS = 4
#: Number of bitmap buffers per group (one per supported hierarchy level the
#: paper's examples need).
BUFFERS_PER_GROUP = 3


class BMUError(RuntimeError):
    """Raised when the BMU is used before it has been configured."""


class BMUGroup:
    """One group of BMU resources, dedicated to indexing a single matrix."""

    def __init__(
        self,
        group_id: int,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        n_buffers: int = BUFFERS_PER_GROUP,
    ) -> None:
        self.group_id = group_id
        self.registers = BMURegisters()
        self.output = OutputRegisters()
        self.buffers: List[SRAMBuffer] = [SRAMBuffer(buffer_bytes) for _ in range(n_buffers)]
        #: Bitmap sources attached by RDBMAP, keyed by buffer id.
        self._sources: Dict[int, Bitmap] = {}
        #: Absolute Bitmap-0 bit position where the next PBMAP scan resumes.
        self.scan_cursor = 0
        #: Exclusive Bitmap-0 bit position where scanning stops (None = end).
        self.scan_limit: Optional[int] = None
        #: Number of non-zero blocks found since the last scan reset.
        self.blocks_found = 0
        #: Ordinal (within the whole Bitmap-0) of the last block found.
        self._last_block_ordinal = -1
        #: Statistics
        self.pbmap_count = 0
        self.buffer_reloads = 0

    # ------------------------------------------------------------------ #
    # Configuration (driven by MATINFO / BMAPINFO / RDBMAP)
    # ------------------------------------------------------------------ #
    def configure_matrix(self, rows: int, cols: int) -> None:
        """MATINFO: latch the matrix dimensions."""
        self.registers.set_matrix_info(rows, cols)

    def configure_bitmap(self, level: int, ratio: int) -> None:
        """BMAPINFO: latch one level's compression ratio."""
        self.registers.set_bitmap_info(level, ratio)

    def load_bitmap(
        self,
        bitmap: Bitmap,
        buffer_id: int,
        start_bit: int = 0,
        memory_callback: Optional[Callable[[int, int], None]] = None,
    ) -> int:
        """RDBMAP: load a window of ``bitmap`` into buffer ``buffer_id``.

        ``memory_callback(buffer_id, n_bytes)`` lets the ISA layer charge the
        memory traffic of the transfer. Returns the number of valid bits
        loaded into the buffer.
        """
        if not 0 <= buffer_id < len(self.buffers):
            raise BMUError(f"buffer {buffer_id} does not exist in group {self.group_id}")
        buffer = self.buffers[buffer_id]
        loaded_bits = buffer.load_window(bitmap, start_bit)
        self._sources[buffer_id] = bitmap
        if buffer_id == 0:
            # Loading Bitmap-0 (re)positions the scan cursor at the window start.
            self.scan_cursor = buffer.base_bit if loaded_bits else start_bit
            self._last_block_ordinal = self._count_set_bits_before(bitmap, self.scan_cursor) - 1
        if memory_callback is not None:
            memory_callback(buffer_id, -(-loaded_bits // 8) if loaded_bits else buffer.size_bytes)
        return loaded_bits

    @staticmethod
    def _count_set_bits_before(bitmap: Bitmap, bit_index: int) -> int:
        return bitmap.count_set_bits_before(bit_index)

    def set_scan_range(self, start_bit: int, end_bit: Optional[int] = None) -> None:
        """Restrict the scan to a Bitmap-0 bit range (used per row/column in SpMM)."""
        self.scan_cursor = max(0, int(start_bit))
        self.scan_limit = None if end_bit is None else int(end_bit)
        source = self._sources.get(0)
        if source is not None:
            self._last_block_ordinal = self._count_set_bits_before(source, self.scan_cursor) - 1

    # ------------------------------------------------------------------ #
    # Scanning (driven by PBMAP)
    # ------------------------------------------------------------------ #
    def scan_next(
        self,
        memory_callback: Optional[Callable[[int, int], None]] = None,
    ) -> bool:
        """PBMAP: find the next non-zero block and update the output registers.

        Returns True if a block was found, False if the scan is exhausted.
        When the buffered Bitmap-0 window runs out, the BMU reloads the next
        window itself (charging the transfer through ``memory_callback``),
        using the buffered upper-level bitmaps to skip all-zero regions.
        """
        if not self.registers.configured:
            raise BMUError(
                f"group {self.group_id} not configured: execute MATINFO and BMAPINFO first"
            )
        if 0 not in self._sources:
            raise BMUError(f"group {self.group_id}: no Bitmap-0 loaded (execute RDBMAP)")
        self.pbmap_count += 1

        bitmap0 = self._sources[0]
        buffer0 = self.buffers[0]
        limit = bitmap0.n_bits if self.scan_limit is None else min(self.scan_limit, bitmap0.n_bits)

        while self.scan_cursor < limit:
            window_end = buffer0.base_bit + buffer0.valid_bits
            if buffer0.valid_bits and self.scan_cursor < window_end and self.scan_cursor >= buffer0.base_bit:
                found = buffer0.next_set_bit(self.scan_cursor)
                if found is not None and found < limit:
                    self._emit(found)
                    return True
                # No set bit in the remainder of this window.
                self.scan_cursor = window_end
                continue
            # The cursor is outside the buffered window: reload, skipping
            # all-zero regions with the upper-level bitmaps when possible.
            next_start = self._skip_with_upper_levels(self.scan_cursor, limit)
            if next_start >= limit:
                break
            self.buffer_reloads += 1
            self.load_bitmap(bitmap0, 0, next_start, memory_callback)
            self.scan_cursor = max(self.scan_cursor, buffer0.base_bit)

        self.output.mark_exhausted()
        return False

    def _skip_with_upper_levels(self, from_bit: int, limit: int) -> int:
        """Use buffered upper-level bitmaps to skip all-zero Bitmap-0 spans."""
        best = from_bit
        for level in range(1, len(self.buffers)):
            source = self._sources.get(level)
            if source is None or level not in self.registers.compression_ratios:
                continue
            span = 1
            for lower_level in range(1, level + 1):
                if lower_level not in self.registers.compression_ratios:
                    span = None
                    break
                span *= self.registers.ratio(lower_level)
            if span is None:
                continue
            upper_bit = best // span
            if upper_bit >= source.n_bits:
                continue
            next_upper = source.next_set_bit(upper_bit)
            if next_upper is None:
                return limit
            candidate = next_upper * span
            if candidate > best:
                best = candidate
        return best

    def _emit(self, bitmap0_bit: int) -> None:
        """Latch the output registers for the block at Bitmap-0 bit ``bitmap0_bit``."""
        block_size = self.registers.ratio(0)
        cols = self.registers.cols
        linear = bitmap0_bit * block_size
        row = linear // cols if cols else 0
        col = linear % cols if cols else 0
        bitmap0 = self._sources[0]
        # The ordinal of this set bit is the NZA block index.
        ordinal = self._count_set_bits_before(bitmap0, bitmap0_bit)
        self.output.update(row, col, ordinal)
        self._last_block_ordinal = ordinal
        self.blocks_found += 1
        self.scan_cursor = bitmap0_bit + 1

    # ------------------------------------------------------------------ #
    # Reading results (RDIND)
    # ------------------------------------------------------------------ #
    def read_indices(self) -> tuple[int, int]:
        """RDIND: return the latched (row, column) indices."""
        return self.output.read()

    def reset(self) -> None:
        """Clear all state in the group."""
        self.registers.reset()
        self.output.reset()
        for buffer in self.buffers:
            buffer.clear()
        self._sources.clear()
        self.scan_cursor = 0
        self.scan_limit = None
        self.blocks_found = 0
        self._last_block_ordinal = -1
        self.pbmap_count = 0
        self.buffer_reloads = 0


class BitmapManagementUnit:
    """The full BMU: a set of independent groups plus SRAM sizing metadata."""

    def __init__(
        self,
        n_groups: int = DEFAULT_GROUPS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        buffers_per_group: int = BUFFERS_PER_GROUP,
    ) -> None:
        if n_groups < 1:
            raise ValueError("the BMU needs at least one group")
        if buffers_per_group < 1:
            raise ValueError("each BMU group needs at least one buffer")
        self.buffer_bytes = buffer_bytes
        self.buffers_per_group = buffers_per_group
        self.groups: List[BMUGroup] = [
            BMUGroup(i, buffer_bytes, buffers_per_group) for i in range(n_groups)
        ]

    def group(self, group_id: int) -> BMUGroup:
        """Return group ``group_id``."""
        if not 0 <= group_id < len(self.groups):
            raise BMUError(f"group {group_id} does not exist (BMU has {len(self.groups)})")
        return self.groups[group_id]

    @property
    def n_groups(self) -> int:
        """Number of groups in this BMU."""
        return len(self.groups)

    def total_sram_bytes(self) -> int:
        """Total SRAM across all groups (used by the area model)."""
        return self.n_groups * self.buffers_per_group * self.buffer_bytes

    def total_register_bytes(self) -> int:
        """Register storage: parameters + output registers per group.

        Matches the paper's 140-byte estimate for a 4-group BMU: per group,
        two 4-byte dimension registers, up to MAX_LEVELS 4-byte ratio
        registers, two 8-byte output registers and a cursor/status word.
        """
        per_group = 2 * 4 + MAX_LEVELS * 4 + 2 * 8 + 3
        return self.n_groups * per_group

    def attach_matrix(self, matrix: SMASHMatrix, group_id: int = 0) -> BMUGroup:
        """Convenience: fully configure a group for ``matrix``.

        Performs the MATINFO/BMAPINFO/RDBMAP sequence directly on the model
        (without per-instruction cost accounting). Kernels that need cost
        accounting should use :class:`repro.hardware.isa.SMASHISA` instead.
        """
        group = self.group(group_id)
        group.reset()
        group.configure_matrix(matrix.rows, matrix.cols)
        for level in range(matrix.config.levels):
            group.configure_bitmap(level, matrix.config.ratios[level])
        for level in range(min(matrix.config.levels, len(group.buffers))):
            group.load_bitmap(matrix.hierarchy.bitmap(level), level, 0)
        return group

    def reset(self) -> None:
        """Reset every group."""
        for group in self.groups:
            group.reset()
