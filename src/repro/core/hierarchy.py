"""Bitmap hierarchy construction and navigation."""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.config import SMASHConfig


class BitmapHierarchy:
    """The multi-level bitmap structure of the SMASH encoding.

    ``bitmaps[0]`` is Bitmap-0 (one bit per NZA block), ``bitmaps[i]`` for
    ``i > 0`` summarizes groups of ``config.ratios[i]`` bits of the level
    below. A bit at any level is set exactly when at least one matrix element
    it covers is non-zero.
    """

    def __init__(self, config: SMASHConfig, bitmaps: Sequence[Bitmap]) -> None:
        if len(bitmaps) != config.levels:
            raise ValueError(
                f"expected {config.levels} bitmaps for the configuration, got {len(bitmaps)}"
            )
        self.config = config
        self.bitmaps: List[Bitmap] = list(bitmaps)
        self._validate()

    def _validate(self) -> None:
        for level in range(1, self.config.levels):
            ratio = self.config.ratios[level]
            lower = self.bitmaps[level - 1]
            upper = self.bitmaps[level]
            expected = -(-lower.n_bits // ratio) if lower.n_bits else 0
            if upper.n_bits != expected:
                raise ValueError(
                    f"Bitmap-{level} must have {expected} bits "
                    f"(= ceil({lower.n_bits}/{ratio})), got {upper.n_bits}"
                )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_block_flags(cls, config: SMASHConfig, block_flags: Iterable[bool]) -> "BitmapHierarchy":
        """Build the hierarchy from per-NZA-block non-zero flags.

        ``block_flags[i]`` is True when the i-th block of ``config.block_size``
        consecutive matrix elements contains at least one non-zero. Higher
        levels are derived by OR-reducing groups of lower-level bits, exactly
        as described in Section 4.1.3 of the paper.
        """
        if not isinstance(block_flags, np.ndarray):
            block_flags = list(block_flags)
        flags = np.asarray(block_flags, dtype=bool)
        bitmaps = [Bitmap.from_bools(flags)]
        current = flags
        for level in range(1, config.levels):
            ratio = config.ratios[level]
            n_upper = -(-current.size // ratio) if current.size else 0
            padded = np.zeros(n_upper * ratio, dtype=bool)
            padded[: current.size] = current
            upper = padded.reshape(n_upper, ratio).any(axis=1) if n_upper else padded.reshape(0, ratio).any(axis=1)
            bitmaps.append(Bitmap.from_bools(upper))
            current = upper
        return cls(config, bitmaps)

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #
    @property
    def levels(self) -> int:
        """Number of bitmap levels."""
        return self.config.levels

    def bitmap(self, level: int) -> Bitmap:
        """Return Bitmap-``level``."""
        if not 0 <= level < self.levels:
            raise IndexError(f"level {level} out of range [0, {self.levels})")
        return self.bitmaps[level]

    @property
    def top(self) -> Bitmap:
        """The highest-level (smallest) bitmap."""
        return self.bitmaps[-1]

    @property
    def base(self) -> Bitmap:
        """Bitmap-0, the level that maps directly onto NZA blocks."""
        return self.bitmaps[0]

    def children_range(self, level: int, bit_index: int) -> range:
        """Bit indices in Bitmap-(level-1) covered by ``bit_index`` of Bitmap-level."""
        if level <= 0:
            raise ValueError("Bitmap-0 has no child bitmap")
        ratio = self.config.ratios[level]
        lower_bits = self.bitmaps[level - 1].n_bits
        start = bit_index * ratio
        end = min(start + ratio, lower_bits)
        return range(start, end)

    def parent_index(self, level: int, bit_index: int) -> int:
        """Bit index in Bitmap-(level+1) that covers ``bit_index`` of Bitmap-level."""
        if level >= self.levels - 1:
            raise ValueError(f"Bitmap-{level} is the top level and has no parent")
        return bit_index // self.config.ratios[level + 1]

    # ------------------------------------------------------------------ #
    # Consistency and statistics
    # ------------------------------------------------------------------ #
    def is_consistent(self) -> bool:
        """Check that every upper-level bit equals the OR of its children."""
        for level in range(1, self.levels):
            upper = self.bitmaps[level]
            lower = self.bitmaps[level - 1]
            for bit_index in range(upper.n_bits):
                any_child = any(lower.get(child) for child in self.children_range(level, bit_index))
                if upper.get(bit_index) != any_child:
                    return False
        return True

    def n_nonzero_blocks(self) -> int:
        """Number of NZA blocks (set bits of Bitmap-0)."""
        return self.base.popcount()

    def storage_bytes(self) -> int:
        """Bytes occupied by all bitmap levels."""
        return sum(bitmap.storage_bytes() for bitmap in self.bitmaps)

    def stored_nonzero_bitmap_bytes(self) -> int:
        """Bytes needed when only the non-zero bitmap blocks are stored.

        Figure 4(b) of the paper stores the highest-level bitmap in full and,
        for every lower level, only the groups of bits whose parent bit is
        set (all-zero groups are implied by the cleared parent bit and never
        written to memory). The estimate below reflects that layout: the top
        level costs ``ceil(bits / 8)`` bytes; level ``i`` costs one group of
        ``ratios[i + 1]`` bits per set bit of level ``i + 1``.
        """
        total_bits = self.top.n_bits
        for level in range(self.levels - 2, -1, -1):
            parent = self.bitmaps[level + 1]
            group_bits = self.config.ratios[level + 1]
            total_bits += parent.popcount() * group_bits
        return -(-total_bits // 8) if total_bits else 0

    def describe(self) -> List[str]:
        """Per-level summary lines used by reports and examples."""
        lines = []
        for level in reversed(range(self.levels)):
            bitmap = self.bitmaps[level]
            lines.append(
                f"Bitmap-{level}: {bitmap.n_bits} bits, {bitmap.popcount()} set, "
                f"ratio {self.config.ratios[level]}:1"
            )
        return lines
