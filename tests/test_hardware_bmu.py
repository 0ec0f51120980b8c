"""Tests for the Bitmap Management Unit."""

import numpy as np
import pytest

from repro.core.config import SMASHConfig
from repro.core.indexing import iter_nonzero_blocks
from repro.core.smash_matrix import SMASHMatrix
from repro.hardware.bmu import BitmapManagementUnit, BMUError, BMUGroup


def scan_all(group: BMUGroup):
    """Drive PBMAP/RDIND until exhaustion, returning (row, col) pairs."""
    found = []
    while group.scan_next():
        found.append(group.read_indices())
    return found


class TestBMUGroup:
    def test_scan_finds_all_blocks(self, medium_smash):
        bmu = BitmapManagementUnit()
        group = bmu.attach_matrix(medium_smash)
        expected = [(row, col) for _i, row, col in iter_nonzero_blocks(medium_smash)]
        assert scan_all(group) == expected

    @pytest.mark.parametrize("label", [(2,), (4,), (2, 4), (2, 4, 16), (8, 4, 2)])
    def test_scan_matches_software_for_various_configs(self, small_dense, label):
        matrix = SMASHMatrix.from_dense(small_dense, SMASHConfig(label))
        group = BitmapManagementUnit().attach_matrix(matrix)
        expected = [(row, col) for _i, row, col in iter_nonzero_blocks(matrix)]
        assert scan_all(group) == expected

    def test_scan_reports_nza_block_ordinals(self, medium_smash):
        group = BitmapManagementUnit().attach_matrix(medium_smash)
        ordinals = []
        while group.scan_next():
            ordinals.append(group.output.nza_block_index)
        assert ordinals == list(range(medium_smash.n_nonzero_blocks))

    def test_exhausted_after_last_block(self, medium_smash):
        group = BitmapManagementUnit().attach_matrix(medium_smash)
        scan_all(group)
        assert group.output.exhausted
        assert group.scan_next() is False

    def test_empty_matrix_immediately_exhausted(self):
        matrix = SMASHMatrix.from_dense(np.zeros((16, 16)), SMASHConfig((2, 4)))
        group = BitmapManagementUnit().attach_matrix(matrix)
        assert group.scan_next() is False
        assert group.output.exhausted

    def test_scan_without_configuration_raises(self):
        group = BMUGroup(0)
        with pytest.raises(BMUError):
            group.scan_next()

    def test_scan_without_bitmap_raises(self):
        group = BMUGroup(0)
        group.configure_matrix(4, 4)
        group.configure_bitmap(0, 2)
        with pytest.raises(BMUError):
            group.scan_next()

    def test_buffer_reload_when_bitmap_exceeds_buffer(self):
        # A 128x128 matrix with block size 2 has 8192 Bitmap-0 bits, which
        # exceeds a 256-byte (2048-bit) buffer, forcing reloads.
        rng = np.random.default_rng(9)
        dense = np.zeros((128, 128))
        idx = rng.choice(128 * 128, size=200, replace=False)
        dense[idx // 128, idx % 128] = 1.0
        matrix = SMASHMatrix.from_dense(dense, SMASHConfig((2,)))
        assert matrix.hierarchy.base.n_bits > 2048
        group = BitmapManagementUnit().attach_matrix(matrix)
        expected = [(row, col) for _i, row, col in iter_nonzero_blocks(matrix)]
        assert scan_all(group) == expected
        assert group.buffer_reloads > 0

    def test_scan_range_restricts_results(self, medium_smash):
        group = BitmapManagementUnit().attach_matrix(medium_smash)
        all_bits = medium_smash.hierarchy.base.set_bit_indices()
        # Restrict to the first half of Bitmap-0.
        limit = medium_smash.hierarchy.base.n_bits // 2
        group.set_scan_range(0, limit)
        found = scan_all(group)
        expected_bits = [b for b in all_bits if b < limit]
        assert len(found) == len(expected_bits)

    def test_set_scan_range_mid_bitmap(self, medium_smash):
        group = BitmapManagementUnit().attach_matrix(medium_smash)
        bits = medium_smash.hierarchy.base.set_bit_indices()
        start = bits[len(bits) // 2]
        group.set_scan_range(start)
        found = scan_all(group)
        assert len(found) == len([b for b in bits if b >= start])

    def test_memory_callback_invoked_on_load(self, medium_smash):
        calls = []
        group = BMUGroup(0)
        group.configure_matrix(*medium_smash.shape)
        group.configure_bitmap(0, medium_smash.block_size)
        group.load_bitmap(
            medium_smash.hierarchy.base, 0, 0, memory_callback=lambda buf, n: calls.append((buf, n))
        )
        assert calls and calls[0][0] == 0 and calls[0][1] > 0

    def test_reset_clears_state(self, medium_smash):
        group = BitmapManagementUnit().attach_matrix(medium_smash)
        group.scan_next()
        group.reset()
        assert group.blocks_found == 0
        assert not group.registers.configured

    def test_invalid_buffer_id_raises(self, medium_smash):
        group = BMUGroup(0, n_buffers=2)
        with pytest.raises(BMUError):
            group.load_bitmap(medium_smash.hierarchy.base, 5)


class TestBitmapManagementUnit:
    def test_default_geometry_matches_paper(self):
        # Section 7.6: 4 groups x 3 buffers x 256 bytes = 3 KiB of SRAM.
        bmu = BitmapManagementUnit()
        assert bmu.n_groups == 4
        assert bmu.total_sram_bytes() == 3 * 1024
        assert 100 <= bmu.total_register_bytes() <= 200

    def test_groups_are_independent(self, medium_smash, small_dense):
        other = SMASHMatrix.from_dense(small_dense, SMASHConfig((2,)))
        bmu = BitmapManagementUnit()
        group0 = bmu.attach_matrix(medium_smash, 0)
        group1 = bmu.attach_matrix(other, 1)
        found0 = scan_all(group0)
        found1 = scan_all(group1)
        assert len(found0) == medium_smash.n_nonzero_blocks
        assert len(found1) == other.n_nonzero_blocks

    def test_invalid_group_raises(self):
        with pytest.raises(BMUError):
            BitmapManagementUnit(2).group(5)

    def test_requires_at_least_one_group(self):
        with pytest.raises(ValueError):
            BitmapManagementUnit(0)

    def test_requires_at_least_one_buffer_per_group(self):
        # With no buffer the window walk never advances, so a hardware SMASH
        # kernel given this BMU would loop forever; refuse it up front.
        with pytest.raises(ValueError):
            BitmapManagementUnit(buffers_per_group=0)

    def test_reset_all_groups(self, medium_smash):
        bmu = BitmapManagementUnit()
        bmu.attach_matrix(medium_smash, 0)
        bmu.reset()
        assert not bmu.group(0).registers.configured
