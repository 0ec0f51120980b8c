"""Unit tests for the columnar trace toolkit and the kernel registry."""

import numpy as np
import pytest

from repro.formats.bcsr import BCSRMatrix
from repro.formats.coo import COOMatrix
from repro.core.smash_matrix import SMASHMatrix
from repro.kernels.registry import get_kernel, kernels_for, register_kernel, registered_schemes
from repro.kernels.schemes import SCHEMES, prepare_operand, run_spadd, run_spmm, run_spmv
from repro.sim.trace import (
    KIND_DEPENDENT,
    KIND_STREAM,
    KIND_WRITE,
    AccessTrace,
    TraceBuilder,
    exclusive_cumsum,
    grouped_arange,
    segment_sums,
)
from repro.workloads.synthetic import clustered_matrix


class TestHelpers:
    def test_exclusive_cumsum(self):
        np.testing.assert_array_equal(
            exclusive_cumsum(np.array([2, 0, 3, 1])), [0, 2, 2, 5]
        )
        assert exclusive_cumsum(np.array([], dtype=np.int64)).size == 0

    def test_grouped_arange(self):
        np.testing.assert_array_equal(
            grouped_arange(np.array([3, 0, 2])), [0, 1, 2, 0, 1]
        )
        assert grouped_arange(np.array([0, 0])).size == 0

    @staticmethod
    def _sequential(values, lengths):
        """Reference: ``acc += v`` left to right within each group."""
        sums, start = [], 0
        for length in lengths:
            group = values[start:start + length]
            sums.append(group.cumsum()[-1] if length else 0.0)
            start += length
        return np.array(sums, dtype=np.float64)

    def test_segment_sums_matches_cumsum_bit_for_bit(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 12, size=40)
        values = rng.standard_normal(int(lengths.sum())) * 10.0 ** rng.integers(-8, 8, int(lengths.sum()))
        got = segment_sums(values, lengths)
        assert got.tobytes() == self._sequential(values, lengths).tobytes()

    def test_segment_sums_cancellation_zero_and_empty_groups(self):
        values = np.array([1e16, 1.0, -1e16, -0.0, 2.5, -2.5])
        got = segment_sums(values, np.array([0, 3, 0, 1, 2, 0]))
        # 1e16 + 1.0 rounds back to 1e16, so the first group cancels to 0.0.
        assert got.tobytes() == np.array([0.0, 0.0, 0.0, -0.0, 0.0, 0.0]).tobytes()
        assert np.signbit(got[3]) and not np.signbit(got[0])
        assert segment_sums(np.zeros(0), np.zeros(0, dtype=np.int64)).shape == (0,)
        assert segment_sums(np.zeros(0), np.zeros(2, dtype=np.int64)).tobytes() == bytes(16)

    def test_segment_sums_is_sequential_not_pairwise(self):
        values = np.array([1.0] + [1e-16] * 15)
        sequential = 0.0
        for v in values:
            sequential += float(v)
        assert float(np.sum(values)) != sequential  # pairwise rounds differently
        got = segment_sums(np.concatenate((values, values)), np.array([16, 16]))
        assert got.tolist() == [sequential, sequential]

    def test_segment_sums_trailing_axes(self):
        values = np.arange(12, dtype=np.float64).reshape(6, 2)
        got = segment_sums(values, np.array([2, 0, 4]))
        np.testing.assert_array_equal(got, [[2.0, 4.0], [0.0, 0.0], [28.0, 32.0]])


class TestTraceBuilder:
    def test_homogeneous_and_interleaved_chunks(self):
        builder = TraceBuilder()
        builder.add("a", [0, 8, 16], KIND_STREAM)
        builder.add_interleaved([("a", [24], KIND_STREAM), ("b", [0], KIND_DEPENDENT)])
        builder.add_one("c", 8, KIND_WRITE)
        trace = builder.build()
        assert trace.structures == ["a", "b", "c"]
        assert trace.n_accesses == 6
        np.testing.assert_array_equal(trace.struct_ids, [0, 0, 0, 0, 1, 2])
        np.testing.assert_array_equal(trace.offsets, [0, 8, 16, 24, 0, 8])
        np.testing.assert_array_equal(
            trace.kinds, [KIND_STREAM] * 4 + [KIND_DEPENDENT, KIND_WRITE]
        )

    def test_empty_builder(self):
        assert TraceBuilder().build().n_accesses == 0

    def test_streaming_builder_flushes_budget_sized_segments(self):
        segments = []
        builder = TraceBuilder(sink=segments.append, chunk_accesses=4)
        builder.add("a", [0, 8, 16], KIND_STREAM)  # buffered (3 < 4)
        assert not segments
        builder.add("b", [0, 8], KIND_WRITE)  # 5 >= 4: flush
        assert [s.n_accesses for s in segments] == [4, 1]
        builder.add_one("c", 0, KIND_DEPENDENT)
        tail = builder.build()
        assert tail.n_accesses == 1
        assert builder.total_accesses == 6
        assert builder.n_accesses == 0
        # Every segment's table is a prefix of the builder's final table, so
        # ids stay consistent across all segments of one builder.
        assert tail.structures == ["a", "b", "c"]
        for segment in segments:
            assert segment.structures == tail.structures[: len(segment.structures)]
        # Concatenating segments + tail reproduces the monolithic trace.
        reference = TraceBuilder()
        reference.add("a", [0, 8, 16], KIND_STREAM)
        reference.add("b", [0, 8], KIND_WRITE)
        reference.add_one("c", 0, KIND_DEPENDENT)
        mono = reference.build()
        np.testing.assert_array_equal(
            np.concatenate([s.struct_ids for s in segments + [tail]]), mono.struct_ids
        )
        np.testing.assert_array_equal(
            np.concatenate([s.offsets for s in segments + [tail]]), mono.offsets
        )
        np.testing.assert_array_equal(
            np.concatenate([s.kinds for s in segments + [tail]]), mono.kinds
        )

    def test_streaming_builder_splits_oversized_appends(self):
        segments = []
        builder = TraceBuilder(sink=segments.append, chunk_accesses=10)
        builder.add("a", np.arange(35, dtype=np.int64) * 8, KIND_STREAM)
        assert [s.n_accesses for s in segments] == [10, 10, 10, 5]
        assert builder.build().n_accesses == 0

    def test_chunk_accesses_ignored_without_sink(self):
        builder = TraceBuilder(chunk_accesses=2)
        builder.add("a", [0, 8, 16, 24], KIND_STREAM)
        assert builder.chunk_accesses is None
        assert builder.build().n_accesses == 4

    def test_invalid_chunk_budget_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder(sink=lambda t: None, chunk_accesses=0)

    def test_trace_chunk_env_knob(self, monkeypatch):
        from repro.sim.trace import CHUNK_ENV_VAR, DEFAULT_CHUNK_ACCESSES, trace_chunk_accesses

        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        assert trace_chunk_accesses() == DEFAULT_CHUNK_ACCESSES
        monkeypatch.setenv(CHUNK_ENV_VAR, "0")
        assert trace_chunk_accesses() is None
        monkeypatch.setenv(CHUNK_ENV_VAR, "4096")
        assert trace_chunk_accesses() == 4096
        monkeypatch.setenv(CHUNK_ENV_VAR, "-1")
        with pytest.raises(ValueError):
            trace_chunk_accesses()

    def test_replay_trace_accepts_segment_iterables(self):
        from repro.sim.instrumentation import KernelInstrumentation
        from repro.sim.config import SimConfig

        def fresh():
            instr = KernelInstrumentation("k", "s", SimConfig.scaled(16), trace_chunk=None)
            instr.register_array("a", 4096)
            return instr

        offsets = np.arange(40, dtype=np.int64) * 8
        mono = fresh()
        builder = mono.trace_builder()
        builder.add("a", offsets, KIND_STREAM)
        mono.replay_trace(builder.build())

        segmented = fresh()
        parts = []
        for start in range(0, 40, 7):
            b = TraceBuilder()
            b.add("a", offsets[start : start + 7], KIND_STREAM)
            parts.append(b.build())
        segmented.replay_trace(iter(parts))
        segmented.replay_trace(None)  # no-op by contract
        assert mono.report().to_dict() == segmented.report().to_dict()

    def test_trace_validates_columns(self):
        with pytest.raises(ValueError):
            AccessTrace(["a"], np.zeros(2, np.int64), np.zeros(1, np.int64), np.zeros(2, np.uint8))
        with pytest.raises(ValueError):
            AccessTrace(["a"], np.array([1]), np.array([0]), np.array([0], np.uint8))


class TestRegistry:
    def test_all_schemes_registered_for_spmv_and_spmm(self):
        for kernel in ("spmv", "spmm"):
            assert registered_schemes(kernel) == tuple(sorted(SCHEMES))

    def test_spadd_subset(self):
        assert set(kernels_for("spadd")) == {"taco_csr", "mkl_csr", "ideal_csr", "smash_hw"}

    def test_unknown_lookups_raise(self):
        with pytest.raises(ValueError):
            get_kernel("spmv", "csr5")
        with pytest.raises(ValueError):
            get_kernel("not_a_kernel", "taco_csr")

    def test_double_registration_rejected(self):
        @register_kernel("spmv", "test_only_scheme")
        def _impl():  # pragma: no cover - never called
            pass

        with pytest.raises(ValueError):
            register_kernel("spmv", "test_only_scheme")(lambda: None)
        # Cleanup so the throwaway scheme does not leak into other tests.
        from repro.kernels.registry import KERNEL_REGISTRY

        KERNEL_REGISTRY.unregister("spmv/test_only_scheme")


class TestSparseNativePreparation:
    def test_prepare_operand_never_densifies(self, medium_coo, smash_config, monkeypatch):
        def boom(self):  # pragma: no cover - the assertion is that it's unreached
            raise AssertionError("operand preparation materialized a dense array")

        monkeypatch.setattr(COOMatrix, "to_dense", boom)
        monkeypatch.setattr(SMASHMatrix, "from_dense", boom)
        monkeypatch.setattr(BCSRMatrix, "from_dense", boom)
        for scheme in SCHEMES:
            for orientation in ("row", "col"):
                prepare_operand(medium_coo, scheme, smash_config, orientation=orientation)

    def test_runners_never_densify(self, medium_coo, smash_config, scaled_sim_config, monkeypatch):
        def boom(self):  # pragma: no cover
            raise AssertionError("kernel run materialized a dense operand")

        monkeypatch.setattr(COOMatrix, "to_dense", boom)
        run_spmv("smash_hw", medium_coo, smash_config=smash_config, sim_config=scaled_sim_config)
        run_spmm("taco_bcsr", medium_coo, smash_config=smash_config, sim_config=scaled_sim_config)
        run_spadd("smash_hw", medium_coo, smash_config=smash_config, sim_config=scaled_sim_config)

    def test_seed_controls_generated_vector(self, medium_coo, scaled_sim_config):
        a = run_spmv("taco_csr", medium_coo, sim_config=scaled_sim_config, seed=1)
        b = run_spmv("taco_csr", medium_coo, sim_config=scaled_sim_config, seed=1)
        c = run_spmv("taco_csr", medium_coo, sim_config=scaled_sim_config, seed=2)
        np.testing.assert_array_equal(a.output, b.output)
        assert not np.array_equal(a.output, c.output)

    def test_large_sparse_operand_preparation_is_cheap(self):
        # 8192 x 8192 with a handful of entries: the dense detour would be a
        # 512 MB array; sparse-native preparation only pays O(nnz) plus the
        # packed bitmaps.
        coo = COOMatrix((8192, 8192), [0, 5, 8191], [1, 70, 8000], [1.0, 2.0, 3.0])
        bcsr = BCSRMatrix.from_coo(coo)
        assert bcsr.nnz == 3
        smash = prepare_operand(coo, "smash_hw")
        assert smash.nnz == 3
        assert smash.n_nonzero_blocks <= 3


class TestBitmapVectorizedPaths:
    def test_set_bit_array_roundtrip(self):
        from repro.core.bitmap import Bitmap

        rng = np.random.default_rng(9)
        bits = rng.random(500) < 0.2
        bitmap = Bitmap.from_bools(bits)
        np.testing.assert_array_equal(bitmap.set_bit_array(), np.flatnonzero(bits))
        np.testing.assert_array_equal(bitmap.to_bool_array(), bits)
        assert bitmap.popcount() == int(bits.sum())
        for probe in (0, 1, 63, 64, 65, 200, 499, 500):
            assert bitmap.count_set_bits_before(probe) == int(bits[:probe].sum())

    def test_from_indices_bounds(self):
        from repro.core.bitmap import Bitmap

        bitmap = Bitmap.from_indices(130, [0, 64, 129])
        assert bitmap.set_bit_indices() == [0, 64, 129]
        with pytest.raises(IndexError):
            Bitmap.from_indices(10, [10])
        with pytest.raises(IndexError):
            Bitmap.from_indices(10, [-1])
