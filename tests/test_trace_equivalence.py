"""Batched-trace vs per-element equivalence suite.

The batched kernels (``repro.kernels.spmv`` / ``spmm`` / ``spadd``) must
reproduce the per-element reference kernels (``repro.kernels.legacy``)
*exactly*: identical instruction counts per class, identical DRAM accesses,
identical cycles (issue and stall, compared with ``==`` on the floats),
identical per-structure traffic and metadata — for every scheme, every
kernel, and matrices exercising tails, empty rows, and different SMASH
configurations.

The chunked-replay suite (``TestChunkedEquivalence``) layers the
bounded-memory guarantee on top: for every kernel x scheme, replaying the
trace in chunks — at multiple chunk sizes, including ones small enough to
cut streaming runs mid-run — must produce reports bit-identical to the
monolithic build-then-replay path (and hence to the legacy kernels).
"""

import numpy as np
import pytest

from repro.core.config import SMASHConfig
from repro.core.smash_matrix import SMASHMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.convert import coo_to_csc, coo_to_csr
from repro.formats.coo import COOMatrix
from repro.kernels import legacy, spadd, spmm, spmv
from repro.sim.config import SimConfig
from repro.sim.instrumentation import InstructionClass
from repro.sim.trace import CHUNK_ENV_VAR, TraceBuilder
from repro.workloads.synthetic import clustered_matrix, uniform_random_matrix

SIM = SimConfig.scaled(16)
SMASH_CONFIGS = {
    "b2.4.16": SMASHConfig((2, 4, 16)),
    "b2.4": SMASHConfig((2, 4)),
    "b4": SMASHConfig.single_level(4),
}

#: Chunk budgets for the chunked-replay equivalence sweep. 3 is smaller than
#: every kernel's interleaved loop body (and than the BCSR/SMASH block
#: bodies, whose consecutive same-line accesses form streaming runs), so it
#: is guaranteed to cut streaming runs mid-run; 64 exercises coarser
#: mid-trace boundaries.
CHUNK_SIZES = (3, 64)


def assert_reports_identical(batched, reference, tag=""):
    """Exact (not approximate) equality of two cost reports."""
    for cls in InstructionClass:
        assert batched.instructions.get(cls) == reference.instructions.get(cls), (
            f"{tag}: {cls.value} count"
        )
    assert batched.issue_cycles == reference.issue_cycles, f"{tag}: issue cycles"
    assert batched.memory_stall_cycles == reference.memory_stall_cycles, f"{tag}: stalls"
    assert batched.dram_accesses == reference.dram_accesses, f"{tag}: DRAM"
    assert batched.l1_miss_rate == reference.l1_miss_rate, f"{tag}: L1"
    assert batched.l2_miss_rate == reference.l2_miss_rate, f"{tag}: L2"
    assert batched.l3_miss_rate == reference.l3_miss_rate, f"{tag}: L3"
    assert dict(batched.per_structure_accesses) == dict(reference.per_structure_accesses), (
        f"{tag}: per-structure accesses"
    )
    assert dict(batched.metadata) == dict(reference.metadata), f"{tag}: metadata"


@pytest.fixture(
    params=["clustered", "uniform", "rectangular", "empty", "dense"], scope="module"
)
def workload(request):
    """COO matrices covering clustering, tails, emptiness and full density."""
    return {
        "clustered": clustered_matrix(
            32, 32, density=0.06, cluster_size=4, cluster_height=2, seed=7
        ),
        "uniform": uniform_random_matrix(24, 24, density=0.05, seed=11),
        "rectangular": uniform_random_matrix(16, 24, density=0.08, seed=3),
        "empty": uniform_random_matrix(8, 8, density=0.0, seed=1),
        "dense": uniform_random_matrix(6, 6, density=1.0, seed=2),
    }[request.param]


class TestSpMVEquivalence:
    CSR_PAIRS = [
        (spmv.spmv_csr_instrumented, legacy.spmv_csr_instrumented),
        (spmv.spmv_ideal_csr_instrumented, legacy.spmv_ideal_csr_instrumented),
        (spmv.spmv_mkl_csr_instrumented, legacy.spmv_mkl_csr_instrumented),
    ]

    def test_csr_family(self, workload):
        csr = coo_to_csr(workload)
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        for batched_fn, reference_fn in self.CSR_PAIRS:
            y_new, r_new = batched_fn(csr, x, SIM)
            y_old, r_old = reference_fn(csr, x, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            np.testing.assert_allclose(y_new, y_old)

    def test_bcsr(self, workload):
        bcsr = BCSRMatrix.from_coo(workload, (4, 4))
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        y_new, r_new = spmv.spmv_bcsr_instrumented(bcsr, x, SIM)
        y_old, r_old = legacy.spmv_bcsr_instrumented(bcsr, x, SIM)
        assert_reports_identical(r_new, r_old, "spmv_bcsr")
        np.testing.assert_allclose(y_new, y_old)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_smash(self, workload, config_name):
        matrix = SMASHMatrix.from_coo(workload, SMASH_CONFIGS[config_name])
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        for batched_fn, reference_fn in [
            (spmv.spmv_smash_software_instrumented, legacy.spmv_smash_software_instrumented),
            (spmv.spmv_smash_hardware_instrumented, legacy.spmv_smash_hardware_instrumented),
        ]:
            y_new, r_new = batched_fn(matrix, x, SIM)
            y_old, r_old = reference_fn(matrix, x, SIM)
            assert_reports_identical(r_new, r_old, f"{batched_fn.__name__}/{config_name}")
            np.testing.assert_allclose(y_new, y_old)

    def test_smash_hw_with_buffer_reloads(self):
        """A Bitmap-0 larger than the 2048-bit BMU window forces reloads.

        96x96 with block size 2 gives a 4608-bit Bitmap-0, so the PBMAP scan
        must refill its SRAM window at least once; the clustered pattern also
        exercises the upper-level all-zero-span skip. The workloads above are
        all window-resident, so without this case the reload/skip path of
        ``hardware_scan_plan`` would go untested.
        """
        workload = clustered_matrix(
            96, 96, density=0.02, cluster_size=5, cluster_height=2, seed=13
        )
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        matrix = SMASHMatrix.from_coo(workload, SMASHConfig((2, 4, 16)))
        y_new, r_new = spmv.spmv_smash_hardware_instrumented(matrix, x, SIM)
        y_old, r_old = legacy.spmv_smash_hardware_instrumented(matrix, x, SIM)
        assert r_old.metadata["bmu_buffer_reloads"] > 0, "workload must trigger reloads"
        assert_reports_identical(r_new, r_old, "spmv_smash_hw/reloads")
        np.testing.assert_allclose(y_new, y_old)


class TestSpMMEquivalence:
    CSR_PAIRS = [
        (spmm.spmm_csr_instrumented, legacy.spmm_csr_instrumented),
        (spmm.spmm_ideal_csr_instrumented, legacy.spmm_ideal_csr_instrumented),
        (spmm.spmm_mkl_csr_instrumented, legacy.spmm_mkl_csr_instrumented),
    ]

    def _operands(self, workload):
        b = (
            uniform_random_matrix(workload.cols, workload.rows, density=0.07, seed=77)
            if workload.rows != workload.cols
            else workload
        )
        return workload, b

    def test_csr_family(self, workload):
        a, b = self._operands(workload)
        a_csr, b_csc = coo_to_csr(a), coo_to_csc(b)
        for batched_fn, reference_fn in self.CSR_PAIRS:
            c_new, r_new = batched_fn(a_csr, b_csc, SIM)
            c_old, r_old = reference_fn(a_csr, b_csc, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            np.testing.assert_allclose(c_new, c_old)

    def test_bcsr(self, workload):
        a, b = self._operands(workload)
        bcsr = BCSRMatrix.from_coo(a, (4, 4))
        b_csc = coo_to_csc(b)
        c_new, r_new = spmm.spmm_bcsr_instrumented(bcsr, b_csc, SIM)
        c_old, r_old = legacy.spmm_bcsr_instrumented(bcsr, b_csc, SIM)
        assert_reports_identical(r_new, r_old, "spmm_bcsr")
        np.testing.assert_allclose(c_new, c_old)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_smash(self, workload, config_name):
        config = SMASH_CONFIGS[config_name]
        if workload.cols % config.block_size:
            pytest.skip("row length must be a multiple of the block size")
        a, b = self._operands(workload)
        a_sm = SMASHMatrix.from_coo(a, config)
        bt_sm = SMASHMatrix.from_coo(b.transpose(), config)
        for batched_fn, reference_fn in [
            (spmm.spmm_smash_software_instrumented, legacy.spmm_smash_software_instrumented),
            (spmm.spmm_smash_hardware_instrumented, legacy.spmm_smash_hardware_instrumented),
        ]:
            c_new, r_new = batched_fn(a_sm, bt_sm, SIM)
            c_old, r_old = reference_fn(a_sm, bt_sm, SIM)
            assert_reports_identical(r_new, r_old, f"{batched_fn.__name__}/{config_name}")
            np.testing.assert_allclose(c_new, c_old)


class TestSpAddEquivalence:
    def _operands(self, workload):
        if workload.rows != workload.cols:
            pytest.skip("spadd needs equal shapes; covered by the square workloads")
        b = uniform_random_matrix(workload.rows, workload.cols, density=0.05, seed=5)
        return workload, b

    def test_csr_family(self, workload):
        a, b = self._operands(workload)
        a_csr, b_csr = coo_to_csr(a), coo_to_csr(b)
        for batched_fn, reference_fn in [
            (spadd.spadd_csr_instrumented, legacy.spadd_csr_instrumented),
            (spadd.spadd_ideal_csr_instrumented, legacy.spadd_ideal_csr_instrumented),
        ]:
            c_new, r_new = batched_fn(a_csr, b_csr, SIM)
            c_old, r_old = reference_fn(a_csr, b_csr, SIM)
            assert_reports_identical(r_new, r_old, batched_fn.__name__)
            np.testing.assert_allclose(c_new, c_old)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_smash_hw(self, workload, config_name):
        a, b = self._operands(workload)
        config = SMASH_CONFIGS[config_name]
        a_sm = SMASHMatrix.from_coo(a, config)
        b_sm = SMASHMatrix.from_coo(b, config)
        c_new, r_new = spadd.spadd_smash_hardware_instrumented(a_sm, b_sm, SIM)
        c_old, r_old = legacy.spadd_smash_hardware_instrumented(a_sm, b_sm, SIM)
        assert_reports_identical(r_new, r_old, f"spadd_smash/{config_name}")
        np.testing.assert_allclose(c_new, c_old)


def run_chunk_modes(monkeypatch, fn, *args):
    """``(label, (C, report))`` of ``fn`` run monolithic and at every ``CHUNK_SIZES``."""
    results = []
    for label, chunk in [("monolithic", "0")] + [(f"chunk{c}", str(c)) for c in CHUNK_SIZES]:
        monkeypatch.setenv(CHUNK_ENV_VAR, chunk)
        results.append((label, fn(*args, SIM)))
    monkeypatch.delenv(CHUNK_ENV_VAR)
    return results


class TestChunkedEquivalence:
    """Chunked replay == monolithic replay == legacy, for every kernel x scheme.

    Every batched kernel is run three times — monolithic (chunking
    disabled), and once per ``CHUNK_SIZES`` budget — and all reports must be
    exactly equal to each other and to the per-element reference kernel's.
    """

    def _run_modes(self, monkeypatch, fn, *args):
        return {label: report for label, (_, report) in run_chunk_modes(monkeypatch, fn, *args)}

    def _assert_all_equal(self, reports, reference, tag):
        for label, report in reports.items():
            assert_reports_identical(report, reference, f"{tag}/{label}")

    def test_spmv(self, workload, monkeypatch):
        csr = coo_to_csr(workload)
        bcsr = BCSRMatrix.from_coo(workload, (4, 4))
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        pairs = TestSpMVEquivalence.CSR_PAIRS + [
            (spmv.spmv_bcsr_instrumented, legacy.spmv_bcsr_instrumented)
        ]
        for batched_fn, reference_fn in pairs:
            operand = bcsr if batched_fn is spmv.spmv_bcsr_instrumented else csr
            reports = self._run_modes(monkeypatch, batched_fn, operand, x)
            _, reference = reference_fn(operand, x, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    def test_spmv_smash(self, workload, config_name, monkeypatch):
        matrix = SMASHMatrix.from_coo(workload, SMASH_CONFIGS[config_name])
        x = np.random.default_rng(5).uniform(0.1, 1.0, workload.cols)
        for batched_fn, reference_fn in [
            (spmv.spmv_smash_software_instrumented, legacy.spmv_smash_software_instrumented),
            (spmv.spmv_smash_hardware_instrumented, legacy.spmv_smash_hardware_instrumented),
        ]:
            reports = self._run_modes(monkeypatch, batched_fn, matrix, x)
            _, reference = reference_fn(matrix, x, SIM)
            self._assert_all_equal(reports, reference, f"{batched_fn.__name__}/{config_name}")

    def test_spmm(self, workload, monkeypatch):
        b = (
            uniform_random_matrix(workload.cols, workload.rows, density=0.07, seed=77)
            if workload.rows != workload.cols
            else workload
        )
        a_csr, b_csc = coo_to_csr(workload), coo_to_csc(b)
        pairs = TestSpMMEquivalence.CSR_PAIRS + [
            (spmm.spmm_bcsr_instrumented, legacy.spmm_bcsr_instrumented)
        ]
        bcsr = BCSRMatrix.from_coo(workload, (4, 4))
        for batched_fn, reference_fn in pairs:
            a = bcsr if batched_fn is spmm.spmm_bcsr_instrumented else a_csr
            reports = self._run_modes(monkeypatch, batched_fn, a, b_csc)
            _, reference = reference_fn(a, b_csc, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)

    def test_spmm_smash(self, workload, monkeypatch):
        config = SMASH_CONFIGS["b2.4.16"]
        if workload.cols % config.block_size:
            pytest.skip("row length must be a multiple of the block size")
        b = (
            uniform_random_matrix(workload.cols, workload.rows, density=0.07, seed=77)
            if workload.rows != workload.cols
            else workload
        )
        a_sm = SMASHMatrix.from_coo(workload, config)
        bt_sm = SMASHMatrix.from_coo(b.transpose(), config)
        for batched_fn, reference_fn in [
            (spmm.spmm_smash_software_instrumented, legacy.spmm_smash_software_instrumented),
            (spmm.spmm_smash_hardware_instrumented, legacy.spmm_smash_hardware_instrumented),
        ]:
            reports = self._run_modes(monkeypatch, batched_fn, a_sm, bt_sm)
            _, reference = reference_fn(a_sm, bt_sm, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)

    def test_spadd(self, workload, monkeypatch):
        if workload.rows != workload.cols:
            pytest.skip("spadd needs equal shapes; covered by the square workloads")
        b = uniform_random_matrix(workload.rows, workload.cols, density=0.05, seed=5)
        a_csr, b_csr = coo_to_csr(workload), coo_to_csr(b)
        for batched_fn, reference_fn in [
            (spadd.spadd_csr_instrumented, legacy.spadd_csr_instrumented),
            (spadd.spadd_ideal_csr_instrumented, legacy.spadd_ideal_csr_instrumented),
        ]:
            reports = self._run_modes(monkeypatch, batched_fn, a_csr, b_csr)
            _, reference = reference_fn(a_csr, b_csr, SIM)
            self._assert_all_equal(reports, reference, batched_fn.__name__)
        config = SMASH_CONFIGS["b2.4.16"]
        a_sm = SMASHMatrix.from_coo(workload, config)
        b_sm = SMASHMatrix.from_coo(b, config)
        reports = self._run_modes(
            monkeypatch, spadd.spadd_smash_hardware_instrumented, a_sm, b_sm
        )
        _, reference = legacy.spadd_smash_hardware_instrumented(a_sm, b_sm, SIM)
        self._assert_all_equal(reports, reference, "spadd_smash_hw")

    def test_mid_run_split_is_exact(self):
        """A chunk cut inside a coalesced streaming run changes nothing.

        The trace interleaves a long same-line run (stride-0 repeats, which
        the monolithic replay coalesces into one head plus bulk L1 credits)
        with striding accesses; replaying it at chunk size 3 forces cuts
        inside the run, whose far side must score the same guaranteed L1
        hits and leave the prefetcher untouched.
        """
        from repro.sim.instrumentation import KernelInstrumentation

        def build(chunk):
            instr = KernelInstrumentation("k", "s", SIM, trace_chunk=chunk)
            instr.register_array("a", 4096)
            instr.register_array("b", 4096)
            builder = instr.trace_builder()
            builder.add("a", np.zeros(50, dtype=np.int64), 0)  # one line, 50 repeats
            builder.add("b", np.arange(20, dtype=np.int64) * 64, 0)
            builder.add("a", np.full(30, 8, dtype=np.int64), 1)  # dependent repeats
            instr.replay_trace(builder.build())
            return instr.report()

        assert_reports_identical(build(3), build(None), "mid-run split")
        assert_reports_identical(build(1), build(None), "every-access split")


def _spmm_operands(a, b, config):
    """Every SpMM scheme's ``(batched, legacy, A, B)`` for COO operands ``a``, ``b``."""
    a_csr, b_csc = coo_to_csr(a), coo_to_csc(b)
    bcsr = BCSRMatrix.from_coo(a, (4, 4))
    a_sm, bt_sm = SMASHMatrix.from_coo(a, config), SMASHMatrix.from_coo(b.transpose(), config)
    return [
        (batched, reference, a_csr, b_csc)
        for batched, reference in TestSpMMEquivalence.CSR_PAIRS
    ] + [
        (spmm.spmm_bcsr_instrumented, legacy.spmm_bcsr_instrumented, bcsr, b_csc),
        (spmm.spmm_smash_software_instrumented, legacy.spmm_smash_software_instrumented,
         a_sm, bt_sm),
        (spmm.spmm_smash_hardware_instrumented, legacy.spmm_smash_hardware_instrumented,
         a_sm, bt_sm),
    ]


CANCELLED = [(0, 0), (3, 3), (5, 7), (6, 0), (6, 3), (6, 7), (6, 12)]


def _edge_operands():
    """A 7x16 by 16x13 product built to hit the merge's corner cases.

    Rows 1 and 4 of A and columns 1, 5, 9 and 10 of B are empty; the pairs
    in ``CANCELLED`` sum to exactly 0.0 (also per SMASH block and BCSR block
    column), so they write no ``C`` and count no STORE. Pair (6, 12)
    cancels only when its 16 products are added left to right (a pairwise
    sum leaves about 1e-15). Column 2's indices all exceed row 0's and row
    3's largest, so those merges stop early when A's side runs out.
    """
    a = np.zeros((7, 16))
    a[0, [0, 1]] = 1.0
    a[2, [2, 3, 6]] = [2.0, -3.0, 1.5]
    a[3, [0, 2]] = 1.0
    a[5, [0, 4, 5, 7]] = [0.5, 2.0, 2.0, 4.0]
    a[6, :] = 1.0
    b = np.zeros((16, 13))
    b[[0, 1], 0] = [1.0, -1.0]
    b[[6, 7], 2] = [2.0, 3.0]
    b[[0, 2], 3] = [1.0, -1.0]
    b[:, 4] = 1.0
    b[3, 6] = 5.0
    b[[4, 5], 7] = [1.0, -1.0]
    b[[1, 6], 8] = [0.25, -2.0]
    b[7, 11] = 1.0
    b[:, 12] = [1.0] + [1e-16] * 14 + [-1.0]
    return COOMatrix.from_dense(a), COOMatrix.from_dense(b)


class TestSpMMEdgeCases:
    """Vectorized SpMM == legacy on corner cases, monolithic and chunked."""

    @pytest.mark.parametrize("config_name", ["b2.4", "b4"])
    @pytest.mark.parametrize("operands", ["edge", "random_rectangular"])
    def test_all_schemes(self, operands, config_name, monkeypatch):
        if operands == "edge":
            a, b = _edge_operands()
        else:
            a = uniform_random_matrix(12, 16, density=0.1, seed=21)
            b = uniform_random_matrix(16, 20, density=0.1, seed=22)
        for batched, reference, lhs, rhs in _spmm_operands(a, b, SMASH_CONFIGS[config_name]):
            c_ref, r_ref = reference(lhs, rhs, SIM)
            for label, (c_new, r_new) in run_chunk_modes(monkeypatch, batched, lhs, rhs):
                tag = f"{batched.__name__}/{label}"
                assert_reports_identical(r_new, r_ref, tag)
                assert c_new.tobytes() == c_ref.tobytes(), tag

    def test_cancelled_pairs_write_nothing(self):
        a, b = _edge_operands()
        c, report = spmm.spmm_csr_instrumented(coo_to_csr(a), coo_to_csc(b), SIM)
        assert all(c[i, j] == 0.0 for i, j in CANCELLED)
        structural = np.count_nonzero((a.to_dense() != 0) @ (b.to_dense() != 0))
        assert report.instructions.get(InstructionClass.STORE) == structural - len(CANCELLED)


def appended_sizes(monkeypatch, budget, fn, *args):
    """Run ``fn(*args, SIM)`` at chunk ``budget``; return its append sizes and output.

    Spies on :meth:`TraceBuilder.add_columns`, the append every batched
    kernel's columns go through, and checks that no append overfills the
    builder's partly filled segment.
    """
    sizes = []
    original = TraceBuilder.add_columns

    def spy(builder, struct_ids, offsets, kinds):
        sizes.append(len(struct_ids))
        if builder.chunk_accesses is not None:
            assert builder.n_accesses + len(struct_ids) <= builder.chunk_accesses
        return original(builder, struct_ids, offsets, kinds)

    monkeypatch.setattr(TraceBuilder, "add_columns", spy)
    monkeypatch.setenv(CHUNK_ENV_VAR, str(budget))
    output = fn(*args, SIM)
    monkeypatch.undo()
    return sizes, output


class TestSpMMTiling:
    """Rows longer than the chunk budget are appended in budget-sized tiles."""

    BUDGET = 64

    def test_wide_operand_appends_fit_the_budget(self, monkeypatch):
        a = uniform_random_matrix(4, 32, density=0.2, seed=31)
        b = uniform_random_matrix(32, 256, density=0.05, seed=32)
        busy_rows = int(np.count_nonzero(np.diff(coo_to_csr(a).row_ptr)))
        for batched, reference, lhs, rhs in _spmm_operands(a, b, SMASH_CONFIGS["b4"]):
            sizes, (_, report) = appended_sizes(monkeypatch, self.BUDGET, batched, lhs, rhs)
            name = batched.__name__
            assert sizes and max(sizes) <= self.BUDGET, name
            assert len(sizes) > busy_rows, f"{name}: rows were not tiled"
            assert_reports_identical(report, reference(lhs, rhs, SIM)[1], name)

    def test_oversized_pair_is_split_at_the_budget(self, monkeypatch):
        a_csr = coo_to_csr(COOMatrix.from_dense(np.ones((1, 64))))
        b_csc = coo_to_csc(COOMatrix.from_dense(np.ones((64, 2))))
        sizes, (_, report) = appended_sizes(
            monkeypatch, self.BUDGET, spmm.spmm_csr_instrumented, a_csr, b_csc
        )
        # The row pointer, then per pair its column pointer, 64 matching
        # steps of four accesses and its C write: 517 accesses, appended
        # in full budget-sized windows and the remainder.
        assert sum(sizes) == 1 + 2 * (2 + 4 * 64)
        assert sizes == [self.BUDGET] * 8 + [5]
        assert_reports_identical(
            report, legacy.spmm_csr_instrumented(a_csr, b_csc, SIM)[1], "oversized pair"
        )


def _dense_rows(rows, cols, busy_rows):
    dense = np.zeros((rows, cols))
    dense[busy_rows] = 1.0
    return COOMatrix.from_dense(dense)


#: ``(A, B)`` COO operand pairs that corner the SpMM row-window planner (see
#: ``TestSpMMWindowEdgeCases``).
SPMM_EDGES = {
    # Rows 1 and 4 of A and columns 1, 5, 9 and 10 of B are empty.
    "empty_rows_and_columns": _edge_operands,
    "all_zero_a": lambda: (
        uniform_random_matrix(6, 16, density=0.0, seed=1),
        uniform_random_matrix(16, 12, density=0.3, seed=2),
    ),
    "empty_b_columns": lambda: (
        uniform_random_matrix(8, 16, density=0.3, seed=3),
        _dense_rows(12, 16, [0, 3, 7]).transpose(),
    ),
    "non_square": lambda: (
        uniform_random_matrix(3, 32, density=0.3, seed=4),
        uniform_random_matrix(32, 5, density=0.3, seed=5),
    ),
    # Row 2 of A is dense: its planned accesses exceed every budget tried.
    "dense_row": lambda: (
        _dense_rows(5, 32, [2]),
        uniform_random_matrix(32, 6, density=0.5, seed=6),
    ),
}


class TestSpMMWindowEdgeCases:
    """All six SpMM schemes == legacy on row-window corner cases.

    Each case runs monolithic and at every ``CHUNK_SIZES`` budget. Reports
    and ``C`` must equal the legacy kernel's exactly; no append may exceed
    the budget, and a trace that fits the budget is a single append.
    """

    @pytest.mark.parametrize("config_name", ["b2.4", "b4"])
    @pytest.mark.parametrize("case", sorted(SPMM_EDGES))
    def test_matches_legacy(self, case, config_name, monkeypatch):
        a, b = SPMM_EDGES[case]()
        for batched, reference, lhs, rhs in _spmm_operands(a, b, SMASH_CONFIGS[config_name]):
            c_ref, r_ref = reference(lhs, rhs, SIM)
            for budget in (0,) + CHUNK_SIZES:
                sizes, (c_new, r_new) = appended_sizes(monkeypatch, budget, batched, lhs, rhs)
                tag = f"{case}/{config_name}/{batched.__name__}/budget {budget}"
                assert_reports_identical(r_new, r_ref, tag)
                assert c_new.tobytes() == c_ref.tobytes(), tag
                if budget:
                    assert max(sizes, default=0) <= budget, tag
                if not budget or sum(sizes) <= budget:
                    assert len(sizes) <= 1, tag

    @pytest.mark.parametrize("window_steps", [1, 40])
    def test_small_row_windows_match_legacy(self, window_steps, monkeypatch):
        """Row windows cut anywhere change nothing.

        Later windows must top up the segment earlier ones left partly
        filled, which the spy in ``appended_sizes`` checks.
        """
        a, b = _edge_operands()
        for batched, reference, lhs, rhs in _spmm_operands(a, b, SMASH_CONFIGS["b4"]):
            c_ref, r_ref = reference(lhs, rhs, SIM)
            for budget in (0,) + CHUNK_SIZES:
                monkeypatch.setattr(spmm, "WINDOW_STEPS", window_steps)
                sizes, (c_new, r_new) = appended_sizes(monkeypatch, budget, batched, lhs, rhs)
                tag = f"{window_steps}/{batched.__name__}/budget {budget}"
                assert_reports_identical(r_new, r_ref, tag)
                assert c_new.tobytes() == c_ref.tobytes(), tag
                assert len(sizes) > 1, tag

    def test_cases_reach_their_corners(self, monkeypatch):
        """Each case really has the shape its name promises."""
        a, b = SPMM_EDGES["empty_rows_and_columns"]()
        assert not a.to_dense().any(axis=1).all()
        assert not b.to_dense().any(axis=0).all()
        a, _ = SPMM_EDGES["all_zero_a"]()
        assert a.rows and not a.to_dense().any()
        _, b = SPMM_EDGES["empty_b_columns"]()
        assert 0 < np.count_nonzero(b.to_dense().any(axis=0)) < b.cols
        a, b = SPMM_EDGES["non_square"]()
        assert len({a.rows, a.cols, b.cols}) == 3
        a, b = SPMM_EDGES["dense_row"]()
        sizes, _ = appended_sizes(
            monkeypatch, 0, spmm.spmm_csr_instrumented, coo_to_csr(a), coo_to_csc(b)
        )
        # Every other row is a lone row-pointer load.
        assert sizes[0] - (a.rows - 1) > max(CHUNK_SIZES)


def _with_rows_cleared(coo, start, stop):
    dense = coo.to_dense()
    dense[start:stop] = 0.0
    return COOMatrix.from_dense(dense)


def _single_nonzero(rows, cols, row, col):
    dense = np.zeros((rows, cols))
    dense[row, col] = 1.5
    return COOMatrix.from_dense(dense)


#: COO matrices that corner the SMASH SpMV scan planners (see
#: ``TestSpMVSmashEdgeCases``).
SMASH_SPMV_EDGES = {
    "all_zero": lambda: uniform_random_matrix(96, 96, density=0.0, seed=1),
    # 225 elements: the last block is truncated, and it holds the only non-zero.
    "last_block": lambda: _single_nonzero(15, 15, 14, 14),
    # 900 elements: Bitmap-0 has 450 or 225 bits, not a multiple of 64.
    "odd_bitmap": lambda: uniform_random_matrix(30, 30, density=0.1, seed=4),
    # Rows 51-102 hold elements 8192-16383, all of top-level word 1 of
    # b2.4.16 (and several words of b2.4): a zero word between set words.
    "top_word_gap": lambda: _with_rows_cleared(
        uniform_random_matrix(160, 160, density=0.05, seed=6), 51, 103
    ),
    # Bitmap-0 outgrows the 2048-bit BMU window: reloads and all-zero-span skips.
    "bmu_reload": lambda: clustered_matrix(
        96, 96, density=0.02, cluster_size=5, cluster_height=2, seed=13
    ),
}


class TestSpMVSmashEdgeCases:
    """Both SMASH SpMV kernels == legacy on scan-plan corner cases.

    Each case runs monolithic and at every ``CHUNK_SIZES`` budget, on the
    1-, 2- and 3-level configs. Reports and ``y`` must equal the legacy
    kernel's exactly, and no append may exceed the budget.
    """

    PAIRS = [
        (spmv.spmv_smash_software_instrumented, legacy.spmv_smash_software_instrumented),
        (spmv.spmv_smash_hardware_instrumented, legacy.spmv_smash_hardware_instrumented),
    ]

    @pytest.mark.parametrize("config_name", sorted(SMASH_CONFIGS))
    @pytest.mark.parametrize("case", sorted(SMASH_SPMV_EDGES))
    def test_matches_legacy(self, case, config_name, monkeypatch):
        matrix = SMASHMatrix.from_coo(SMASH_SPMV_EDGES[case](), SMASH_CONFIGS[config_name])
        x = np.random.default_rng(5).uniform(0.1, 1.0, matrix.cols)
        for batched, reference in self.PAIRS:
            y_ref, r_ref = reference(matrix, x, SIM)
            for budget in (0,) + CHUNK_SIZES:
                sizes, (y_new, r_new) = appended_sizes(monkeypatch, budget, batched, matrix, x)
                tag = f"{case}/{config_name}/{batched.__name__}/budget {budget}"
                assert_reports_identical(r_new, r_ref, tag)
                assert y_new.tobytes() == y_ref.tobytes(), tag
                if budget:
                    assert max(sizes, default=0) <= budget, tag

    def test_cases_reach_their_corners(self):
        """Each case really has the shape its name promises."""
        deep = SMASH_CONFIGS["b2.4.16"]
        empty = SMASHMatrix.from_coo(SMASH_SPMV_EDGES["all_zero"](), deep)
        assert empty.hierarchy.base.n_words > 1 and not empty.hierarchy.base.words.any()

        last = SMASHMatrix.from_coo(SMASH_SPMV_EDGES["last_block"](), deep)
        assert last.hierarchy.base.set_bit_array().tolist() == [last.hierarchy.base.n_bits - 1]
        assert (15 * 15) % deep.block_size

        for config in SMASH_CONFIGS.values():
            odd = SMASHMatrix.from_coo(SMASH_SPMV_EDGES["odd_bitmap"](), config)
            assert odd.hierarchy.base.n_bits % 64, config

        for name in ("b2.4.16", "b2.4"):
            gap = SMASHMatrix.from_coo(SMASH_SPMV_EDGES["top_word_gap"](), SMASH_CONFIGS[name])
            top = gap.hierarchy.bitmap(gap.hierarchy.levels - 1).words
            set_words = np.flatnonzero(top)
            assert not top[set_words[0]:set_words[-1]].all(), name

        reload = SMASHMatrix.from_coo(SMASH_SPMV_EDGES["bmu_reload"](), deep)
        _, report = spmv.spmv_smash_hardware_instrumented(
            reload, np.ones(reload.cols), SIM
        )
        assert report.metadata["bmu_buffer_reloads"] > 0


class TestBatchApiEquivalence:
    """The batched trace API must equal its per-element loop."""

    def _fresh(self):
        instr = __import__("repro.sim.instrumentation", fromlist=["KernelInstrumentation"])
        k = instr.KernelInstrumentation("k", "s", SIM)
        k.register_array("a", 4096)
        k.register_array("b", 4096)
        return k

    def test_interleaved_trace_matches_loop(self):
        rng = np.random.default_rng(0)
        offs_a = rng.integers(0, 4096 // 8, 200) * 8
        offs_b = rng.integers(0, 4096 // 8, 200) * 8
        one = self._fresh()
        builder = one.trace_builder()
        ids = np.empty(400, dtype=np.int64)
        offsets = np.empty(400, dtype=np.int64)
        kinds = np.empty(400, dtype=np.uint8)
        ids[0::2], offsets[0::2], kinds[0::2] = builder.structure_id("a"), offs_a, 0
        ids[1::2], offsets[1::2], kinds[1::2] = builder.structure_id("b"), offs_b, 1
        builder.add_columns(ids, offsets, kinds)
        one.replay_trace(builder.build())
        two = self._fresh()
        for oa, ob in zip(offs_a, offs_b):
            two.load("a", int(oa), count_instruction=False)
            two.load("b", int(ob), dependent=True, count_instruction=False)
        assert_reports_identical(one.report(), two.report(), "interleaved")
