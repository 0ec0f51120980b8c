"""Replay equivalence: the vectorized engine vs the reference loop, bit for bit.

``MemoryHierarchy.replay`` always runs the vectorized engine
(``repro.sim._replay_core.replay_vectorized``).  It must be
indistinguishable from the reference loop (``replay_reference``) on
*every* observable: the added stall cycles returned by each ``replay``
call, every statistics counter (including the exact floating-point stall
totals), the final cache contents *in LRU order*, and the prefetcher stream
states — across random traces, random chunk cuts, and every configured
cache geometry.  The suite fuzzes ~50 random traces over several trace
shapes (random addresses, strided streams, mixtures with repeats, tight
alternation with deep reuse windows, periodic rescans that drive covered
installs onto resident lines) plus directed edge cases.

The oracle needs no knob: raising ``MIN_VECTORIZED_HEADS`` above every
trace length makes the vectorized engine hand each whole segment to the
reference loop, while the subject side pins the cutoff to 0 so even tiny
traces take the array path.  A counter around ``replay_reference`` proves
both sides did what they claim (:class:`TestOracleIsNotVacuous`).
"""

import sys

import numpy as np
import pytest

import repro.sim._replay_core as replay_core
from repro.api.config import RuntimeConfig
from repro.sim.config import CacheConfig, SimConfig
from repro.sim.memory import AccessType, MemoryHierarchy, MemoryRequest

#: Share of fuzz traces whose subject replay must finish the array path
#: without handing any segment to the reference loop.  Measured: 45 of the
#: 50 traces; the other five flood the stream table (every tenth trial) and
#: delegate by design.  The traces are seeded, so the count is exact.
MIN_ARRAY_PATH_SHARE = 0.9


class ReferenceCounter:
    """Counts segments replayed by the reference loop and by the array path.

    ``calls`` counts ``replay_reference`` invocations; ``array_entries``
    counts entries into the array path's first phase (``_prefetch_pass``),
    whether or not the segment later delegates.
    """

    def __init__(self, monkeypatch):
        self.calls = 0
        self.array_entries = 0
        reference, prefetch = replay_core.replay_reference, replay_core._prefetch_pass

        def counted_reference(*args):
            self.calls += 1
            return reference(*args)

        def counted_prefetch(*args):
            self.array_entries += 1
            return prefetch(*args)

        monkeypatch.setattr(replay_core, "replay_reference", counted_reference)
        monkeypatch.setattr(replay_core, "_prefetch_pass", counted_prefetch)


@pytest.fixture
def reference_calls(monkeypatch):
    return ReferenceCounter(monkeypatch)


def replay_mode(monkeypatch, oracle):
    """Route ``replay`` to the reference loop (oracle) or the array path."""
    monkeypatch.setattr(
        replay_core, "MIN_VECTORIZED_HEADS", sys.maxsize if oracle else 0
    )


def tiny_sim(l1=(1024, 2, 2), l2=(4096, 4, 8), l3=(8192, 4, 20)):
    """A deliberately small hierarchy: lots of evictions and aliasing."""
    return SimConfig(
        l1=CacheConfig("L1", *l1),
        l2=CacheConfig("L2", *l2),
        l3=CacheConfig("L3", *l3),
    )


SIMS = [
    SimConfig.scaled(16),
    tiny_sim(),
    tiny_sim((512, 4, 1), (2048, 8, 6), (16384, 16, 30)),
]


def random_trace(rng, n_structures, n):
    """One random columnar trace covering a specific access-pattern shape."""
    names = [f"s{i}" for i in range(n_structures)]
    struct_ids = rng.integers(0, n_structures, n)
    style = rng.integers(0, 6)
    if style == 0:  # uniformly random addresses (set aliasing, cold misses)
        addresses = rng.integers(0, 1 << rng.integers(10, 22), n) * 8
    elif style == 1:  # constant-stride streams per structure (prefetcher food)
        addresses = np.zeros(n, dtype=np.int64)
        for s in range(n_structures):
            mask = struct_ids == s
            stride = int(rng.integers(1, 200))
            addresses[mask] = np.arange(mask.sum()) * stride * 8 + s * 100_000
    elif style == 2:  # random walk with repeats and occasional page jumps
        steps = rng.choice([0, 0, 8, 64, -64, 4096], size=n, p=[0.3, 0.1, 0.3, 0.15, 0.1, 0.05])
        addresses = np.abs(np.cumsum(steps))
    elif style == 3:  # tight alternation over few lines: deep reuse windows
        addresses = rng.integers(0, 6, n) * 64 + (np.arange(n) // 500) * 64 * 17
    elif style == 4:  # periodic rescan: covered installs land on resident lines
        period = int(rng.integers(8, 200))
        addresses = (np.arange(n) % period) * 64
    else:  # same-set alternation (conflict-heavy deep windows)
        addresses = rng.integers(0, 10, n) * 64 * 4
    kinds = rng.choice([0, 0, 0, 1, 2], size=n).astype(np.uint8)
    return names, struct_ids.astype(np.int64), np.asarray(addresses, dtype=np.int64), kinds


def replay_in_chunks(sim, names, struct_ids, addresses, kinds, cuts):
    """Replay one trace as consecutive segments through a fresh hierarchy."""
    hierarchy = MemoryHierarchy(sim)
    added = []
    previous = 0
    for cut in list(cuts) + [len(addresses)]:
        if cut > previous:
            added.append(
                hierarchy.replay(
                    names,
                    struct_ids[previous:cut],
                    addresses[previous:cut],
                    kinds[previous:cut],
                )
            )
        previous = cut
    return hierarchy, added


def observable_state(hierarchy):
    """Everything the oracle and the array path must agree on, exactly."""
    h = hierarchy
    return (
        h.stats.requests,
        h.stats.dram_accesses,
        h.stats.prefetch_covered,
        h.stats.stall_cycles,
        h.stats.dependent_stall_cycles,
        tuple(sorted(h.stats.per_structure_accesses.items())),
        tuple(
            (c.stats.accesses, c.stats.hits, c.stats.misses, c.stats.evictions)
            for c in (h.l1, h.l2, h.l3)
        ),
        tuple(tuple(map(tuple, c._sets)) for c in (h.l1, h.l2, h.l3)),
        h.prefetcher.covered_accesses,
        h.prefetcher.issued_prefetches,
        tuple(
            (name, s.last_line, s.stride, s.confirmations)
            for name, s in h.prefetcher._streams.items()
        ),
    )


def replay_both(monkeypatch, counter, sim, names, struct_ids, addresses, kinds, cuts):
    """Oracle and subject replays of one trace, with reference-loop call counts.

    Returns ``((oracle, added), (subject, added), oracle_calls,
    subject_calls)``.  The oracle must never enter the array path; the
    subject must enter it on every segment, and its reference-loop count
    is 0 when the array path also finished every segment.
    """
    before, entries = counter.calls, counter.array_entries
    replay_mode(monkeypatch, oracle=True)
    oracle = replay_in_chunks(sim, names, struct_ids, addresses, kinds, cuts)
    oracle_calls = counter.calls - before
    assert counter.array_entries == entries, "the oracle entered the array path"
    replay_mode(monkeypatch, oracle=False)
    subject = replay_in_chunks(sim, names, struct_ids, addresses, kinds, cuts)
    subject_entries = counter.array_entries - entries
    assert subject_entries == len(subject[1]), "the subject skipped the array path"
    return oracle, subject, oracle_calls, counter.calls - before - oracle_calls


def assert_agree(oracle, subject, tag=""):
    (ref, added_ref), (alt, added_alt) = oracle, subject
    assert added_ref == added_alt, f"{tag}: per-call stall cycles differ"
    for field_ref, field_alt in zip(observable_state(ref), observable_state(alt)):
        assert field_ref == field_alt, f"{tag}: {field_ref} != {field_alt}"


@pytest.fixture
def check_agreement(monkeypatch, reference_calls):
    """``check(sim, names, ids, addresses, kinds, cuts, tag)`` -> subject calls."""

    def check(sim, names, struct_ids, addresses, kinds, cuts, tag=""):
        oracle, subject, oracle_calls, subject_calls = replay_both(
            monkeypatch, reference_calls, sim, names, struct_ids, addresses, kinds, cuts
        )
        assert oracle_calls == len(oracle[1]), f"{tag}: oracle left the reference loop"
        assert_agree(oracle, subject, tag)
        return subject_calls

    return check


def fuzz_case(trial):
    """The trace, geometry and chunk cuts of fuzz trial ``trial``."""
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(50, 4000))
    # Every tenth trial floods the stream table past max_streams to
    # exercise the wholesale delegation to the reference loop.
    n_structures = int(rng.integers(1, 8)) if trial % 10 else 40
    sim = SIMS[trial % len(SIMS)]
    names, struct_ids, addresses, kinds = random_trace(rng, n_structures, n)
    cuts = sorted(rng.integers(1, n, int(rng.integers(0, 5))).tolist())
    return sim, names, struct_ids, addresses, kinds, cuts


FUZZ_TRIALS = 50


class TestFuzzEquivalence:
    """~50 random traces x random chunk cuts: everything bit-identical."""

    @pytest.mark.parametrize("trial", range(FUZZ_TRIALS))
    def test_random_trace(self, trial, check_agreement):
        check_agreement(*fuzz_case(trial), tag=f"trial {trial}")


class TestOracleIsNotVacuous:
    """Both sides of the comparison really ran the engine they claim to."""

    def test_subject_mostly_finishes_the_array_path(self, check_agreement):
        array_only = sum(
            check_agreement(*fuzz_case(trial), tag=f"trial {trial}") == 0
            for trial in range(FUZZ_TRIALS)
        )
        assert array_only >= MIN_ARRAY_PATH_SHARE * FUZZ_TRIALS, array_only

    def test_default_cutoff_replays_long_segments_on_the_array_path(
        self, reference_calls
    ):
        """No patch at all: a long segment never touches the reference loop."""
        assert replay_core.MIN_VECTORIZED_HEADS < 4000
        addresses = np.arange(4000, dtype=np.int64) * 64
        h = MemoryHierarchy(SimConfig.scaled(16))
        h.replay(["v"], np.zeros(4000, dtype=np.int64), addresses, np.zeros(4000, np.uint8))
        assert reference_calls.calls == 0


class TestDirectedEquivalence:
    """Hand-picked shapes targeting the vectorized engine's special cases."""

    def test_single_access_per_call(self, monkeypatch):
        """The per-element access() shim path, one head per replay call."""
        runs = []
        for oracle in (True, False):
            replay_mode(monkeypatch, oracle)
            h = MemoryHierarchy(SimConfig.scaled(16))
            stalls = [
                h.access(MemoryRequest("a", i * 64, AccessType.STREAMING))
                for i in range(64)
            ]
            runs.append((stalls, observable_state(h)))
        assert runs[0] == runs[1]

    def test_pure_write_trace(self, check_agreement):
        """Writes walk the caches but never stall or train the prefetcher."""
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 4096, 500) * 8
        kinds = np.full(500, 2, dtype=np.uint8)
        ids = np.zeros(500, dtype=np.int64)
        check_agreement(tiny_sim(), ["w"], ids, addresses, kinds, [], "writes")

    def test_confirmed_stride_covers(self, check_agreement):
        """A long perfect stride exercises covered installs at L2/L3."""
        addresses = np.arange(4000, dtype=np.int64) * 64
        ids = np.zeros(4000, dtype=np.int64)
        kinds = np.zeros(4000, dtype=np.uint8)
        assert check_agreement(
            SimConfig.scaled(16), ["v"], ids, addresses, kinds, [1000], "stride"
        ) == 0

    def test_rescan_installs_on_resident_lines(self, check_agreement):
        """Periodic rescans drive the no-op-install resolution machinery."""
        addresses = (np.arange(6000, dtype=np.int64) % 96) * 64
        ids = np.zeros(6000, dtype=np.int64)
        kinds = np.zeros(6000, dtype=np.uint8)
        check_agreement(tiny_sim(), ["v"], ids, addresses, kinds, [2500], "rescan")

    def test_stream_table_overflow_delegates(self, check_agreement):
        """More streams than the table holds: exact arbitrary-eviction order."""
        rng = np.random.default_rng(3)
        n = 2000
        names = [f"s{i}" for i in range(40)]
        ids = rng.integers(0, 40, n).astype(np.int64)
        addresses = rng.integers(0, 1 << 16, n) * 8
        kinds = np.zeros(n, dtype=np.uint8)
        # Overflow is the delegation case: the subject hands it over too.
        assert check_agreement(
            tiny_sim(), names, ids, addresses, kinds, [700], "overflow"
        ) > 0

    def test_duplicate_structure_names_share_a_stream(self, check_agreement):
        """Two structure ids with one name feed a single prefetcher stream.

        ``TraceBuilder`` dedups names, but ``replay`` accepts any table;
        this pins the per-stream fallback path of the prefetcher pass.
        """
        rng = np.random.default_rng(17)
        n = 1500
        names = ["shared", "other", "shared"]  # ids 0 and 2 are one stream
        ids = rng.integers(0, 3, n).astype(np.int64)
        addresses = np.arange(n, dtype=np.int64) * 64
        addresses[ids == 1] += 1 << 20
        kinds = np.zeros(n, dtype=np.uint8)
        check_agreement(tiny_sim(), names, ids, addresses, kinds, [400], "duplicate names")

    def test_chunk_cut_every_access(self, check_agreement):
        """Worst-case segmentation: every access its own replay call."""
        rng = np.random.default_rng(5)
        n = 120
        names, ids, addresses, kinds = random_trace(rng, 3, n)
        check_agreement(
            tiny_sim(), names, ids, addresses, kinds, list(range(1, n)), "per-access cuts"
        )


class TestBackendSelection:
    """One engine: ``replay`` has no selector left to turn."""

    def test_default_is_vectorized(self, monkeypatch):
        """Every ``replay`` call goes straight to the vectorized engine."""
        import repro.sim.memory as memory

        calls = []
        engine = memory.replay_vectorized

        def counting(*args):
            calls.append(len(args[3]))
            return engine(*args)

        monkeypatch.setattr(memory, "replay_vectorized", counting)
        h = MemoryHierarchy(SimConfig.scaled(16))
        h.access(MemoryRequest("a", 0))
        h.replay(["b"], np.zeros(3, dtype=np.int64), np.arange(3) * 64, np.zeros(3, np.uint8))
        assert calls == [1, 3]

    def test_backend_not_in_job_key(self):
        """Like every runtime knob, the engine must not split the cache."""
        from repro.api.specs import Workload
        from repro.eval.runner import Job, job_key

        job = Job("spmv", "taco_csr", Workload.suite("M2", 64), SimConfig.scaled(16))
        assert "backend" not in str(sorted(job.payload()))
        assert job_key(job) == job_key(job)


class TestKernelEquivalence:
    """Real kernel traces: array path vs reference loop, at several chunk cuts."""

    @pytest.mark.parametrize("chunk", [0, 7, 4096])
    def test_spmv_schemes_match_reference(self, chunk, monkeypatch, reference_calls):
        from repro.api import Session
        from repro.workloads.suite import generate_matrix

        coo = generate_matrix("M8", dim=48)
        runtime = RuntimeConfig(processes=1, cache_dir=None, trace_chunk=chunk)
        reports, calls = {}, {}
        for oracle in (True, False):
            replay_mode(monkeypatch, oracle)
            before = reference_calls.calls
            with Session(sim=SimConfig.scaled(16), runtime=runtime) as session:
                reports[oracle] = {
                    scheme: session.run_kernel("spmv", scheme, coo).report
                    for scheme in ("taco_csr", "smash_sw", "smash_hw")
                }
            calls[oracle] = reference_calls.calls - before
        assert reports[False] == reports[True]
        assert calls[True] > 0  # the oracle really ran the loop


class TestSnapshotStatsRegression:
    """snapshot_stats must return frozen copies, not aliases (bug fix)."""

    def test_snapshot_does_not_alias_live_counters(self):
        h = MemoryHierarchy(SimConfig.scaled(16))
        h.access(MemoryRequest("a", 0))
        before = h.snapshot_stats()
        l1_accesses = before.l1.accesses
        requests = before.requests
        per_structure = dict(before.per_structure_accesses)
        for i in range(1, 40):
            h.access(MemoryRequest("a", i * 4096, AccessType.DEPENDENT))
        # The snapshot is history: later replays must not mutate it.
        assert before.l1.accesses == l1_accesses
        assert before.requests == requests
        assert dict(before.per_structure_accesses) == per_structure
        after = h.snapshot_stats()
        assert after.l1.accesses > l1_accesses
        assert after.requests > requests

    def test_snapshot_carries_per_level_counters(self):
        h = MemoryHierarchy(SimConfig.scaled(16))
        h.access(MemoryRequest("a", 0))
        stats = h.snapshot_stats()
        assert stats.l1.accesses == h.l1.stats.accesses
        assert stats.l1 is not h.l1.stats
