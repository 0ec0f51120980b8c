"""Memory hierarchy model: L1/L2/L3 caches plus DRAM with a stride prefetcher.

Kernels emit access *traces* tagged with the data structure each access
belongs to and whether it is *dependent* (its address was produced by a
preceding load, i.e. pointer chasing) or *streaming*. The hierarchy replays
the trace, classifies each access as a hit at some level or a DRAM access,
and accumulates stall cycles. Dependent misses are charged their full
latency; independent misses are overlapped by the CPU's memory-level
parallelism.

Two entry points share one engine:

* :meth:`MemoryHierarchy.replay` — the batched path: whole trace segments
  (columnar numpy arrays, see :mod:`repro.sim.trace`) are replayed with
  block addresses, run coalescing and interleaved-window coalescing
  computed array-at-a-time, then handed to the vectorized replay engine
  (:func:`repro.sim._replay_core.replay_vectorized`), which classifies LRU
  hits per level through reuse (stack) distances entirely in numpy. It
  hands small segments and stream-table overflow to the reference loop
  (:func:`repro.sim._replay_core.replay_reference`), which walks the heads
  in Python; the two are bit-identical.
* :meth:`MemoryHierarchy.access` — the legacy per-element API, kept as a
  thin shim that replays a one-access trace. Results are bit-identical to
  the batched path by construction.

**Chunk-boundary contract.** Every piece of replay state lives on the
hierarchy object and persists across :meth:`MemoryHierarchy.replay` calls:
cache contents and LRU order, prefetcher stream table, and the running
stall/statistics totals. Replaying one trace as N consecutive segments is
therefore bit-identical to replaying it in one call, for *any* cut points —
including a cut inside a coalesced streaming run: the run head on the far
side of the cut walks the hierarchy, scores the same guaranteed L1 hit the
bulk credit would have recorded, and its stride-0 prefetcher probe leaves
the stream state untouched. A cut inside an interleaved two-key window is
exact likewise: the window rule holds from any carried state, so each side
drops only touches that are L1 hits in either replay. This is the
invariant the bounded-memory chunked replay (see :mod:`repro.sim.trace`
and DESIGN.md section 10) is built on, and
``tests/test_trace_equivalence.py`` asserts it for every kernel x scheme
at multiple chunk sizes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim._replay_core import replay_vectorized, stall_cycles_for
from repro.sim.cache import Cache, CacheStats
from repro.sim.config import SimConfig
from repro.sim.prefetcher import StridePrefetcher
from repro.sim.trace import KIND_DEPENDENT, KIND_STREAM, KIND_WRITE


class AccessType(enum.Enum):
    """Classification of a memory access for latency accounting."""

    #: Address is a simple linear function of the loop induction variable;
    #: misses can be overlapped with each other and hidden by prefetching.
    STREAMING = "streaming"
    #: Address was computed from the result of a prior load (pointer chasing
    #: / indirect indexing); the miss latency is exposed.
    DEPENDENT = "dependent"
    #: Store traffic. Writes are buffered, so they never stall the core in
    #: this model, but they still occupy cache lines.
    WRITE = "write"


@dataclass(frozen=True)
class MemoryRequest:
    """One memory access at byte granularity."""

    structure: str
    address: int
    access_type: AccessType = AccessType.STREAMING
    size_bytes: int = 8


#: Trace-kind code for each access type (see :mod:`repro.sim.trace`).
_KIND_OF_ACCESS_TYPE = {
    AccessType.STREAMING: KIND_STREAM,
    AccessType.DEPENDENT: KIND_DEPENDENT,
    AccessType.WRITE: KIND_WRITE,
}

#: Shared one-element structure-id column for the per-request shim.
_SINGLE_ID = np.zeros(1, dtype=np.int64)

_NO_HEADS = np.zeros(0, dtype=np.int64)


def _interleaved_touches(
    structures: Sequence[str],
    ids: np.ndarray,
    lines: np.ndarray,
    kinds: np.ndarray,
    assoc: int,
) -> np.ndarray:
    """Indices of the heads that sit strictly inside a two-key alternation.

    With ``key = (structure, line, kind)`` per head, head ``i`` is returned
    iff ``key[j] == key[j - 2]`` for ``j = i, i + 1, i + 2``: it re-touches
    one of the two keys its window alternates over and is neither the
    first nor the last touch of either. Dropping the returned heads is
    exact when the L1 holds at least two ways:

    * a window that touches at most ``assoc`` distinct lines never evicts
      one of its own (the stack-distance property), so every dropped head
      is an L1 hit with ``0.0`` stall, and each line's first touch in the
      window classifies as before;
    * a dropped head's prefetcher probe has stride 0 and leaves its stream
      unchanged — unless the two keys are one stream (one structure
      *name*, ids aside) streaming two different lines, and those windows
      are kept;
    * the kept last touches restore the final LRU order.
    """
    if assoc < 2 or lines.size < 5:
        return _NO_HEADS
    # Lines first: most SpMV segments stop at this gate. Where it passes,
    # candidates are dense (37% of the dim-96 SpMM heads are dropped), and
    # full-array id and kind comparisons cost less than gathers at them.
    repeat = lines[2:] == lines[:-2]  # repeat[k]: key[k + 2] == key[k]
    window = repeat[:-2] & repeat[1:-1]
    window &= repeat[2:]
    if not window.any():
        return _NO_HEADS
    repeat &= ids[2:] == ids[:-2]
    repeat &= kinds[2:] == kinds[:-2]
    np.logical_and(repeat[:-2], repeat[1:-1], out=window)
    window &= repeat[2:]
    inner = np.flatnonzero(window) + 2
    # A run of consecutive inner heads is one alternation of one key pair,
    # so the stream test runs once per run, on its first head i and i + 1.
    starts = window.copy()
    starts[1:] &= ~window[:-1]
    first = np.flatnonzero(starts) + 2
    one_stream = (kinds[first] == 0) & (kinds[first + 1] == 0)
    if one_stream.any():
        names = np.asarray([structures.index(name) for name in structures])
        one_stream &= names[ids[first]] == names[ids[first + 1]]
        one_stream &= lines[first] != lines[first + 1]
        if one_stream.any():
            inner = inner[~one_stream[np.cumsum(starts[window]) - 1]]
    return inner


@dataclass
class MemoryStats:
    """Aggregated results of replaying an access stream."""

    requests: int = 0
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    l3: CacheStats = field(default_factory=CacheStats)
    dram_accesses: int = 0
    prefetch_covered: int = 0
    stall_cycles: float = 0.0
    dependent_stall_cycles: float = 0.0
    per_structure_accesses: Dict[str, int] = field(default_factory=dict)


class MemoryHierarchy:
    """Three-level inclusive cache hierarchy backed by DRAM."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = config or SimConfig.default()
        self.l1 = Cache(self.config.l1)
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        self.prefetcher = StridePrefetcher(line_bytes=self.config.l1.line_bytes)
        self.stats = MemoryStats()

    # ------------------------------------------------------------------ #
    # Access handling
    # ------------------------------------------------------------------ #
    def access(self, request: MemoryRequest) -> float:
        """Replay one request; return the stall cycles it contributes.

        Thin per-element shim over :meth:`replay` (the batched engine).
        """
        kind = _KIND_OF_ACCESS_TYPE[request.access_type]
        return self.replay(
            (request.structure,),
            _SINGLE_ID,
            np.array([request.address], dtype=np.int64),
            np.array([kind], dtype=np.uint8),
        )

    def replay(
        self,
        structures: Sequence[str],
        struct_ids: np.ndarray,
        addresses: np.ndarray,
        kinds: np.ndarray,
    ) -> float:
        """Replay an ordered access trace; return the added stall cycles.

        ``structures`` maps the ids in ``struct_ids`` to structure names;
        ``addresses`` are absolute byte addresses and ``kinds`` the uint8
        codes from :mod:`repro.sim.trace`. Block addresses are computed
        array-at-a-time, and the trace is coalesced into heads in two
        steps:

        * runs of consecutive accesses to the same (structure, line, kind)
          collapse to the run head; the repeats are guaranteed L1 hits
          (the head just made the line MRU, and a stride-0 repeat leaves
          the prefetcher untouched);
        * heads strictly inside a two-key alternation are dropped: with at
          least two L1 ways, a window over two lines never evicts either,
          so those re-touches are L1 hits whose stride-0 probes leave
          their streams untouched, and the kept last touches restore the
          LRU order (:func:`_interleaved_touches`).

        Only the remaining heads walk the hierarchy through the vectorized
        replay engine (:mod:`repro.sim._replay_core`); the dropped accesses
        are credited as L1 hits in bulk. The per-access
        statistics are bit-identical to replaying each access through
        :meth:`access`, identical to the reference loop, and — because all replay
        state persists on ``self`` between calls — identical when the same
        accesses are split across any number of consecutive :meth:`replay`
        calls (the chunk-boundary contract above).
        """
        n = int(addresses.size)
        if n == 0:
            return 0.0
        stats = self.stats
        stats.requests += n
        counts = np.bincount(struct_ids, minlength=len(structures))
        per_structure = stats.per_structure_accesses
        for sid in np.flatnonzero(counts):
            name = structures[sid]
            per_structure[name] = per_structure.get(name, 0) + int(counts[sid])

        l1c, l2c, l3c = self.l1.config, self.l2.config, self.l3.config
        line_bytes = l1c.line_bytes
        if not (
            l2c.line_bytes == line_bytes
            and l3c.line_bytes == line_bytes
            and self.prefetcher.line_bytes == line_bytes
        ):
            # Mixed line granularities cannot share one line id per access;
            # fall back to the uncoalesced sequential walk.
            return self._replay_sequential(structures, struct_ids, addresses, kinds)

        if line_bytes & (line_bytes - 1) == 0:
            # Power-of-two line size: shift instead of the (much slower)
            # vectorized integer division. Identical results — addresses are
            # non-negative, and an arithmetic shift floors like // anyway.
            lines = addresses >> (line_bytes.bit_length() - 1)
        else:
            lines = addresses // line_bytes
        if n > 1:
            same = (
                (struct_ids[1:] == struct_ids[:-1])
                & (lines[1:] == lines[:-1])
                & (kinds[1:] == kinds[:-1])
            )
            if same.any():
                heads = np.flatnonzero(np.concatenate(([True], ~same)))
                struct_ids, lines, kinds = struct_ids[heads], lines[heads], kinds[heads]
        inner = _interleaved_touches(
            structures, struct_ids, lines, kinds, l1c.associativity
        )
        if inner.size:
            keep = np.ones(lines.size, dtype=bool)
            keep[inner] = False
            struct_ids, lines, kinds = struct_ids[keep], lines[keep], kinds[keep]
        # Run repeats and interleaved re-touches are guaranteed L1 hits;
        # only the remaining heads walk the hierarchy.
        dropped = n - lines.size
        self.l1.stats.accesses += dropped
        self.l1.stats.hits += dropped
        return replay_vectorized(self, structures, struct_ids, lines, kinds)

    def _replay_sequential(
        self,
        structures: Sequence[str],
        struct_ids: np.ndarray,
        addresses: np.ndarray,
        kinds: np.ndarray,
    ) -> float:
        """Uncoalesced walk for hierarchies with mixed cache-line sizes.

        Stall accounting goes through the same
        :func:`repro.sim._replay_core.stall_cycles_for` rule as the batched
        engine, so the two paths cannot drift apart. Prefetcher training
        also agrees with the batched path by construction: only streaming
        loads (kind 0) consult or train a stream — dependent loads and
        stores bypass the prefetcher in both engines, because a store's
        address is produced by the same induction variable as the preceding
        load and would double-train the stream.
        """
        added = 0.0
        mlp = self.config.cpu.memory_level_parallelism
        exposure = self.config.cpu.dependent_miss_exposure
        ids = struct_ids.tolist()
        addrs = addresses.tolist()
        kind_list = kinds.tolist()
        for i in range(len(addrs)):
            structure = structures[ids[i]]
            address = addrs[i]
            kind = kind_list[i]
            covered = False
            if kind == 0:
                covered = self.prefetcher.access(structure, address)
            if self.l1.lookup(address):
                latency = 0
            elif covered:
                self.stats.prefetch_covered += 1
                self.l2.install(address)
                self.l3.install(address)
                latency = self.config.l2.latency_cycles
            elif self.l2.lookup(address):
                latency = self.config.l2.latency_cycles
            elif self.l3.lookup(address):
                latency = self.config.l3.latency_cycles
            else:
                self.stats.dram_accesses += 1
                latency = self.config.dram.latency_cycles
            stall = stall_cycles_for(kind, latency, mlp, exposure)
            if kind == 1:
                self.stats.dependent_stall_cycles += stall
            self.stats.stall_cycles += stall
            added += stall
        return added

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def snapshot_stats(self) -> MemoryStats:
        """Return a copy of the stats collected so far, per-level included.

        Every field is copied (the per-level ``CacheStats`` and the
        per-structure dict included), so the snapshot is immutable history:
        replaying more accesses afterwards must not change a snapshot
        already taken. The live counters stay on ``self.stats`` and the
        cache objects.
        """
        return replace(
            self.stats,
            l1=replace(self.l1.stats),
            l2=replace(self.l2.stats),
            l3=replace(self.l3.stats),
            per_structure_accesses=dict(self.stats.per_structure_accesses),
        )

    def reset(self) -> None:
        """Flush caches, prefetcher state, and statistics."""
        self.l1.flush()
        self.l2.flush()
        self.l3.flush()
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.l3.reset_stats()
        self.prefetcher.reset()
        self.stats = MemoryStats()


class AddressSpace:
    """Assigns non-overlapping base addresses to named data structures.

    The instrumented kernels need byte addresses for the arrays they touch so
    that the cache model sees realistic line reuse and conflict behaviour.
    Structures are laid out contiguously with page alignment between them,
    which mirrors separate heap allocations.
    """

    PAGE = 4096

    def __init__(self) -> None:
        self._next_base = self.PAGE
        self._bases: Dict[str, int] = {}

    def register(self, name: str, size_bytes: int) -> int:
        """Allocate (or look up) the base address for a structure."""
        if name in self._bases:
            return self._bases[name]
        base = self._next_base
        self._bases[name] = base
        pages = max(1, -(-size_bytes // self.PAGE))
        self._next_base += pages * self.PAGE
        return base

    def address(self, name: str, offset_bytes: int) -> int:
        """Byte address of ``offset_bytes`` inside structure ``name``."""
        if name not in self._bases:
            raise KeyError(f"structure {name!r} was never registered")
        return self._bases[name] + offset_bytes

    def structures(self) -> List[str]:
        """Names of all registered structures."""
        return list(self._bases)
