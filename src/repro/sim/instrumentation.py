"""Instruction counting and cost reports for the instrumented kernels.

Kernels record their work through :class:`KernelInstrumentation` in one of
two ways:

* the **batched trace API** (:meth:`~KernelInstrumentation.count_batch`,
  :meth:`~KernelInstrumentation.trace_builder`,
  :meth:`~KernelInstrumentation.replay_trace`), where whole numpy arrays of
  offsets and bulk instruction-class counts are recorded per call — the
  primary path used by every kernel in :mod:`repro.kernels`;
* the **legacy per-element API** (:meth:`~KernelInstrumentation.count`,
  :meth:`~KernelInstrumentation.load`, :meth:`~KernelInstrumentation.store`),
  kept as a thin shim over the batched engine for incremental callers (the
  reference kernels in :mod:`repro.kernels.legacy`, the SMASH ISA model and
  the software indexer). Both paths produce bit-identical cost reports; see
  DESIGN.md section 6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Union

import numpy as np

from repro.sim.config import SimConfig
from repro.sim.memory import AddressSpace, MemoryHierarchy
from repro.sim.trace import (
    KIND_DEPENDENT,
    KIND_STREAM,
    KIND_WRITE,
    AccessTrace,
    TraceBuilder,
    trace_chunk_accesses,
)


class InstructionClass(enum.Enum):
    """Instruction categories tracked by the cost model.

    The paper's motivation experiment (Figure 3) separates *indexing*
    instructions (pointer arithmetic, position discovery, index matching)
    from the rest; the reproduction keeps that distinction so that the
    "ideal CSR" and SMASH configurations can remove exactly the indexing
    component.
    """

    INDEX = "index"
    COMPUTE = "compute"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    BMU = "bmu"


@dataclass
class InstructionCounter:
    """Mutable per-class instruction counters."""

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, cls: InstructionClass, n: int = 1) -> None:
        """Record ``n`` instructions of class ``cls``."""
        if n < 0:
            raise ValueError("instruction count increments must be non-negative")
        self.counts[cls.value] = self.counts.get(cls.value, 0) + n

    def get(self, cls: InstructionClass) -> int:
        """Number of instructions recorded for ``cls``."""
        return self.counts.get(cls.value, 0)

    @property
    def total(self) -> int:
        """Total instructions across all classes."""
        return sum(self.counts.values())

    def merged(self, other: "InstructionCounter") -> "InstructionCounter":
        """Return a new counter with the sums of both operands."""
        merged = dict(self.counts)
        for key, value in other.counts.items():
            merged[key] = merged.get(key, 0) + value
        return InstructionCounter(merged)


@dataclass
class CostReport:
    """Result of running one instrumented kernel.

    ``cycles`` is the analytic execution-time estimate:
    ``issue_cycles + memory_stall_cycles``; DESIGN.md section 5 ("The cycle
    model") documents both terms and their calibration knobs.
    """

    kernel: str
    scheme: str
    instructions: InstructionCounter
    issue_cycles: float
    memory_stall_cycles: float
    dram_accesses: int
    l1_miss_rate: float
    l2_miss_rate: float
    l3_miss_rate: float
    per_structure_accesses: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        """Total estimated cycles."""
        return self.issue_cycles + self.memory_stall_cycles

    @property
    def total_instructions(self) -> int:
        """Total executed instructions."""
        return self.instructions.total

    def to_dict(self) -> Dict:
        """JSON-serializable form of the report (see :meth:`from_dict`).

        Every count is coerced to a built-in ``int``/``float`` so the payload
        survives ``json.dumps`` regardless of numpy scalar types leaking in
        from the trace engine. Python floats round-trip exactly through JSON
        (``repr`` emits the shortest exact representation), so a serialized
        report deserializes bit-identical to the original.
        """
        return {
            "kernel": self.kernel,
            "scheme": self.scheme,
            "instructions": {k: int(v) for k, v in self.instructions.counts.items()},
            "issue_cycles": float(self.issue_cycles),
            "memory_stall_cycles": float(self.memory_stall_cycles),
            "dram_accesses": int(self.dram_accesses),
            "l1_miss_rate": float(self.l1_miss_rate),
            "l2_miss_rate": float(self.l2_miss_rate),
            "l3_miss_rate": float(self.l3_miss_rate),
            "per_structure_accesses": {k: int(v) for k, v in self.per_structure_accesses.items()},
            "metadata": {k: float(v) for k, v in self.metadata.items()},
        }

    @classmethod
    def empty(cls, kernel: str, scheme: str) -> "CostReport":
        """A zeroed report for degenerate inputs (empty graphs/systems).

        The single factory used by every application-layer driver that must
        return a well-formed report without running a kernel, so the
        ``kernel`` label always matches the caller (an empty-graph
        betweenness run reports ``kernel="betweenness"``, not the label of
        whatever helper it borrowed the constructor from).
        """
        return cls(
            kernel=kernel,
            scheme=scheme,
            instructions=InstructionCounter(),
            issue_cycles=0.0,
            memory_stall_cycles=0.0,
            dram_accesses=0,
            l1_miss_rate=0.0,
            l2_miss_rate=0.0,
            l3_miss_rate=0.0,
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CostReport":
        """Rebuild a report serialized by :meth:`to_dict`."""
        return cls(
            kernel=payload["kernel"],
            scheme=payload["scheme"],
            instructions=InstructionCounter(
                {k: int(v) for k, v in payload["instructions"].items()}
            ),
            issue_cycles=float(payload["issue_cycles"]),
            memory_stall_cycles=float(payload["memory_stall_cycles"]),
            dram_accesses=int(payload["dram_accesses"]),
            l1_miss_rate=float(payload["l1_miss_rate"]),
            l2_miss_rate=float(payload["l2_miss_rate"]),
            l3_miss_rate=float(payload["l3_miss_rate"]),
            per_structure_accesses={
                k: int(v) for k, v in payload["per_structure_accesses"].items()
            },
            metadata={k: float(v) for k, v in payload["metadata"].items()},
        )

    def speedup_over(self, baseline: "CostReport") -> float:
        """Speedup of this report relative to ``baseline`` (baseline/self)."""
        if self.cycles == 0:
            return float("inf")
        return baseline.cycles / self.cycles

    def instruction_ratio_over(self, baseline: "CostReport") -> float:
        """Executed-instruction ratio relative to ``baseline`` (self/baseline)."""
        if baseline.total_instructions == 0:
            return float("inf")
        return self.total_instructions / baseline.total_instructions


def merge_reports(kernel: str, scheme: str, reports: "list[CostReport]") -> CostReport:
    """Combine several cost reports into one aggregate report.

    Used by multi-phase workloads (PageRank iterations, BFS levels in
    Betweenness Centrality) that run the same instrumented kernel repeatedly:
    instruction counts, cycles and DRAM accesses add up; cache miss rates are
    access-weighted averages.
    """
    if not reports:
        raise ValueError("merge_reports needs at least one report")
    instructions = InstructionCounter()
    issue_cycles = 0.0
    stall_cycles = 0.0
    dram = 0
    per_structure: Dict[str, int] = {}
    metadata: Dict[str, float] = {}
    miss_weights = {"l1": [0.0, 0.0], "l2": [0.0, 0.0], "l3": [0.0, 0.0]}
    for report in reports:
        instructions = instructions.merged(report.instructions)
        issue_cycles += report.issue_cycles
        stall_cycles += report.memory_stall_cycles
        dram += report.dram_accesses
        for name, count in report.per_structure_accesses.items():
            per_structure[name] = per_structure.get(name, 0) + count
        for key, value in report.metadata.items():
            metadata[key] = metadata.get(key, 0.0) + value
        total_accesses = sum(report.per_structure_accesses.values()) or 1
        for level, rate in (("l1", report.l1_miss_rate), ("l2", report.l2_miss_rate),
                            ("l3", report.l3_miss_rate)):
            miss_weights[level][0] += rate * total_accesses
            miss_weights[level][1] += total_accesses

    def weighted(level: str) -> float:
        numerator, denominator = miss_weights[level]
        return numerator / denominator if denominator else 0.0

    return CostReport(
        kernel=kernel,
        scheme=scheme,
        instructions=instructions,
        issue_cycles=issue_cycles,
        memory_stall_cycles=stall_cycles,
        dram_accesses=dram,
        l1_miss_rate=weighted("l1"),
        l2_miss_rate=weighted("l2"),
        l3_miss_rate=weighted("l3"),
        per_structure_accesses=per_structure,
        metadata=metadata,
    )


class KernelInstrumentation:
    """Collects instructions and memory accesses while a kernel executes.

    The instrumented kernels call :meth:`count` for instruction bookkeeping
    and :meth:`load`/:meth:`store` for memory traffic; at the end,
    :meth:`report` folds everything into a :class:`CostReport` using the
    configured instruction costs and the replayed cache behaviour.
    """

    def __init__(
        self,
        kernel: str,
        scheme: str,
        config: Optional[SimConfig] = None,
        trace_chunk: Optional[int] = -1,
    ) -> None:
        self.kernel = kernel
        self.scheme = scheme
        self.config = config or SimConfig.default()
        self.instructions = InstructionCounter()
        self.memory = MemoryHierarchy(self.config)
        self.address_space = AddressSpace()
        self._metadata: Dict[str, float] = {}
        #: Per-segment access budget for streaming trace builders. ``None``
        #: means monolithic build-then-replay; the default (-1 sentinel)
        #: resolves the SMASH_REPRO_TRACE_CHUNK environment knob. Chunking
        #: only changes peak memory, never the report (DESIGN.md section 10).
        self.trace_chunk = trace_chunk_accesses() if trace_chunk == -1 else trace_chunk

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def register_array(self, name: str, size_bytes: int) -> None:
        """Declare a data structure so its accesses can be addressed."""
        self.address_space.register(name, size_bytes)

    def count(self, cls: InstructionClass, n: int = 1) -> None:
        """Record ``n`` instructions of class ``cls``."""
        self.instructions.add(cls, n)

    def count_batch(self, counts: Mapping[InstructionClass, int]) -> None:
        """Record bulk instruction counts for several classes at once."""
        for cls, n in counts.items():
            if n:
                self.instructions.add(cls, int(n))

    # -- batched trace API --------------------------------------------- #
    def trace_builder(self) -> TraceBuilder:
        """A fresh builder for assembling an interleaved access trace.

        The builder streams: whenever its buffered accesses reach
        :attr:`trace_chunk`, they are replayed through the memory hierarchy
        immediately and the buffer is dropped, so peak trace memory is
        bounded by the chunk budget instead of the workload size. With
        ``trace_chunk=None`` the builder accumulates everything until
        :meth:`~repro.sim.trace.TraceBuilder.build` (the monolithic path).
        Either way the kernel idiom ``replay_trace(builder.build())``
        replays exactly the accesses recorded, in order, with bit-identical
        statistics.
        """
        return TraceBuilder(sink=self._replay_segment, chunk_accesses=self.trace_chunk)

    def replay_trace(
        self, trace: Union[AccessTrace, Iterable[AccessTrace], None]
    ) -> None:
        """Replay a pre-assembled trace through the memory hierarchy.

        Accepts one :class:`AccessTrace`, ``None`` (a no-op, for convenience
        of streaming callers), or any iterable of traces — the segment
        protocol: segments are replayed in order and all replay state (cache
        contents, prefetcher streams, stall totals) carries across segment
        boundaries, so a segmented trace produces bit-identical statistics
        to the equivalent monolithic one.

        The trace carries memory events only; instruction accounting is the
        kernel's job (via :meth:`count_batch`), because instruction counts
        are order-independent while memory accesses are not.
        """
        if trace is None:
            return
        if isinstance(trace, AccessTrace):
            self._replay_segment(trace)
            return
        for segment in trace:
            self._replay_segment(segment)

    def _replay_segment(self, trace: AccessTrace) -> None:
        """Resolve one segment's addresses and replay it (state persists)."""
        if trace.n_accesses == 0:
            return
        bases = np.array(
            [self.address_space.address(name, 0) for name in trace.structures],
            dtype=np.int64,
        )
        addresses = bases[trace.struct_ids] + trace.offsets
        self.memory.replay(trace.structures, trace.struct_ids, addresses, trace.kinds)

    # -- legacy per-element API (thin shim over the batched engine) ----- #
    def load(
        self,
        structure: str,
        offset_bytes: int,
        dependent: bool = False,
        size_bytes: int = 8,
        count_instruction: bool = True,
    ) -> None:
        """Record a load from ``structure`` at ``offset_bytes``."""
        if count_instruction:
            self.instructions.add(InstructionClass.LOAD)
        kind = KIND_DEPENDENT if dependent else KIND_STREAM
        address = self.address_space.address(structure, offset_bytes)
        self.memory.replay(
            (structure,),
            np.zeros(1, dtype=np.int64),
            np.array([address], dtype=np.int64),
            np.array([kind], dtype=np.uint8),
        )

    def store(
        self,
        structure: str,
        offset_bytes: int,
        size_bytes: int = 8,
        count_instruction: bool = True,
    ) -> None:
        """Record a store to ``structure`` at ``offset_bytes``."""
        if count_instruction:
            self.instructions.add(InstructionClass.STORE)
        address = self.address_space.address(structure, offset_bytes)
        self.memory.replay(
            (structure,),
            np.zeros(1, dtype=np.int64),
            np.array([address], dtype=np.int64),
            np.array([KIND_WRITE], dtype=np.uint8),
        )

    def note(self, key: str, value: float) -> None:
        """Attach free-form metadata to the final report."""
        self._metadata[key] = value

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def issue_cycles(self) -> float:
        """Cycles spent issuing instructions, ignoring memory stalls.

        The weighted sum iterates classes in :class:`InstructionClass`
        definition order so the result depends only on the final counts, not
        on the order they were recorded in (batched and per-element kernels
        record in different orders but must report identical cycles).
        """
        costs = self.config.costs.as_dict()
        counts = self.instructions.counts
        weighted = 0.0
        for cls in InstructionClass:
            count = counts.get(cls.value, 0)
            if count:
                weighted += costs.get(cls.value, 1.0) * count
        return weighted / self.config.cpu.issue_width

    def report(self) -> CostReport:
        """Fold the recorded activity into a :class:`CostReport`."""
        stats = self.memory.snapshot_stats()
        return CostReport(
            kernel=self.kernel,
            scheme=self.scheme,
            instructions=self.instructions,
            issue_cycles=self.issue_cycles(),
            memory_stall_cycles=stats.stall_cycles,
            dram_accesses=stats.dram_accesses,
            l1_miss_rate=stats.l1.miss_rate,
            l2_miss_rate=stats.l2.miss_rate,
            l3_miss_rate=stats.l3.miss_rate,
            per_structure_accesses=dict(stats.per_structure_accesses),
            metadata=dict(self._metadata),
        )
