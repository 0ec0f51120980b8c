"""Configuration objects describing the simulated and real systems.

``SimConfig.default()`` corresponds to Table 2 of the paper (the simulated
Westmere-like out-of-order system) and ``RealSystemConfig.default()`` to
Table 5 (the Intel Xeon Gold 5118 used for the software-only comparison).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Dict


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    latency_cycles: int
    line_bytes: int = 64
    mshr_entries: int = 10
    prefetcher: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of associativity * line size"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class DRAMConfig:
    """Main-memory timing parameters."""

    latency_cycles: int = 200
    channels: int = 1
    banks: int = 16
    open_row_policy: bool = True
    capacity_bytes: int = 4 * 1024 ** 3


@dataclass(frozen=True)
class CPUConfig:
    """Core parameters of the (simulated) out-of-order CPU."""

    frequency_ghz: float = 3.6
    issue_width: int = 4
    rob_entries: int = 128
    load_queue_entries: int = 32
    store_queue_entries: int = 32
    #: Memory-level parallelism achievable for independent (streaming)
    #: misses; dependent misses are serialized regardless of this value.
    memory_level_parallelism: float = 4.0
    #: Fraction of a dependent (pointer-chasing) miss's latency that remains
    #: exposed after the out-of-order window overlaps it with independent
    #: work from neighbouring loop iterations. 1.0 = fully serialized.
    dependent_miss_exposure: float = 0.45


@dataclass(frozen=True)
class InstructionCosts:
    """Issue-slot cost per instruction class.

    The values are expressed in *issue slots*; the CPU model divides the
    total by the issue width to get base (non-memory) cycles. SMASH ISA
    instructions occupy one issue slot like ordinary instructions: the BMU
    performs its scan concurrently with the core, so a PBMAP/RDIND pair
    replaces the multi-instruction software scan sequence at the cost of two
    issue slots (Section 4.2 of the paper).
    """

    index: float = 1.0
    compute: float = 1.0
    load: float = 1.0
    store: float = 1.0
    branch: float = 1.0
    bmu: float = 1.0

    def as_dict(self) -> Dict[str, float]:
        """Costs keyed by instruction-class name."""
        return {
            "index": self.index,
            "compute": self.compute,
            "load": self.load,
            "store": self.store,
            "branch": self.branch,
            "bmu": self.bmu,
        }


@dataclass(frozen=True)
class SimConfig:
    """Full simulated-system configuration (Table 2 of the paper)."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1", 32 * 1024, 8, 2, mshr_entries=10)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8, 8, mshr_entries=20)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 1024 * 1024, 16, 20, mshr_entries=64)
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    costs: InstructionCosts = field(default_factory=InstructionCosts)

    @classmethod
    def default(cls) -> "SimConfig":
        """The Table 2 configuration."""
        return cls()

    @classmethod
    def scaled(cls, factor: int = 32) -> "SimConfig":
        """A cache hierarchy shrunk by ``factor`` for scaled-down workloads.

        The reproduction's synthetic matrices are hundreds of rows instead of
        the paper's tens of thousands, so with the full Table 2 caches every
        working set would be L1-resident and the memory-system effects the
        paper measures would disappear. Scaling the cache capacities by the
        same factor as the matrices preserves the ratio of working-set size
        to cache size, which is what determines the miss behaviour. Latencies
        and all other parameters are unchanged.
        """
        if factor < 1:
            raise ValueError("scaling factor must be at least 1")
        base = cls()

        def shrink(cache: CacheConfig) -> CacheConfig:
            min_size = cache.associativity * cache.line_bytes
            return replace(cache, size_bytes=max(min_size, cache.size_bytes // factor))

        return replace(base, l1=shrink(base.l1), l2=shrink(base.l2), l3=shrink(base.l3))

    def to_payload(self) -> Dict:
        """A fresh ``dataclasses.asdict`` of this config: the job-key encoding.

        Encoded once per *instance*, never per equal value (``frequency_ghz=4``
        and ``4.0`` are equal but encode differently); callers may mutate it.
        """
        return json.loads(self._payload_json)

    @cached_property
    def _payload_json(self) -> str:
        # Stored in the instance __dict__: fine on a frozen dataclass, and
        # invisible to eq, hash, repr, asdict and replace.
        return json.dumps(asdict(self))

    def with_costs(self, **kwargs) -> "SimConfig":
        """Return a copy with some instruction costs overridden."""
        return replace(self, costs=replace(self.costs, **kwargs))

    def describe(self) -> Dict[str, str]:
        """Human-readable description mirroring the rows of Table 2."""
        return {
            "CPU": (
                f"{self.cpu.frequency_ghz} GHz, Westmere-like OOO, "
                f"{self.cpu.issue_width}-wide issue; {self.cpu.rob_entries}-entry ROB; "
                f"{self.cpu.load_queue_entries}-entry LQ and "
                f"{self.cpu.store_queue_entries}-entry SQ"
            ),
            "L1 Data + Inst. Cache": _describe_cache(self.l1),
            "L2 Cache": _describe_cache(self.l2),
            "L3 Cache": _describe_cache(self.l3),
            "DRAM": (
                f"{self.dram.channels}-channel; {self.dram.banks}-bank; "
                f"{'open-row policy; ' if self.dram.open_row_policy else ''}"
                f"{self.dram.capacity_bytes // 1024 ** 3}GB DDR4"
            ),
        }


def _describe_cache(cfg: CacheConfig) -> str:
    size_kb = cfg.size_bytes // 1024
    size = f"{size_kb} KB" if size_kb < 1024 else f"{size_kb // 1024} MB"
    return (
        f"{size}, {cfg.associativity}-way, {cfg.latency_cycles}-cycle; "
        f"{cfg.line_bytes} B line; LRU policy; MSHR size: {cfg.mshr_entries}; "
        f"{'Stride prefetcher' if cfg.prefetcher else 'No prefetcher'}"
    )


@dataclass(frozen=True)
class RealSystemConfig:
    """Real-machine configuration used for the software-only study (Table 5)."""

    cpu_model: str = "Intel Xeon Gold 5118"
    frequency_ghz: float = 2.30
    process_nm: int = 14
    l1_kb: int = 384
    l1_ways: int = 8
    l2_mb: int = 12
    l2_ways: int = 16
    l3_mb: float = 16.5
    l3_ways: int = 11
    memory: str = "DDR4-2400"

    @classmethod
    def default(cls) -> "RealSystemConfig":
        """The Table 5 configuration."""
        return cls()

    def describe(self) -> Dict[str, str]:
        """Human-readable description mirroring the rows of Table 5."""
        return {
            "CPU": f"{self.cpu_model} {self.frequency_ghz} GHz {self.process_nm}nm",
            "L1": f"{self.l1_kb} KB, {self.l1_ways}-way",
            "L2": f"{self.l2_mb} MB, {self.l2_ways}-way",
            "L3": f"{self.l3_mb} MB, {self.l3_ways}-way",
            "Main memory": self.memory,
        }

    def to_sim_config(self) -> SimConfig:
        """Approximate this machine with the analytic simulator's config."""
        return SimConfig(
            cpu=CPUConfig(frequency_ghz=self.frequency_ghz),
            l1=CacheConfig("L1", 32 * 1024, self.l1_ways, 4),
            l2=CacheConfig("L2", 1024 * 1024, self.l2_ways, 14),
            l3=CacheConfig("L3", 2 * 1024 * 1024, 16, 40),
        )
