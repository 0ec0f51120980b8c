"""Analytic performance-model substrate (the reproduction's zsim substitute).

The paper evaluates SMASH on the zsim microarchitectural simulator with the
Westmere-like out-of-order core of its Table 2. That simulator is not
reproducible in pure Python at the paper's scale, so this package provides an
analytic substitute that captures the two first-order effects the paper's
speedups come from:

1. *instruction count* — kernels report how many instructions of each class
   (index arithmetic, value compute, loads/stores, branches, SMASH ISA
   operations) they execute, and the CPU model converts them to issue cycles;
2. *memory behaviour* — kernels emit a cache-line-granularity access stream
   for each data structure they touch, which is replayed through a
   set-associative, LRU, three-level cache hierarchy with a stride prefetcher
   and a DRAM backend. Dependent (pointer-chasing) misses are serialized while
   streaming misses overlap, mirroring the penalty the paper attributes to
   CSR's indirect indexing.

See ``DESIGN.md`` section 5 for the complete description and the list of
modeling deviations.
"""

from repro.sim.config import (
    CacheConfig,
    CPUConfig,
    DRAMConfig,
    InstructionCosts,
    RealSystemConfig,
    SimConfig,
)
from repro.sim.cache import Cache, CacheStats
from repro.sim.prefetcher import StridePrefetcher
from repro.sim.memory import AccessType, MemoryHierarchy, MemoryRequest
from repro.sim.cpu import CPUModel
from repro.sim.energy import EnergyModel, EnergyParameters, EnergyReport
from repro.sim.instrumentation import (
    InstructionCounter,
    InstructionClass,
    CostReport,
    KernelInstrumentation,
    merge_reports,
)
from repro.sim.trace import (
    AccessTrace,
    TraceBuilder,
    DEFAULT_CHUNK_ACCESSES,
    trace_chunk_accesses,
)

__all__ = [
    "CacheConfig",
    "CPUConfig",
    "DRAMConfig",
    "InstructionCosts",
    "RealSystemConfig",
    "SimConfig",
    "Cache",
    "CacheStats",
    "StridePrefetcher",
    "AccessType",
    "MemoryHierarchy",
    "MemoryRequest",
    "CPUModel",
    "EnergyModel",
    "EnergyParameters",
    "EnergyReport",
    "InstructionCounter",
    "InstructionClass",
    "CostReport",
    "KernelInstrumentation",
    "merge_reports",
    "AccessTrace",
    "TraceBuilder",
    "DEFAULT_CHUNK_ACCESSES",
    "trace_chunk_accesses",
]
