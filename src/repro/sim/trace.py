"""Columnar access traces for the batched instrumentation pipeline.

The batched trace engine replaces one :class:`~repro.sim.memory.MemoryRequest`
object per access with *trace segments*: parallel numpy arrays of
``(structure id, byte offset, access kind)``. Kernels assemble whole segments
vectorized (interleaving the per-element access pattern with array arithmetic
instead of Python loops) and hand them to
:meth:`repro.sim.instrumentation.KernelInstrumentation.replay_trace`, which
resolves addresses in bulk and replays the segment through the memory
hierarchy (see :meth:`repro.sim.memory.MemoryHierarchy.replay`).

Access kinds mirror :class:`repro.sim.memory.AccessType` as small integers so
whole trace columns fit in a uint8 array:

* :data:`KIND_STREAM` — streaming load (prefetchable, misses overlap),
* :data:`KIND_DEPENDENT` — pointer-chasing load (miss latency exposed),
* :data:`KIND_WRITE` — store (buffered, never stalls the core).

The replay preserves the *exact* sequential semantics of the per-element API:
a trace replays to bit-identical statistics as the equivalent sequence of
``load``/``store`` calls (the equivalence suite in
``tests/test_trace_equivalence.py`` asserts this for every kernel x scheme).

Chunked (bounded-memory) replay
-------------------------------

A :class:`TraceBuilder` can operate in *streaming* mode: constructed with a
``sink`` callable and a ``chunk_accesses`` budget, it hands completed
:class:`AccessTrace` *segments* to the sink as soon as the buffered accesses
reach the budget, instead of holding the whole trace until :meth:`build`.
The structure table is shared across all segments of one builder, and
:meth:`build` returns only the un-flushed tail, so the usual kernel idiom
``instr.replay_trace(builder.build())`` works unchanged in both modes.

Because :meth:`repro.sim.memory.MemoryHierarchy.replay` carries every piece
of replay state (cache contents, prefetcher streams, running stall totals)
across calls, replaying a trace as segments is bit-identical to replaying it
monolithically for *any* segmentation — including cuts in the middle of a
streaming run (see DESIGN.md section 10). Peak replay memory then depends on
the chunk budget, not on the workload size. The budget defaults to
:data:`DEFAULT_CHUNK_ACCESSES` and can be overridden through the
``SMASH_REPRO_TRACE_CHUNK`` environment variable (``0`` restores the
monolithic build-then-replay behaviour).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Access kinds (uint8 codes stored in trace columns).
KIND_STREAM = 0
KIND_DEPENDENT = 1
KIND_WRITE = 2

#: Default per-segment access budget for streaming builders. One access costs
#: 17 bytes of column data (two int64 plus one uint8), so the default bounds
#: each buffered segment to ~17 MB regardless of workload size.
DEFAULT_CHUNK_ACCESSES = 1 << 20

#: One window of trace columns: ``(struct ids, byte offsets, kinds)``.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Environment variable overriding the chunk budget (``0`` = monolithic).
#: Parsed by :func:`repro.api.config.trace_chunk_from_env`, in the library's
#: single environment-reading module.
CHUNK_ENV_VAR = "SMASH_REPRO_TRACE_CHUNK"

#: Process-wide chunk override installed by a Session or a SweepRunner that
#: pins a budget; the sentinel means "no override, fall back to the
#: environment default".
_NO_OVERRIDE = object()
_chunk_override: object = _NO_OVERRIDE


def set_chunk_override(value: Optional[int]) -> None:
    """Pin the chunk budget for this process (worker-pool initializer hook).

    ``value`` follows :func:`trace_chunk_accesses` semantics: a positive
    budget, or ``None`` for monolithic replay. The override only changes
    peak replay memory, never any report.
    """
    global _chunk_override
    _chunk_override = value


@contextlib.contextmanager
def chunk_override(value: Optional[int]) -> Iterator[None]:
    """Temporarily pin the chunk budget (serial in-process execution)."""
    global _chunk_override
    previous = _chunk_override
    _chunk_override = value
    try:
        yield
    finally:
        _chunk_override = previous


def trace_chunk_accesses() -> Optional[int]:
    """The active chunk budget: explicit override, else the environment knob.

    Returns ``None`` when chunking is disabled (``SMASH_REPRO_TRACE_CHUNK=0``
    or an explicit ``None`` override), i.e. the builder should accumulate the
    whole trace and build it once.
    """
    if _chunk_override is not _NO_OVERRIDE:
        return _chunk_override  # type: ignore[return-value]
    from repro.api.config import trace_chunk_from_env

    return trace_chunk_from_env()


class AccessTrace:
    """An ordered sequence of memory accesses in columnar form.

    ``structures`` maps structure ids to registered structure names;
    ``struct_ids``/``offsets``/``kinds`` are equal-length arrays giving, per
    access, the structure it belongs to, the byte offset inside it, and the
    access kind. Order is program order: replay walks the columns front to
    back.
    """

    __slots__ = ("structures", "struct_ids", "offsets", "kinds")

    def __init__(
        self,
        structures: Sequence[str],
        struct_ids: np.ndarray,
        offsets: np.ndarray,
        kinds: np.ndarray,
    ) -> None:
        self.structures = list(structures)
        self.struct_ids = np.ascontiguousarray(struct_ids, dtype=np.int64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        if not (self.struct_ids.size == self.offsets.size == self.kinds.size):
            raise ValueError("trace columns must have equal lengths")
        if self.struct_ids.size and (
            self.struct_ids.min() < 0 or self.struct_ids.max() >= len(self.structures)
        ):
            raise ValueError("trace references an unknown structure id")

    @property
    def n_accesses(self) -> int:
        """Number of accesses in the trace."""
        return int(self.struct_ids.size)

    def __len__(self) -> int:
        return self.n_accesses


class TraceBuilder:
    """Accumulates trace segments and finalizes them into `AccessTrace` chunks.

    Builders are append-only: segments are recorded as chunks of column
    arrays and concatenated once at :meth:`build` time, so emitting a segment
    is O(1) numpy bookkeeping regardless of how the kernel interleaves its
    data structures.

    With a ``sink`` and a ``chunk_accesses`` budget the builder *streams*:
    whenever the buffered accesses reach the budget, the buffer is finalized
    into one or more budget-sized :class:`AccessTrace` segments and handed to
    the sink in program order, keeping peak memory bounded by the budget.
    The structure-id table is shared by every segment the builder emits, and
    :meth:`build` returns only the un-flushed tail.
    """

    def __init__(
        self,
        sink: Optional[Callable[[AccessTrace], None]] = None,
        chunk_accesses: Optional[int] = None,
    ) -> None:
        if chunk_accesses is not None and chunk_accesses < 1:
            raise ValueError("chunk_accesses must be positive (or None for monolithic)")
        self._names: List[str] = []
        self._ids: dict = {}
        self._chunks: List[Columns] = []
        self._buffered = 0
        self._total = 0
        self.sink = sink
        self.chunk_accesses = chunk_accesses if sink is not None else None

    def structure_id(self, name: str) -> int:
        """Return (allocating if needed) the id of structure ``name``."""
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._ids[name] = sid
            self._names.append(name)
        return sid

    def add(self, structure: str, offsets, kind: int) -> None:
        """Append a homogeneous run of accesses to one structure."""
        offs = np.ascontiguousarray(offsets, dtype=np.int64)
        if offs.size == 0:
            return
        sid = self.structure_id(structure)
        self._append(
            np.full(offs.size, sid, dtype=np.int64),
            offs,
            np.full(offs.size, kind, dtype=np.uint8),
        )

    def add_one(self, structure: str, offset: int, kind: int) -> None:
        """Append a single access."""
        sid = self.structure_id(structure)
        self._append(
            np.array([sid], dtype=np.int64),
            np.array([offset], dtype=np.int64),
            np.array([kind], dtype=np.uint8),
        )

    def add_columns(self, struct_ids, offsets, kinds) -> None:
        """Append a pre-assembled interleaved segment (ids resolved by this builder)."""
        ids = np.ascontiguousarray(struct_ids, dtype=np.int64)
        if ids.size == 0:
            return
        self._append(
            ids,
            np.ascontiguousarray(offsets, dtype=np.int64),
            np.ascontiguousarray(kinds, dtype=np.uint8),
        )

    def add_windows(self, total: int, assemble: Callable[[int, int], Columns]) -> None:
        """Append a ``total``-access trace in windows of the chunk budget.

        ``assemble(lo, hi)`` returns the ``(ids, offsets, kinds)`` columns of
        accesses ``[lo, hi)``. The first window tops up the partly filled
        segment, so no append exceeds the budget and each later window
        starts a fresh segment; a monolithic builder, or a trace that fits
        the room left, takes one window and one append.
        """
        lo = 0
        while lo < total:
            room = total if self.chunk_accesses is None else self.chunk_accesses - self._buffered
            hi = min(total, lo + room)
            self.add_columns(*assemble(lo, hi))
            lo = hi

    def _append(self, ids: np.ndarray, offsets: np.ndarray, kinds: np.ndarray) -> None:
        """Record one buffered chunk and flush if the budget is reached."""
        self._chunks.append((ids, offsets, kinds))
        self._buffered += ids.size
        self._total += ids.size
        if self.chunk_accesses is not None and self._buffered >= self.chunk_accesses:
            self.flush()

    @property
    def n_accesses(self) -> int:
        """Accesses currently buffered (pending flush/build)."""
        return self._buffered

    @property
    def total_accesses(self) -> int:
        """Accesses recorded over the builder's lifetime, flushed or not."""
        return self._total

    def _drain(self) -> AccessTrace:
        """Concatenate and clear the buffered chunks (structure table kept)."""
        if not self._chunks:
            empty = np.zeros(0, dtype=np.int64)
            return AccessTrace(self._names, empty, empty, np.zeros(0, dtype=np.uint8))
        ids = np.concatenate([c[0] for c in self._chunks])
        offsets = np.concatenate([c[1] for c in self._chunks])
        kinds = np.concatenate([c[2] for c in self._chunks])
        self._chunks.clear()
        self._buffered = 0
        return AccessTrace(self._names, ids, offsets, kinds)

    def flush(self) -> None:
        """Emit everything buffered to the sink as budget-sized segments.

        A no-op without a sink. A single oversized appended chunk is split
        into consecutive budget-sized slices, so no emitted segment exceeds
        the budget regardless of how coarsely the kernel appends.
        """
        if self.sink is None or self._buffered == 0:
            return
        trace = self._drain()
        budget = self.chunk_accesses or trace.n_accesses
        for start in range(0, trace.n_accesses, budget):
            stop = min(start + budget, trace.n_accesses)
            self.sink(
                AccessTrace(
                    trace.structures,
                    trace.struct_ids[start:stop],
                    trace.offsets[start:stop],
                    trace.kinds[start:stop],
                )
            )

    def build(self) -> AccessTrace:
        """Finalize the buffered accesses into a single immutable trace.

        In streaming mode earlier budget-sized segments have already been
        handed to the sink, so this returns only the un-flushed tail.
        """
        return self._drain()


# --------------------------------------------------------------------------- #
# Array-assembly helpers shared by the batched kernels
# --------------------------------------------------------------------------- #
def exclusive_cumsum(lengths: np.ndarray) -> np.ndarray:
    """``[0, l0, l0+l1, ...]`` without the grand total (same length as input)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros(lengths.size, dtype=np.int64)
    if lengths.size > 1:
        np.cumsum(lengths[:-1], out=out[1:])
    return out


def grouped_arange(lengths: np.ndarray) -> np.ndarray:
    """``[0..l0), [0..l1), ...`` concatenated: a per-group restarting arange."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = exclusive_cumsum(lengths)
    keep = lengths > 0
    return np.arange(total, dtype=np.int64) - np.repeat(starts[keep], lengths[keep])


def segment_sums(values: np.ndarray, group_lengths: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each consecutive group of ``values`` (0.0 if empty).

    Bit-identical to ``group.cumsum()[-1]`` per non-empty group — the
    sequential ``acc += v`` of the reference kernels — because it adds one
    position-in-group at a time, vectorized across groups. ``np.sum`` and
    ``np.add.reduceat`` sum pairwise and can round differently. Trailing
    axes of ``values`` are summed element-wise.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(group_lengths, dtype=np.int64)
    out = np.zeros((lengths.size,) + values.shape[1:], dtype=np.float64)
    live = np.flatnonzero(lengths)
    if live.size == 0:
        return out
    live = live[np.argsort(-lengths[live], kind="stable")]  # longest groups first
    starts = exclusive_cumsum(lengths)[live]
    negated = -lengths[live]
    out[live] = values[starts]
    for position in range(1, int(-negated[0])):
        longer = int(np.searchsorted(negated, -position))  # groups longer than position
        out[live[:longer]] += values[starts[:longer] + position]
    return out
