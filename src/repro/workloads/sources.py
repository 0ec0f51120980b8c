"""Workload sources: the one home of the source-tuple format and its memo.

A job never carries its matrix or graph, only a *source* tuple naming the
generator and its arguments: ``("suite", key, dim, seed)`` for a Table 3
analogue, ``("locality", rows, cols, nnz, block_size, locality_percent,
seed)`` for a Figure 16/17 matrix, ``("graph", key, n_vertices)`` for a
Table 4 analogue. A source is the exact value a job key hashes. This module
is the only one that knows the format: :class:`Workload` builds sources,
:func:`validate_source` checks them, :func:`source_fields` reads them, and
:func:`materialize_source` builds what they describe through one bounded
LRU shared by every reader (jobs, drivers, :func:`suite_nnz`). A memoized
workload cannot be changed: matrix arrays are read-only, and a graph keeps
its edges in a tuple. Generators are imported inside the functions that
call them.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

from repro.api.registry import UnknownNameError, suggestion

#: The workload source tags.
SOURCE_TAGS = ("suite", "locality", "graph")

#: Most workloads one process keeps built (see :func:`materialize_source`).
#: An uncached full ``smash-repro all`` names 90 distinct sources (34 suite
#: matrices, 8 graphs and 48 locality matrices) and a warm one builds 39 of
#: them, so at this bound no run of ``all`` builds a source twice. A Table 3
#: matrix at its scaled dimension takes under 100 KB (24 bytes per
#: non-zero); the largest source, M13 at dim 4096, takes 18.6 MiB.
MEMO_SIZE = 96


class Workload:
    """Typed constructors for source tuples; ids are checked (did-you-mean)."""

    @staticmethod
    def suite(key: str, dim: Optional[int] = None, seed: Optional[int] = None) -> Tuple:
        """A Table 3 suite matrix (synthetic analogue, ``generate_matrix``)."""
        from repro.workloads.suite import get_spec

        get_spec(key)
        return ("suite", key, dim, seed)

    @staticmethod
    def locality(
        rows: int, cols: int, nnz: int, block_size: int, locality_percent: float, seed: int
    ) -> Tuple:
        """A controlled-locality matrix (Figures 16/17)."""
        return ("locality", rows, cols, nnz, block_size, locality_percent, seed)

    @staticmethod
    def graph(key: str, n_vertices: Optional[int] = None) -> Tuple:
        """A Table 4 graph (synthetic analogue, ``generate_graph``)."""
        from repro.graphs.generators import get_graph_spec

        get_graph_spec(key)
        return ("graph", key, n_vertices)


def validate_source(source: Sequence) -> Tuple:
    """``source`` as a tuple; an unknown tag or id raises did-you-mean."""
    source = tuple(source)
    tag = source[0] if source else None
    if tag not in SOURCE_TAGS:
        raise UnknownNameError(
            f"unknown workload source {tag!r};{suggestion(str(tag), SOURCE_TAGS)} "
            f"known sources: {list(SOURCE_TAGS)}"
        )
    if tag == "suite":
        Workload.suite(source[1])
    elif tag == "graph":
        Workload.graph(source[1])
    return source


def source_fields(source: Sequence) -> Tuple[str, Optional[str], object]:
    """The ``(kind, key, dim)`` a source names.

    ``key`` is the matrix or graph id (``None`` for a locality matrix) and
    ``dim`` the dense dimension: a suite matrix's ``dim``, a graph's vertex
    count or a locality matrix's row count. An unknown tag gives
    ``(tag, None, None)``; a source too short for its tag raises
    ``IndexError``.
    """
    kind = str(source[0])
    if kind == "locality":
        return kind, None, source[1]
    if kind in ("suite", "graph"):
        return kind, str(source[1]), source[2] if len(source) > 2 else None
    return kind, None, None


def materialize_source(source: Sequence):
    """The workload (COO matrix or graph) a source describes, memoized.

    A list and a tuple with equal fields share a memo entry; equal-valued
    fields of different types (``50`` and ``50.0``) do not.
    """
    source = tuple(source)
    if not source or source[0] not in SOURCE_TAGS:
        raise ValueError(f"unknown workload source {source!r}")
    return _build(*source)


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
def _build(tag: str, *args):
    """The memoized, immutable workload of one source."""
    if tag == "graph":
        from repro.graphs.generators import generate_graph, get_graph_spec

        key, n_vertices = args
        return generate_graph(get_graph_spec(key), n_vertices=n_vertices)
    if tag == "suite":
        from repro.workloads.suite import generate_matrix

        key, dim, seed = args
        coo = generate_matrix(key, dim=dim, seed=seed)
    else:
        from repro.workloads.locality import matrix_with_locality

        rows, cols, nnz, block_size, locality_percent, seed = args
        coo = matrix_with_locality(rows, cols, nnz, block_size, locality_percent, seed=seed)
    for array in (coo.row, coo.col, coo.values):
        array.setflags(write=False)
    return coo


def suite_nnz(key: str, dim: Optional[int] = None) -> int:
    """Non-zero count of one suite analogue (the skip-empty guard's input)."""
    return materialize_source(Workload.suite(key, dim)).nnz
