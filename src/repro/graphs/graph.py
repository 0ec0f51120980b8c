"""A small edge-list graph with sparse-matrix views."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.formats.coo import COOMatrix


class Graph:
    """A directed or undirected graph over vertices ``0..n_vertices-1``.

    The graph analytics workloads of the paper operate on the graph's
    adjacency matrix (for BFS-style traversals in Betweenness Centrality) or
    its column-stochastic transition matrix (for PageRank), both of which are
    exposed as :class:`~repro.formats.coo.COOMatrix` objects ready to be fed
    to any kernel scheme.
    """

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[Tuple[int, int]],
        directed: bool = False,
    ) -> None:
        if n_vertices < 0:
            raise ValueError("number of vertices must be non-negative")
        self.n_vertices = int(n_vertices)
        self.directed = bool(directed)
        seen = set()
        cleaned: List[Tuple[int, int]] = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {n_vertices} vertices")
            if u == v:
                continue
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            cleaned.append((u, v))
        # A tuple, so a graph shared by the workload memo cannot be changed.
        self._edges = tuple(cleaned)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> List[Tuple[int, int]]:
        """The deduplicated edge list."""
        return list(self._edges)

    @property
    def n_edges(self) -> int:
        """Number of (deduplicated) edges."""
        return len(self._edges)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (degree for undirected graphs)."""
        degrees = np.zeros(self.n_vertices, dtype=np.int64)
        for u, v in self._edges:
            degrees[u] += 1
            if not self.directed:
                degrees[v] += 1
        return degrees

    def neighbors(self, vertex: int) -> List[int]:
        """Outgoing neighbours of ``vertex``."""
        result = []
        for u, v in self._edges:
            if u == vertex:
                result.append(v)
            elif not self.directed and v == vertex:
                result.append(u)
        return sorted(result)

    # ------------------------------------------------------------------ #
    # Matrix views
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> COOMatrix:
        """Adjacency matrix ``A`` with ``A[u, v] = 1`` for each edge ``u -> v``."""
        triplets = []
        for u, v in self._edges:
            triplets.append((u, v, 1.0))
            if not self.directed:
                triplets.append((v, u, 1.0))
        return COOMatrix.from_triplets(
            (self.n_vertices, self.n_vertices), triplets, sum_duplicates=True
        )

    def transition_matrix(self) -> COOMatrix:
        """Column-stochastic PageRank transition matrix ``M``.

        ``M[v, u] = 1 / out_degree(u)`` for every edge ``u -> v``; dangling
        vertices (out-degree zero) contribute nothing and are handled by the
        PageRank damping term.
        """
        degrees = self.out_degrees()
        triplets = []
        for u, v in self._edges:
            if degrees[u] > 0:
                triplets.append((v, u, 1.0 / degrees[u]))
            if not self.directed and degrees[v] > 0:
                triplets.append((u, v, 1.0 / degrees[v]))
        return COOMatrix.from_triplets(
            (self.n_vertices, self.n_vertices), triplets, sum_duplicates=True
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_array(
        cls, n_vertices: int, edges: Sequence[Sequence[int]], directed: bool = False
    ) -> "Graph":
        """Build a graph from an ``(m, 2)`` array-like of edges."""
        return cls(n_vertices, [(int(e[0]), int(e[1])) for e in edges], directed=directed)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "directed" if self.directed else "undirected"
        return f"Graph({self.n_vertices} vertices, {self.n_edges} edges, {kind})"
