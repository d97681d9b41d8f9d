"""Sec. III's object model: a weighted digraph over vertices ``0..n-1``.

The graph model of Sec. III needs O(1) edge-weight lookup, the in-/out-
node classes, a dense ``numpy`` weight-matrix view and cheap copies —
nothing more.  Steps 1-4 run on dense matrices, so the library loads
none of this; the object-graph oracles, the paper walkthrough and the
theorem tests build on it.  Vertices are always the full range
``0..n-1`` (the object universe), which removes an entire class of
vertex-bookkeeping bugs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.exceptions import GraphError, VertexNotFoundError


class EdgeNotFoundError(GraphError):
    """The requested edge does not exist in the graph."""


class WeightedDigraph:
    """Directed graph with float edge weights on vertices ``0..n-1``.

    Weights are strictly positive; "no edge" is represented by absence,
    never by a zero weight (matching the paper's convention that
    ``w_ij = 0`` means the edge does not exist).
    """

    __slots__ = ("_n", "_succ", "_pred", "_edge_count")

    def __init__(self, n_vertices: int):
        if n_vertices < 1:
            raise GraphError(f"graph needs at least 1 vertex, got {n_vertices}")
        self._n = int(n_vertices)
        self._succ: List[Dict[int, float]] = [dict() for _ in range(self._n)]
        self._pred: List[Dict[int, float]] = [dict() for _ in range(self._n)]
        self._edge_count = 0

    # -- basic properties ----------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        """Iterable of all vertex ids ``0..n-1``."""
        return range(self._n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexNotFoundError(f"vertex {v} outside 0..{self._n - 1}")

    # -- edge manipulation -----------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Insert or overwrite the directed edge ``u -> v``.

        Raises
        ------
        GraphError
            If the weight is not strictly positive or ``u == v``.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop on vertex {u} not allowed")
        w = float(weight)
        if not w > 0.0:
            raise GraphError(
                f"edge weight must be > 0 (got {weight!r}); "
                "absent edges are represented by absence, not zero"
            )
        if v not in self._succ[u]:
            self._edge_count += 1
        self._succ[u][v] = w
        self._pred[v][u] = w

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``u -> v``; raises if it does not exist."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._succ[u]:
            raise EdgeNotFoundError(f"edge ({u} -> {v}) not in graph")
        del self._succ[u][v]
        del self._pred[v][u]
        self._edge_count -= 1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._succ[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises :class:`EdgeNotFoundError`."""
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._succ[u][v]
        except KeyError:
            raise EdgeNotFoundError(f"edge ({u} -> {v}) not in graph") from None

    def weight_or(self, u: int, v: int, default: float = 0.0) -> float:
        """Weight of ``u -> v`` or ``default`` when absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._succ[u].get(v, default)

    # -- neighbourhood accessors ------------------------------------------------
    def successors(self, u: int) -> Iterator[int]:
        """Vertices ``v`` with an edge ``u -> v``."""
        self._check_vertex(u)
        return iter(self._succ[u])

    def out_edges(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(v, weight)`` for every edge ``u -> v``."""
        self._check_vertex(u)
        return iter(self._succ[u].items())

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield every edge as ``(u, v, weight)``."""
        for u in range(self._n):
            for v, w in self._succ[u].items():
                yield u, v, w

    # -- paper-specific vertex classes (Sec. III) --------------------------------
    def is_in_node(self, v: int) -> bool:
        """True iff ``v`` has incoming edges only (ranked last; Sec. III)."""
        self._check_vertex(v)
        return len(self._pred[v]) > 0 and len(self._succ[v]) == 0

    def is_out_node(self, v: int) -> bool:
        """True iff ``v`` has outgoing edges only (ranked first; Sec. III)."""
        self._check_vertex(v)
        return len(self._succ[v]) > 0 and len(self._pred[v]) == 0

    def in_nodes(self) -> List[int]:
        """All in-nodes (incoming edges only; Sec. III)."""
        return [v for v in range(self._n) if self.is_in_node(v)]

    def out_nodes(self) -> List[int]:
        """All out-nodes (outgoing edges only; Sec. III)."""
        return [v for v in range(self._n) if self.is_out_node(v)]

    # -- matrix view ----------------------------------------------------------
    def weight_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` weight matrix; absent edges are 0.

        The input form of Steps 3-4;
        :meth:`PreferenceGraph.from_matrix` builds a graph back from it.
        """
        mat = np.zeros((self._n, self._n), dtype=np.float64)
        for u in range(self._n):
            for v, w in self._succ[u].items():
                mat[u, v] = w
        return mat

    # -- structure ---------------------------------------------------------------
    def copy(self) -> "WeightedDigraph":
        """An independent deep copy of the graph."""
        clone = WeightedDigraph(self._n)
        for u in range(self._n):
            clone._succ[u] = dict(self._succ[u])
            clone._pred[u] = dict(self._pred[u])
        clone._edge_count = self._edge_count
        return clone

    def reverse(self) -> "WeightedDigraph":
        """A new graph with every edge direction flipped."""
        rev = WeightedDigraph(self._n)
        for u, v, w in self.edges():
            rev.add_edge(v, u, w)
        return rev

    def is_complete(self) -> bool:
        """True iff every ordered pair of distinct vertices has an edge."""
        return self._edge_count == self._n * (self._n - 1)

    def is_strongly_connected(self) -> bool:
        """Kosaraju-style double BFS check for strong connectivity."""
        if self._n == 1:
            return True
        if self._edge_count == 0:
            return False
        return self._reaches_all(self._succ) and self._reaches_all(self._pred)

    def _reaches_all(self, adjacency: List[Dict[int, float]]) -> bool:
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self._n}, edges={self._edge_count})"
