"""The task graph ``G_T`` (Sec. III): unweighted, undirected comparison plan.

A :class:`TaskGraph` records *which* pairs of objects the requester has
decided to crowdsource.  It is the output of the task-assignment step and
the input of HIT generation, and it determines both fairness (Theorem 4.1,
via vertex degrees) and HP-likelihood (Theorem 4.4, via the degree spread).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set, Tuple

from ..exceptions import GraphError, VertexNotFoundError
from ..types import Pair, canonical_pair


class TaskGraph:
    """Undirected, unweighted graph of selected comparison pairs."""

    __slots__ = ("_n", "_adj", "_edges")

    def __init__(self, n_vertices: int, edges: Iterable[Pair] = ()):
        if n_vertices < 2:
            raise GraphError(
                f"a task graph needs at least 2 objects, got {n_vertices}"
            )
        self._n = int(n_vertices)
        self._adj: List[Set[int]] = [set() for _ in range(self._n)]
        self._edges: Set[Pair] = set()
        for i, j in edges:
            self.add_edge(i, j)

    # -- basic properties -------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        """Iterable of all vertex ids ``0..n-1``."""
        return range(self._n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexNotFoundError(f"vertex {v} outside 0..{self._n - 1}")

    # -- edges ---------------------------------------------------------------
    def add_edge(self, i: int, j: int) -> None:
        """Add the undirected comparison edge ``{i, j}`` (idempotent-checked).

        Raises
        ------
        GraphError
            On self-loops or duplicate edges — a task plan never contains
            the same comparison twice (repetition is modelled by assigning
            the same HIT to ``w`` workers instead).
        """
        self._check_vertex(i)
        self._check_vertex(j)
        pair = canonical_pair(i, j)
        if pair in self._edges:
            raise GraphError(f"duplicate task edge {pair}")
        self._edges.add(pair)
        self._adj[i].add(j)
        self._adj[j].add(i)

    def remove_edge(self, i: int, j: int) -> None:
        """Remove the undirected edge ``{i, j}``; raises if absent.

        Only the generator's edge-swap repair uses this; a finalised task
        plan is never mutated.
        """
        self._check_vertex(i)
        self._check_vertex(j)
        pair = canonical_pair(i, j)
        if pair not in self._edges:
            raise GraphError(f"task edge {pair} not in graph")
        self._edges.remove(pair)
        self._adj[i].discard(j)
        self._adj[j].discard(i)

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the undirected comparison edge ``{i, j}`` exists."""
        self._check_vertex(i)
        self._check_vertex(j)
        if i == j:
            return False
        return canonical_pair(i, j) in self._edges

    def edges(self) -> Iterator[Pair]:
        """Iterate canonical edges in sorted order (deterministic)."""
        return iter(sorted(self._edges))

    def neighbors(self, v: int) -> Iterator[int]:
        """Vertices sharing a comparison edge with ``v``."""
        self._check_vertex(v)
        return iter(self._adj[v])

    def degree(self, v: int) -> int:
        """Number of comparison edges incident to ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> List[int]:
        """Degree of every vertex, indexed by vertex id."""
        return [len(adj) for adj in self._adj]

    def degree_bounds(self) -> Tuple[int, int]:
        """``(d_min, d_max)`` over all vertices (Theorem 4.4 inputs)."""
        degs = self.degrees()
        return min(degs), max(degs)

    def is_regular(self) -> bool:
        """True iff all vertices share one degree (the fair case, Thm 4.1)."""
        d_min, d_max = self.degree_bounds()
        return d_min == d_max

    def is_near_regular(self) -> bool:
        """True iff degrees differ by at most 1.

        Algorithm 1's ideal ``2*l/n`` degree can be fractional, in which
        case the best achievable plan is near-regular (see DESIGN.md §5).
        """
        d_min, d_max = self.degree_bounds()
        return d_max - d_min <= 1

    def is_connected(self) -> bool:
        """BFS connectivity check; a disconnected plan can never rank."""
        if self._n == 1:
            return True
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def contains_path(self, path: Iterable[int]) -> bool:
        """True iff consecutive vertices of ``path`` are all task edges."""
        prev = None
        for v in path:
            self._check_vertex(v)
            if prev is not None and not self.has_edge(prev, v):
                return False
            prev = v
        return True

    def selection_ratio(self) -> float:
        """The paper's ``r``: fraction of all ``C(n,2)`` pairs selected."""
        total = self._n * (self._n - 1) // 2
        return len(self._edges) / total

    @classmethod
    def complete(cls, n_vertices: int) -> "TaskGraph":
        """The all-pair task graph (the paper's ``r = 1`` baseline)."""
        graph = cls(n_vertices)
        for i in range(n_vertices):
            for j in range(i + 1, n_vertices):
                graph.add_edge(i, j)
        return graph

    def __contains__(self, pair: Pair) -> bool:
        i, j = pair
        return self.has_edge(i, j)

    def __repr__(self) -> str:
        return (
            f"TaskGraph(n={self._n}, edges={len(self._edges)}, "
            f"r={self.selection_ratio():.3f})"
        )
