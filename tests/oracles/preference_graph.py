"""The preference graph ``G_P`` (Sec. III): directed, weighted preferences.

A :class:`PreferenceGraph` is a thin domain layer over
:class:`~tests.oracles.digraph.WeightedDigraph`: edge ``i -> j`` with weight
``w_ij`` means "``O_i`` is preferred to ``O_j`` with truth confidence
``w_ij``".  It adds the paper-specific notions (1-edges, in/out nodes,
instance-of-task-graph checks).  The inference steps work on dense
matrices; this object model serves the paper walkthrough and theorem
tests and the object-graph oracles.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.task_graph import TaskGraph
from repro.types import ONE_EDGE_TOLERANCE, Pair, canonical_pair

from .digraph import WeightedDigraph


class PreferenceGraph(WeightedDigraph):
    """Directed weighted graph of aggregated pairwise preferences.

    Invariants (enforced on construction helpers, checked by
    :meth:`validate`):

    * weights lie in ``(0, 1]``;
    * at most one of ``i -> j`` / ``j -> i`` exists per pair *before*
      smoothing; after smoothing both exist and sum to 1.
    """

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_direct_preferences(
        cls, n_objects: int, preferences: Dict[Pair, float]
    ) -> "PreferenceGraph":
        """Build ``G_P`` from Step-1 output.

        ``preferences[(i, j)]`` (with ``i < j``) is the estimated
        probability ``x_ij`` that ``O_i ≺ O_j``.  Per the paper's
        convention a zero-weight edge is simply absent: ``x_ij = 1``
        yields only ``i -> j``; ``x_ij = 0`` yields only ``j -> i``;
        anything in between yields both directions.
        """
        graph = cls(n_objects)
        for (i, j), x_ij in preferences.items():
            if (i, j) != canonical_pair(i, j):
                raise GraphError(f"preference key {(i, j)} is not canonical")
            if not 0.0 <= x_ij <= 1.0:
                raise GraphError(
                    f"preference x_{i}{j} = {x_ij} outside [0, 1]"
                )
            if x_ij > 0.0:
                graph.add_edge(i, j, x_ij)
            if x_ij < 1.0:
                graph.add_edge(j, i, 1.0 - x_ij)
        return graph

    @classmethod
    def from_matrix(cls, weights: np.ndarray) -> "PreferenceGraph":
        """Build a preference graph from a dense weight matrix.

        Zero entries mean "no edge" (the paper's convention).  This is
        the vectorised bridge from the columnar fast path's matrices
        back to the object representation: adjacency dictionaries are
        bulk-built row/column-wise instead of going through ``n^2``
        individual :meth:`add_edge` calls.
        """
        weights = np.asarray(weights, dtype=np.float64)
        n = weights.shape[0]
        if weights.ndim != 2 or weights.shape != (n, n):
            raise GraphError(
                f"weight matrix must be square, got {weights.shape}"
            )
        if np.any(weights < 0.0):
            raise GraphError("weight matrix entries must be non-negative")
        if np.any(np.diagonal(weights) != 0.0):
            raise GraphError("weight matrix must have a zero diagonal")
        graph = cls(n)
        count = 0
        for u in range(n):
            row = weights[u]
            nz = np.nonzero(row)[0]
            graph._succ[u] = dict(zip(nz.tolist(), row[nz].tolist()))
            col = weights[:, u]
            nz_in = np.nonzero(col)[0]
            graph._pred[u] = dict(zip(nz_in.tolist(), col[nz_in].tolist()))
            count += len(nz)
        graph._edge_count = count
        return graph

    # -- paper-specific structure -------------------------------------------
    def one_edges(self) -> List[Tuple[int, int]]:
        """All edges of weight 1 (unanimous preferences; Sec. V-B).

        These are exactly the edges smoothing operates on: a 1-edge
        ``(i, j)`` means every worker who saw the pair voted ``i ≺ j``,
        so the opposite direction is entirely unobserved.
        """
        return [
            (u, v)
            for u, v, w in self.edges()
            if w >= 1.0 - ONE_EDGE_TOLERANCE
        ]

    def compared_pairs(self) -> List[Pair]:
        """Canonical pairs that have at least one directed edge."""
        seen = set()
        for u, v, _ in self.edges():
            seen.add(canonical_pair(u, v))
        return sorted(seen)

    def is_instance_of(self, task_graph: TaskGraph) -> bool:
        """True iff every preference edge corresponds to a task edge.

        Section III: ``G_P`` is one of the ``3^l`` possible directed
        instances of ``G_T``.
        """
        if task_graph.n_vertices != self.n_vertices:
            return False
        return all(
            task_graph.has_edge(u, v) for u, v, _ in self.edges()
        )

    def validate(self, *, smoothed: bool = False) -> None:
        """Check the weight invariants; raise :class:`GraphError` if broken.

        With ``smoothed=True`` additionally require that both directions
        exist for every compared pair and sum to 1 (the post-Step-2/3
        state used by Theorem 5.1).
        """
        for u, v, w in self.edges():
            if not 0.0 < w <= 1.0 + ONE_EDGE_TOLERANCE:
                raise GraphError(f"edge ({u} -> {v}) weight {w} outside (0, 1]")
        if smoothed:
            for i, j in self.compared_pairs():
                if not (self.has_edge(i, j) and self.has_edge(j, i)):
                    raise GraphError(
                        f"smoothed graph misses a direction on pair ({i}, {j})"
                    )
                total = self.weight(i, j) + self.weight(j, i)
                if abs(total - 1.0) > 1e-6:
                    raise GraphError(
                        f"pair ({i}, {j}) weights sum to {total}, expected 1"
                    )

    # -- transforms -----------------------------------------------------------

    def copy(self) -> "PreferenceGraph":
        """An independent deep copy preserving the subclass type."""
        clone = PreferenceGraph(self.n_vertices)
        for u, v, w in self.edges():
            clone.add_edge(u, v, w)
        return clone

    def __repr__(self) -> str:
        return (
            f"PreferenceGraph(n={self.n_vertices}, edges={self.n_edges}, "
            f"one_edges={len(self.one_edges())})"
        )
