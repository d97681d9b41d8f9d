"""Hamiltonian-path existence (Sec. III: HP <=> full ranking).

A full ranking of the objects is exactly a Hamiltonian path of the
transitive closure of the (smoothed) preference graph; its *preference
probability* is the product of its edge weights, which the Step-4
searches (:mod:`repro.inference.taps`, :mod:`repro.inference.saps`)
maximise in log space.
"""

from __future__ import annotations

from repro.exceptions import GraphError

from .digraph import WeightedDigraph

#: DP-based existence checking is exponential in memory (O(2^n * n)).
_DP_LIMIT = 20


def has_hamiltonian_path(graph: WeightedDigraph) -> bool:
    """Whether a directed Hamiltonian path exists.

    Fast paths first (complete graph -> always, by the standard
    tournament/complete-graph argument of Theorem 5.1; more than one
    in-/out-node -> never, by Theorem 4.3), then an exact Held-Karp
    bitmask DP for ``n <= 20``.

    Raises
    ------
    GraphError
        When no fast path applies and ``n`` exceeds the DP limit.
    """
    n = graph.n_vertices
    if n == 1:
        return True
    if graph.is_complete():
        return True
    if len(graph.in_nodes()) > 1 or len(graph.out_nodes()) > 1:
        return False  # Theorem 4.3
    if n > _DP_LIMIT:
        raise GraphError(
            f"exact HP existence on n={n} exceeds the DP limit "
            f"{_DP_LIMIT}; complete the graph (Steps 2-3) first"
        )
    return _held_karp_exists(graph)


def _held_karp_exists(graph: WeightedDigraph) -> bool:
    """Bitmask DP: reachable[mask][v] = can a path over `mask` end at v."""
    n = graph.n_vertices
    reachable = [[False] * n for _ in range(1 << n)]
    for v in range(n):
        reachable[1 << v][v] = True
    for mask in range(1 << n):
        for v in range(n):
            if not reachable[mask][v]:
                continue
            for w in graph.successors(v):
                next_mask = mask | (1 << w)
                if next_mask != mask:
                    reachable[next_mask][w] = True
    full = (1 << n) - 1
    return any(reachable[full])
