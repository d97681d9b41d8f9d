"""Transitive-closure and preference-propagation kernels (Sec. V-C).

The paper defines the indirect preference of a hidden edge ``(i, j)`` as
the sum over all paths ``i ⇝ j`` (length 2..n-1) of the product of the
edge weights along each path.  Exact simple-path enumeration is
exponential, so two kernels are provided:

* :func:`propagate_exact_paths` — faithful simple-path enumeration with a
  configurable length cap; used for small ``n`` and as the ground truth
  in tests;
* :func:`propagate_walks` — matrix-power aggregation over *walks* (which
  may revisit vertices); polynomial, vectorised, and the default for
  large instances.  Walks of length ``h`` contribute ``(W^h)_ij``; the
  kernel sums ``h = 2 .. max_hops``.

Both return **indirect-only** weight matrices: the direct edge (length-1
"path") is excluded, exactly as the paper excludes "the direct edge
``(v_i, v_j) ∈ G_P``" from the path set.  Blending with the direct
preference is Step 3's job (:mod:`repro.inference.propagation`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import GraphError

__all__ = [
    "propagate_walks",
    "propagate_exact_paths",
]


def propagate_walks(
    weights: np.ndarray,
    max_hops: int,
    *,
    ensure_coverage: bool = False,
) -> np.ndarray:
    """Indirect preference via walk products: ``sum_{h=2..H} W^h``.

    Parameters
    ----------
    weights:
        Dense ``(n, n)`` direct-weight matrix (0 = no edge).
    max_hops:
        Longest walk length ``H`` (>= 2) to aggregate.
    ensure_coverage:
        When True, keep extending beyond ``max_hops`` (up to ``n - 1``)
        until every ordered pair that is *reachable at all* has a
        positive indirect weight.  Sparse plans at small ``max_hops``
        otherwise leave distant pairs without any indirect evidence.

    Returns
    -------
    numpy.ndarray
        The indirect-only weight matrix (zero diagonal).
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if weights.ndim != 2 or weights.shape != (n, n):
        raise GraphError(f"weights must be square, got {weights.shape}")
    if max_hops < 2:
        raise GraphError(f"max_hops must be >= 2, got {max_hops}")

    power = weights.copy()
    indirect = np.zeros_like(weights)
    hop = 1
    limit = min(max_hops, n - 1) if n > 1 else 1
    while hop < limit:
        power = power @ weights
        hop += 1
        indirect += power
    if ensure_coverage and n > 1:
        # Reachability depends only on the support graph of ``weights``,
        # which never changes inside this loop — compute it once instead
        # of re-deriving it (O(n^3 log n)) on every extension hop.
        targets = _reachability(weights) & ~np.eye(n, dtype=bool)
        evidence = indirect + weights  # pairs with any evidence so far
        while hop < n - 1 and bool(np.any(targets & (evidence <= 0.0))):
            power = power @ weights
            hop += 1
            indirect += power
            evidence = indirect + weights
    np.fill_diagonal(indirect, 0.0)
    return indirect


def _reachability(weights: np.ndarray) -> np.ndarray:
    """Boolean reachability of the support graph of ``weights``."""
    adj = weights > 0.0
    n = adj.shape[0]
    reach = adj.copy()
    # Repeated squaring: after k rounds reach covers paths up to 2^k, so
    # O(log n) boolean matmuls suffice.
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        new = reach | (reach @ reach)
        if np.array_equal(new, reach):
            break
        reach = new
    return reach


def propagate_exact_paths(
    weights: np.ndarray,
    max_length: Optional[int] = None,
    *,
    max_vertices: int = 14,
) -> np.ndarray:
    """Faithful indirect preference: sum over *simple* paths of products.

    Enumerates every simple path of length 2..``max_length`` (default
    ``n - 1``) through the dense weight matrix ``weights`` (zero entries
    mean "no edge") by DFS.  Exponential — guarded by ``max_vertices``.

    Successors are visited in ascending vertex order, so the float
    accumulation order — and therefore the result, to the last ULP — is
    a function of the weights alone.

    Returns the indirect-only weight matrix, zero diagonal.

    Raises
    ------
    GraphError
        If ``weights`` is not square, has a negative (or NaN) entry or a
        nonzero diagonal, or if the size or length guard trips.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise GraphError(f"weight matrix must be square, got {weights.shape}")
    if not np.all(weights >= 0.0):
        raise GraphError("weight matrix entries must be non-negative")
    if np.any(np.diagonal(weights) != 0.0):
        raise GraphError("weight matrix must have a zero diagonal")
    n = weights.shape[0]
    if n > max_vertices:
        raise GraphError(
            f"exact path enumeration on n={n} exceeds max_vertices="
            f"{max_vertices}; use propagate_walks instead"
        )
    cap = n - 1 if max_length is None else max_length
    if cap < 2:
        raise GraphError(f"max_length must be >= 2, got {cap}")

    adjacency = []
    for row in weights:
        successors = np.nonzero(row)[0]
        adjacency.append(list(zip(successors.tolist(),
                                  row[successors].tolist())))
    indirect = np.zeros((n, n), dtype=np.float64)
    for source in range(n):
        on_path = [False] * n
        on_path[source] = True

        def dfs(vertex: int, product: float, length: int) -> None:
            for nxt, w in adjacency[vertex]:
                if on_path[nxt]:
                    continue
                contribution = product * w
                if length + 1 >= 2:
                    indirect[source, nxt] += contribution
                if length + 1 < cap:
                    on_path[nxt] = True
                    dfs(nxt, contribution, length + 1)
                    on_path[nxt] = False

        dfs(source, 1.0, 0)
    np.fill_diagonal(indirect, 0.0)
    return indirect
