"""Incremental cost evaluation for Hamiltonian-path moves (Step 4).

All Step-4 searches minimise ``d(P) = sum cost[p_i, p_{i+1}]`` over
consecutive pairs of a permutation ``P``.  The three SAPS proposals —
Rotate, Reverse, RandomSwap — and the polish pass's reinsertions only
change the edges at the slice boundaries, so ``d(P') - d(P)`` can be
computed from those few edges instead of re-summing all ``n - 1``:

* **Rotate(first, middle, last)** — the slice ``P[first:last]`` becomes
  ``P[middle:last] + P[first:middle]``.  Edges internal to either block
  are untouched; exactly three edges change (fewer at the path ends):

  - ``(P[first-1], P[first])  -> (P[first-1], P[middle])``
  - ``(P[middle-1], P[middle]) -> (P[last-1], P[first])``  (new junction)
  - ``(P[last-1], P[last])    -> (P[middle-1], P[last])``

  O(1) per proposal.

* **Reverse(first, last)** — every internal edge flips direction, so
  the internal contribution is ``sum diff[a][b]`` with
  ``diff[a][b] = cost[b, a] - cost[a, b]`` over the old consecutive
  pairs ``(a, b)``, plus the two boundary swaps.  O(k) for a slice of
  length ``k`` (the cost matrix is directed, so the internal sum does
  not cancel).  The native SAPS kernel sums ``diff`` along the slice
  left to right from 0.0.

* **Swap(i, j)** — at most four edges change (three when ``i``/``j``
  are adjacent, zero when equal).  O(1) per proposal.

Single-vertex reinsertion (the polish move) is a Rotate: moving ``P[k]``
to slot ``s < k`` is ``Rotate(s, k, k+1)``; to slot ``s > k`` it is
``Rotate(k, k+1, s+1)``.

The delta functions take the cost matrix as a *row-indexable* table —
``rows[a][b]`` — so hot loops can pass a nested Python list (scalar
lookups into a list-of-lists are several times faster than
``ndarray[a, b]``) while casual callers pass the ndarray itself.  The
``apply_*`` helpers mutate the path (Python list or ndarray) in place;
no per-proposal copies.  This module is the single Python statement of
the formulas: :func:`repro.inference.local_search.polish_ranking` and
the tests call it, and the native SAPS kernel (``_anneal.c``, run by
:func:`repro.inference.saps._anneal_incremental`) repeats the same
arithmetic in the same order.

Infinite edges: deltas are computed with ordinary float arithmetic, so
they are exact whenever the edges *removed* from the path are finite
(``+inf - finite = +inf`` rejects a candidate naturally; ``inf - inf``
would be NaN).  Callers that may hold a path with infinite edges — an
incomplete closure — must re-evaluate in full instead;
:func:`repro.inference.saps.saps_search_report` refuses such input.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

#: A permutation as a mutable sequence (ndarray in SAPS, list in polish).
PathLike = Union[np.ndarray, List[int]]


def path_cost(cost: np.ndarray, path: Sequence[int]) -> float:
    """``d(P) = sum cost[p_i, p_{i+1}]`` (vectorised full re-sum)."""
    arr = np.asarray(path)
    return float(cost[arr[:-1], arr[1:]].sum())


def reverse_diff_matrix(cost: np.ndarray) -> np.ndarray:
    """``diff[a, b] = cost[b, a] - cost[a, b]``, the per-edge change of
    flipping edge ``(a, b)``; one lookup per internal Reverse edge.

    The diagonal is zeroed first so ``inf - inf`` never produces NaN
    (diagonal entries are never path edges anyway).
    """
    finite = cost.copy()
    np.fill_diagonal(finite, 0.0)
    return np.ascontiguousarray(finite.T - finite)


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------

def rotate_delta(
    rows: Sequence[Sequence[float]],
    path: Sequence[int],
    first: int,
    middle: int,
    last: int,
) -> float:
    """``d(P') - d(P)`` for Rotate(first, middle, last); O(1).

    Contract: ``0 <= first < middle < last <= len(path)`` (both blocks
    non-empty), as the SAPS kernel's move decode guarantees.
    """
    a = path[first]          # head of the left block
    b = path[middle - 1]     # tail of the left block
    m = path[middle]         # head of the right block
    e = path[last - 1]       # tail of the right block
    delta = rows[e][a] - rows[b][m]
    if first > 0:
        p = path[first - 1]
        delta += rows[p][m] - rows[p][a]
    if last < len(path):
        q = path[last]
        delta += rows[b][q] - rows[e][q]
    return delta


def reverse_delta(
    rows: Sequence[Sequence[float]],
    diff: Sequence[Sequence[float]],
    path: Sequence[int],
    first: int,
    last: int,
) -> float:
    """``d(P') - d(P)`` for Reverse(first, last); O(last - first).

    ``diff`` must be :func:`reverse_diff_matrix` of the same cost
    matrix as ``rows`` (or that matrix as a nested list).
    """
    delta = 0.0
    prev = path[first]
    for index in range(first + 1, last):
        nxt = path[index]
        delta += diff[prev][nxt]
        prev = nxt
    if first > 0:
        p = path[first - 1]
        delta += rows[p][path[last - 1]] - rows[p][path[first]]
    if last < len(path):
        q = path[last]
        delta += rows[path[first]][q] - rows[path[last - 1]][q]
    return delta


def swap_delta(
    rows: Sequence[Sequence[float]],
    path: Sequence[int],
    i: int,
    j: int,
) -> float:
    """``d(P') - d(P)`` for swapping positions ``i`` and ``j``; O(1)."""
    if i == j:
        return 0.0
    if i > j:
        i, j = j, i
    n = len(path)
    u, v = path[i], path[j]
    if j == i + 1:
        delta = rows[v][u] - rows[u][v]
        if i > 0:
            p = path[i - 1]
            delta += rows[p][v] - rows[p][u]
        if j < n - 1:
            q = path[j + 1]
            delta += rows[u][q] - rows[v][q]
        return delta
    delta = 0.0
    if i > 0:
        p = path[i - 1]
        delta += rows[p][v] - rows[p][u]
    s = path[i + 1]
    delta += rows[v][s] - rows[u][s]
    t = path[j - 1]
    delta += rows[t][u] - rows[t][v]
    if j < n - 1:
        q = path[j + 1]
        delta += rows[u][q] - rows[v][q]
    return delta


# ---------------------------------------------------------------------------
# In-place applications
# ---------------------------------------------------------------------------

def apply_rotate(path: PathLike, first: int, middle: int, last: int) -> None:
    """In-place ``std::rotate`` of ``path[first:last]`` around ``middle``."""
    if isinstance(path, np.ndarray):
        path[first:last] = np.concatenate(
            (path[middle:last], path[first:middle])
        )
    else:
        path[first:last] = path[middle:last] + path[first:middle]


def apply_reverse(path: PathLike, first: int, last: int) -> None:
    """In-place reversal of ``path[first:last]``."""
    if isinstance(path, np.ndarray):
        path[first:last] = path[first:last][::-1].copy()
    else:
        path[first:last] = path[first:last][::-1]


def apply_swap(path: PathLike, i: int, j: int) -> None:
    """In-place swap of positions ``i`` and ``j``."""
    path[i], path[j] = path[j], path[i]
