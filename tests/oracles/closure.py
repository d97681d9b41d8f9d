"""Step 3's support-graph reachability by a depth-first search from
every vertex, the independent twin of
:func:`repro.graphs.closure._reachability`."""

import numpy as np


def reachability_by_search(weights: np.ndarray) -> np.ndarray:
    """Boolean reachability (paths of one or more edges) of the support
    graph of ``weights``: row ``i`` marks every vertex a path from ``i``
    ends at."""
    n = weights.shape[0]
    successors = [np.flatnonzero(weights[i] > 0.0).tolist()
                  for i in range(n)]
    reach = np.zeros((n, n), dtype=bool)
    for source in range(n):
        stack = list(successors[source])
        while stack:
            vertex = stack.pop()
            if not reach[source, vertex]:
                reach[source, vertex] = True
                stack.extend(successors[vertex])
    return reach
