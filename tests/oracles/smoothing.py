"""Step 2 oracle: 1-edge smoothing over a ``PreferenceGraph``.

The per-edge object implementation that
:func:`repro.inference.smoothing.smooth_matrix` replaced.  It walks
``graph.one_edges()`` and, within an edge, the pair's votes in vote-set
order, drawing one ``|N(0, sigma_k^2)|`` per vote in sampled mode — the
draw-order contract the columnar path reproduces bit for bit.  For
Step-1 graphs built by
:meth:`~tests.oracles.preference_graph.PreferenceGraph.from_direct_preferences`
over the sorted pair table, ``one_edges()`` is lexicographic
``(source, target)`` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.config import SmoothingConfig
from repro.exceptions import InferenceError
from repro.inference.smoothing import worker_sigma
from repro.rng import SeedLike, ensure_rng
from repro.types import VoteSet, WorkerId, canonical_pair

from .preference_graph import PreferenceGraph


@dataclass(frozen=True)
class SmoothingResult:
    """Output of Step 2 (object path).

    Attributes
    ----------
    graph:
        The smoothed preference graph (both directions present for every
        compared pair, weights summing to 1 per pair).
    n_one_edges:
        How many unanimous edges were smoothed (the quantity the paper's
        Fig. 4 discussion ties to the Gaussian-vs-Uniform runtime gap).
    adjustments:
        Per smoothed directed edge, the amount moved to the reverse
        direction.
    """

    graph: PreferenceGraph
    n_one_edges: int
    adjustments: Dict[Tuple[int, int], float]


def _worker_error(
    sigma: float, config: SmoothingConfig, rng: np.random.Generator
) -> float:
    """One worker's estimated error mass ``err_k`` on a unanimous edge."""
    if config.mode == "expected":
        return sigma * math.sqrt(2.0 / math.pi)
    return float(abs(rng.normal(0.0, sigma)))


def smooth_preferences(
    graph: PreferenceGraph,
    votes: VoteSet,
    worker_quality: Mapping[WorkerId, float],
    config: Optional[SmoothingConfig] = None,
    rng: SeedLike = None,
) -> SmoothingResult:
    """Smooth every 1-edge of ``graph`` using the answering workers' quality.

    Parameters
    ----------
    graph:
        The direct preference graph from Step 1
        (:meth:`PreferenceGraph.from_direct_preferences`).
    votes:
        The raw votes — needed to find *which* workers answered each
        unanimous pair.
    worker_quality:
        Step 1's estimated ``q_k``.
    config:
        Smoothing configuration.
    rng:
        Only used in ``mode="sampled"``.

    Raises
    ------
    InferenceError
        If a 1-edge has no recorded votes (inconsistent inputs) or a
        quality is missing for an answering worker.
    """
    config = config if config is not None else SmoothingConfig()
    generator = ensure_rng(rng)
    votes_by_pair = votes.by_pair()
    smoothed = graph.copy()
    adjustments: Dict[Tuple[int, int], float] = {}
    # sigma_k is a pure function of the worker's quality — compute it
    # once per distinct worker, not once per (edge, vote).
    sigma_cache: Dict[WorkerId, float] = {}

    one_edges = graph.one_edges()
    for u, v in one_edges:
        pair = canonical_pair(u, v)
        pair_votes = votes_by_pair.get(pair)
        if not pair_votes:
            raise InferenceError(
                f"1-edge ({u} -> {v}) has no recorded votes; the vote set "
                "does not match the preference graph"
            )
        errors: List[float] = []
        for vote in pair_votes:
            sigma = sigma_cache.get(vote.worker)
            if sigma is None:
                if vote.worker not in worker_quality:
                    raise InferenceError(
                        f"no quality estimate for worker {vote.worker} "
                        f"answering pair {pair}"
                    )
                sigma = worker_sigma(worker_quality[vote.worker], config)
                sigma_cache[vote.worker] = sigma
            errors.append(_worker_error(sigma, config, generator))
        shift = float(np.mean(errors))
        # A unanimous edge may become uninformative (0.5/0.5) under very
        # unreliable workers but must never *invert*: the crowd said
        # i ≺ j, so the smoothed w_ij stays >= 0.5.  The lower clip keeps
        # both directions strictly positive (strong connectivity).
        shift = min(max(shift, config.min_weight), 0.5)

        smoothed.remove_edge(u, v)
        smoothed.add_edge(u, v, 1.0 - shift)
        if smoothed.has_edge(v, u):  # pragma: no cover - 1-edge => absent
            smoothed.remove_edge(v, u)
        smoothed.add_edge(v, u, shift)
        adjustments[(u, v)] = shift

    return SmoothingResult(
        graph=smoothed,
        n_one_edges=len(one_edges),
        adjustments=adjustments,
    )
