"""Step 2: preference smoothing of unanimous edges (Sec. V-B).

A *1-edge* ``(i, j)`` means every worker who answered the pair voted
``i ≺ j`` in this round; the opposite preference is unobserved, and these
unanimous edges are exactly what creates in-/out-nodes and breaks the
Hamiltonian-path traversal (Theorem 4.3).  Smoothing estimates the unseen
reverse preference from the quality of the workers who answered:

    ``w_ij <- w_ij - mean_k(err_k)``,  ``w_ji <- w_ji + mean_k(err_k)``

with ``err_k`` the error of worker ``k`` under ``N(0, sigma_k^2)`` and
``sigma_k = -log(q_k)``.  Two readings of "the error" are supported: the
deterministic expectation ``E|eps| = sigma_k * sqrt(2/pi)`` (default) and
a sampled draw (the paper's stochastic phrasing).  Only 1-edges are
touched — the paper smooths nothing else, "aiming to minimize the amounts
of errors introduced by estimation".

:func:`smooth_matrix` works on the columnar vote arrays
(:class:`~repro.types.VoteArrays`): it identifies 1-edges from the
Step-1 truth vector, computes ``sigma_k`` once per distinct worker, and
applies every shift with ``np.bincount``.

**Sampled-mode RNG draw-order contract.**  One ``|N(0, sigma_k^2)|``
draw is consumed per (1-edge, vote): 1-edges in lexicographic
``(source, target)`` order, and votes within an edge in original
vote-set order.  ``numpy``'s vectorized ``Generator.normal(0,
sigma_array)`` draws element-wise from the same bit stream as the
equivalent sequence of scalar calls, so the shifts are bit-identical to
a per-edge scalar loop in that order — which is how the per-edge
object-graph oracle under ``tests/oracles/`` computes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..config import SmoothingConfig
from ..exceptions import InferenceError
from ..rng import SeedLike, ensure_rng
from ..types import ONE_EDGE_TOLERANCE, VoteArrays, WorkerId


@dataclass(frozen=True)
class MatrixSmoothingResult:
    """Output of Step 2.

    Attributes
    ----------
    matrix:
        The smoothed dense weight matrix (both directions present for
        every compared pair, weights summing to 1 per pair) — the
        representation Steps 3-4 consume directly.
    n_one_edges:
        How many unanimous edges were smoothed (the quantity the paper's
        Fig. 4 discussion ties to the Gaussian-vs-Uniform runtime gap).
    edges:
        ``(source, target, shift)`` arrays, one entry per smoothed
        directed edge in draw order: the amount moved to the reverse
        direction.
    """

    matrix: np.ndarray
    n_one_edges: int
    edges: Tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def adjustments(self) -> Dict[Tuple[int, int], float]:
        """:attr:`edges` as ``{(source, target): shift}``, built on
        read: no caller on the inference path needs the dict."""
        source, target, shift = self.edges
        return dict(zip(zip(source.tolist(), target.tolist()),
                        shift.tolist()))


def worker_sigma(quality: float, config: SmoothingConfig) -> float:
    """The paper's ``sigma_k = -log(q_k)``, clipped into a sane band.

    ``q_k = 1`` would give sigma 0 (no smoothing at all) and ``q_k -> 0``
    would give an unbounded sigma; both ends are clipped so smoothed
    weights stay strictly inside (0, 1).
    """
    if not 0.0 < quality <= 1.0:
        raise InferenceError(f"worker quality {quality} outside (0, 1]")
    sigma = -math.log(quality) if quality < 1.0 else 0.0
    return float(min(max(sigma, config.sigma_floor), config.sigma_cap))


def direct_preference_matrix(
    arrays: VoteArrays, truth_vector: np.ndarray
) -> np.ndarray:
    """Step-1 output as a dense weight matrix (``G_P``).

    The matrix analogue of the Sec. III preference graph (the
    ``PreferenceGraph.from_direct_preferences`` oracle under
    ``tests/oracles``): for each compared pair ``(i, j)`` (canonical ``i < j``) with
    estimated preference ``x_ij``, entry ``[i, j] = x_ij`` when positive and
    ``[j, i] = 1 - x_ij`` when ``x_ij < 1``; absent edges stay 0.
    """
    x = np.asarray(truth_vector, dtype=np.float64)
    if x.shape != (arrays.n_pairs,):
        raise InferenceError(
            f"truth vector of shape {x.shape} does not match the "
            f"{arrays.n_pairs}-pair vote table"
        )
    if arrays.n_pairs and (float(x.min()) < 0.0 or float(x.max()) > 1.0):
        raise InferenceError("truth vector entries outside [0, 1]")
    n = arrays.n_objects
    matrix = np.zeros((n, n), dtype=np.float64)
    forward = x > 0.0
    matrix[arrays.pair_lo[forward], arrays.pair_hi[forward]] = x[forward]
    reverse = x < 1.0
    matrix[arrays.pair_hi[reverse], arrays.pair_lo[reverse]] = \
        1.0 - x[reverse]
    return matrix


def smooth_matrix(
    direct: np.ndarray,
    truth_vector: np.ndarray,
    arrays: VoteArrays,
    worker_quality: Union[Mapping[WorkerId, float], np.ndarray],
    config: Optional[SmoothingConfig] = None,
    rng: SeedLike = None,
) -> MatrixSmoothingResult:
    """Vectorized Step 2 over the columnar vote arrays.

    Per-edge means via ``np.bincount`` accumulate in the same sequential
    order as a per-edge ``np.mean`` for the realistic <= 8 votes per
    pair, so the shifts match a scalar per-edge loop bit for bit (see
    the module docstring for the sampled-mode draw-order contract).

    Parameters
    ----------
    direct:
        Dense Step-1 weight matrix (:func:`direct_preference_matrix`);
        not mutated.
    truth_vector:
        Step-1 preference estimates aligned with ``arrays``' pair table
        — 1-edges are identified directly from it (``x >= 1 - tol`` is
        a unanimous ``lo -> hi`` edge, ``x <= tol`` a unanimous
        ``hi -> lo`` edge).
    arrays:
        Columnar vote view; every pair in the table carries at least one
        vote by construction, so a 1-edge always has votes.
    worker_quality:
        Either a quality vector aligned with ``arrays.worker_ids`` or a
        mapping that must cover every voting worker (checked up front).
    """
    config = config if config is not None else SmoothingConfig()
    generator = ensure_rng(rng)
    x = np.asarray(truth_vector, dtype=np.float64)
    sigma = _sigma_vector(arrays, worker_quality, config)
    src, dst, pair_of_edge = _one_edge_table(x, arrays)
    smoothed = np.array(direct, dtype=np.float64, copy=True)
    shift = _edge_shifts(arrays, sigma, pair_of_edge, config, generator)
    smoothed[src, dst] = 1.0 - shift
    smoothed[dst, src] = shift
    return MatrixSmoothingResult(matrix=smoothed,
                                 n_one_edges=int(src.shape[0]),
                                 edges=(src, dst, shift))


def _sigma_vector(
    arrays: VoteArrays,
    worker_quality: Union[Mapping[WorkerId, float], np.ndarray],
    config: SmoothingConfig,
) -> np.ndarray:
    """Per-distinct-worker sigma through the scalar :func:`worker_sigma`
    (the same clipping and log for every caller)."""
    if isinstance(worker_quality, np.ndarray):
        qualities = worker_quality.tolist()
    else:
        workers = arrays.workers()
        missing = [w for w in workers if w not in worker_quality]
        if missing:
            raise InferenceError(
                f"no quality estimate for worker {missing[0]}"
            )
        qualities = [worker_quality[w] for w in workers]
    if len(qualities) != arrays.n_workers:
        raise InferenceError(
            f"{len(qualities)} worker qualities for {arrays.n_workers} "
            "voting workers"
        )
    return np.array([worker_sigma(q, config) for q in qualities],
                    dtype=np.float64)


def _one_edge_table(x: np.ndarray, arrays: VoteArrays) -> tuple:
    """1-edges from the truth vector, in the documented draw order:
    lexicographic ``(source, target)``."""
    one_forward = x >= 1.0 - ONE_EDGE_TOLERANCE
    one_reverse = (1.0 - x) >= 1.0 - ONE_EDGE_TOLERANCE
    src = np.concatenate([arrays.pair_lo[one_forward],
                          arrays.pair_hi[one_reverse]])
    dst = np.concatenate([arrays.pair_hi[one_forward],
                          arrays.pair_lo[one_reverse]])
    pair_of_edge = np.concatenate([np.nonzero(one_forward)[0],
                                   np.nonzero(one_reverse)[0]])
    order = np.lexsort((dst, src))
    return src[order], dst[order], pair_of_edge[order]


def _edge_shifts(
    arrays: VoteArrays,
    sigma: np.ndarray,
    pair_of_edge: np.ndarray,
    config: SmoothingConfig,
    generator: np.random.Generator,
) -> np.ndarray:
    """Per-1-edge smoothing shift: the mean worker error over the
    edge's votes, clipped into ``[min_weight, 0.5]``.

    Gathers the 1-edges' votes in vote order, so each edge's sum runs
    in vote order; ``"sampled"`` draws its errors edge-major, so there
    the votes are stably sorted by edge first.
    """
    n_edges = int(pair_of_edge.shape[0])
    edge_of_pair = np.full(arrays.n_pairs, n_edges, dtype=np.int64)
    edge_of_pair[pair_of_edge] = np.arange(n_edges)
    vote_edge = edge_of_pair[arrays.pair_idx]
    vote_rows = np.flatnonzero(vote_edge < n_edges)
    if config.mode != "expected":
        vote_rows = vote_rows[np.argsort(vote_edge[vote_rows],
                                         kind="stable")]
    edge_of_vote = vote_edge[vote_rows]
    lengths = np.bincount(edge_of_vote, minlength=n_edges)

    per_vote_sigma = sigma[arrays.worker_idx[vote_rows]]
    if config.mode == "expected":
        errors = per_vote_sigma * math.sqrt(2.0 / math.pi)
    else:
        errors = np.abs(generator.normal(0.0, per_vote_sigma))

    shift = (np.bincount(edge_of_vote, weights=errors, minlength=n_edges)
             / lengths)
    return np.clip(shift, config.min_weight, 0.5)
