"""Sparse large-``n`` ranking engines: HodgeRank and graph least squares.

The paper's Step 2-4 machinery (dense smoothing matrix, matrix-power
propagation, annealing path search) is quadratic-to-cubic in ``n`` and
caps practical instances at a few hundred objects.  This module provides
two alternative Step 1-3 engines that reduce ranking to a **sparse
linear system** over the comparison graph, solvable in near-linear time
in the number of observed pairs — ``n`` in the thousands is routine.

Both engines estimate a latent score ``s`` per object by least squares
on the graph's gradient flow: with ``B`` the edge-object incidence
matrix (:mod:`repro.inference.incidence`), per-edge flows ``y`` and
weights ``w``, they solve

    ``min_s  sum_e w_e (s_lo(e) - s_hi(e) - y_e)^2``
    ``  ==   min_s  || diag(sqrt(w)) (B s - y) ||^2``

and rank by descending score.  The two engines differ only in where the
flow and weights come from:

* ``engine="hodge"`` — **HodgeRank** (Jiang et al.; Xu et al., "HodgeRank
  with Information Maximization").  Step 1 truth discovery (CRH or EM)
  runs first, exactly as in the paper's pipeline; the discovered per-pair
  preference ``x_e`` becomes the uniform-model flow ``y_e = 2 x_e - 1``
  and the edge weight is the answering workers' **quality mass** ``w_e = sum_k q_k`` — the
  same quality signal Step 2 smoothing uses, so spammers are
  down-weighted in the solve.
* ``engine="lsq"`` — the **graph least-squares ranker** of Christoforou
  et al. ("Ranking a set of objects: a graph based least-square
  approach").  No worker model: every vote contributes one unit equation
  ``s_winner - s_loser = 1``, which aggregates per edge to
  ``y_e = 2 mean(x_e) - 1`` with ``w_e = counts_e``.  Cheaper (skips
  Step 1) and the natural unweighted control for the engine matrix.

The least-squares system is solved with LSQR; no dense ``n x n``
matrix is ever materialised.

**Degenerate comparison graphs.**  ``B``'s null space is one constant
vector per connected component, so scores are only determined *within*
a component.  A disconnected graph is therefore anchored explicitly:
components are ordered largest-first, equal-sized components by a
tie-break draw from the run RNG (deterministic for a fixed seed), then
by smallest member id; each component's scores are shifted so components
occupy disjoint score bands in that order.  The condition is surfaced as
a typed :class:`~repro.exceptions.DegenerateGraphWarning` *and* recorded
in the result metadata (``n_components``, ``engine_warnings``) instead
of silently returning one arbitrary solution of a singular system.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy.sparse import linalg as sparse_linalg

from ..config import PipelineConfig
from ..diagnostics import get_logger
from ..exceptions import DegenerateGraphWarning, InferenceError
from ..rng import SeedLike, ensure_rng
from ..types import PairValues, Ranking, VoteArrays, VoteSet, WorkerId
from ..truth.crh import discover_truth
from ..truth.dawid_skene import discover_truth_em
from .incidence import SparseIncidence, build_incidence, quality_edge_weights

_log = get_logger("inference.engines")

#: Engines implemented by this module (PipelineConfig.engine values
#: other than the default dense "crh_saps" path).
SPARSE_ENGINES: Tuple[str, ...] = ("hodge", "lsq")

#: Score gap inserted between anchored components — any positive
#: constant works (rankings only need disjoint bands); 1.0 keeps the
#: adjusted scores human-readable.
_COMPONENT_GAP = 1.0


@dataclass(frozen=True)
class EngineReport:
    """Everything a sparse engine run produced.

    ``scores`` is the anchored latent score vector (higher = ranked
    earlier); the remaining fields mirror
    :class:`~repro.types.InferenceResult` so the pipeline can wrap the
    report without recomputation.
    """

    ranking: Ranking
    scores: np.ndarray
    log_preference: float
    worker_quality: Dict[WorkerId, float]
    direct_preferences: PairValues
    step_seconds: Dict[str, float]
    metadata: Dict[str, object]


def solve_sparse_engine(
    votes: Union[VoteSet, VoteArrays],
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> EngineReport:
    """Run one sparse engine (``config.engine``) over a vote set.

    Parameters
    ----------
    votes:
        A frozen :class:`~repro.types.VoteSet` or a pre-built columnar
        :class:`~repro.types.VoteArrays` view.
    config:
        Pipeline configuration; ``config.engine`` selects ``"hodge"`` or
        ``"lsq"`` and ``config.sparse`` holds the solver knobs.
    rng:
        Run RNG; consumed only for the cross-component anchoring
        tie-break (a connected graph consumes no randomness at all).

    Raises
    ------
    InferenceError
        On empty votes or an engine this module does not implement.
    """
    config = config if config is not None else PipelineConfig()
    engine = config.engine
    if engine not in SPARSE_ENGINES:
        raise InferenceError(
            f"engine {engine!r} is not a sparse engine; expected one of "
            f"{', '.join(SPARSE_ENGINES)}"
        )
    generator = ensure_rng(rng)
    arrays = votes.arrays() if isinstance(votes, VoteSet) else votes
    if arrays.n_votes == 0:
        raise InferenceError("cannot infer a ranking from zero votes")
    if arrays.n_objects < 2:
        raise InferenceError("need at least 2 objects to rank")
    sp = config.sparse
    step_seconds: Dict[str, float] = {}
    metadata: Dict[str, object] = {
        "engine": engine,
        "search_algorithm": "score_argsort",
    }

    # Step 1 (hodge only): quality-aware truth discovery; the lsq engine
    # is by construction unweighted and skips the worker model entirely.
    start = time.perf_counter()
    incidence = build_incidence(arrays)
    if engine == "hodge":
        discover = (discover_truth_em if config.truth_engine == "em"
                    else discover_truth)
        truth = discover(arrays, config.truth)
        x = truth.preference_vector
        edge_weights = quality_edge_weights(arrays, truth.quality_vector)
        worker_quality = truth.worker_quality
        direct_preferences = truth.preferences
        metadata["truth_iterations"] = truth.iterations
        metadata["truth_converged"] = truth.trace.converged
    else:
        x = incidence.mean_value()
        edge_weights = incidence.counts
        worker_quality = {}
        direct_preferences = PairValues.from_table(arrays, x)
    step_seconds["truth_discovery"] = time.perf_counter() - start

    # Sparse weighted least-squares solve on the gradient flow.
    start = time.perf_counter()
    raw_scores, solver_meta = _solve(
        incidence, 2.0 * x - 1.0, np.maximum(edge_weights, 1e-12),
        tol=sp.tol, max_iterations=sp.max_solver_iterations,
    )
    step_seconds["solve"] = time.perf_counter() - start

    # Anchoring + ranking: argsort within components, components in a
    # deterministic (seeded) order, scores shifted into disjoint bands.
    start = time.perf_counter()
    scores, order, anchor_meta = _anchor_and_order(
        raw_scores, incidence, generator
    )
    ranking = Ranking(order.tolist())
    log_preference = _path_log_preference(scores, order)
    step_seconds["ranking"] = time.perf_counter() - start

    metadata.update(solver_meta)
    metadata.update(anchor_meta)
    metadata["n_edges"] = incidence.n_edges
    if incidence.n_components > 1:
        message = (
            f"comparison graph has {incidence.n_components} connected "
            f"components; scores are only determined within a component "
            f"— applied per-component anchoring (largest first, seeded "
            f"tie-break among equal sizes, then smallest member id)"
        )
        warnings.warn(message, DegenerateGraphWarning, stacklevel=2)
        metadata["engine_warnings"] = [message]
        _log.warning("engine %s: %s", engine, message)

    _log.debug(
        "engine %s done: n=%d edges=%d components=%d timings=%s",
        engine, arrays.n_objects, incidence.n_edges,
        incidence.n_components,
        {k: round(v, 4) for k, v in step_seconds.items()},
    )
    return EngineReport(
        ranking=ranking,
        scores=scores,
        log_preference=log_preference,
        worker_quality=worker_quality,
        direct_preferences=direct_preferences,
        step_seconds=step_seconds,
        metadata=metadata,
    )


def hodge_rank(
    votes: Union[VoteSet, VoteArrays],
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> Tuple[Ranking, np.ndarray]:
    """Convenience wrapper: HodgeRank ``(ranking, scores)`` on a vote set."""
    base = config if config is not None else PipelineConfig()
    report = solve_sparse_engine(votes, base.with_(engine="hodge"), rng)
    return report.ranking, report.scores


def graph_lsq_rank(
    votes: Union[VoteSet, VoteArrays],
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> Tuple[Ranking, np.ndarray]:
    """Convenience wrapper: graph least-squares ``(ranking, scores)``."""
    base = config if config is not None else PipelineConfig()
    report = solve_sparse_engine(votes, base.with_(engine="lsq"), rng)
    return report.ranking, report.scores


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _solve(
    incidence: SparseIncidence,
    flow: np.ndarray,
    edge_weights: np.ndarray,
    *,
    tol: float,
    max_iterations: int,
) -> Tuple[np.ndarray, Dict[str, object]]:
    """Solve ``min_s ||diag(sqrt(w)) (B s - y)||`` by LSQR, without
    densifying."""
    scale = np.sqrt(edge_weights)
    system = incidence.incidence.multiply(scale[:, None]).tocsr()
    rhs = scale * flow
    scores, istop, itn, r1norm = sparse_linalg.lsqr(
        system, rhs, atol=tol, btol=tol, iter_lim=max_iterations
    )[:4]
    return scores, {
        "solver": "lsqr",
        "solver_iterations": int(itn),
        "solver_stop": int(istop),
        "solver_residual": float(r1norm),
    }


def _anchor_and_order(
    raw_scores: np.ndarray,
    incidence: SparseIncidence,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, object]]:
    """Anchor component score bands and produce the descending order.

    Connected graph: scores are mean-centred (the canonical
    representative of the solution family) and ordered by descending
    score, ties broken by object id via the stable argsort.

    Disconnected graph: each component keeps its internal least-squares
    ordering; components are laid out in deterministic order — size
    descending, then a tie-break key drawn from the run RNG (one draw
    per component, in label order), then smallest member id — with a
    fixed gap between consecutive score bands.
    """
    labels = incidence.labels
    n_components = incidence.n_components
    if n_components == 1:
        scores = raw_scores - raw_scores.mean()
        order = np.argsort(-scores, kind="stable")
        return scores, order, {"n_components": 1}

    sizes = np.bincount(labels, minlength=n_components)
    tie_break = rng.random(n_components)
    min_member = np.full(n_components, incidence.n_objects, dtype=np.int64)
    np.minimum.at(min_member, labels,
                  np.arange(incidence.n_objects, dtype=np.int64))
    component_order = np.lexsort((min_member, tie_break, -sizes))

    scores = raw_scores.astype(np.float64).copy()
    top = 0.0
    for component in component_order:
        mask = labels == component
        member_scores = scores[mask]
        scores[mask] = member_scores - member_scores.max() + top
        top = scores[mask].min() - _COMPONENT_GAP
    order = np.argsort(-scores, kind="stable")
    return scores, order, {"n_components": int(n_components)}


def _path_log_preference(scores: np.ndarray, order: np.ndarray) -> float:
    """``log Pr[P]`` of the score path under the implied edge model.

    The score engines have no closure matrix, but consecutive ranked
    objects imply an edge probability ``sigma(s_a - s_b)``; the product
    over the ranked path is the score-model analogue of the dense
    path's Hamiltonian-path objective (comparable *within* an engine,
    not across engines).
    """
    if order.shape[0] < 2:
        return 0.0
    ordered = scores[order]
    diffs = ordered[:-1] - ordered[1:]
    probs = 1.0 / (1.0 + np.exp(-diffs))
    probs = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(np.log(probs).sum())
