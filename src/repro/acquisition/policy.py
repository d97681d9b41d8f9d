"""AcquisitionPolicy: scores -> next query batch.

The policy is the subsystem's front door.  It owns the belief state
(:class:`~repro.acquisition.PairPosterior`), consults one
:class:`~repro.acquisition.PairScorer`, and optionally watches a
:class:`~repro.streaming.StabilityMonitor` so acquisition stops once
the ranking churn dies down.  The caller sizes each batch from its own
budget.  The driving loop — ``adaptive.adaptive_rank``, a live
:class:`~repro.streaming.RankingSession`, or the ``repro stream
--active`` replay — is always the same:

    while budget_left and not policy.should_stop():
        pairs = policy.suggest(k)
        votes = collect(pairs)                  # platform / buffer / log
        policy.observe_votes(votes, quality)
        policy.observe_ranking(current_ranking)  # optional stability feed

**Determinism.**  ``suggest`` sorts scores descending and resolves
exact ties with a pseudo-random permutation of the triu-lexicographic
pair universe keyed on ``(seed, observation count)``.  Early rounds tie
heavily — every unseen pair in an undecided region scores alike — and a
pair-id tie-break would cluster whole batches onto the lowest object
ids, starving the pipeline of coverage; the keyed permutation spreads
ties across the universe while staying a pure function of the belief
state.  Every shipped scorer is likewise deterministic given the state
(``RandomScorer`` keys its stream the same way), hence identical state
+ seed => identical suggestions — the regression-tested contract the
session ``suggest(k)`` endpoint inherits.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..assignment.assigner import WorkerAssignment, assign_hits
from ..assignment.generator import assignment_from_pairs
from ..exceptions import ConfigurationError
from ..rng import SeedLike
from ..streaming.stability import StabilityMonitor
from ..types import Pair, Ranking, Vote, VoteArrays, WorkerId
from .posterior import PairPosterior
from .scorers import AcquisitionState, PairScorer, make_scorer


class AcquisitionPolicy:
    """Turns pair scores into query batches.

    Parameters
    ----------
    n_objects:
        Size of the object universe.
    scorer:
        A :class:`PairScorer` instance or registry name (default
        ``"bdp"``; see :func:`~repro.acquisition.make_scorer`).
    workers_per_query:
        Votes each suggested pair is expected to collect (redundant
        querying): the workers :meth:`build_assignment` gives each
        pair.
    monitor:
        Optional stability monitor fed via :meth:`observe_ranking`.
    prior:
        Beta prior pseudo-count for a fresh posterior.
    seed:
        Keys the tie-breaking permutation in :meth:`suggest` and is
        forwarded to scorers constructed by name (only the random
        control uses it).
    """

    def __init__(
        self,
        n_objects: int,
        scorer: Union[PairScorer, str] = "bdp",
        *,
        workers_per_query: int = 1,
        monitor: Optional[StabilityMonitor] = None,
        prior: float = 1.0,
        seed: int = 0,
    ) -> None:
        if workers_per_query < 1:
            raise ConfigurationError(
                f"workers_per_query must be >= 1, got {workers_per_query}"
            )
        if isinstance(scorer, str):
            scorer = make_scorer(scorer, seed=seed)
        self.scorer: PairScorer = scorer
        self.seed = int(seed)
        self.workers_per_query = int(workers_per_query)
        self.monitor = monitor
        self.posterior = PairPosterior(n_objects, prior=prior)
        self._closure: Optional[np.ndarray] = None

    @property
    def n_objects(self) -> int:
        return self.posterior.n_objects

    # -- belief updates -------------------------------------------------------
    def attach_closure(self, closure: Optional[np.ndarray]) -> None:
        """Attach (or clear) an interim Steps 1-3 closure matrix; scorers
        that can condition on it see it on the next ``suggest``."""
        if closure is not None:
            n = self.n_objects
            if closure.shape != (n, n):
                raise ConfigurationError(
                    f"closure of shape {closure.shape} does not match the "
                    f"{n}-object universe"
                )
        self._closure = closure

    def observe_votes(
        self,
        votes: Union[VoteArrays, Iterable[Vote]],
        worker_quality: Union[Mapping[WorkerId, float], np.ndarray, None]
        = None,
    ) -> int:
        """Fold collected votes into the posterior.  Returns the number
        of votes folded."""
        if isinstance(votes, VoteArrays):
            self.posterior.observe_arrays(votes, worker_quality)
            return votes.n_votes
        votes = list(votes)
        self.posterior.observe_votes(votes, worker_quality)
        return len(votes)

    def rebuild(
        self,
        votes: Union[VoteArrays, Iterable[Vote]],
        worker_quality: Union[Mapping[WorkerId, float], np.ndarray, None]
        = None,
    ) -> int:
        """Reset the posterior and re-fold every vote from scratch.

        Round-driven loops (``adaptive_rank``) re-estimate worker
        quality each round; rebuilding re-weights *all* votes with the
        fresh estimates instead of leaving old votes at stale weights.
        Returns the number of votes folded.
        """
        self.posterior = PairPosterior(
            self.n_objects, prior=self.posterior.prior
        )
        return self.observe_votes(votes, worker_quality)

    def observe_ranking(
        self, ranking: Union[Ranking, Sequence[int]]
    ) -> bool:
        """Feed the current interim ranking to the stability monitor
        (no-op without one); returns whether it now reads stable."""
        if self.monitor is None:
            return False
        if not isinstance(ranking, Ranking):
            ranking = Ranking(ranking)
        self.monitor.observe(ranking)
        return self.monitor.is_stable

    # -- scoring / selection --------------------------------------------------
    def state(self) -> AcquisitionState:
        """The current belief state scorers consume."""
        return AcquisitionState(posterior=self.posterior, closure=self._closure)

    def scores(self) -> np.ndarray:
        """Raw scorer output over the full pair universe."""
        return np.asarray(self.scorer.score(self.state()), dtype=np.float64)

    def suggest(self, k: int) -> List[Pair]:
        """The ``k`` highest-value canonical pairs, best first.

        Exact score ties resolve via a permutation keyed on ``(seed,
        observation count)`` — deterministic for a fixed belief state
        and seed, yet spread across the universe instead of clustered on
        low pair ids (see the module docstring).
        """
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        scores = self.scores()
        tiebreak = np.random.default_rng(
            (self.seed, self.posterior.n_observed)
        ).permutation(scores.size)
        order = np.lexsort((tiebreak, -scores))[:k]
        lo = self.posterior.pair_lo[order]
        hi = self.posterior.pair_hi[order]
        return [(int(a), int(b)) for a, b in zip(lo, hi)]

    def build_assignment(
        self,
        pairs: Sequence[Pair],
        n_workers: int,
        rng: SeedLike = None,
        *,
        comparisons_per_hit: int = 1,
        max_comparisons_per_worker: Optional[int] = None,
    ) -> WorkerAssignment:
        """Distribute a suggested batch to crowd workers.

        Reuses the platform assignment machinery: pairs become HITs in
        suggestion order and each HIT goes to ``workers_per_query``
        distinct workers, least-loaded under the optional per-worker
        quota (the fairness knob real crowds need).
        """
        task = assignment_from_pairs(
            self.n_objects, pairs, comparisons_per_hit=comparisons_per_hit
        )
        return assign_hits(
            task,
            n_workers,
            self.workers_per_query,
            rng,
            max_comparisons_per_worker=max_comparisons_per_worker,
        )

    # -- stopping -------------------------------------------------------------
    def should_stop(self) -> bool:
        """True once the stability monitor (when attached) reports a
        settled ranking."""
        return self.monitor is not None and self.monitor.is_stable
