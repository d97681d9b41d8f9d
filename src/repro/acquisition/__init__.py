"""Value-of-information pair selection under budget constraints.

The paper's Algorithm 1 spends the whole budget in one non-interactive
shot.  This subsystem is the active counterpart: a Bayesian belief state
over pairwise preferences, pluggable scorers that price the next
comparison, and a policy that turns prices into budgeted query batches.

* :mod:`~repro.acquisition.posterior` — :class:`PairPosterior`:
  quality-weighted Beta beliefs per pair + Dirichlet/Luce strengths per
  object;
* :mod:`~repro.acquisition.scorers` — the :class:`PairScorer` protocol
  and the random / uncertainty / entropy / InfoMax scorers
  (:func:`make_scorer` registry);
* :mod:`~repro.acquisition.bdp` — :class:`BDPScorer`, the vectorized
  stage-wise expected value-of-information score;
* :mod:`~repro.acquisition.ledger` — :class:`BudgetLedger` spend
  tracking;
* :mod:`~repro.acquisition.policy` — :class:`AcquisitionPolicy`, the
  suggest/observe/stop loop drivers embed.
"""

from .bdp import BDPScorer
from .ledger import BudgetLedger
from .policy import AcquisitionPolicy
from .posterior import PairPosterior
from .scorers import (
    SCORER_CHOICES,
    AcquisitionState,
    InfoMaxScorer,
    PairScorer,
    RandomScorer,
    UncertaintyScorer,
    make_scorer,
)

__all__ = [
    "AcquisitionPolicy",
    "AcquisitionState",
    "BDPScorer",
    "BudgetLedger",
    "InfoMaxScorer",
    "PairPosterior",
    "PairScorer",
    "RandomScorer",
    "SCORER_CHOICES",
    "UncertaintyScorer",
    "make_scorer",
]
