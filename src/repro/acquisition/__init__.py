"""Value-of-information pair selection under budget constraints.

The paper's Algorithm 1 spends the whole budget in one non-interactive
shot.  This subsystem is the active counterpart: a Bayesian belief state
over pairwise preferences, pluggable scorers that price the next
comparison, and a policy that turns prices into query batches.

* :mod:`~repro.acquisition.posterior` — :class:`PairPosterior`:
  quality-weighted Beta beliefs per pair + Dirichlet/Luce strengths per
  object;
* :mod:`~repro.acquisition.scorers` — the :class:`PairScorer` protocol
  and the random / uncertainty / entropy / InfoMax scorers
  (:func:`make_scorer` registry);
* :mod:`~repro.acquisition.bdp` — :class:`BDPScorer`, the vectorized
  stage-wise expected value-of-information score;
* :mod:`~repro.acquisition.policy` — :class:`AcquisitionPolicy`, the
  suggest/observe/stop loop drivers embed.
"""

from .._lazy import lazy_exports

# Submodules load on first use: a session create checks its scorer name
# against ``scorers.SCORER_CHOICES`` without loading the BDP scorer
# (scipy.special) or the policy.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".bdp": ("BDPScorer",),
    ".policy": ("AcquisitionPolicy",),
    ".posterior": ("PairPosterior",),
    ".scorers": ("SCORER_CHOICES", "AcquisitionState", "InfoMaxScorer",
                 "PairScorer", "RandomScorer", "UncertaintyScorer",
                 "make_scorer"),
})

__all__ = [
    "AcquisitionPolicy",
    "AcquisitionState",
    "BDPScorer",
    "InfoMaxScorer",
    "PairPosterior",
    "PairScorer",
    "RandomScorer",
    "SCORER_CHOICES",
    "UncertaintyScorer",
    "make_scorer",
]
