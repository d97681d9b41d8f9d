"""Pluggable pair scorers behind one ``PairScorer`` protocol.

A scorer maps the current :class:`~repro.acquisition.AcquisitionState`
to one value per candidate pair of the full universe (higher = more
worth querying next); an :class:`~repro.acquisition.AcquisitionPolicy`
turns the scores into the next batch.  Four
scorers ship:

* :class:`RandomScorer` — the uniform-selection control every
  benchmark compares against (deterministic per belief state + seed);
* :class:`UncertaintyScorer` — textbook uncertainty sampling, closeness
  of the preference to 0.5 (``"absolute"``) or its Bernoulli entropy
  (``"entropy"``); with a closure attached to the state this *is* the
  ``repro.adaptive`` heuristic, now behind the protocol;
* :class:`InfoMaxScorer` — information-maximization in the HodgeRank
  InfoMax style (this module);
* :class:`~repro.acquisition.bdp.BDPScorer` — stage-wise expected
  value-of-information (own module, :mod:`repro.acquisition.bdp`).

Registry access goes through :func:`make_scorer` (``"random"`` /
``"uncertainty"`` / ``"entropy"`` / ``"bdp"`` / ``"infomax"``) so the
CLI, the session layer and the benchmarks share one spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from ..exceptions import ConfigurationError
from .posterior import PairPosterior


@dataclass(frozen=True)
class AcquisitionState:
    """Everything a scorer may condition on.

    Attributes
    ----------
    posterior:
        The Beta/strength belief state (always present).
    closure:
        Optional Steps 1-3 closure matrix over the same universe —
        interim inference output richer than raw win rates (it folds in
        smoothing and propagation).  Scorers that can use it prefer it;
        all scorers must degrade gracefully without it.
    """

    posterior: PairPosterior
    closure: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.closure is not None:
            n = self.posterior.n_objects
            if self.closure.shape != (n, n):
                raise ConfigurationError(
                    f"closure of shape {self.closure.shape} does not match "
                    f"the {n}-object universe"
                )

    def preference_means(self) -> np.ndarray:
        """Per-pair ``Pr[lo ≺ hi]`` — closure entries when attached
        (zero-information pairs fall back to the posterior mean),
        posterior means otherwise."""
        posterior = self.posterior
        means = posterior.mean()
        if self.closure is None:
            return means
        from_closure = self.closure[posterior.pair_lo, posterior.pair_hi]
        reverse = self.closure[posterior.pair_hi, posterior.pair_lo]
        informed = (from_closure > 0.0) | (reverse > 0.0)
        return np.where(informed, from_closure, means)


@runtime_checkable
class PairScorer(Protocol):
    """The scorer protocol: one acquisition value per universe pair.

    Implementations must be deterministic functions of ``state`` (and
    their own construction-time configuration) — the policy's
    ``suggest`` contract depends on it.
    """

    name: str

    def score(self, state: AcquisitionState) -> np.ndarray:
        """Scores aligned with the pair universe; higher = query next."""
        ...


class RandomScorer:
    """Uniform-random pair values — the benchmark control arm.

    Deterministic per (seed, belief state): the score vector is drawn
    from a generator keyed on the construction seed and the posterior's
    observation count, so identical states score identically while
    successive rounds explore fresh permutations.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def score(self, state: AcquisitionState) -> np.ndarray:
        generator = np.random.default_rng(
            (self.seed, state.posterior.n_observed)
        )
        return generator.random(state.posterior.n_pairs)


class UncertaintyScorer:
    """Closeness-to-0.5 / entropy of the current preference belief.

    ``mode="absolute"`` scores ``0.5 - |p - 0.5|`` — exactly the
    ``repro.adaptive`` frontier heuristic when the state carries a
    closure; ``mode="entropy"`` scores the Bernoulli entropy of ``p``
    (same argmax ordering, information-theoretic units).
    """

    def __init__(self, mode: str = "absolute") -> None:
        if mode not in ("absolute", "entropy"):
            raise ConfigurationError(
                f"mode must be 'absolute' or 'entropy', got {mode!r}"
            )
        self.mode = mode
        self.name = "uncertainty" if mode == "absolute" else "entropy"

    def score(self, state: AcquisitionState) -> np.ndarray:
        p = state.preference_means()
        if self.mode == "absolute":
            return 0.5 - np.abs(p - 0.5)
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))


class InfoMaxScorer:
    """Information-maximization pair scoring (HodgeRank InfoMax style).

    HodgeRank estimates a rating vector by least squares on the
    preference flow over the comparison graph; the information a new
    comparison ``(i, j)`` adds to that estimator is governed by the
    graph Laplacian ``L`` of the already-collected comparisons.  Greedy
    D-optimal design picks the edge maximising ``det(L + e_ij e_ij^T)``
    growth, which by the matrix determinant lemma is the edge with the
    largest **effective resistance** ``R_eff(i, j) = L+_ii + L+_jj -
    2 L+_ij`` — intuitively, the pair whose relative rating is least
    pinned down by paths through the rest of the graph.  ``fisher=True``
    additionally weights by the Bernoulli Fisher information
    ``p (1 - p)`` of the pair's current preference, discounting pairs
    whose outcome is already near-certain (a vote there carries little
    signal regardless of graph position).

    One dense pseudo-inverse per scoring call — O(n^3), ~10 ms at
    n=200 — then O(1) per candidate pair.
    """

    name = "infomax"

    def __init__(self, fisher: bool = True, ridge: float = 1e-9) -> None:
        if ridge < 0.0:
            raise ConfigurationError(f"ridge must be >= 0, got {ridge}")
        self.fisher = bool(fisher)
        self.ridge = float(ridge)

    def score(self, state: AcquisitionState) -> np.ndarray:
        posterior = state.posterior
        n = posterior.n_objects
        mass = posterior.observation_mass()
        laplacian = np.zeros((n, n), dtype=np.float64)
        lo, hi = posterior.pair_lo, posterior.pair_hi
        laplacian[lo, hi] = -mass
        laplacian[hi, lo] = -mass
        diagonal = -laplacian.sum(axis=1)
        laplacian[np.arange(n), np.arange(n)] = diagonal + self.ridge
        # L+ via the rank-one grounding trick: for a (ridge-regularised)
        # Laplacian, inv(L + J/n) - J/n is the pseudo-inverse restricted
        # to the zero-sum subspace — all effective resistances need.
        ground = np.full((n, n), 1.0 / n)
        try:
            inverse = np.linalg.inv(laplacian + ground) - ground
        except np.linalg.LinAlgError:
            inverse = np.linalg.pinv(laplacian)
        diag = np.diagonal(inverse)
        resistance = diag[lo] + diag[hi] - 2.0 * inverse[lo, hi]
        resistance = np.maximum(resistance, 0.0)
        if not self.fisher:
            return resistance
        p = state.preference_means()
        return resistance * (p * (1.0 - p))


def make_scorer(name: str, *, seed: int = 0) -> PairScorer:
    """Resolve a scorer by registry name (shared CLI/session spelling).

    ``seed`` only affects :class:`RandomScorer`; the principled scorers
    are deterministic functions of the belief state.
    """
    from .bdp import BDPScorer

    registry = {
        "random": lambda: RandomScorer(seed=seed),
        "uncertainty": lambda: UncertaintyScorer(mode="absolute"),
        "entropy": lambda: UncertaintyScorer(mode="entropy"),
        "bdp": BDPScorer,
        "infomax": InfoMaxScorer,
    }
    try:
        return registry[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown scorer {name!r}; choose from "
            f"{sorted(registry)}"
        ) from None


#: Registry names accepted by :func:`make_scorer` (CLI choices list).
SCORER_CHOICES = ("random", "uncertainty", "entropy", "bdp", "infomax")
