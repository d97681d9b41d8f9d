"""Convergence bookkeeping for iterative truth discovery.

The paper claims (Sec. V-A) that the iterative algorithm "achieves
convergence within 10 iterations for most of the testing cases";
:class:`ConvergenceTrace` records exactly the quantities needed to verify
that claim in the E7 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ConvergenceTrace:
    """Per-iteration deltas of an iterative estimate pair.

    Attributes
    ----------
    preference_deltas:
        Change of the estimated preferences ``x_ij`` at each iteration:
        the mean absolute change over pairs.
    quality_deltas:
        Change of the worker iteration weights ``q_k`` at each
        iteration: the mean absolute change over workers.
    converged:
        Whether the tolerance was reached before the iteration cap.
    """

    preference_deltas: List[float] = field(default_factory=list)
    quality_deltas: List[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        """Number of completed iterations."""
        return len(self.preference_deltas)

    def record(self, preference_delta: float, quality_delta: float) -> None:
        """Append one iteration's deltas."""
        self.preference_deltas.append(float(preference_delta))
        self.quality_deltas.append(float(quality_delta))

    def max_delta(self, iteration: int) -> float:
        """Largest of the two deltas at a given (0-based) iteration."""
        return max(
            self.preference_deltas[iteration], self.quality_deltas[iteration]
        )

    def is_monotone_tail(self, tail: int = 3) -> bool:
        """Whether the last ``tail`` iterations had non-increasing deltas.

        A sanity signal used by tests: a healthy CRH run contracts.
        """
        if self.iterations < tail + 1:
            return True
        window = [self.max_delta(k) for k in range(self.iterations - tail - 1,
                                                   self.iterations)]
        return all(b <= a + 1e-12 for a, b in zip(window, window[1:]))
