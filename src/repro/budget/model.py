"""The paper's budget formula (Sec. II).

Every unique pairwise comparison is answered by ``w`` workers, each paid a
reward ``r``, so a budget ``B`` affords ``l = floor(B / (w * r))`` unique
comparisons.  :class:`BudgetModel` holds ``(B, w, r)`` and exposes the
forward formula plus the inversions the experiment harness needs (budget
required for a target selection ratio, spend of a concrete plan, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import BudgetError


@dataclass(frozen=True)
class BudgetModel:
    """Crowdsourcing budget parameters.

    Attributes
    ----------
    total:
        The requester's budget ``B`` (same currency unit as ``reward``).
    workers_per_task:
        ``w`` — how many distinct workers answer each unique comparison.
    reward:
        ``r`` — payment per single pairwise comparison by one worker
        (the paper's AMT study pays $0.025).
    """

    total: float
    workers_per_task: int
    reward: float = 0.025

    def __post_init__(self) -> None:
        if self.total < 0:
            raise BudgetError(f"budget must be non-negative, got {self.total}")
        if self.workers_per_task < 1:
            raise BudgetError(
                f"workers_per_task must be >= 1, got {self.workers_per_task}"
            )
        if self.reward <= 0:
            raise BudgetError(f"reward must be positive, got {self.reward}")

    @property
    def cost_per_comparison(self) -> float:
        """Cost of one unique comparison: ``w * r``."""
        return self.workers_per_task * self.reward

    def affordable_comparisons(self) -> int:
        """The paper's ``l = floor(B / (w * r))``.

        A one-ulp tolerance keeps budgets constructed as exact multiples
        of the per-comparison cost (``required_budget``) from flooring
        one comparison short.
        """
        return int(math.floor(self.total / self.cost_per_comparison + 1e-9))

    def cost_of(self, n_comparisons: int) -> float:
        """Total spend for ``n_comparisons`` unique comparisons."""
        if n_comparisons < 0:
            raise BudgetError(f"n_comparisons must be >= 0, got {n_comparisons}")
        return n_comparisons * self.cost_per_comparison

    def can_afford(self, n_comparisons: int) -> bool:
        """Whether the budget covers ``n_comparisons`` unique comparisons.

        Decided by :meth:`affordable_comparisons`, so the two agree even
        where ``B / (w * r)`` lands within float error of an integer
        (e.g. ``B = 999999``, ``w * r = 0.013``: that count's
        ``cost_of`` exceeds ``B`` by one ulp).
        """
        if n_comparisons < 0:
            raise BudgetError(f"n_comparisons must be >= 0, got {n_comparisons}")
        return n_comparisons <= self.affordable_comparisons()

    @staticmethod
    def required_budget(
        n_comparisons: int, workers_per_task: int, reward: float = 0.025
    ) -> "BudgetModel":
        """The smallest budget affording exactly ``n_comparisons``.

        The experiment harness uses this to translate a target selection
        ratio into a concrete budget before running the pipeline.
        """
        if n_comparisons < 0:
            raise BudgetError(f"n_comparisons must be >= 0, got {n_comparisons}")
        model = BudgetModel(
            total=n_comparisons * workers_per_task * reward,
            workers_per_task=workers_per_task,
            reward=reward,
        )
        return model

    def selection_ratio(self, n_objects: int) -> float:
        """Affordable fraction of all ``C(n, 2)`` comparisons (clipped at 1)."""
        if n_objects < 2:
            raise BudgetError(f"need at least 2 objects, got {n_objects}")
        all_pairs = n_objects * (n_objects - 1) // 2
        return min(1.0, self.affordable_comparisons() / all_pairs)
