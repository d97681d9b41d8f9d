"""Budget accounting (Sec. II): ``l = floor(B / (w * r))``.

* :class:`~repro.budget.model.BudgetModel` — the paper's budget formula
  and its inversions;
* :mod:`~repro.budget.planner` — feasibility checks and plan sizing that
  connect a budget to a task-graph edge count and selection ratio.
"""

from .._lazy import lazy_exports
from .model import BudgetModel
from .planner import BudgetPlan, plan_for_budget, plan_for_selection_ratio

# The optimizer runs whole experiments (and so imports every baseline);
# it loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".optimizer": ("BudgetSearchResult", "minimal_selection_ratio"),
})

__all__ = [
    "BudgetModel",
    "BudgetPlan",
    "plan_for_budget",
    "plan_for_selection_ratio",
    "BudgetSearchResult",
    "minimal_selection_ratio",
]
