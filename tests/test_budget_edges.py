"""Edge-regime tests for the budget planner/optimizer: zero budget,
single-pair universes, and budgets below the spanning minimum."""

import numpy as np
import pytest

from repro.acquisition import AcquisitionPolicy
from repro.budget import (
    BudgetModel,
    BudgetPlan,
    minimal_selection_ratio,
    plan_for_budget,
    plan_for_selection_ratio,
)
from repro.config import FAST_PIPELINE
from repro.datasets import make_scenario
from repro.exceptions import BudgetError, ConfigurationError


class TestZeroBudget:
    def test_zero_budget_affords_nothing(self):
        model = BudgetModel(total=0.0, workers_per_task=3)
        assert model.affordable_comparisons() == 0
        assert model.can_afford(0)
        assert not model.can_afford(1)

    def test_zero_budget_cannot_plan(self):
        model = BudgetModel(total=0.0, workers_per_task=3)
        with pytest.raises(BudgetError):
            plan_for_budget(5, model)

    def test_negative_budget_rejected(self):
        with pytest.raises(BudgetError):
            BudgetModel(total=-1.0, workers_per_task=1)


class TestFloatBoundary:
    def test_affordable_count_is_affordable_at_an_ulp_boundary(self):
        """13 * 0.001 * 76923000 exceeds 999999.0 by one ulp; the
        affordable count must still be affordable."""
        model = BudgetModel(total=999999.0, workers_per_task=13,
                            reward=0.001)
        count = model.affordable_comparisons()
        assert count == 76923000
        assert model.can_afford(count)
        assert not model.can_afford(count + 1)

    def test_negative_count_rejected(self):
        with pytest.raises(BudgetError):
            BudgetModel(total=1.0, workers_per_task=1).can_afford(-1)


class TestSinglePairUniverse:
    """n=2: the spanning minimum, the maximum and the only pair agree."""

    def test_plan_resolves_to_the_single_pair(self):
        model = BudgetModel(total=1.0, workers_per_task=2, reward=0.025)
        plan = plan_for_budget(2, model)
        assert plan.n_comparisons == 1
        assert plan.selection_ratio == 1.0
        assert plan.total_votes == 2

    def test_ratio_planning_clips_to_the_single_pair(self):
        plan = plan_for_selection_ratio(2, 0.5, workers_per_task=3)
        assert plan.n_comparisons == 1

    def test_plan_outside_feasible_range_rejected(self):
        model = BudgetModel(total=10.0, workers_per_task=1)
        with pytest.raises(BudgetError):
            BudgetPlan(n_objects=2, n_comparisons=2, budget=model)
        with pytest.raises(BudgetError):
            BudgetPlan(n_objects=2, n_comparisons=0, budget=model)

    def test_policy_suggests_the_only_pair(self):
        policy = AcquisitionPolicy(2, "bdp")
        assert policy.suggest(5) == [(0, 1)]


class TestSubBatchBudget:
    """Budgets too small for a full plan must degrade gracefully."""

    def test_budget_below_spanning_minimum_cannot_plan(self):
        # Affords 3 comparisons; a connected plan over 10 needs 9.
        model = BudgetModel(total=3 * 0.025, workers_per_task=1)
        with pytest.raises(BudgetError):
            plan_for_budget(10, model)

    def test_affordable_comparisons_floor_behaviour(self):
        model = BudgetModel(total=0.049, workers_per_task=1, reward=0.025)
        assert model.affordable_comparisons() == 1
        exact = BudgetModel(total=0.05, workers_per_task=1, reward=0.025)
        assert exact.affordable_comparisons() == 2


class TestOptimizerEdges:
    def test_rejects_out_of_range_target(self):
        def factory(ratio, rng):  # pragma: no cover - never reached
            raise AssertionError

        for bad in (0.5, 1.0, 1.2):
            with pytest.raises(ConfigurationError):
                minimal_selection_ratio(factory, bad)

    def test_unreachable_target_raises(self):
        def factory(ratio, rng):
            # Coin-flip workers: accuracy stays near 0.5 at any ratio.
            return make_scenario(8, ratio, n_workers=4,
                                 workers_per_task=1, level="low", rng=3)

        with pytest.raises(ConfigurationError):
            minimal_selection_ratio(
                factory, 0.99, repeats=1, max_probes=3,
                config=FAST_PIPELINE, rng=0,
            )

    def test_finds_ratio_on_easy_instance(self):
        def factory(ratio, rng):
            return make_scenario(8, ratio, n_workers=6,
                                 workers_per_task=3, level="high", rng=1)

        result = minimal_selection_ratio(
            factory, 0.6, repeats=1, max_probes=5,
            config=FAST_PIPELINE, rng=0,
        )
        assert 0.0 < result.selection_ratio <= 1.0
        assert result.accuracy >= 0.6
        assert result.probes
        max_pairs = 8 * 7 // 2
        assert 7 <= result.n_comparisons <= max_pairs
