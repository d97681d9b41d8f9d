"""Public-API surface tests: imports, __all__ hygiene, doc coverage."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.graphs",
    "repro.budget",
    "repro.assignment",
    "repro.workers",
    "repro.platform",
    "repro.truth",
    "repro.inference",
    "repro.baselines",
    "repro.metrics",
    "repro.datasets",
    "repro.experiments",
    "repro.service",
    "repro.streaming",
    "repro.server",
]

MODULES = SUBPACKAGES + [
    "repro.types",
    "repro.config",
    "repro.rng",
    "repro.exceptions",
    "repro.diagnostics",
    "repro.service.jobs",
    "repro.service.cache",
    "repro.service.shared_cache",
    "repro.service.retry",
    "repro.service.metrics",
    "repro.service.executor",
    "repro.server.app",
    "repro.server.prometheus",
    "repro.client",
    "repro.session",
    "repro.topk",
    "repro.adaptive",
    "repro.io",
    "repro.cli",
    "repro.graphs.digraph",
    "repro.graphs.task_graph",
    "repro.graphs.preference_graph",
    "repro.graphs.analysis",
    "repro.graphs.closure",
    "repro.graphs.hamiltonian",
    "repro.graphs.generators",
    "repro.budget.model",
    "repro.budget.planner",
    "repro.budget.optimizer",
    "repro.assignment.hits" if False else "repro.assignment.generator",
    "repro.assignment.fairness",
    "repro.assignment.assigner",
    "repro.workers.quality",
    "repro.workers.worker",
    "repro.workers.pool",
    "repro.workers.behaviors",
    "repro.platform.events",
    "repro.platform.pricing",
    "repro.platform.simulator",
    "repro.platform.interactive",
    "repro.truth.crh",
    "repro.truth.majority",
    "repro.truth.convergence",
    "repro.truth.dawid_skene",
    "repro.inference.smoothing",
    "repro.inference.propagation",
    "repro.inference.taps",
    "repro.inference.saps",
    "repro.inference.local_search",
    "repro.inference.pipeline",
    "repro.baselines.repeat_choice",
    "repro.baselines.quicksort",
    "repro.baselines.crowd_bt",
    "repro.baselines.btl",
    "repro.baselines.borda",
    "repro.baselines.copeland",
    "repro.baselines.rank_centrality",
    "repro.baselines.kemeny",
    "repro.metrics.kendall",
    "repro.metrics.spearman",
    "repro.metrics.accuracy",
    "repro.metrics.topk",
    "repro.datasets.synthetic",
    "repro.datasets.images",
    "repro.datasets.amt",
    "repro.experiments.scenarios",
    "repro.experiments.runner",
    "repro.experiments.reporting",
    "repro.experiments.export",
    "repro.experiments.replicate",
    "repro.streaming.buffer",
    "repro.streaming.incremental",
    "repro.streaming.stability",
    "repro.streaming.session",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("package_name", ["repro"] + SUBPACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_string():
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize("package_name", SUBPACKAGES)
def test_public_callables_documented(package_name):
    """Every public class/function exported by a subpackage has a
    docstring."""
    package = importlib.import_module(package_name)
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


def test_public_classes_have_documented_public_methods():
    from repro.graphs import PreferenceGraph, TaskGraph, WeightedDigraph
    from repro.types import Ranking, VoteSet

    for cls in (WeightedDigraph, TaskGraph, PreferenceGraph, Ranking,
                VoteSet):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_") or not callable(member):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"
