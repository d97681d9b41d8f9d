"""Import hygiene: ``repro serve`` imports only what it serves.

Package ``__init__``s re-export lazily (PEP 562), so that a cold
``import repro.server, repro.cli`` stays clear of the heavy modules that
only non-default request paths or other subcommands run.  These tests
guard both halves: the serve path's module list, and that every lazily
exported name still resolves from its package.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
REPO_ROOT = str(Path(SRC_DIR).parent)

#: Must not load at ``repro serve`` start-up: they run only for sparse
#: engines, experiments / budget search, or other subcommands.
LATE_MODULES = [
    "scipy.stats",
    "scipy.sparse.linalg",
    "repro.experiments",
    "repro.baselines",
    "repro.datasets",
    "repro.budget.optimizer",
    "repro.inference.engines",
]

#: Must load at start-up: a default /v1/rank, /v1/batch or session
#: ingest runs them, so their import cost is not moved into a request.
SERVE_PATH_MODULES = [
    "repro.truth.crh",
    "repro.inference.pipeline",
    "repro.inference.saps",
    "repro.service.executor",
    "repro.streaming.incremental",
]

LAZY_PACKAGES = ["repro", "repro.budget", "repro.graphs", "repro.inference"]

#: Exported values with no ``__module__`` of their own, by home module.
PLAIN_VALUES = {"__version__": "repro._version",
                "SPARSE_ENGINES": "repro.inference.engines"}


def _modules_loaded_by(imports):
    """``sys.modules`` of a fresh interpreter after running ``imports``
    from the repo root (so ``tests`` would be importable)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    probe = f"{imports}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, timeout=120, check=True, cwd=REPO_ROOT,
    )
    return set(json.loads(completed.stdout))


def test_serve_imports_only_what_it_serves():
    loaded = _modules_loaded_by("import repro.server, repro.cli")
    assert [m for m in LATE_MODULES if m in loaded] == []
    assert [m for m in SERVE_PATH_MODULES if m not in loaded] == []


def test_serve_loads_only_the_closure_kernels_of_repro_graphs():
    """Steps 1-4 take dense matrices: the graph object model stays
    unloaded on the serve path."""
    loaded = _modules_loaded_by("import repro.server, repro.cli")
    assert sorted(m for m in loaded if m.startswith("repro.graphs")) \
        == ["repro.graphs", "repro.graphs.closure"]


def test_no_repro_module_imports_the_oracles():
    """The differential oracles live under ``tests/``; importing every
    ``repro`` module loads nothing from there."""
    loaded = _modules_loaded_by(
        "import importlib, pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)"
    )
    assert "repro.server.app" in loaded and "repro.baselines" in loaded
    assert sorted(m for m in loaded
                  if m == "tests" or m.startswith("tests.")) == []


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_names_resolve_to_their_defining_module(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        value = getattr(package, name)
        home = PLAIN_VALUES.get(name) or value.__module__
        assert getattr(importlib.import_module(home), name) is value, name


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_dir_lists_lazy_names(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match=repr(package_name)):
        package.no_such_name
