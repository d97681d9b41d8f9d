"""Public-API surface tests: imports, __all__ hygiene, doc coverage."""

import importlib
import inspect
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).parent


def _source_modules():
    """Every module under ``src/repro`` by dotted name, packages
    included, except the ``python -m repro`` script."""
    names = []
    for path in sorted(SOURCE.rglob("*.py")):
        parts = path.relative_to(SOURCE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    names.remove("repro.__main__")
    return names


MODULES = _source_modules()

SUBPACKAGES = sorted(
    ".".join(path.parent.relative_to(SOURCE.parent).parts)
    for path in SOURCE.rglob("__init__.py") if path.parent != SOURCE
)


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
    from repro.graphs import TaskGraph
    from repro.types import Ranking, VoteSet

    for cls in (TaskGraph, Ranking, VoteSet):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_") or not callable(member):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"
