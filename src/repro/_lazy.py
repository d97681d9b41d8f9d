"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules maps
each name to the submodule that defines it; the submodule loads on the
first attribute access, so importing the package (or any light
submodule of it) does not pull in the rest::

    __getattr__, __dir__ = lazy_exports(__name__, {".module": ("Name",)})
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return a module ``__getattr__`` / ``__dir__`` pair for *package*.

    *exports* maps each (relative) module to the public names it
    defines.  A resolved name is stored in the package namespace, so
    later accesses are plain attribute lookups.
    """
    source_of = {name: module for module, names in exports.items()
                 for name in names}

    def __getattr__(name: str) -> object:
        source = source_of.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source_of))

    return __getattr__, __dir__
