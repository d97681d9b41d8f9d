"""Every ``src/repro`` module is reached from an entry point.

A static walk over the import graph: it starts at the command line
(``repro.cli``, ``repro.__main__``) and the documented examples
(``examples/*.py``), and follows every ``import`` and ``from ... import``
in a module, in its body or in any function, as an edge.  Importing a
module loads its parent packages too, and a name imported from a
package that re-exports it lazily (``repro._lazy.lazy_exports``)
resolves through that package's table to the submodule defining it.

A module no entry point reaches is dead weight in ``src/``: delete it,
move it under ``tests/`` (``tests/oracles`` holds the differential
oracles), or give it a caller.  A module that must stay although
nothing reaches it goes on :data:`UNREACHED_ON_PURPOSE` with the reason.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

REPO = Path(__file__).resolve().parents[1]
SOURCE = REPO / "src" / "repro"

#: Modules that no entry point imports but that stay in ``src/``, each
#: with the reason.  Keep it short.
UNREACHED_ON_PURPOSE: Dict[str, str] = {}

ROOT_MODULES = ("repro.cli", "repro.__main__")


def _module_files() -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    modules = {}
    for path in sorted(SOURCE.rglob("*.py")):
        parts = path.relative_to(SOURCE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _package_of(name: str, path: Path) -> str:
    """The package a module's relative imports resolve against."""
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _resolve_relative(package: str, level: int, module: str) -> str:
    base = package.split(".") if package else []
    if level > 1:
        base = base[:len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _lazy_table(package: str) -> Dict[str, str]:
    """Name -> defining submodule, from a package's ``lazy_exports``
    call (empty if it makes none)."""
    path = MODULES.get(package)
    if path is None or path.name != "__init__.py":
        return {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "lazy_exports":
            exports = ast.literal_eval(node.args[1])
            return {name: _resolve_relative(
                        package, len(source) - len(source.lstrip(".")),
                        source.lstrip("."))
                    for source, names in exports.items() for name in names}
    return {}


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _imports(path: Path, package: str) -> Iterator[str]:
    """Every module the file at ``path`` imports, parents included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(package, node.level, node.module or "") \
                if node.level else node.module
            yield from _with_parents(base)
            lazy = _lazy_table(base)
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                if submodule in MODULES:
                    yield submodule
                elif alias.name in lazy:
                    yield from _with_parents(lazy[alias.name])


def reached_modules() -> Set[str]:
    """The ``repro`` modules the entry points reach."""
    reached: Set[str] = set()
    pending = [(path, "") for path in sorted((REPO / "examples").glob("*.py"))]
    for name in ROOT_MODULES:
        reached.update(_with_parents(name))
    pending += [(MODULES[name], _package_of(name, MODULES[name]))
                for name in sorted(reached)]
    while pending:
        path, package = pending.pop()
        for name in _imports(path, package):
            if name in MODULES and name not in reached:
                reached.add(name)
                pending.append((MODULES[name],
                                _package_of(name, MODULES[name])))
    return reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - reached_modules()
                       - set(UNREACHED_ON_PURPOSE))
    assert not unreached, (
        f"no entry point (CLI, server, examples) imports {unreached}: "
        "delete them, move them under tests/, or list them in "
        "UNREACHED_ON_PURPOSE with the reason"
    )


def test_allowlist_entries_are_current():
    reached = reached_modules()
    for name, reason in UNREACHED_ON_PURPOSE.items():
        assert reason.strip(), f"{name} needs a reason"
        assert name in MODULES, f"{name} is not a module under src/repro"
        assert name not in reached, \
            f"{name} is reached now; drop it from UNREACHED_ON_PURPOSE"


def test_the_walk_follows_lazy_reexports_and_function_imports():
    """The walk itself: names imported from a lazily re-exporting
    package reach their submodule, and imports inside functions count
    (``repro.cli`` imports its commands' modules in their bodies)."""
    assert _lazy_table("repro.graphs")["TaskGraph"] == \
        "repro.graphs.task_graph"
    reached = reached_modules()
    assert {"repro.server.app", "repro.acquisition.bdp",
            "repro.inference.native", "repro.workers.backends"} <= reached
