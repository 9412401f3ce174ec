"""Every module under ``src/repro``, and every callable in it, has traffic.

The entry points are the CLI (``repro.cli`` and ``repro.__main__``) and
every script under ``benchmarks/``, ``perfbench/`` and ``examples/``.
The walk is static: each file is parsed with :mod:`ast`, nothing is
imported. An import edge goes to the module that *defines* the name: a
name imported from a package is followed through the package
``__init__``'s re-exports to its defining module, and attribute chains
on an imported package (``analysis.report``) are followed the same way.
A package ``__init__`` does not count as reaching what it re-exports,
so a route only a test imports shows up here as unreached.

One level down, every module-level function and class of a reached
module, and every method of such a class, must be named outside its own
body by a program module or an entry script (see :func:`unreferenced`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_DIRS = ("benchmarks", "perfbench", "examples")
CLI_MODULES = ("repro.cli", "repro.__main__")


@dataclass(frozen=True)
class Module:
    name: str
    is_package: bool
    tree: ast.Module

    @property
    def package(self) -> str:
        """The package a relative import in this module starts from."""
        return self.name if self.is_package else self.name.rpartition(".")[0]


def parse(name: str, path: Path) -> Module:
    return Module(name, path.name == "__init__.py", ast.parse(path.read_text()))


def program_modules() -> dict[str, Module]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = parse(".".join(parts), path)
    return modules


def entry_scripts() -> list[Module]:
    return [
        parse(f"{folder}.{path.stem}", path)
        for folder in ENTRY_DIRS
        for path in sorted((ROOT / folder).glob("*.py"))
    ]


class Graph:
    """Import edges between modules, names resolved to where they are defined."""

    def __init__(self, modules: dict[str, Module]):
        self.modules = modules

    def _absolute(self, module: Module, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        base = module.package.split(".")
        base = base[: len(base) - (node.level - 1)]
        return ".".join(base + ([node.module] if node.module else []))

    def defining(self, package: str, name: str, seen=frozenset()) -> str:
        """The module that defines ``package.name``."""
        if f"{package}.{name}" in self.modules:
            return f"{package}.{name}"
        init = self.modules[package]
        if package in seen:
            return package
        for node in ast.walk(init.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        found = self.target(
                            self._absolute(init, node),
                            alias.name,
                            seen | {package},
                        )
                        return found or package
        return package  # defined in the __init__ itself

    def target(self, base: str, name: str, seen=frozenset()) -> str | None:
        """Where ``from base import name`` leads, or None outside the program."""
        if base not in self.modules:
            return None
        if self.modules[base].is_package:
            return self.defining(base, name, seen)
        return base

    def edges(self, module: Module) -> set[str]:
        out: set[str] = set()
        packages: dict[str, str] = {}  # local name -> package it is bound to
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.modules:
                        out.add(alias.name)
                    bound = alias.asname or alias.name.partition(".")[0]
                    full = alias.name if alias.asname else bound
                    if full in self.modules and self.modules[full].is_package:
                        packages[bound] = full
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(module, node)
                for alias in node.names:
                    if alias.name == "*":
                        out.add(base)
                        continue
                    hit = self.target(base, alias.name)
                    if hit is not None:
                        out.add(hit)
                        if self.modules[hit].is_package:
                            packages[alias.asname or alias.name] = hit
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                chain = []
                value: ast.expr = node
                while isinstance(value, ast.Attribute):
                    chain.append(value.attr)
                    value = value.value
                if isinstance(value, ast.Name) and value.id in packages:
                    current = packages[value.id]
                    for attr in reversed(chain):
                        current = self.defining(current, attr)
                        out.add(current)
                        if not self.modules[current].is_package:
                            break
        return out


def reached(modules: dict[str, Module], roots: list[Module]) -> set[str]:
    """Modules some import path from ``roots`` arrives at.

    A reached package ``__init__`` adds no edges of its own: what it
    re-exports counts only when a name is imported through it.
    """
    graph = Graph(modules)
    seen = {root.name for root in roots}
    todo = [edge for root in roots for edge in graph.edges(root)]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if not modules[name].is_package:
            todo.extend(graph.edges(modules[name]))
    return seen


def unreached(modules: dict[str, Module], roots: list[Module]) -> list[str]:
    """Non-``__init__`` modules no import path from ``roots`` arrives at."""
    hit = reached(modules, roots)
    return sorted(
        name
        for name, module in modules.items()
        if not module.is_package and name not in hit
    )


# Callables a test compares against but no entry point runs, each kept on
# purpose. Every other unreferenced callable is dead surface.
KEPT = {
    "repro.core.threshold.AdaptiveThresholdSelector": (
        "the paper's §4.3 step descent, the oracle minimal_feasible_threshold is tested against"
    ),
    "repro.core.threshold.AdaptiveThresholdSelector.closed_form": (
        "the descent's closed-form side, compared with iterative in the threshold tests"
    ),
    "repro.core.threshold.AdaptiveThresholdSelector.iterative": (
        "the §4.3 step-by-step reduction itself, kept as the threshold oracle"
    ),
    "repro.rf.fading.NoFading": (
        "the zero-normal fading model the world differential tests build to pin reads to the field"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _silent(module: Module) -> set[int]:
    """Ids of the nodes of ``module`` that name something without using it.

    These are docstrings, ``__all__`` entries and, in a package
    ``__init__``, the aliases it re-exports.
    """
    silent = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                silent.add(id(first.value))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                silent.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
        if module.is_package and isinstance(node, ast.ImportFrom):
            silent.update(id(alias) for alias in node.names)
    return silent


def _used_name(node: ast.AST) -> str | None:
    """The name ``node`` uses: an :class:`ast.Name`, an attribute, an
    import alias or a ``str`` constant (which keeps dispatch tables of
    method names working)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def references(sources: list[Module]) -> dict[str, list[set[int]]]:
    """Each name the sources use, with the ids of the definitions around
    each use (see :func:`_used_name`; :func:`_silent` lists what is not a use)."""
    uses: dict[str, list[set[int]]] = {}

    def visit(node: ast.AST, around: set[int], silent: set[int]) -> None:
        if isinstance(node, _DEFS):
            around = around | {id(node)}
        name = None if id(node) in silent else _used_name(node)
        if name is not None:
            uses.setdefault(name, []).append(around)
        for child in ast.iter_child_nodes(node):
            visit(child, around, silent)

    for source in sources:
        visit(source.tree, set(), _silent(source))
    return uses


def _registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name.startswith("register"):
            return True
    return False


def unreferenced(
    modules: dict[str, Module], roots: list[Module], kept=KEPT
) -> list[str]:
    """Callables of reached modules nothing names outside their own body.

    Checked: each module-level function and class and each method of a
    module-level class. Dunder methods, functions under a ``register*``
    decorator and the ``kept`` names count as reached. Uses come from
    every program module and entry script; tests do not count.

    The check works by name, so it is conservative: a dead method that
    shares its name with a live one (or with any string the program
    uses) passes.
    """
    uses = references([*modules.values(), *roots])

    def referenced(node: ast.AST, name: str) -> bool:
        return any(id(node) not in around for around in uses.get(name, ()))

    dead = []
    for module_name in sorted(reached(modules, roots) & modules.keys()):
        for node in modules[module_name].tree.body:
            if not isinstance(node, _DEFS):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for qualname, item in members:
                if (
                    (item.name.startswith("__") and item.name.endswith("__"))
                    or _registered(item)
                    or f"{module_name}.{qualname}" in kept
                    or referenced(item, item.name)
                ):
                    continue
                dead.append(f"{module_name}.{qualname}")
    return dead


def program_roots(modules: dict[str, Module]) -> list[Module]:
    return [modules[name] for name in CLI_MODULES] + entry_scripts()


def test_every_program_module_is_reached():
    modules = program_modules()
    assert unreached(modules, program_roots(modules)) == []


def test_an_unreached_module_is_reported():
    modules = program_modules()
    # A module nothing imports, and a package that re-exports it: the
    # package's re-export alone must not count as traffic.
    modules["repro.core.orphan"] = Module(
        "repro.core.orphan", False, ast.parse("def route():\n    pass\n")
    )
    core = modules["repro.core"]
    modules["repro.core"] = Module(
        core.name,
        True,
        ast.Module(
            body=[*core.tree.body, *ast.parse("from .orphan import route").body],
            type_ignores=[],
        ),
    )
    assert unreached(modules, program_roots(modules)) == ["repro.core.orphan"]


def test_names_resolve_through_re_exports():
    graph = Graph(program_modules())
    assert graph.target("repro", "VIREEstimator") == "repro.core.estimator"
    assert graph.target("repro.core", "VIREConfig") == "repro.core.config"
    assert graph.target("repro.core.config", "VIREConfig") == "repro.core.config"
    assert graph.target("numpy", "ndarray") is None


def test_every_callable_is_referenced():
    modules = program_modules()
    assert unreferenced(modules, program_roots(modules)) == []


def test_every_kept_callable_is_needed_and_says_why():
    # Each KEPT entry names a callable the check would otherwise report:
    # one that exists and that no entry point reaches.
    modules = program_modules()
    assert set(unreferenced(modules, program_roots(modules), kept={})) == set(KEPT)
    for reason in KEPT.values():
        assert reason.strip() and "\n" not in reason


def _with_probe(source: str) -> dict[str, Module]:
    """The program, with ``source`` appended to the reached ``repro.core.config``."""
    modules = program_modules()
    config = modules["repro.core.config"]
    modules[config.name] = Module(
        config.name,
        False,
        ast.Module(body=[*config.tree.body, *ast.parse(source).body], type_ignores=[]),
    )
    return modules


def test_an_orphan_method_is_reported():
    modules = _with_probe(
        "class Probe:\n"
        "    def orphan(self):\n"
        "        return 1\n"
        "PROBE = Probe()\n"
    )
    assert unreferenced(modules, program_roots(modules)) == [
        "repro.core.config.Probe.orphan"
    ]


def test_a_name_only_its_own_body_uses_is_reported():
    modules = _with_probe(
        "def spiral(n):\n"
        "    return spiral(n - 1) if n else 0\n"
    )
    assert unreferenced(modules, program_roots(modules)) == [
        "repro.core.config.spiral"
    ]


def test_docstrings_and_all_are_not_uses():
    modules = _with_probe(
        "class Quiet:\n"
        "    'hushed'\n"
        "    def hushed(self):\n"
        "        return 1\n"
        "__all__ = ['Quiet', 'whisper']\n"
        "QUIET = Quiet()\n"
        "def whisper():\n"
        "    return 2\n"
    )
    assert unreferenced(modules, program_roots(modules)) == [
        "repro.core.config.Quiet.hushed",
        "repro.core.config.whisper",
    ]


def test_a_package_re_export_is_not_a_use():
    modules = _with_probe("def exported():\n    return 3\n")
    core = modules["repro.core"]
    modules["repro.core"] = Module(
        core.name,
        True,
        ast.Module(
            body=[*core.tree.body, *ast.parse("from .config import exported").body],
            type_ignores=[],
        ),
    )
    assert unreferenced(modules, program_roots(modules)) == [
        "repro.core.config.exported"
    ]


def test_a_dispatch_string_is_a_use():
    modules = _with_probe(
        "class Box:\n"
        "    _SURFACE = {'open': 'unbox'}\n"
        "    def unbox(self):\n"
        "        return 1\n"
        "BOX = Box()\n"
    )
    assert unreferenced(modules, program_roots(modules)) == []
