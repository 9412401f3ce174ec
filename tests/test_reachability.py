"""Every module under ``src/repro`` has traffic from an entry point.

The entry points are the CLI (``repro.cli`` and ``repro.__main__``) and
every script under ``benchmarks/``, ``perfbench/`` and ``examples/``.
The walk is static: each file is parsed with :mod:`ast`, nothing is
imported. An import edge goes to the module that *defines* the name: a
name imported from a package is followed through the package
``__init__``'s re-exports to its defining module, and attribute chains
on an imported package (``analysis.report``) are followed the same way.
A package ``__init__`` does not count as reaching what it re-exports,
so a route only a test imports shows up here as unreached.
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


def unreached(modules: dict[str, Module], roots: list[Module]) -> list[str]:
    """Non-``__init__`` modules no import path from ``roots`` arrives at.

    A reached package ``__init__`` adds no edges of its own: what it
    re-exports counts only when a name is imported through it.
    """
    graph = Graph(modules)
    reached = {root.name for root in roots}
    todo = [edge for root in roots for edge in graph.edges(root)]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if not modules[name].is_package:
            todo.extend(graph.edges(modules[name]))
    return sorted(
        name
        for name, module in modules.items()
        if not module.is_package and name not in reached
    )


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
