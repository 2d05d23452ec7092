"""Layering, read off the source: the Bitcoin substrate never imports the
Typecoin layers built on it, and the node's protocol modules — and the
consensus modules they call into — import each other at module level or
not at all (a function-level import is how a cycle hides)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SUBSTRATE = ("crypto", "bitcoin", "store")
ABOVE = ("lf", "logic", "core", "surface", "service")
NODE_MODULES = (
    "network", "relay", "compact", "sync", "chain", "validation", "mempool",
)


def imports(node):
    """``(module, lineno)`` of every import under ``node``, at any depth;
    ``from repro import obs`` reads as ``repro.obs``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.name, child.lineno
        elif isinstance(child, ast.ImportFrom):
            assert child.level == 0, "src/ uses absolute imports"
            for alias in child.names:
                yield f"{child.module}.{alias.name}", child.lineno


def test_substrate_does_not_import_the_layers_above_it():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} imports {module}"
        for package in SUBSTRATE
        for path in sorted((SRC / package).rglob("*.py"))
        for module, lineno in imports(ast.parse(path.read_text()))
        if f"{module}.".startswith(tuple(f"repro.{name}." for name in ABOVE))
    ]
    assert offenders == []


def test_node_modules_have_no_function_level_bitcoin_import():
    offenders = []
    for name in NODE_MODULES:
        tree = ast.parse((SRC / "bitcoin" / f"{name}.py").read_text())
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{name}.py:{lineno} imports {module}"
                    for module, lineno in imports(scope)
                    if f"{module}.".startswith("repro.bitcoin.")
                ]
    assert offenders == []
