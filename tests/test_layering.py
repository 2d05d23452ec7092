"""Layering, read off the source: the Bitcoin substrate never imports the
Typecoin layers built on it, and the node's protocol modules — and the
consensus modules they call into — import each other at module level or
not at all (a function-level import is how a cycle hides)."""

import ast

from tests.guards import SRC, imports, sources

SUBSTRATE = ("crypto", "bitcoin", "store")
ABOVE = ("lf", "logic", "core", "surface", "service")
NODE_MODULES = (
    "network", "relay", "compact", "sync", "chain", "validation", "mempool",
)


def test_substrate_does_not_import_the_layers_above_it():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} imports {module}"
        for path in sources(*(SRC / package for package in SUBSTRATE))
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
