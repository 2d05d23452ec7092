"""Every module-level import under ``src/repro`` is read.

An import nobody reads costs an import edge, a name in the module and a
reader's time; no lint step refuses one, so this test does.  A name
counts as read when a ``Name`` node loads it anywhere in the module, when
a string annotation (``"Node"``, the spelling ``TYPE_CHECKING`` imports
need) names it, or when ``__all__`` exports it.  Imports inside a
function are the function's business and are not scanned.
"""

import ast

from tests.guards import ROOT, sources


def _module_imports(body) -> dict[str, int]:
    """``{bound name: line}`` of the imports in a module's top-level
    statements, those under ``if`` / ``try`` included."""
    found: dict[str, int] = {}
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                found.update(_module_imports(block))
            for handler in getattr(node, "handlers", []):
                found.update(_module_imports(handler.body))
    return found


def _string_annotations(tree: ast.Module):
    """The annotations spelt as strings, parsed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            notes = [node.annotation]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        else:
            continue
        for note in notes:
            for text in ast.walk(note) if note is not None else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    yield ast.parse(text.value, mode="eval")


def _read_names(tree: ast.Module) -> set[str]:
    read = set()
    for root in [tree, *_string_annotations(tree)]:
        read |= {
            node.id
            for node in ast.walk(root)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {entry.value for entry in node.value.elts}
    return read


def unread_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each module-level import ``source`` never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return sorted(
        (line, name)
        for name, line in _module_imports(tree.body).items()
        if name not in read
    )


def test_every_module_level_import_is_read():
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sources()
        for line, name in unread_imports(path.read_text())
    ]
    assert unread == []


def test_the_scan_tells_read_from_unread():
    source = '''
from __future__ import annotations
import os, os.path as osp
from typing import TYPE_CHECKING, Sequence
from dataclasses import dataclass, field
if TYPE_CHECKING:
    from repro.bitcoin.network import Node, Peer
from repro.lru import LRU
__all__ = ["LRU"]

def f(node: "Node", n: int) -> "list[Sequence]":
    import json
    return os.getpid()
'''
    assert unread_imports(source) == [
        (3, "osp"), (5, "dataclass"), (5, "field"), (7, "Peer"),
    ]
