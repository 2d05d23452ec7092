"""What the source guards (``tests/test_one_*.py``, ``tests/test_layering.py``)
share: the walk over ``src/repro``, the scan for spelt names, the AST
helpers that read calls and imports, and ROADMAP's open items."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def sources(*tops: Path) -> list[Path]:
    """Every ``.py`` file under ``tops`` (``src/repro`` when none is
    given), in a fixed order."""
    return [path for top in tops or (SRC,) for path in sorted(top.rglob("*.py"))]


def words(names) -> re.Pattern:
    """A pattern matching any of ``names`` as a whole word."""
    return re.compile(r"\b(" + "|".join(names) + r")\b")


def spelt(pattern, paths, base: Path = ROOT) -> list[str]:
    """``path: match`` for every match of ``pattern`` in ``paths``, each
    path spelt relative to ``base``."""
    pattern = re.compile(pattern) if isinstance(pattern, str) else pattern
    return [
        f"{path.relative_to(base)}: {match.group(0)}"
        for path in paths
        for match in pattern.finditer(path.read_text())
    ]


def functions(tree):
    """Every function definition under ``tree``, at any depth."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def called_names(node):
    """What ``node`` calls, by bare or attribute name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )


def callers(name) -> set[str]:
    """``path:function`` of every function under ``src/repro`` that calls
    ``name``, by bare or attribute name."""
    return {
        f"{path.relative_to(SRC)}:{function.name}"
        for path in sources()
        for function in functions(ast.parse(path.read_text()))
        if name in set(called_names(function))
    }


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


def open_items() -> set[int]:
    """The numbers of ROADMAP.md's open items."""
    roadmap = (ROOT / "ROADMAP.md").read_text()
    section = roadmap.split("## Open items", 1)[1].split("\n## ", 1)[0]
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", section, re.M)}
