"""An option nobody sets is a constant, read off the source.

An option is a defaulted parameter of a function or method under
``src/repro`` (dunders other than ``__init__`` aside) or a field of a
dataclass, frozen or not, with a plain default (a ``default_factory``
field is state, not an option).  It is *set* when a call in ``src/``,
``examples/``, ``scripts/``, ``benchmarks/`` or ``bench/`` (its own tests
aside) names the function or class and passes it, by keyword or by
position; a ``*`` or ``**`` splat counts as passing what it could.  A
field is also set when code there assigns it (``x.field = …`` or
``x.field += …``), except that ``self.field = …`` sets only the field of
the class whose body it is in.  Other calls and assignments are matched
by name, so a name two callables or two classes share errs towards "set".

An option no caller sets has one value, so it is a module constant or
simply what the code does; a test that needs another value monkeypatches
the constant.  The few left are listed in ``UNSET``, each with the open
ROADMAP item that decides it.  The list only shrinks: an unlisted unset
option fails, and so does a listed one that gained a caller or is gone.
"""

import ast
import re
from pathlib import Path

from tests.guards import ROOT, SRC, open_items, sources

CALLERS = ("src", "examples", "scripts", "benchmarks", "bench")
UNSET = {
    "repro.bitcoin.compact:CompactBlock.from_block(nonce)": "item 8",
    "repro.core.auditor:audit_chain(strict)": "item 2",
    "repro.crypto.ecdsa:batch_verify(seed)": "item 8",
    "repro.surface.parser:parse_basis_text(resolver)": "item 18",
    "repro.surface.proofs:parse_proof(resolver)": "item 18",
}
REASON = re.compile(r"item \d+")


def _dataclass(cls: ast.ClassDef) -> bool:
    return any(
        ast.unparse(getattr(d, "func", d)).endswith("dataclass")
        for d in cls.decorator_list
    )


def _fields(cls: ast.ClassDef):
    """``(field, position)`` of each plain-default field of ``cls``."""
    position = 0
    for statement in cls.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)
        ):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            if "default" in keywords:
                yield statement.target.id, position
        elif value is not None:
            yield statement.target.id, position
        position += 1


def _parameters(function, method: bool):
    """``(parameter, position)`` of each defaulted parameter; a
    keyword-only one has no position."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(
        ast.unparse(d) == "staticmethod" for d in function.decorator_list
    )
    shift = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def options(tree: ast.Module):
    """``(called as, qualname, option, position, field)`` of every
    option; ``field`` is true of a dataclass field."""

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _dataclass(node):
                    for name, position in _fields(node):
                        yield node.name, prefix + node.name, name, position, True
                yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    if name != "__init__":
                        continue
                    called = prefix.rstrip(".").rsplit(".", 1)[-1]
                else:
                    called = name
                for option, position in _parameters(node, in_class):
                    yield called, prefix + name, option, position, False
                yield from visit(node.body, f"{prefix}{name}.<locals>.", False)

    yield from visit(tree.body, "", False)


def _passes(call: ast.Call, option: str, position) -> bool:
    if any(k.arg in (None, option) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(
        index == position or isinstance(arg, ast.Starred)
        for index, arg in enumerate(call.args[: position + 1])
    )


def _targets(node) -> list[ast.Attribute]:
    """The attributes ``node`` assigns, if it is an assignment
    (``x.a = …``, ``x.a, y.b = …``, ``x.a += …``)."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    found = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            found.append(target)
    return found


def _assigned(tree: ast.Module) -> tuple[set[str], set[tuple[str, str]]]:
    """The attribute names ``tree`` assigns through anything but ``self``,
    and ``(class, name)`` for each ``self.name`` it assigns inside a class
    (``class`` is the qualname ``options`` gives it)."""
    by_name, by_self = set(), set()

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            for target in _targets(child):
                value = target.value
                if cls and isinstance(value, ast.Name) and value.id == "self":
                    by_self.add((cls, target.attr))
                else:
                    by_name.add(target.attr)
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", prefix + child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.<locals>.", cls)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return by_name, by_self


def scan(src: Path, callers) -> tuple[set[str], set[str]]:
    """Every option under ``src`` as ``module:qualname(option)``, and the
    ones no call or assignment in ``callers`` sets."""
    calls: dict[str, list[ast.Call]] = {}
    assigned: set[str] = set()
    assigned_self: set[tuple[Path, str, str]] = set()
    for path in callers:
        tree = ast.parse(path.read_text())
        by_name, by_self = _assigned(tree)
        assigned |= by_name
        assigned_self |= {(path, cls, name) for cls, name in by_self}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None
                )
                calls.setdefault(name, []).append(node)
    every, unset = set(), set()
    for path in sources(src):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        for called, qualname, option, position, field in options(
            ast.parse(path.read_text())
        ):
            key = f"{module}:{qualname}({option})"
            every.add(key)
            if field and (
                option in assigned or (path, qualname, option) in assigned_self
            ):
                continue
            if not any(_passes(c, option, position) for c in calls.get(called, ())):
                unset.add(key)
    return every, unset


def compare(every: set[str], unset: set[str], listed) -> list[str]:
    return sorted(
        [f"unset and not listed: {key}" for key in unset - set(listed)]
        + [
            f"listed but set (drop the line): {key}"
            for key in set(listed) & every - unset
        ]
        + [
            f"listed but not an option under src/repro: {key}"
            for key in set(listed) - every
        ]
    )


def _callers() -> list[Path]:
    bench_tests = ROOT / "bench" / "tests"
    return [
        path
        for path in sources(*(ROOT / top for top in CALLERS))
        if bench_tests not in path.parents
    ]


def test_every_unset_option_is_listed_and_every_listed_one_is_unset():
    every, unset = scan(SRC, _callers())
    assert compare(every, unset, UNSET) == []


def test_every_entry_has_a_reason_and_every_item_is_open():
    assert len(UNSET) <= 5
    assert [r for r in UNSET.values() if not REASON.fullmatch(r)] == []
    items = {int(r.split()[1]) for r in UNSET.values()}
    assert items <= open_items()


def test_the_check_fails_both_ways(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Shape:\n"
        "    name: str\n"
        "    size: int = 1\n"
        "    parts: list = field(default_factory=list)\n"
        "@dataclass\n"
        "class Budget:\n"
        "    limit: int = 5\n"
        "    used: int = 0\n"
        "class Net:\n"
        "    def __init__(self, step=1): pass\n"
        "    def send(self, tx, *, fee=0): pass\n"
        "def _f(a, b=2): pass\n"
        "@dataclass\n"
        "class Tally:\n"
        "    count: int = 0\n"
        "    def bump(self): self.count += 1\n"
        "@dataclass\n"
        "class Meter:\n"
        "    count: int = 0\n"
    )
    caller = tmp_path / "use.py"
    caller.write_text(
        "Shape('s', 3)\nNet().send(1)\n_f(1, 2)\nb = Budget()\nb.used += 1\n"
    )
    every, unset = scan(src, [caller, src / "mod.py"])
    assert every == {
        "pkg.mod:Shape(size)", "pkg.mod:Budget(limit)",
        "pkg.mod:Budget(used)", "pkg.mod:Net.__init__(step)",
        "pkg.mod:Net.send(fee)", "pkg.mod:_f(b)",
        "pkg.mod:Tally(count)", "pkg.mod:Meter(count)",
    }
    # A plain dataclass's field that no caller passes or assigns is unset
    # (only a test sets it); one a caller assigns, as state is, is set.
    # ``self.count`` in Tally's own method sets Tally's field, not Meter's.
    assert compare(every, unset, {"pkg.mod:Net.send(fee)": "item 8"}) == [
        "unset and not listed: pkg.mod:Budget(limit)",
        "unset and not listed: pkg.mod:Meter(count)",
        "unset and not listed: pkg.mod:Net.__init__(step)",
    ]
    caller.write_text(
        "Shape('s')\nNet(step=2).send(1, fee=1)\n_f(1, 2)\n"
        "b = Budget(limit=9)\nb.used = 1\nMeter(count=2)\n"
    )
    every, unset = scan(src, [caller, src / "mod.py"])
    assert compare(every, unset, {
        "pkg.mod:Net.send(fee)": "item 8", "pkg.mod:Gone(x)": "item 8",
    }) == [
        "listed but not an option under src/repro: pkg.mod:Gone(x)",
        "listed but set (drop the line): pkg.mod:Net.send(fee)",
        "unset and not listed: pkg.mod:Shape(size)",
    ]
