"""An option nobody sets is a constant, read off the source.

An option is a defaulted parameter of a function or method under
``src/repro`` (dunders other than ``__init__`` aside) or a field of a
frozen dataclass with a plain default (a ``default_factory`` field is
state, not an option).  It is *set* when a call in ``src/``,
``examples/``, ``scripts/``, ``benchmarks/`` or ``bench/`` (its own tests
aside) names the function or class and passes it, by keyword or by
position; a ``*`` or ``**`` splat counts as passing what it could.  Calls
are matched by name, so a name two callables share errs towards "set".

An option no such call sets has one value, so it is a module constant or
simply what the code does.  The few left are listed in ``UNSET``, each
with the open ROADMAP item that decides it or the seam a test reaches
through it.  The list only shrinks: an unlisted unset option fails, and
so does a listed one that gained a caller or is gone.
"""

import ast
import re
from pathlib import Path

from tests.guards import ROOT, SRC, open_items, sources

CALLERS = ("src", "examples", "scripts", "benchmarks", "bench")
UNSET = {
    "repro.bitcoin.chain:ChainParams(genesis_timestamp)":
        "seam: a second genesis, tests/bitcoin/test_store.py",
    "repro.bitcoin.compact:CompactBlock.from_block(nonce)": "item 8",
    "repro.bitcoin.faults:ByzantinePeer.__init__(interval)":
        "seam: a faster attack clock, tests/bitcoin/test_chaos.py",
    "repro.bitcoin.sigcache:SignatureCache.__init__(max_entries)":
        "seam: eviction at a small bound, tests/bitcoin/test_sigcache.py",
    "repro.bitcoin.wallet:Wallet.sign_input(hash_type)":
        "seam: SIGHASH_ANYONECANPAY (§7), tests/bitcoin/test_wallet.py",
    "repro.core.auditor:audit_chain(strict)": "item 2",
    "repro.core.batch:BatchServer.__init__(journal_path)":
        "seam: journal replay, tests/core/test_batch.py",
    "repro.crypto.ecdsa:batch_verify(seed)": "item 8",
    "repro.crypto.secp256k1:scalar_mult(p)":
        "seam: k·P off the generator, tests/crypto/test_ecmult.py",
    "repro.service.cache:TxMemoTable.__init__(capacity)":
        "seam: eviction at a small bound, tests/service/test_cache.py",
    "repro.service.server:VerificationService.__init__(min_confirmations)":
        "seam: the library's policy, tests/service/test_replay.py",
    "repro.service.server:VerificationService.__init__(require_unspent)":
        "seam: the library's policy, tests/service/test_replay.py",
    "repro.surface.parser:parse_basis_text(resolver)": "item 18",
    "repro.surface.proofs:parse_proof(resolver)": "item 18",
}
REASON = re.compile(r"item \d+|seam: \S.*")


def _frozen_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call) and "dataclass" in ast.unparse(
            decorator.func
        ):
            return any(
                keyword.arg == "frozen"
                and getattr(keyword.value, "value", None) is True
                for keyword in decorator.keywords
            )
    return False


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
    """``(called as, qualname, option, position)`` of every option."""

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _frozen_dataclass(node):
                    for name, position in _fields(node):
                        yield node.name, prefix + node.name, name, position
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
                    yield called, prefix + name, option, position
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


def scan(src: Path, callers) -> tuple[set[str], set[str]]:
    """Every option under ``src`` as ``module:qualname(option)``, and the
    ones no call in ``callers`` sets."""
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None
                )
                calls.setdefault(name, []).append(node)
    every, unset = set(), set()
    for path in sources(src):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        for called, qualname, option, position in options(
            ast.parse(path.read_text())
        ):
            key = f"{module}:{qualname}({option})"
            every.add(key)
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
    assert len(UNSET) <= 25
    assert [r for r in UNSET.values() if not REASON.fullmatch(r)] == []
    items = {int(r.split()[1]) for r in UNSET.values() if r.startswith("item")}
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
        "class Net:\n"
        "    def __init__(self, step=1): pass\n"
        "    def send(self, tx, *, fee=0): pass\n"
        "def _f(a, b=2): pass\n"
    )
    caller = tmp_path / "use.py"
    caller.write_text("Shape('s', 3)\nNet().send(1)\n_f(1, 2)\n")
    every, unset = scan(src, [caller])
    assert every == {
        "pkg.mod:Shape(size)", "pkg.mod:Net.__init__(step)",
        "pkg.mod:Net.send(fee)", "pkg.mod:_f(b)",
    }
    assert compare(every, unset, {"pkg.mod:Net.send(fee)": "item 8"}) == [
        "unset and not listed: pkg.mod:Net.__init__(step)",
    ]
    caller.write_text("Shape('s')\nNet(step=2).send(1, fee=1)\n_f(1, 2)\n")
    every, unset = scan(src, [caller])
    assert compare(every, unset, {
        "pkg.mod:Net.send(fee)": "item 8", "pkg.mod:Gone(x)": "item 8",
    }) == [
        "listed but not an option under src/repro: pkg.mod:Gone(x)",
        "listed but set (drop the line): pkg.mod:Net.send(fee)",
        "unset and not listed: pkg.mod:Shape(size)",
    ]
