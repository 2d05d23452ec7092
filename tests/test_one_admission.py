"""One admission, read off the source.

A transaction enters a ``Ledger`` through ``core.verifier.admit`` and
nothing else, and what a verifier holds between requests is what that
step accepted, keyed by the hashes the prover's bytes give — never an
encoding or a digest the verifier re-derives for itself, and never a
second walk of a transaction it holds:

* ``core/verifier.py`` spells neither ``encode_transaction`` nor
  ``sha256``;
* the reference walk (``nodes_of_type(…, ConstRef)``) is spelt once,
  in ``TypecoinTransaction.references`` (``core/transaction.py``), which
  a decoded transaction holds from its decoder and a constructed one
  computes once; its readers — the verifier's ``_references``, the
  prover's ``claim_bundle`` and the auditor's taint — read that value,
  and a second walker fails here;
* ``Ledger.register``, ``resolve`` (``[txid/this]``) and the memo's
  ``record`` are reached from ``admit`` — ``register`` also resolves for
  a caller that hands it nothing, and the only such callers left are the
  repository benchmark's (``bench/``), so the default can go once they
  pass it;
* a request reads the memo once per presented transaction: ``memo.get``
  is called only from ``_references``, which hands what it read on, and
  ``judge`` only from ``admit``; the verifier and the service spell no
  ``.refs(`` or ``.lookup(`` (the two reads a held transaction once got);
* the proof checker builds its contexts directly: ``logic/checker.py``
  spells no ``replace(``, which reflects over the fields on every binder.
"""

import ast

from tests.guards import ROOT, SRC, callers, functions, sources, spelt

VERIFIER = SRC / "core" / "verifier.py"


def test_the_verifier_derives_no_encoding_or_digest_of_its_own():
    source = VERIFIER.read_text()
    assert "encode_transaction" not in source
    assert "sha256" not in source


def _functions_where(found) -> set[str]:
    """``path:function`` of every function under ``src/repro`` holding a
    node for which ``found(node)`` is true."""
    return {
        f"{path.relative_to(SRC)}:{function.name}"
        for path in sources()
        for function in functions(ast.parse(path.read_text()))
        if any(found(node) for node in ast.walk(function))
    }


def _walks_references(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "nodes_of_type"
        and any(getattr(arg, "id", None) == "ConstRef" for arg in node.args)
    )


def _reads_references(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "references"


def test_the_reference_walk_is_spelt_once_and_read_everywhere_else():
    assert _functions_where(_walks_references) == {
        "core/transaction.py:references"
    }
    assert spelt(r"\breferenced_txids\b", sources()) == []
    assert _functions_where(_reads_references) == {
        "core/verifier.py:_references",
        "core/wallet.py:claim_bundle",
        "core/auditor.py:audit_chain",
    }


def test_register_resolve_and_record_are_reached_from_admit():
    assert callers("register") == {"core/verifier.py:admit"}
    assert callers("resolve") == {
        "core/verifier.py:admit", "core/validate.py:register",
    }
    assert callers("record") == {"core/verifier.py:admit"}


def test_only_the_benchmark_leaves_register_to_resolve():
    """Every ``.register(txid, txn)`` outside ``bench/`` hands in the
    resolved parts as well."""
    short = []
    tops = ("src", "tests", "examples", "benchmarks", "scripts")
    for path in sources(*(ROOT / top for top in tops)):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and len(node.args) == 2
                and not node.keywords
            ):
                short.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert short == []


def _memo_calls(method) -> set[str]:
    """``path:function`` of every call of ``memo.<method>`` (or
    ``<x>.memo.<method>``) under ``src/repro``."""
    found = set()
    for path in sources():
        for function in functions(ast.parse(path.read_text())):
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == method
                ):
                    continue
                owner = node.func.value
                names = getattr(owner, "id", None), getattr(owner, "attr", None)
                if "memo" in names:
                    found.add(f"{path.relative_to(SRC)}:{function.name}")
    return found


def test_a_request_reads_the_memo_once_per_transaction():
    assert _memo_calls("get") == {"core/verifier.py:_references"}
    assert callers("judge") == {"core/verifier.py:admit"}
    assert spelt(r"\.(refs|lookup)\(", [VERIFIER, *sources(SRC / "service")]) == []


def test_the_checker_builds_its_contexts_directly():
    assert spelt(r"\breplace\(", [SRC / "logic" / "checker.py"]) == []
