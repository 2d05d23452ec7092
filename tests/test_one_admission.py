"""One admission, read off the source.

A transaction enters a ``Ledger`` through ``core.verifier.admit`` and
nothing else, and what a verifier holds between requests is what that
step accepted, keyed by the hashes the prover's bytes give — never an
encoding or a digest the verifier re-derives for itself, and never a
second walk of a transaction it holds:

* ``core/verifier.py`` spells neither ``encode_transaction`` nor
  ``sha256``;
* in the verifier, ``referenced_txids`` (the edge walk) is called only
  from ``_references``; the other callers under ``src/`` are the
  prover's ``claim_bundle`` and the auditor's taint, which answer no
  request;
* ``Ledger.register``, ``resolve`` (``[txid/this]``) and the memo's
  ``record`` are reached from ``admit`` — ``register`` also resolves for
  a caller that hands it nothing, and the only such callers left are the
  repository benchmark's (``bench/``), so the default can go once they
  pass it.
"""

import ast
from pathlib import Path

from tests.test_one_way_in import called_names, functions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
VERIFIER = SRC / "core" / "verifier.py"


def callers(name):
    """``path:function`` of every function under ``src/`` that calls
    ``name``, by bare or attribute name."""
    return {
        f"{path.relative_to(SRC)}:{function.name}"
        for path in sorted(SRC.rglob("*.py"))
        for function in functions(ast.parse(path.read_text()))
        if name in set(called_names(function))
    }


def test_the_verifier_derives_no_encoding_or_digest_of_its_own():
    source = VERIFIER.read_text()
    assert "encode_transaction" not in source
    assert "sha256" not in source


def test_the_edge_walk_is_called_only_from_references():
    assert callers("referenced_txids") == {
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
    for top in ("src", "tests", "examples", "benchmarks", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
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
