"""One transaction judgement, read off the source.

A virtual transaction of batch mode (§3.2) is judged by the rule an
on-chain one is, and with its code, not a copy of it:

* the proof obligation is ``core.validate.check_obligation``, called by
  ``check_typecoin_transaction`` and ``BatchServer.transact``; under
  ``src/repro/core`` nothing else calls the checker's ``infer``;
* an owner's authorization is an ``Affirmation`` checked by the checker's
  ``verify_affirmation``, so ``core/batch.py`` imports no ECDSA, curve or
  deadline module of its own;
* a batch server orders its virtual history with the verifier's
  ``peel_levels``, and its own topological sort is spelt nowhere;
* the batch payload's prefix is not an ``assert`` payload's, so a
  signature made for one cannot authorize the other.
"""

import ast
import re
from pathlib import Path

from repro.core.batch import VirtualTransaction
from repro.logic.checker import AFFINE_ASSERT_TAG, PERSISTENT_ASSERT_TAG
from tests.test_one_admission import callers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
BATCH = SRC / "core" / "batch.py"
RETIRED = ("_topo_vtxs", "_check_authorization", "_vtx_children")


def test_both_judgements_go_through_the_one_obligation_check():
    assert callers("check_obligation") == {
        "core/validate.py:check_typecoin_transaction",
        "core/batch.py:transact",
    }
    assert {
        caller for caller in callers("infer") if caller.startswith("core/")
    } == {"core/validate.py:check_obligation"}


def test_authorizations_are_affirmations_checked_once():
    assert "core/batch.py:transact" in callers("verify_affirmation")
    imported = set()
    for node in ast.walk(ast.parse(BATCH.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {
        "repro.crypto.ecdsa", "repro.crypto.secp256k1", "repro.cancel",
    }


def test_virtual_history_is_ordered_by_the_verifiers_peel():
    assert "core/batch.py:_affected_vtxs" in callers("peel_levels")
    pattern = re.compile(r"\b(" + "|".join(RETIRED) + r")\b")
    spelt = [
        f"{path.relative_to(ROOT)}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert spelt == []


def test_a_batch_payload_is_no_assert_payload():
    batch_tag = b"typecoin-batch:"
    assert VirtualTransaction([1], [], None).payload().startswith(batch_tag)
    for tag in (AFFINE_ASSERT_TAG, PERSISTENT_ASSERT_TAG):
        assert not tag.startswith(batch_tag) and not batch_tag.startswith(tag)
