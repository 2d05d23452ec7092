"""One transaction judgement and one format, read off the source.

A virtual transaction of batch mode (§3.2) is a ``TypecoinTransaction``,
judged by the rule an on-chain one is, and with its code, not a copy of
it:

* the proof obligation is ``core.validate.check_obligation``, called by
  ``check_typecoin_transaction`` and ``BatchServer.transact``; under
  ``src/repro/core`` nothing else calls the checker's ``infer``;
* an owner's authorization is an ``Affirmation`` checked by the checker's
  ``verify_affirmation``, so ``core/batch.py`` imports no ECDSA or curve
  module of its own;
* a batch server orders its virtual history with the verifier's
  ``peel_levels``, and its own topological sort is spelt nowhere;
* the second format is gone: no virtual transaction or output class, no
  batch payload, no counter ids, no payload dedupe, and no JSON journal;
* what an authorization signs, a transaction's payload, is not an
  ``assert`` payload, so a signature made for one cannot stand for the
  other.
"""

import ast

from repro.core.batch import authorize
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.crypto.keys import PrivateKey
from repro.lf.basis import Basis
from repro.lf.syntax import PrincipalLit
from repro.logic.checker import (
    AFFINE_ASSERT_TAG,
    PERSISTENT_ASSERT_TAG,
    verify_affirmation,
)
from repro.logic.proofterms import OneIntro
from repro.logic.propositions import One
from tests.guards import SRC, callers, imports, sources, spelt, words

BATCH = SRC / "core" / "batch.py"
RETIRED = (
    "_topo_vtxs", "_check_authorization", "_vtx_children",
    "VirtualTransaction", "VirtualOutput", "_new_id", "_seen_payloads",
)


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
    imported = {module for module, _ in imports(ast.parse(BATCH.read_text()))}
    assert not {
        name for name in imported
        if name.startswith(("repro.crypto.ecdsa", "repro.crypto.secp256k1"))
    }


def test_virtual_history_is_ordered_by_the_verifiers_peel():
    assert "core/batch.py:_history" in callers("peel_levels")
    assert spelt(words(RETIRED), sources()) == []


def test_there_is_one_format_and_one_journal_reader():
    assert spelt("typecoin-batch", sources()) == []
    imported = {module for module, _ in imports(ast.parse(BATCH.read_text()))}
    assert not {name for name in imported if name.split(".")[0] == "json"}


def test_a_batch_payload_is_no_assert_payload():
    key = PrivateKey.from_seed(b"guard")
    txn = TypecoinTransaction(
        Basis(), One(), [], [TypecoinOutput(One(), 0, key.public.encoded)],
        OneIntro(),
    )
    tag = b"typecoin-txn:"
    assert txn.signing_payload().startswith(tag)
    assert verify_affirmation(
        PrincipalLit(key.public.principal), txn.signing_payload(),
        authorize(key, txn),
    )
    for assert_tag in (AFFINE_ASSERT_TAG, PERSISTENT_ASSERT_TAG):
        assert not assert_tag.startswith(tag) and not tag.startswith(assert_tag)

