"""Every way of asking about a claim, against an independent replay.

The library (``verify_claim``) and the service run one §3 body, so their
agreeing with each other says nothing about the body.  The reference is
``tests/oracles.replay_claim`` — the library's loop as it was when the
service had its own — and what is compared with it is the library, a
fresh service, a warmed one and one whose memo has been poisoned for
every transaction it is about to see: statuses equal the replay's, and
the three services' details equal the library's message, on every claim
of the working set, its wrong-type twin and single-fault mutants of it.
"""

import dataclasses

from repro.bitcoin.transaction import OutPoint
from repro.core.verifier import VerificationError, verify_claim
from repro.lf.syntax import ConstRef, TConst
from repro.logic.propositions import Atom, Tensor
from repro.service import VerificationService

from tests.oracles import replay_claim


def outcome(fn, chain, bundle, **policy):
    try:
        fn(chain, bundle, **policy)
    except VerificationError as exc:
        return "invalid", str(exc)
    return "ok", ""


def mutants(bundle):
    """``(what, bundle)`` for each single fault this bundle has room for."""
    txns = bundle.transactions
    claimed = bundle.outpoint.txid

    def variant(transactions, **changes):
        return dataclasses.replace(
            bundle, transactions=transactions, **changes
        )

    for txid in txns:
        rest = {key: txn for key, txn in txns.items() if key != txid}
        yield f"dropped {txid[:4].hex()}", variant(rest)
    if len(txns) >= 2:
        first, second = list(txns)[:2]
        swapped = dict(txns)
        swapped[first], swapped[second] = txns[second], txns[first]
        yield "two swapped under each other's txid", variant(swapped)
    spent = next(
        (inp for inp in txns[claimed].inputs if inp.txid in txns), None
    )
    if spent is not None:
        # An upstream output the claimed transaction itself spends: right
        # type, produced by the bundle, and gone.
        yield "claimed txout spent", variant(
            txns, outpoint=OutPoint(spent.txid, spent.index), prop=spent.prop
        )
        # ...and that upstream transaction made to mention the claimed
        # one's vocabulary, which closes a cycle.
        parent = txns[spent.txid]
        looped = dict(txns)
        looped[spent.txid] = dataclasses.replace(
            parent,
            grant=Tensor(parent.grant, Atom(TConst(ConstRef(claimed, "c")))),
        )
        yield "dependency cycle", variant(looped)


def assert_all_agree(chain, label, original, variants, **policy):
    warmed = VerificationService(chain, **policy)
    try:
        for what, bundle in variants:
            want, _ = outcome(replay_claim, chain, bundle, **policy)
            library = outcome(verify_claim, chain, bundle, **policy)
            assert library[0] == want, (label, what, library)

            fresh = VerificationService(chain, **policy)
            try:
                answers = {"fresh": fresh.verify(bundle)}
            finally:
                fresh.close()
            warmed.verify(original)
            answers["warmed"] = warmed.verify(bundle)
            for txid in bundle.transactions:
                warmed.memo.poison(txid, b"\x00" * 32)
            answers["poisoned"] = warmed.verify(bundle)
            for mode, verdict in answers.items():
                assert (verdict.status, verdict.detail) == library, (
                    label, what, mode,
                )
    finally:
        warmed.close()


def test_library_and_service_agree_with_the_replay(working_set):
    chain = working_set.chain
    faults = set()
    for claim in working_set.claims:
        variants = [("as built", claim.bundle), ("wrong type", claim.wrong)]
        variants += mutants(claim.bundle)
        faults.update(what.split(" ")[0] for what, _ in variants)
        assert_all_agree(chain, claim.label, claim.bundle, variants)
        # One confirmation more than the claimed carrier has: upstream
        # transactions pass the policy, the claimed one does not.
        _, height = chain.get_transaction(claim.bundle.outpoint.txid)
        assert_all_agree(
            chain, claim.label, claim.bundle,
            [("policy above the tip distance", claim.bundle)],
            min_confirmations=chain.height - height + 2,
        )
    # The set has room for every kind of fault.
    assert faults == {"as", "wrong", "dropped", "two", "claimed", "dependency"}
