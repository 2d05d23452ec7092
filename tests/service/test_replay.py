"""Every way of asking about a claim, against an independent replay.

The library (``verify_claim``) and the service run one §3 body, so their
agreeing with each other says nothing about the body.  The reference is
``tests/oracles.replay_claim`` — the library's loop as it was when the
service had its own — and what is compared with it is the library, a
fresh service, a warmed one and one whose memo has been poisoned for
every transaction it is about to see: statuses equal the replay's, and
the three services' details equal the library's message, on every claim
of the working set, its wrong-type twin and single-fault mutants of it.

The reorg cases ask the same four about one claim before and after a
heavier branch re-confirms its carrier in a different block: 𝔗;Σ ⊢ T ok
is judged in the world of the block that confirmed T, and a txid does
not say which block that is.
"""

import dataclasses

import pytest

from repro.bitcoin.block import build_block
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.core.proofs import obligation_lambda
from repro.core.transaction import TypecoinTransaction, trivial_output
from repro.core.verifier import VerificationError, verify_claim
from repro.core.wallet import TypecoinClient
from repro.lf.basis import Basis
from repro.lf.syntax import ConstRef, NatLit, TConst
from repro.logic.conditions import Before
from repro.logic.proofterms import IfReturn, OneIntro
from repro.logic.propositions import Atom, One, Tensor
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


# ----------------------------------------------------------------------
# Across a reorg
# ----------------------------------------------------------------------


def option(pubkey, deadline):
    """One trivial output under ``if(before(deadline), 1)``."""
    out = trivial_output(pubkey, 600)
    return TypecoinTransaction(
        Basis(), One(), [], [out],
        obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _ins, _rs: IfReturn(
                Before(NatLit(deadline)), OneIntro()
            ),
        ),
    )


def rival_branch(chain, fork_height, carrier, stamps):
    """A branch off ``fork_height``, validated on a second ``Blockchain``:
    one block per timestamp, the first re-confirming ``carrier``."""
    side = Blockchain(chain.params)
    for height in range(1, fork_height + 1):
        side.add_block(chain.block_at(height))
    miner = Miner(side, b"\x07" * 20)
    blocks = []
    for stamp in stamps:
        txs = [miner.make_coinbase(side.height + 1, fees=0)]
        if not blocks:
            txs.append(carrier)
        blocks.append(miner.grind(build_block(
            side.tip.block.hash, txs, stamp,
            side.required_bits(side.tip.block.hash),
        )))
        side.add_block(blocks[-1])
    return blocks


def four_answers(chain, bundle, warmed):
    """The library's ``(status, detail)``, once the replay agrees on the
    status and a fresh and the warmed service on both."""
    want, _ = outcome(replay_claim, chain, bundle)
    library = outcome(verify_claim, chain, bundle)
    assert library[0] == want
    fresh = VerificationService(chain)
    try:
        answers = {"fresh": fresh.verify(bundle)}
    finally:
        fresh.close()
    answers["warmed"] = warmed.verify(bundle)
    for mode, verdict in answers.items():
        assert (verdict.status, verdict.detail) == library, mode
    return library


@pytest.fixture
def optioned():
    """``(net, carrier, bundle, deadline, warmed)``: an option confirmed one
    second before its deadline, and a service that has said ``ok`` to it."""
    net = RegtestNetwork()
    alice = TypecoinClient(net, b"replay-alice")
    net.fund_wallet(alice.wallet)
    deadline = net.chain.tip.block.header.timestamp + 2
    carrier = alice.submit(option(alice.pubkey, deadline))
    net.confirm(1)
    assert alice.sync() == [carrier.txid]
    bundle = alice.claim_bundle(OutPoint(carrier.txid, 0), One())
    warmed = VerificationService(net.chain)
    try:
        assert four_answers(net.chain, bundle, warmed) == ("ok", "")
        yield net, carrier, bundle, deadline, warmed
    finally:
        warmed.close()


def test_claim_reconfirmed_past_its_deadline_is_invalid_at_every_door(optioned):
    net, carrier, bundle, deadline, warmed = optioned
    _, height = net.chain.get_transaction(carrier.txid)
    for block in rival_branch(
        net.chain, height - 1, carrier, [deadline + 5, deadline + 6]
    ):
        net.chain.add_block(block)
    assert net.chain.height == height + 1
    assert net.chain.get_transaction(carrier.txid)[1] == height
    assert four_answers(net.chain, bundle, warmed) == (
        "invalid",
        f"type check failed: top-level condition before({deadline}) does"
        " not hold in this world",
    )


def test_claim_reconfirmed_before_its_deadline_is_rechecked_not_recalled(
    optioned,
):
    net, carrier, bundle, deadline, warmed = optioned
    _, height = net.chain.get_transaction(carrier.txid)
    first = net.chain.block_at(height).hash
    for block in rival_branch(
        net.chain, height - 1, carrier, [deadline - 1, deadline]
    ):
        net.chain.add_block(block)
    assert net.chain.block_at(height).hash != first
    # The entry recorded under the replaced block does not match: a miss,
    # a full check in the new block's world, and only then a hit.
    stale = warmed.memo.poison_rejected
    assert four_answers(net.chain, bundle, warmed) == ("ok", "")
    assert warmed.memo.poison_rejected == stale + 1
    assert four_answers(net.chain, bundle, warmed) == ("ok", "")
    assert warmed.memo.poison_rejected == stale + 1
