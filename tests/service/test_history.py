"""One long-lived service, an arbitrary history of requests and trouble.

``test_replay`` asks a fresh, a warmed and a poisoned service about one
claim at a time.  Here one service lives through a drawn history:
requests for valid claims, their wrong-type twins and ``mutants`` of
them, each presented as the same objects again or as bytes decoded
afresh; wrong entries planted in its memo; and rival branches that
re-confirm a carrier in another block, before or past the deadline of
its ``before(t)`` condition.  Every answer's ``(status, detail)`` must be
``verify_claim``'s on the chain as it is at that moment, and every
status ``replay_claim``'s.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.block import build_block
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.miner import Miner
from repro.bitcoin.transaction import OutPoint
from repro.core.verifier import verify_claim
from repro.core.wallet import TypecoinClient
from repro.core.wire import decode_bundle, encode_bundle
from repro.logic.propositions import One, Tensor
from repro.service import VerificationService
from repro.service.chaos import _service_world

from tests.oracles import replay_claim
from tests.service.test_replay import mutants, option, outcome


@pytest.fixture(scope="module")
def world():
    """``(chain, option carrier, its deadline, requests)``: a depth-3
    transfer ladder, then an option mined one second before its deadline
    in the tip block, and every request the history may make."""
    net, ladder, ladder_wrong = _service_world(3)
    alice = TypecoinClient(net, b"history-alice")
    net.fund_wallet(alice.wallet)
    deadline = net.chain.tip.block.header.timestamp + 2
    carrier = alice.submit(option(alice.pubkey, deadline))
    net.confirm(1)
    assert alice.sync() == [carrier.txid]
    offer = OutPoint(carrier.txid, 0)
    requests = [
        ("ladder", ladder),
        ("ladder, wrong type", ladder_wrong),
        ("option", alice.claim_bundle(offer, One())),
        ("option, wrong type", alice.claim_bundle(offer, Tensor(One(), One()))),
    ]
    requests += mutants(ladder)
    requests += mutants(requests[2][1])
    return net.chain, carrier, deadline, requests


def copy_of(chain):
    """A second ``Blockchain`` holding ``chain``'s active blocks."""
    copy = Blockchain(chain.params)
    for height in range(1, chain.height + 1):
        copy.add_block(chain.block_at(height))
    return copy


def reconfirm(chain, carrier, first_stamp, tag):
    """Make ``chain`` reorganise onto a heavier branch off the block below
    ``carrier``'s whose first block re-confirms it at ``first_stamp``;
    ``tag`` keeps each branch's blocks distinct from earlier ones."""
    _, height = chain.get_transaction(carrier.txid)
    side = Blockchain(chain.params)
    for h in range(1, height):
        side.add_block(chain.block_at(h))
    miner = Miner(side, bytes([tag]) * 20)
    blocks = []
    for k in range(chain.height - height + 2):
        txs = [miner.make_coinbase(side.height + 1, fees=0)]
        if not blocks:
            txs.append(carrier)
        blocks.append(miner.grind(build_block(
            side.tip.block.hash, txs, first_stamp + k,
            side.required_bits(side.tip.block.hash),
        )))
        side.add_block(blocks[-1])
    for block in blocks:
        chain.add_block(block)
    assert chain.get_transaction(carrier.txid)[1] == height
    assert chain.block_at(height).hash == blocks[0].hash


def steps(requests, txids):
    """A history after the warm-up: requests, and which presentation
    comes first; wrong entries planted under upstream txids; rival
    branches re-confirming the option before or past its deadline, each
    followed by a request for the option."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("ask"), st.sampled_from(requests), st.booleans()),
            st.tuples(st.just("poison"), st.sampled_from(txids)),
            st.tuples(st.just("reorg"), st.booleans()),
        ),
        min_size=1,
        max_size=12,
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_long_lived_service_answers_as_the_library_does(world, data):
    base, carrier, deadline, requests = world
    chain = copy_of(base)
    txids = sorted({
        txid for _what, bundle in requests for txid in bundle.transactions
    })
    service = VerificationService(chain)

    def ask(what, bundle, afresh_first):
        """Present the request twice, as the same objects and as bytes
        decoded afresh, so the second meets whatever the first left."""
        want, _ = outcome(replay_claim, chain, bundle)
        library = outcome(verify_claim, chain, bundle)
        assert library[0] == want, what
        for afresh in (afresh_first, not afresh_first):
            shown = decode_bundle(encode_bundle(bundle)) if afresh else bundle
            verdict = service.verify(shown)
            assert (verdict.status, verdict.detail) == library, (what, afresh)

    try:
        # Every request once, so that what follows meets a warm memo.
        for what, bundle in requests:
            ask(what, bundle, afresh_first=False)
        for number, step in enumerate(data.draw(steps(requests, txids))):
            if step[0] == "ask":
                (what, bundle), afresh_first = step[1:]
                ask(what, bundle, afresh_first)
            elif step[0] == "poison":
                service.memo.poison(step[1], b"\x00" * 32)
            else:
                stamp = deadline + 5 if step[1] else deadline - 1
                reconfirm(chain, carrier, stamp, tag=number + 1)
                ask(*requests[2], afresh_first=step[1])
    finally:
        service.close()
