"""One chain-formation step, asked at every door.

Appendix A's 𝔗, txid:T : Σ — T's carrier is on the active chain under
txid, ``verifier.MIN_CONFIRMATIONS`` deep, and embeds hash(T), and
𝔗;Σ ⊢ T ok in the world of the block that confirmed it — is
``repro.core.verifier.admit``, and a ``Ledger`` has no other way in.
Five ways to break the rule are shown to seven callers: every cell
refuses, names the check the library names, and leaves the ledger it was
given exactly as it found it.
"""

import copy
import dataclasses
import re

import pytest

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint, Transaction
from repro.core.auditor import audit_chain
from repro.core import batch
from repro.core.batch import JOURNAL_MAGIC, BatchServer
from repro.core.builder import simple_transfer
from repro.core.overlay import build_carrier
from repro.core.transaction import (
    ClaimBundle,
    TypecoinTransaction,
    trivial_output,
)
from repro.core.validate import Ledger
from repro.core import verifier
from repro.core.verifier import VerificationError, verify_claim
from repro.core.wallet import PendingSubmission, TypecoinClient
from repro.core.wire import encode_bundle, encode_transaction
from repro.logic.codec import write_blob, write_uint
from repro.logic.propositions import One
from repro.service import VerificationService
from repro.store.framing import encode_record, write_file_header

from tests.service.test_replay import option

SERVER_SEED = b"formation-server"
ABSENT = "is not in the active chain"


@dataclasses.dataclass
class Case:
    """One presentation of a fault: ``txn`` offered under ``txid`` to an
    asker who trusts ``trusted`` (txid → transaction, parents first)."""

    txid: bytes
    txn: TypecoinTransaction
    carrier: Transaction
    trusted: dict
    policy: int = 1


@dataclasses.dataclass
class World:
    net: RegtestNetwork
    deposit: bytes  # a trivial output locked to the batch server's key
    history: dict  # every honest transaction, by carrier txid
    cases: dict  # fault name → Case

    def trusts(self, trusted) -> ClaimBundle:
        """A true claim whose bundle is exactly ``trusted``."""
        return ClaimBundle(OutPoint(self.deposit, 0), One(), dict(trusted))

    def ledger(self, trusted) -> Ledger:
        """The ledger of an asker who has verified ``trusted``."""
        return verify_claim(self.net.chain, self.trusts(trusted))


@pytest.fixture(scope="module")
def world():
    net = RegtestNetwork()
    issuer = TypecoinClient(net, b"formation-issuer")
    net.fund_wallet(issuer.wallet, blocks=6)
    server_pubkey = TypecoinClient(net, SERVER_SEED).pubkey
    history = {}

    def confirmed(txn):
        carrier = issuer.submit(txn)
        net.confirm(1)
        issuer.sync()
        history[carrier.txid] = txn
        return carrier

    deposit = confirmed(simple_transfer([], [trivial_output(server_pubkey, 600)]))
    upstream = confirmed(simple_transfer([], [trivial_output(issuer.pubkey, 600)]))
    child = confirmed(simple_transfer(
        [issuer.input_for(OutPoint(upstream.txid, 0))],
        [trivial_output(issuer.pubkey, 600)],
    ))
    # True at the tip it was checked against, false in the block that
    # mined it: the next block is stamped with the deadline itself.
    late_txn = option(
        issuer.pubkey, net.chain.tip.block.header.timestamp + 1
    )
    late = issuer.submit(late_txn)
    net.confirm(1)
    issuer.sync()
    good = confirmed(simple_transfer([], [trivial_output(issuer.pubkey, 700)]))
    assert net.chain.confirmations(good.txid) == 1
    # Built and signed, never mined.
    waiting_txn = simple_transfer([], [trivial_output(issuer.pubkey, 800)])
    waiting = build_carrier(net.chain, issuer.wallet, waiting_txn, fee=10_000)

    both = {txid: history[txid] for txid in (deposit.txid, upstream.txid)}
    fake = simple_transfer([], [trivial_output(server_pubkey, 999_999)])
    cases = {
        "not embedded": Case(good.txid, fake, good, both),
        "condition false in the confirming block": Case(
            late.txid, late_txn, late, both
        ),
        "not on the active chain": Case(
            waiting.txid, waiting_txn, waiting, both
        ),
        "under the confirmation policy": Case(
            good.txid, history[good.txid], good, both, policy=2
        ),
        "upstream missing": Case(
            child.txid, history[child.txid], child,
            {deposit.txid: history[deposit.txid]},
        ),
    }
    return World(net, deposit.txid, history, cases)


# What the library says for each fault.  Every door reads the one
# confirmation depth, so each is shown the policy row under a depth of two.
FAULTS = {
    "not embedded": (
        r"^hash embedding check failed: carrier does not embed the"
        r" transaction hash$"
    ),
    "condition false in the confirming block": (
        r"^type check failed: top-level condition before\(\d+\) does not"
        r" hold in this world$"
    ),
    "not on the active chain": rf"^carrier \w+… {ABSENT}$",
    "under the confirmation policy": (
        r"^carrier \w+… has 1 confirmations, policy requires 2$"
    ),
    "upstream missing": (
        r"^type check failed: input \w+…\.0 is not a known Typecoin output$"
    ),
}


# Each door is shown a case and answers (why it refused — None if it did
# not — , the ledger it was given, that ledger as it was before).


def library(world, case):
    given = world.ledger(case.trusted)
    before = copy.deepcopy(given)
    bundle = ClaimBundle(
        OutPoint(case.txid, 0), One(), {case.txid: case.txn}
    )
    try:
        verify_claim(world.net.chain, bundle, base_ledger=given)
    except VerificationError as exc:
        return str(exc), given, before
    return None, given, before


def service(world, case, warm):
    """No ledger is handed over: what the asker trusts rides in the
    bundle.  Warm means the service has already said ``ok`` to what is
    trusted and, where there is one, to the honest transaction under the
    same txid, and is then asked twice."""
    bundle = ClaimBundle(
        OutPoint(case.txid, 0), One(), {**case.trusted, case.txid: case.txn}
    )
    served = VerificationService(world.net.chain)
    try:
        if warm:
            assert served.verify(world.trusts(case.trusted)).status == "ok"
            if case.txid in world.history:
                served.verify(dataclasses.replace(
                    bundle,
                    transactions={
                        **case.trusted, case.txid: world.history[case.txid]
                    },
                ))
            first = served.verify(bundle)
            assert served.verify(bundle) == first
        verdict = served.verify(bundle)
    finally:
        served.close()
    assert verdict.status in ("ok", "invalid")
    return (verdict.detail if verdict.status == "invalid" else None), None, None


def cold_service(world, case):
    return service(world, case, warm=False)


def warm_service(world, case):
    return service(world, case, warm=True)


def auditor(world, case):
    """The auditor builds its own ledger: the one to find unchanged is
    the one it builds without the offending entry.  A store entry with no
    carrier on the chain is its ``unmatched``."""
    store = {**case.trusted, case.txid: case.txn}
    report = audit_chain(world.net.chain, store)
    without = audit_chain(world.net.chain, dict(case.trusted))
    assert without.ok
    reasons = [
        issue.reason for issue in report.issues
        if issue.carrier_txid == case.txid
    ]
    if report.unmatched == [case.txid]:
        reasons.append(f"carrier {case.txid[:8].hex()}… {ABSENT}")
    if not reasons:
        return None, report.ledger, without.ledger
    [reason] = reasons
    assert report.accepted == without.accepted
    return reason, report.ledger, without.ledger


def learn(world, case):
    given = world.ledger(case.trusted)
    before = copy.deepcopy(given)
    client = TypecoinClient(world.net, b"formation-bob", given)
    try:
        client.learn(case.txid, case.txn)
    except VerificationError as exc:
        assert case.txid not in client.known
        return str(exc), given, before
    return None, given, before


def sync(world, case):
    """The client's own submission.  A carrier with no confirmation is
    not refused for good — it stays in ``pending``, and that is the
    answer; one that confirmed and fails the step is spoiled."""
    given = world.ledger(case.trusted)
    before = copy.deepcopy(given)
    client = TypecoinClient(world.net, b"formation-carol", given)
    client.pending[case.txid] = PendingSubmission(case.txn, case.carrier)
    registered = client.sync()
    assert client.sync() == []
    if case.txid in client.pending:
        assert registered == [] and not client.spoiled
        return f"carrier {case.txid[:8].hex()}… {ABSENT}", given, before
    if registered:
        return None, given, before
    assert case.txid not in client.known
    return client.spoiled[case.txid], given, before


def journal_replay(world, case, tmp_path):
    """A restarted batch server whose journal says it withdrew the
    deposit in ``case.txid``, carrying ``case.txn``, and rebound."""
    given = world.ledger(case.trusted)
    before = copy.deepcopy(given)
    deposit = ClaimBundle(
        OutPoint(world.deposit, 0), One(),
        {world.deposit: world.history[world.deposit]},
    )
    records = [
        bytes((batch.DEPOSIT,)) + write_blob(encode_bundle(deposit))
        + write_blob(TypecoinClient(world.net, b"formation-owner").pubkey),
        bytes((batch.WITHDRAW,)) + write_blob(case.txid)
        + write_uint(1) + write_blob(world.deposit) + write_uint(0)
        + write_blob(encode_transaction(case.txn)),
        bytes((batch.REBIND,)) + write_blob(case.txid),
    ]
    journal = tmp_path / "journal.log"
    with open(journal, "wb") as fh:
        write_file_header(fh, JOURNAL_MAGIC)
        for record in records:
            fh.write(encode_record(record))
    try:
        BatchServer(world.net, SERVER_SEED, given, journal_path=str(journal))
    except VerificationError as exc:
        return str(exc), given, before
    return None, given, before


DOORS = [
    library, cold_service, warm_service, auditor, learn, sync, journal_replay
]


@pytest.mark.parametrize("door", DOORS, ids=lambda door: door.__name__)
@pytest.mark.parametrize("fault", FAULTS)
def test_every_door_refuses_names_the_check_and_touches_nothing(
    world, tmp_path, monkeypatch, fault, door
):
    case = world.cases[fault]
    monkeypatch.setattr(verifier, "MIN_CONFIRMATIONS", case.policy)
    said, _, _ = library(world, case)
    assert said is not None and re.search(FAULTS[fault], said)

    extra = (tmp_path,) if door is journal_replay else ()
    reason, ledger, before = door(world, case, *extra)
    assert reason == said
    assert ledger == before
    assert case.txid not in (ledger.transactions if ledger else ())


def test_every_door_admits_the_honest_transaction(world, tmp_path):
    """The sweep's doors can say yes: the same presentations with nothing
    wrong are admitted, by each of them."""
    good = world.cases["not embedded"]
    honest = Case(
        good.txid, world.history[good.txid], good.carrier, good.trusted
    )
    for door in DOORS:
        extra = (tmp_path,) if door is journal_replay else ()
        reason, ledger, before = door(world, honest, *extra)
        assert reason is None, door.__name__
        if ledger is not None and door is not library:
            assert honest.txid in ledger.transactions, door.__name__


def test_spoiled_submission_does_not_hold_up_the_next(world):
    """§5: a transaction whose condition lapsed before it was mined is
    spoiled — ``sync`` says why and goes on to the one after it."""
    late = world.cases["condition false in the confirming block"]
    good = world.cases["not embedded"]
    client = TypecoinClient(world.net, b"formation-dave", world.ledger(late.trusted))
    client.pending[late.txid] = PendingSubmission(late.txn, late.carrier)
    client.pending[good.txid] = PendingSubmission(
        world.history[good.txid], good.carrier
    )
    assert client.sync() == [good.txid]
    assert client.pending == {}
    assert list(client.spoiled) == [late.txid]
    assert re.search(
        FAULTS["condition false in the confirming block"],
        client.spoiled[late.txid],
    )
    assert late.txid not in client.ledger.transactions
