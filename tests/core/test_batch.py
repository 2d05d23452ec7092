"""Tests for the §3.2 batch-mode credential server."""

import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.transaction import OutPoint
from repro.core import batch
from repro.core.batch import (
    JOURNAL_MAGIC,
    BatchError,
    BatchServer,
    WriteThroughRequired,
    authorize,
)
from repro.core.builder import build_with_payload
from repro.core.currency import issue_proof, split_proof
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TxnError, TypecoinOutput, TypecoinTransaction
from repro.core.validate import Ledger
from repro.core.verifier import verify_claim
from repro.core.wire import encode_bundle
from repro.lf.basis import Basis, PropDecl
from repro.lf.syntax import NatLit
from repro.lf.walk import convertible
from repro.logic.codec import MAX_NESTING, encode, write_blob, write_uint
from repro.logic.conditions import Before
from repro.logic.proofterms import IfReturn, LolliIntro, PVar
from repro.logic.propositions import One, Tensor
from repro.store.framing import encode_record, scan_records, write_file_header

from tests.core.conftest import publish_newcoin


@pytest.fixture
def server(net, ledger):
    server = BatchServer(net, b"batch-server", ledger)
    net.fund_wallet(server.client.wallet)
    return server


def issue_to(net, bank, vocab, amount, recipient_pubkey, sats=600):
    """Issue coins straight to a recipient's key; returns the outpoint."""
    out = TypecoinOutput(vocab.coin_prop(amount), sats, recipient_pubkey)
    txn = build_with_payload(
        Basis(), One(), [], [out],
        lambda payload: obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: tensor_intro_all([
                issue_proof(
                    vocab, amount,
                    bank.affirm_affine(vocab.print_prop(amount), payload),
                )
            ]),
        ),
    )
    carrier = bank.submit(txn)
    net.confirm(1)
    bank.sync()
    return OutPoint(carrier.txid, 0), txn


def deposited_coin(net, bank, server, vocab, amount, owner, sats=600):
    """A coin issued to the server and deposited for ``owner``'s key."""
    outpoint, _ = issue_to(net, bank, vocab, amount, server.pubkey, sats=sats)
    bundle = bank.claim_bundle(outpoint, vocab.coin_prop(amount))
    return server.deposit(bundle, owner)


def virtual(server, spent, outputs, proof, basis=None, grant=None):
    """A virtual transaction spending the held resources ``spent``."""
    return TypecoinTransaction(
        basis or Basis(), grant or One(),
        [server.input_for(outpoint) for outpoint in spent], outputs, proof,
    )


def split(server, vocab, held, whole, left, right, left_key, right_key, sats):
    """Split coin ``whole`` held at ``held`` into ``left`` and ``right``."""
    return virtual(
        server, [held],
        [
            TypecoinOutput(vocab.coin_prop(left), sats, left_key),
            TypecoinOutput(vocab.coin_prop(right), sats, right_key),
        ],
        LolliIntro(
            "x", vocab.coin_prop(whole), split_proof(vocab, left, right, PVar("x"))
        ),
    )


def keep(server, vocab, held, amount, key, sats=600):
    """Spend coin ``amount`` held at ``held`` into the same coin for ``key``."""
    return virtual(
        server, [held], [TypecoinOutput(vocab.coin_prop(amount), sats, key)],
        LolliIntro("x", vocab.coin_prop(amount), PVar("x")),
    )


def by(owner, txn):
    return {owner.principal: authorize(owner.key, txn)}


class TestDeposit:
    def test_deposit_accepted(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        assert server.deposit(bundle, bank.pubkey) == outpoint
        holding = server.query(outpoint)
        assert holding is not None
        assert convertible(holding.prop, vocab.coin_prop(10))
        assert holding.recipient_pubkey == bank.pubkey

    def test_deposit_to_wrong_key_rejected(self, net, bank, alice, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        with pytest.raises(BatchError, match="not locked to the server"):
            server.deposit(bundle, alice.pubkey)

    def test_bogus_claim_rejected(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(11))  # wrong type
        with pytest.raises(BatchError, match="deposit rejected"):
            server.deposit(bundle, bank.pubkey)

    def test_an_outpoint_is_deposited_once(self, net, bank, alice, server):
        """A deposit is named by its carrier outpoint, so depositing the
        same bundle again is refused, for any owner.  With counter ids the
        second deposit was a second holding of the one txout."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        bundle = bank.claim_bundle(held, vocab.coin_prop(10))
        with pytest.raises(BatchError, match="already deposited"):
            server.deposit(bundle, alice.pubkey)
        assert server.holdings_of(bank.principal).keys() == {held}
        assert server.holdings_of(alice.principal) == {}


class TestVirtualTransactions:
    def test_split_virtually(self, net, bank, server):
        """A batch-mode split costs no fee and confirms instantly; its
        outputs are named by the transaction's hash."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey, sats=1200)
        height_before = net.chain.height
        txn = split(server, vocab, held, 10, 4, 6, bank.pubkey, bank.pubkey, 600)
        assert server.transact(txn, by(bank, txn)) == txn.hash
        holdings = server.holdings_of(bank.principal)
        assert holdings == {
            OutPoint(txn.hash, 0): txn.outputs[0],
            OutPoint(txn.hash, 1): txn.outputs[1],
        }
        # No blocks were mined: batch mode avoided the chain entirely.
        assert net.chain.height == height_before

    def test_unauthorized_spend_rejected(self, net, bank, alice, server):
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        txn = keep(server, vocab, held, 10, alice.pubkey)
        # Alice signs, but she does not own the resource.
        with pytest.raises(BatchError, match="authorization"):
            server.transact(txn, {bank.principal: authorize(alice.key, txn)})
        with pytest.raises(BatchError, match="authorization"):
            server.transact(txn, {})

    def test_bad_proof_rejected(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        txn = virtual(
            server, [held], [TypecoinOutput(vocab.coin_prop(11), 600, bank.pubkey)],
            LolliIntro("x", vocab.coin_prop(10), PVar("x")),
        )
        with pytest.raises(BatchError, match="proof produces .*, outputs require"):
            server.transact(txn, by(bank, txn))

    def test_conditional_requires_write_through(self, net, bank, server):
        """§5: "batch-mode servers must write transactions discharging
        anything other than true through to the blockchain." """
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        txn = virtual(
            server, [held], [TypecoinOutput(vocab.coin_prop(10), 600, bank.pubkey)],
            LolliIntro(
                "x", vocab.coin_prop(10),
                IfReturn(Before(NatLit(2_000_000_000)), PVar("x")),
            ),
        )
        with pytest.raises(WriteThroughRequired):
            server.transact(txn, by(bank, txn))

    @pytest.mark.parametrize("form", ["basis", "grant", "assert"])
    def test_a_form_bound_to_a_carrier_requires_write_through(
        self, net, bank, server, form
    ):
        """A local basis, a grant and an affine ``assert`` each belong to
        one on-chain transaction: the server refuses them before judging
        anything, and holds what it held."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        coin = vocab.coin_prop(10)
        basis, grant, proof = None, None, LolliIntro("x", coin, PVar("x"))
        if form == "basis":
            basis = Basis()
            basis.declare_local("token", PropDecl(One()))
        elif form == "grant":
            grant = coin
        else:
            proof = LolliIntro("x", coin, bank.affirm_affine(coin, b"payload"))
        txn = virtual(
            server, [held], [TypecoinOutput(coin, 600, bank.pubkey)], proof,
            basis=basis, grant=grant,
        )
        with pytest.raises(WriteThroughRequired, match="write through"):
            server.transact(txn, by(bank, txn))
        assert server.holdings_of(bank.principal).keys() == {held}

    def test_double_spend_of_held_resource_rejected(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        txn = keep(server, vocab, held, 10, bank.pubkey)
        rival = split(server, vocab, held, 10, 4, 6, bank.pubkey, bank.pubkey, 300)
        server.transact(txn, by(bank, txn))
        # A *different* transaction spending the same held resource is a
        # double spend.  (Re-notifying the identical one is idempotent;
        # see test_duplicate_notify_is_idempotent.)
        with pytest.raises(BatchError, match="is not held"):
            server.transact(rival, by(bank, rival))

    def test_duplicate_notify_is_idempotent(self, net, bank, server):
        """At-least-once delivery: re-notifying the identical transaction
        returns its hash instead of a double-spend failure."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        txn = keep(server, vocab, held, 10, bank.pubkey)
        auth = by(bank, txn)
        first = server.transact(txn, auth)
        assert server.transact(txn, auth) == first
        # Exactly one spend happened: the input is consumed once, the
        # output set was created once.
        assert list(server.holdings_of(bank.principal)) == [OutPoint(first, 0)]

    def test_an_input_named_twice_is_refused(self, net, bank, server):
        """One held resource named as two inputs is refused.  With counter
        ids a coin 10 spent as ``coin 10 ⊗ coin 10`` came out as two."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        coin = vocab.coin_prop(10)
        txn = virtual(
            server, [held, held],
            [TypecoinOutput(coin, 600, bank.pubkey)] * 2,
            LolliIntro("x", Tensor(coin, coin), PVar("x")),
        )
        with pytest.raises(BatchError, match="names an input twice"):
            server.transact(txn, by(bank, txn))
        assert server.holdings_of(bank.principal).keys() == {held}

    @pytest.mark.parametrize("misstated", ["amount", "type"])
    def test_an_input_must_be_the_resource_held_there(
        self, net, bank, server, misstated
    ):
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        inp = server.input_for(held)
        inp = dataclasses.replace(
            inp, **{"amount": 700} if misstated == "amount"
            else {"prop": vocab.coin_prop(11)}
        )
        txn = TypecoinTransaction(
            Basis(), One(), [inp],
            [TypecoinOutput(inp.prop, inp.amount, bank.pubkey)],
            LolliIntro("x", inp.prop, PVar("x")),
        )
        with pytest.raises(BatchError, match="is not the resource held there"):
            server.transact(txn, by(bank, txn))


class TestWithdraw:
    def test_withdraw_direct_holding(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        carrier = server.withdraw(held)
        net.confirm(1)
        server.sync()
        entry = server.client.ledger.output(carrier.txid, 0)
        assert convertible(entry.prop, vocab.coin_prop(10))
        assert entry.principal == bank.principal
        assert server.query(held) is None

    def test_withdraw_after_virtual_history(self, net, bank, alice, server):
        """Deposit, split virtually, pay Alice virtually, Alice withdraws.

        The single on-chain transaction the server writes batches the whole
        virtual history, routes Alice's coin to her key and the rest back
        to the server (§3.2).
        """
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey, sats=1200)
        txn = split(server, vocab, held, 10, 4, 6, alice.pubkey, bank.pubkey, 600)
        server.transact(txn, by(bank, txn))
        [alice_coin] = server.holdings_of(alice.principal)

        carrier = server.withdraw(alice_coin)
        net.confirm(1)
        server.sync()

        # Output 0: Alice's coin 4.  Output 1: the bank's coin 6, back
        # under the server's key.
        entry0 = server.client.ledger.output(carrier.txid, 0)
        assert convertible(entry0.prop, vocab.coin_prop(4))
        assert entry0.principal == alice.principal
        entry1 = server.client.ledger.output(carrier.txid, 1)
        assert convertible(entry1.prop, vocab.coin_prop(6))
        assert entry1.principal == server.principal
        # The bank's remaining coin is still held, named by the carrier's
        # output it was routed back through.
        assert server.holdings_of(bank.principal) == {
            OutPoint(carrier.txid, 1): txn.outputs[1]
        }

    def test_withdrawn_output_verifiable_by_third_party(self, net, bank, alice, server):
        """The withdrawn txout passes the full §3 claim protocol."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, bank.pubkey)
        carrier = server.withdraw(held)
        net.confirm(1)
        server.sync()
        claim = server.client.claim_bundle(
            OutPoint(carrier.txid, 0), vocab.coin_prop(10)
        )
        verify_claim(net.chain, claim)

    def test_two_withdrawals_before_a_sync_both_rebind(self, net, bank, server):
        """Each withdrawal's routed-back resources wait under its own
        carrier.  One pending slot lost the first withdrawal's coin 6 when
        the second withdrawal overwrote it."""
        vocab, _, _ = publish_newcoin(net, bank)
        net.fund_wallet(server.client.wallet)
        fours, sixes = [], []
        for _ in range(2):
            held = deposited_coin(
                net, bank, server, vocab, 10, bank.pubkey, sats=1200
            )
            txn = split(server, vocab, held, 10, 4, 6, bank.pubkey, bank.pubkey, 600)
            server.transact(txn, by(bank, txn))
            fours.append(OutPoint(txn.hash, 0))
            sixes.append(txn.outputs[1])
        carriers = [server.withdraw(four).txid for four in fours]
        net.confirm(1)
        server.sync()
        assert server.holdings_of(bank.principal) == {
            OutPoint(carrier, 1): six for carrier, six in zip(carriers, sixes)
        }

    def test_withdraw_pays_the_key_the_holding_names(self, net, bank, alice, server):
        """A withdrawal takes no key: the resource goes to the key it was
        deposited for, whoever asks."""
        vocab, _, _ = publish_newcoin(net, bank)
        held = deposited_coin(net, bank, server, vocab, 10, alice.pubkey)
        carrier = server.withdraw(held)
        [withdrawal] = [p.txn for p in server.client.pending.values()]
        assert withdrawal.outputs[0].recipient_pubkey == alice.pubkey
        net.confirm(1)
        server.sync()
        assert server.client.ledger.output(carrier.txid, 0).principal == (
            alice.principal
        )


@dataclasses.dataclass
class Journaled:
    """A journaled server that deposited coin 10 (``root``) for the bank
    and split it virtually into coin 4 and coin 6 (``split``'s outputs)."""

    server: BatchServer
    vocab: object
    root: OutPoint
    split: bytes

    @property
    def coin4(self) -> OutPoint:
        return OutPoint(self.split, 0)

    @property
    def coin6(self) -> OutPoint:
        return OutPoint(self.split, 1)


def restart(net, journal) -> BatchServer:
    return BatchServer(net, b"batch-server", Ledger(), journal_path=str(journal))


class TestJournal:
    """Durable journal: crash-restart recovery without double-discharge."""

    def _journaled_world(self, net, bank, journal, fund=True) -> Journaled:
        server = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        if fund:
            net.fund_wallet(server.client.wallet)
        vocab, _, _ = publish_newcoin(net, bank)
        root = deposited_coin(net, bank, server, vocab, 10, bank.pubkey, sats=1200)
        txn = split(server, vocab, root, 10, 4, 6, bank.pubkey, bank.pubkey, 600)
        server.transact(txn, by(bank, txn))
        return Journaled(server, vocab, root, txn.hash)

    def test_nothing_mutates_until_the_carrier_is_handed_to_the_network(
        self, net, bank, tmp_path
    ):
        """A withdrawal whose submission is refused — the server's wallet
        cannot pay the fee — leaves the server as it was."""
        from repro.core.overlay import OverlayError

        journal = tmp_path / "journal.log"
        world = self._journaled_world(net, bank, journal, fund=False)
        server = world.server
        journaled = journal.read_bytes()
        with pytest.raises(OverlayError, match="insufficient funds"):
            server.withdraw(world.coin4)
        # Nothing mutated, nothing journaled: the resource is still held
        # and a retry once the wallet is funded succeeds.
        assert server.query(world.coin4) is not None
        assert server._rebinds == {}
        assert journal.read_bytes() == journaled
        net.fund_wallet(server.client.wallet)
        assert server.withdraw(world.coin4) is not None
        assert server.query(world.coin4) is None

    def test_restart_replays_without_double_discharge(
        self, net, bank, tmp_path
    ):
        journal = tmp_path / "journal.log"
        world = self._journaled_world(net, bank, journal)
        carrier = world.server.withdraw(world.coin4)

        # Crash BEFORE the carrier confirms: the restarted server knows
        # the resource was withdrawn and must not re-submit the carrier.
        restarted = restart(net, journal)
        assert restarted.query(world.coin4) is None
        net.confirm(1)
        restarted.sync()  # adopts the carrier, rebinds the survivor
        holdings = restarted.holdings_of(bank.principal)
        assert list(holdings) == [OutPoint(carrier.txid, 1)]
        assert convertible(holdings[OutPoint(carrier.txid, 1)].prop, world.vocab.coin_prop(6))
        with pytest.raises(BatchError):
            restarted.withdraw(world.coin4)  # no double-discharge
        resources = dict(restarted._holdings)
        restarted.sync()  # idempotent: no duplicate rebind
        assert restarted._holdings == resources

        # Crash AFTER the sync: the rebind record replays to the same state.
        again = restart(net, journal)
        assert again.holdings_of(bank.principal) == holdings
        assert not again._recovered_pending
        assert again._rebinds == {}
        assert again._holdings == restarted._holdings
        again.sync()
        assert again.holdings_of(bank.principal) == holdings

    def test_torn_journal_tail_is_tolerated(self, net, bank, tmp_path):
        journal = tmp_path / "journal.log"
        world = self._journaled_world(net, bank, journal)
        expected = world.server.holdings_of(bank.principal)
        with open(journal, "ab") as fh:
            fh.write(encode_record(bytes((batch.TRANSACT,)) + b"torn")[:-2])
        restarted = restart(net, journal)
        assert restarted.holdings_of(bank.principal) == expected

    @staticmethod
    def _split_four(world, bank):
        """Split coin 4 into coins 1 and 3; returns the split's hash."""
        server = world.server
        txn = split(
            server, world.vocab, world.coin4, 4, 1, 3, bank.pubkey, bank.pubkey, 300
        )
        return server.transact(txn, by(bank, txn))

    def test_a_record_appended_after_a_torn_tail_survives_the_next_restart(
        self, net, bank, tmp_path
    ):
        """Crash mid-append, restart, split coin 4, restart again.  The
        split was accepted and made durable, so the second restart must
        hold its outputs and not coin 4.  Appended onto the torn fragment,
        the split's record was dropped with it at the next replay: coin 4,
        consumed by the split, came back as held and could be spent a
        second time."""
        journal = tmp_path / "journal.log"
        world = self._journaled_world(net, bank, journal)
        assert set(world.server.holdings_of(bank.principal)) == {
            world.coin4, world.coin6
        }
        with open(journal, "ab") as fh:
            fh.write(encode_record(bytes((batch.TRANSACT,)) + b"torn")[:-2])
        world.server = restart(net, journal)
        name = self._split_four(world, bank)
        after = {world.coin6, OutPoint(name, 0), OutPoint(name, 1)}
        assert set(world.server.holdings_of(bank.principal)) == after

        again = restart(net, journal)
        assert set(again.holdings_of(bank.principal)) == after
        assert again.query(world.coin4) is None
        assert again._holdings == world.server._holdings

    @staticmethod
    def _deep_transaction() -> bytes:
        """A transaction whose grant nests one level past the decoder's
        bound: ``1 ⊗ (1 ⊗ (… ⊗ 1))``."""
        tensor, one = encode(Tensor(One(), One()))[:2]
        depth = MAX_NESTING + 1
        return (
            b"typecoin-txn:" + write_uint(0)
            + bytes((tensor,)) * depth + bytes((one,)) * (depth + 1)
        )

    def _unreplayable(self, case, world, bank, net, records):
        """The record ``case`` names: every kind this server writes, made
        unreplayable in one way."""
        stranger = b"\x07" * 32
        if case == "empty":
            return b""
        if case == "unknown-kind":
            return bytes((9,))
        if case == "trailing-bytes":
            return records[-1] + b"\x00"
        if case == "deposited-again":
            return records[0]
        if case == "owner-not-a-key":
            outpoint, _ = issue_to(net, bank, world.vocab, 7, world.server.pubkey)
            bundle = bank.claim_bundle(outpoint, world.vocab.coin_prop(7))
            return (
                bytes((batch.DEPOSIT,)) + write_blob(encode_bundle(bundle))
                + write_blob(bank.principal)
            )
        if case == "forged-authorization":
            txn = keep(world.server, world.vocab, world.coin4, 4, bank.pubkey)
            return (
                bytes((batch.TRANSACT,)) + write_blob(txn.serialize())
                + write_uint(1) + write_blob(bank.pubkey) + write_blob(bytes(64))
            )
        if case == "deep-nesting":
            return (
                bytes((batch.TRANSACT,)) + write_blob(self._deep_transaction())
                + write_uint(0)
            )
        if case == "unknown-resource":
            txn = keep(world.server, world.vocab, world.coin4, 4, bank.pubkey)
            return (
                bytes((batch.WITHDRAW,)) + write_blob(stranger) + write_uint(1)
                + write_blob(stranger) + write_uint(0)
                + write_blob(txn.serialize())
            )
        assert case == "rebind-without-withdrawal"
        return bytes((batch.REBIND,)) + write_blob(stranger)

    @pytest.mark.parametrize(
        "case",
        [
            "empty", "unknown-kind", "trailing-bytes", "deposited-again",
            "owner-not-a-key", "forged-authorization", "deep-nesting",
            "unknown-resource", "rebind-without-withdrawal",
        ],
    )
    def test_an_intact_record_that_cannot_be_replayed_is_refused_by_offset(
        self, net, bank, tmp_path, case
    ):
        """A record whose CRC holds but whose payload the server cannot
        replay is a ``BatchError`` naming where the record starts, and the
        journal is left as it was: skipping the record could forget a
        consumption.  With JSON records the same faults raised a raw
        ``JSONDecodeError`` / ``KeyError`` / ``TypeError`` /
        ``RecursionError``; the codec refuses each with a
        ``DecodingError``."""
        journal = tmp_path / "journal.log"
        world = self._journaled_world(net, bank, journal)
        records = [p for _, p in scan_records(journal, JOURNAL_MAGIC).records]
        payload = self._unreplayable(case, world, bank, net, records)
        offset = journal.stat().st_size
        with open(journal, "ab") as fh:
            fh.write(encode_record(payload))
        written = journal.read_bytes()
        with pytest.raises(BatchError, match=f"record at offset {offset} "):
            restart(net, journal)
        assert journal.read_bytes() == written

    def test_an_edited_intact_record_replays_or_is_refused_by_offset(
        self, net, bank, tmp_path
    ):
        """Any edit of a recorded payload, re-framed under a valid CRC,
        either replays or is refused with a ``BatchError`` naming the
        offset of that record or a later one (an edited deposit can leave
        the transact after it unreplayable) — never a raw exception — and
        a refused journal is left as it was."""
        journal = tmp_path / "journal.log"
        self._journaled_world(net, bank, journal)
        payloads = [p for _, p in scan_records(journal, JOURNAL_MAGIC).records]
        header = journal.read_bytes()[: write_file_header(io.BytesIO(), JOURNAL_MAGIC)]

        @settings(max_examples=400, deadline=None, database=None)
        @given(
            which=st.integers(0, len(payloads) - 1),
            at=st.integers(0, 1 << 16),
            cut=st.integers(0, 6),
            insert=st.binary(max_size=6),
        )
        def replay_edited(which, at, cut, insert):
            payload = payloads[which]
            at %= len(payload) + 1
            framed = [encode_record(p) for p in payloads]
            framed[which] = encode_record(payload[:at] + insert + payload[at + cut :])
            offsets = [
                len(header) + sum(map(len, framed[:index]))
                for index in range(which, len(framed))
            ]
            data = header + b"".join(framed)
            journal.write_bytes(data)
            try:
                restart(net, journal)
            except BatchError as exc:
                assert any(f"record at offset {o} " in str(exc) for o in offsets)
                assert journal.read_bytes() == data

        replay_edited()

    def _last_record(self, kind, net, bank, journal):
        """A journal whose last record is ``kind``.  Returns the world,
        what the operation that wrote that record returned, the operation
        itself (to ask again after a tear), and the holdings before and
        after it."""
        world = self._journaled_world(net, bank, journal)
        server = world.server
        before = {world.coin4, world.coin6}
        if kind == "deposit":
            outpoint, _ = issue_to(net, bank, world.vocab, 7, server.pubkey)
            bundle = bank.claim_bundle(outpoint, world.vocab.coin_prop(7))
            ask = lambda s: s.deposit(bundle, bank.pubkey)
            after = before | {outpoint}
        elif kind == "transact":
            ask = lambda s: self._split_four(dataclasses.replace(world, server=s), bank)
            after = None  # named by the split's hash, once asked
        elif kind == "withdraw":
            ask = lambda s: s.withdraw(world.coin4)
            after = None
        else:  # rebind: the sync after a withdrawal's carrier confirms
            carrier = server.withdraw(world.coin4)
            net.confirm(1)
            ask = lambda s: s.sync()
            before, after = set(), {OutPoint(carrier.txid, 1)}
        result = ask(server)
        if kind == "transact":
            after = {world.coin6, OutPoint(result, 0), OutPoint(result, 1)}
        return world, result, ask, before, after

    @pytest.mark.parametrize("append", [True, False], ids=["append", "no-append"])
    @pytest.mark.parametrize("kind", ["deposit", "transact", "withdraw", "rebind"])
    @pytest.mark.parametrize("mode", ["truncate", "corrupt"])
    def test_a_torn_last_record_costs_that_record_and_nothing_after_it(
        self, net, bank, tmp_path, mode, kind, append
    ):
        """The two ways a death mid-append leaves the last record: cut
        short, or a flipped byte that fails its CRC.  Either way the
        operation it held never became durable: the restart holds what the
        records before it say, and the operation, asked again after the
        restart, is kept through the next one.

        A withdrawal submits its carrier before it writes its record, so
        for it only safety is asserted: asked again, the server rebuilds
        the carrier the mempool already holds; once it confirms, its root
        has that one spender.  (The resource stays "held" with its root
        spent — docs/persistence.md.)"""
        from repro.bitcoin.mempool import MempoolError

        journal = tmp_path / "journal.log"
        world, result, ask, before, after = self._last_record(
            kind, net, bank, journal
        )
        records = scan_records(journal, JOURNAL_MAGIC).records
        data = bytearray(journal.read_bytes())
        if mode == "truncate":
            del data[(records[-1][0] + len(data)) // 2 :]
        else:
            data[-1] ^= 0xFF
        journal.write_bytes(bytes(data))

        restarted = restart(net, journal)
        assert set(restarted.holdings_of(bank.principal)) == before
        # The restart cut the file back to its intact records.
        scan = scan_records(journal, JOURNAL_MAGIC)
        assert len(scan.records) == len(records) - 1 and scan.truncated_bytes == 0

        if kind == "withdraw":
            if append:
                cut = journal.read_bytes()
                with pytest.raises(MempoolError, match="already in mempool"):
                    ask(restarted)
                assert journal.read_bytes() == cut
            net.confirm(1)
            for replica in (restarted, restart(net, journal)):
                replica.sync()
                assert net.chain.spender_of(world.root) == result.txid
            return
        if append:
            ask(restarted)
            assert set(restarted.holdings_of(bank.principal)) == after
        again = restart(net, journal)
        assert set(again.holdings_of(bank.principal)) == (
            after if append else before
        )
        assert again._holdings == restarted._holdings


class TestAmountsAndOwners:
    """A holding's owner is a key, refused when malformed as
    ``TypecoinOutput`` refuses it, before anything is credited: an owner
    no key hashes to would strand the resource it holds."""

    @pytest.mark.parametrize(
        "owner",
        [b"", b"\x01", b"\x01" * 21, b"\x01" * 20],
        ids=["empty", "one-byte", "21-bytes", "a-principal"],
    )
    def test_an_owner_that_is_not_a_principal_is_refused(
        self, net, bank, server, owner
    ):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        with pytest.raises(TxnError, match="33-byte"):
            server.deposit(bundle, owner)
        assert server._holdings == {}
        # The same bundle is accepted for a real owner's key.
        assert server.deposit(bundle, bank.pubkey) == outpoint
