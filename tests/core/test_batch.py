"""Tests for the §3.2 batch-mode credential server."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.transaction import OutPoint
from repro.core.batch import (
    JOURNAL_MAGIC,
    BatchError,
    BatchServer,
    VirtualOutput,
    VirtualTransaction,
    WriteThroughRequired,
    authorize,
)
from repro.core.builder import build_with_payload, simple_transfer
from repro.core.currency import issue_proof, merge_proof, split_proof
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput
from repro.core.verifier import verify_claim
from repro.lf.basis import Basis
from repro.lf.syntax import fresh_name
from repro.logic.conditions import Before, CTrue
from repro.logic.proofterms import (
    IfReturn,
    LolliIntro,
    OneIntro,
    PVar,
    TensorIntro,
)
from repro.lf.syntax import NatLit
from repro.logic.propositions import Lolli, One, Tensor
from repro.lf.walk import convertible
from repro.store.framing import scan_records

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


class TestDeposit:
    def test_deposit_accepted(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        rid = server.deposit(bundle, owner=bank.principal)
        holding = server.query(rid)
        assert holding is not None
        assert convertible(holding.prop, vocab.coin_prop(10))
        assert holding.owner == bank.principal

    def test_deposit_to_wrong_key_rejected(self, net, bank, alice, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        with pytest.raises(BatchError, match="not locked to the server"):
            server.deposit(bundle, owner=alice.principal)

    def test_bogus_claim_rejected(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(11))  # wrong type
        with pytest.raises(BatchError, match="deposit rejected"):
            server.deposit(bundle, owner=bank.principal)


class TestVirtualTransactions:
    def deposited_coin(self, net, bank, server, vocab, amount, owner, sats=600):
        outpoint, _ = issue_to(net, bank, vocab, amount, server.pubkey, sats=sats)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(amount))
        return server.deposit(bundle, owner=owner)

    def test_split_virtually(self, net, bank, server):
        """A batch-mode split costs no fee and confirms instantly."""
        vocab, _, _ = publish_newcoin(net, bank)
        rid = self.deposited_coin(net, bank, server, vocab, 10, bank.principal, sats=1200)
        height_before = net.chain.height
        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[
                VirtualOutput(vocab.coin_prop(4), 600, bank.principal),
                VirtualOutput(vocab.coin_prop(6), 600, bank.principal),
            ],
            proof=LolliIntro(
                "x", vocab.coin_prop(10), split_proof(vocab, 4, 6, PVar("x"))
            ),
        )
        server.transact(vtx, {bank.principal: authorize(bank.key, vtx)})
        holdings = server.holdings_of(bank.principal)
        assert len(holdings) == 2
        # No blocks were mined: batch mode avoided the chain entirely.
        assert net.chain.height == height_before

    def test_unauthorized_spend_rejected(self, net, bank, alice, server):
        vocab, _, _ = publish_newcoin(net, bank)
        rid = self.deposited_coin(net, bank, server, vocab, 10, bank.principal)
        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[VirtualOutput(vocab.coin_prop(10), 600, alice.principal)],
            proof=LolliIntro("x", vocab.coin_prop(10), PVar("x")),
        )
        # Alice signs, but she does not own the resource.
        with pytest.raises(BatchError, match="authorization"):
            server.transact(vtx, {bank.principal: authorize(alice.key, vtx)})
        with pytest.raises(BatchError, match="authorization"):
            server.transact(vtx, {})

    def test_bad_proof_rejected(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        rid = self.deposited_coin(net, bank, server, vocab, 10, bank.principal)
        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[VirtualOutput(vocab.coin_prop(11), 600, bank.principal)],
            proof=LolliIntro("x", vocab.coin_prop(10), PVar("x")),
        )
        with pytest.raises(BatchError, match="proof produces .*, outputs require"):
            server.transact(vtx, {bank.principal: authorize(bank.key, vtx)})

    def test_conditional_requires_write_through(self, net, bank, server):
        """§5: "batch-mode servers must write transactions discharging
        anything other than true through to the blockchain." """
        vocab, _, _ = publish_newcoin(net, bank)
        rid = self.deposited_coin(net, bank, server, vocab, 10, bank.principal)
        from repro.logic.propositions import IfProp

        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[VirtualOutput(vocab.coin_prop(10), 600, bank.principal)],
            proof=LolliIntro(
                "x", vocab.coin_prop(10),
                IfReturn(Before(NatLit(2_000_000_000)), PVar("x")),
            ),
        )
        with pytest.raises(WriteThroughRequired):
            server.transact(vtx, {bank.principal: authorize(bank.key, vtx)})

    def test_double_spend_of_held_resource_rejected(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        rid = self.deposited_coin(net, bank, server, vocab, 10, bank.principal)
        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[VirtualOutput(vocab.coin_prop(10), 600, bank.principal)],
            proof=LolliIntro("x", vocab.coin_prop(10), PVar("x")),
        )
        server.transact(vtx, {bank.principal: authorize(bank.key, vtx)})
        # A *different* transaction spending the same held resource is a
        # double spend.  (Re-notifying the identical one is idempotent;
        # see test_duplicate_notify_is_idempotent.)
        rival = VirtualTransaction(
            inputs=[rid],
            outputs=[
                VirtualOutput(vocab.coin_prop(4), 300, bank.principal),
                VirtualOutput(vocab.coin_prop(6), 300, bank.principal),
            ],
            proof=LolliIntro(
                "x", vocab.coin_prop(10), split_proof(vocab, 4, 6, PVar("x"))
            ),
        )
        with pytest.raises(BatchError, match="no longer held"):
            server.transact(rival, {bank.principal: authorize(bank.key, rival)})

    def test_duplicate_notify_is_idempotent(self, net, bank, server):
        """At-least-once delivery: re-notifying the identical transaction
        returns the original id instead of a double-spend failure."""
        vocab, _, _ = publish_newcoin(net, bank)
        rid = self.deposited_coin(net, bank, server, vocab, 10, bank.principal)
        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[VirtualOutput(vocab.coin_prop(10), 600, bank.principal)],
            proof=LolliIntro("x", vocab.coin_prop(10), PVar("x")),
        )
        auth = {bank.principal: authorize(bank.key, vtx)}
        first = server.transact(vtx, auth)
        assert server.transact(vtx, auth) == first
        # Exactly one spend happened: the input is consumed once, the
        # output set was created once.
        assert len(server.holdings_of(bank.principal)) == 1


class TestWithdraw:
    def test_withdraw_direct_holding(self, net, bank, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        rid = server.deposit(bundle, owner=bank.principal)
        carrier = server.withdraw(rid, bank.pubkey)
        net.confirm(1)
        server.sync()
        entry = server.client.ledger.output(carrier.txid, 0)
        assert convertible(entry.prop, vocab.coin_prop(10))
        assert entry.principal == bank.principal
        assert server.query(rid) is None

    def test_withdraw_after_virtual_history(self, net, bank, alice, server):
        """Deposit, split virtually, pay Alice virtually, Alice withdraws.

        The single on-chain transaction the server writes batches the whole
        virtual history, routes Alice's coin to her key and the rest back
        to the server (§3.2).
        """
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey, sats=1200)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        rid = server.deposit(bundle, owner=bank.principal)

        split_vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[
                VirtualOutput(vocab.coin_prop(4), 600, alice.principal),
                VirtualOutput(vocab.coin_prop(6), 600, bank.principal),
            ],
            proof=LolliIntro(
                "x", vocab.coin_prop(10), split_proof(vocab, 4, 6, PVar("x"))
            ),
        )
        server.transact(
            split_vtx, {bank.principal: authorize(bank.key, split_vtx)}
        )
        alice_rid = next(iter(server.holdings_of(alice.principal)))

        carrier = server.withdraw(alice_rid, alice.pubkey)
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
        # The bank's remaining coin is still held (rebound to the new txout).
        bank_holdings = server.holdings_of(bank.principal)
        assert len(bank_holdings) == 1
        assert convertible(
            next(iter(bank_holdings.values())).prop, vocab.coin_prop(6)
        )

    def test_withdrawn_output_verifiable_by_third_party(self, net, bank, alice, server):
        """The withdrawn txout passes the full §3 claim protocol."""
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        rid = server.deposit(bundle, owner=bank.principal)
        carrier = server.withdraw(rid, bank.pubkey)
        net.confirm(1)
        server.sync()
        claim = server.client.claim_bundle(
            OutPoint(carrier.txid, 0), vocab.coin_prop(10)
        )
        verify_claim(net.chain, claim)

    def test_withdraw_wrong_owner_key_rejected(self, net, bank, alice, server):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        rid = server.deposit(bundle, owner=bank.principal)
        with pytest.raises(BatchError, match="does not match the owner"):
            server.withdraw(rid, alice.pubkey)


class TestJournal:
    """Durable journal: crash-restart recovery without double-discharge."""

    def _journaled_world(self, net, bank, journal, fund=True):
        from repro.core.validate import Ledger

        server = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        if fund:
            net.fund_wallet(server.client.wallet)
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey, sats=1200)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        rid = server.deposit(bundle, owner=bank.principal)
        vtx = VirtualTransaction(
            inputs=[rid],
            outputs=[
                VirtualOutput(vocab.coin_prop(4), 600, bank.principal),
                VirtualOutput(vocab.coin_prop(6), 600, bank.principal),
            ],
            proof=LolliIntro(
                "x", vocab.coin_prop(10), split_proof(vocab, 4, 6, PVar("x"))
            ),
        )
        server.transact(vtx, {bank.principal: authorize(bank.key, vtx)})
        return server, vocab

    def test_nothing_mutates_until_the_carrier_is_handed_to_the_network(
        self, net, bank, tmp_path
    ):
        """A withdrawal whose submission is refused — the server's wallet
        cannot pay the fee — leaves the server as it was."""
        from repro.core.overlay import OverlayError

        journal = tmp_path / "journal.log"
        server, _ = self._journaled_world(net, bank, journal, fund=False)
        target = sorted(server.holdings_of(bank.principal))[0]
        journaled = journal.read_bytes()
        with pytest.raises(OverlayError, match="insufficient funds"):
            server.withdraw(target, bank.pubkey)
        # Nothing mutated, nothing journaled: the resource is still held
        # and a retry once the wallet is funded succeeds.
        assert server.query(target) is not None
        assert server._pending_rebind is None
        assert journal.read_bytes() == journaled
        net.fund_wallet(server.client.wallet)
        assert server.withdraw(target, bank.pubkey) is not None
        assert server.query(target) is None

    def test_restart_replays_without_double_discharge(
        self, net, bank, tmp_path
    ):
        from repro.core.validate import Ledger

        journal = tmp_path / "journal.log"
        server, vocab = self._journaled_world(net, bank, journal)
        target = sorted(server.holdings_of(bank.principal))[0]
        server.withdraw(target, bank.pubkey)

        # Crash BEFORE the carrier confirms: the restarted server knows
        # the resource was withdrawn and must not re-submit the carrier.
        restarted = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        assert restarted.query(target) is None
        net.confirm(1)
        restarted.sync()  # adopts the carrier, rebinds the survivor
        holdings = restarted.holdings_of(bank.principal)
        assert len(holdings) == 1
        assert convertible(
            next(iter(holdings.values())).prop, vocab.coin_prop(6)
        )
        with pytest.raises(BatchError):
            restarted.withdraw(target, bank.pubkey)  # no double-discharge
        resource_count = len(restarted._resources)
        restarted.sync()  # idempotent: no duplicate rebind
        assert len(restarted._resources) == resource_count

        # Crash AFTER the sync: the rebind record replays to the same state.
        again = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        assert sorted(again.holdings_of(bank.principal)) == sorted(holdings)
        assert not again._recovered_pending
        assert again._pending_rebind is None
        assert again._next_id == restarted._next_id
        again.sync()
        assert sorted(again.holdings_of(bank.principal)) == sorted(holdings)

    def test_torn_journal_tail_is_tolerated(self, net, bank, tmp_path):
        from repro.core.validate import Ledger

        journal = tmp_path / "journal.log"
        server, _ = self._journaled_world(net, bank, journal)
        expected = sorted(server.holdings_of(bank.principal))
        with open(journal, "ab") as fh:
            fh.write(b'{"op": "tran')  # crash mid-append
        restarted = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        assert sorted(restarted.holdings_of(bank.principal)) == expected

    @staticmethod
    def _split_three(server, bank, vocab):
        """Split resource 3 (coin 4) into coins 1 and 3; returns the vtx id."""
        vtx = VirtualTransaction(
            inputs=[3],
            outputs=[
                VirtualOutput(vocab.coin_prop(1), 300, bank.principal),
                VirtualOutput(vocab.coin_prop(3), 300, bank.principal),
            ],
            proof=LolliIntro(
                "x", vocab.coin_prop(4), split_proof(vocab, 1, 3, PVar("x"))
            ),
        )
        return server.transact(vtx, {bank.principal: authorize(bank.key, vtx)})

    def test_a_record_appended_after_a_torn_tail_survives_the_next_restart(
        self, net, bank, tmp_path
    ):
        """Crash mid-append, restart, split resource 3, restart again.  The
        split was accepted and made durable, so the second restart must
        hold its outputs and not resource 3.  Appended onto the torn
        fragment, the split's record was dropped with it at the next
        replay: holdings read [3, 4], and resource 3, consumed by the
        split, could be spent a second time."""
        from repro.core.validate import Ledger

        journal = tmp_path / "journal.log"
        server, vocab = self._journaled_world(net, bank, journal)
        assert sorted(server.holdings_of(bank.principal)) == [3, 4]
        with open(journal, "ab") as fh:
            fh.write(b'{"op": "tran')  # crash mid-append
        restarted = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        assert self._split_three(restarted, bank, vocab) == 5
        assert sorted(restarted.holdings_of(bank.principal)) == [4, 6, 7]

        again = BatchServer(
            net, b"batch-server", Ledger(), journal_path=str(journal)
        )
        assert sorted(again.holdings_of(bank.principal)) == [4, 6, 7]
        assert again.query(3) is None
        assert again._next_id == restarted._next_id

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b'{"no_op": 1}',
            b"[1, 2]",
            b'{"op": "withdraw", "resource": 999, "live": [], "carrier": "00",'
            b' "txn": "", "bindings": []}',
            b'{"op": "transact", "inputs": [3], "outputs": [["zz", 600, "00"]],'
            b' "proof": "6c", "auth": {}}',
            b'{"op": "mint"}',
            b"[" * 200_000,
        ],
        ids=[
            "not-json", "no-op", "not-an-object", "unknown-resource",
            "non-hex-proposition", "unknown-op", "deep-nesting",
        ],
    )
    def test_an_intact_record_that_cannot_be_replayed_is_refused_by_offset(
        self, net, bank, tmp_path, payload
    ):
        """A record whose CRC holds but whose payload the server cannot
        replay raised a raw ``JSONDecodeError`` / ``KeyError`` /
        ``TypeError`` / ``ValueError`` out of the constructor.  It is a
        ``BatchError`` naming where the record starts, and the journal is
        left as it was: skipping the record could forget a consumption."""
        from repro.core.validate import Ledger
        from repro.store.framing import encode_record

        journal = tmp_path / "journal.log"
        self._journaled_world(net, bank, journal)
        offset = journal.stat().st_size
        with open(journal, "ab") as fh:
            fh.write(encode_record(payload))
        written = journal.read_bytes()
        with pytest.raises(BatchError, match=f"record at offset {offset} "):
            BatchServer(net, b"batch-server", Ledger(), journal_path=str(journal))
        assert journal.read_bytes() == written

    def test_an_edited_intact_record_replays_or_is_refused_by_offset(
        self, net, bank, tmp_path
    ):
        """Any edit of a recorded payload, re-framed under a valid CRC,
        either replays or is refused with a ``BatchError`` naming the
        offset of that record or a later one (an edited deposit can leave
        the transact after it unreplayable) — never a raw exception — and
        a refused journal is left as it was."""
        from repro.core.validate import Ledger
        from repro.store.framing import encode_record, write_file_header

        journal = tmp_path / "journal.log"
        self._journaled_world(net, bank, journal)
        payloads = [p for _, p in scan_records(journal, JOURNAL_MAGIC).records]
        header = journal.read_bytes()[: write_file_header(io.BytesIO(), JOURNAL_MAGIC)]

        @settings(max_examples=400, deadline=None, database=None)
        @given(
            which=st.integers(0, len(payloads) - 1),
            at=st.integers(0, 1 << 16),
            cut=st.integers(0, 6),
            # Hex digits keep an edit inside a field's hex often enough to
            # reach the wire decoders and re-verification.
            insert=st.binary(max_size=6)
            | st.text("0123456789abcdef", max_size=6).map(str.encode),
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
                BatchServer(net, b"batch-server", Ledger(), journal_path=str(journal))
            except BatchError as exc:
                assert any(f"record at offset {o} " in str(exc) for o in offsets)
                assert journal.read_bytes() == data

        replay_edited()

    def _last_record(self, kind, net, bank, journal):
        """A journal whose last record is ``kind``.  Returns the server,
        what the operation that wrote that record returned, the operation
        itself (to ask again after a tear), and the holdings before and
        after it."""
        server, vocab = self._journaled_world(net, bank, journal)
        if kind == "deposit":
            outpoint, _ = issue_to(net, bank, vocab, 7, server.pubkey)
            bundle = bank.claim_bundle(outpoint, vocab.coin_prop(7))
            ask = lambda s: s.deposit(bundle, owner=bank.principal)
            before, after = [3, 4], [3, 4, 5]
        elif kind == "transact":
            ask = lambda s: self._split_three(s, bank, vocab)
            before, after = [3, 4], [4, 6, 7]
        elif kind == "withdraw":
            ask = lambda s: s.withdraw(3, bank.pubkey)
            before, after = [3, 4], None
        else:  # rebind: the sync after a withdrawal's carrier confirms
            server.withdraw(3, bank.pubkey)
            net.confirm(1)
            ask = lambda s: s.sync()
            before, after = [], [5]
        return server, ask(server), ask, before, after

    @staticmethod
    def _assert_nothing_held_twice(server, net, root, carrier):
        """The root the withdrawal spent is spent by its one carrier, and no
        two resources the server holds share a backing."""
        assert net.chain.spender_of(root) == carrier.txid
        held = [
            r for r in server._resources.values()
            if r.consumed_by is None and not r.withdrawn
        ]
        backings = [r.onchain or r.virtual for r in held]
        assert len(backings) == len(set(backings))

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
        has one spender and nothing is held twice.  (The resource stays
        "held" with its root spent — docs/persistence.md.)"""
        from repro.bitcoin.mempool import MempoolError
        from repro.core.validate import Ledger

        journal = tmp_path / "journal.log"
        server, result, ask, before, after = self._last_record(
            kind, net, bank, journal
        )
        records = scan_records(journal, JOURNAL_MAGIC).records
        data = bytearray(journal.read_bytes())
        if mode == "truncate":
            del data[(records[-1][0] + len(data)) // 2 :]
        else:
            data[-1] ^= 0xFF
        journal.write_bytes(bytes(data))

        def restart():
            return BatchServer(
                net, b"batch-server", Ledger(), journal_path=str(journal)
            )

        restarted = restart()
        assert sorted(restarted.holdings_of(bank.principal)) == before
        # The restart cut the file back to its intact records.
        scan = scan_records(journal, JOURNAL_MAGIC)
        assert len(scan.records) == len(records) - 1 and scan.truncated_bytes == 0

        if kind == "withdraw":
            root = restarted._resources[1].onchain
            if append:
                cut = journal.read_bytes()
                with pytest.raises(MempoolError, match="already in mempool"):
                    ask(restarted)
                assert journal.read_bytes() == cut
            net.confirm(1)
            for replica in (restarted, restart()):
                replica.sync()
                self._assert_nothing_held_twice(replica, net, root, result)
            return
        if append:
            ask(restarted)
            assert sorted(restarted.holdings_of(bank.principal)) == after
        again = restart()
        assert sorted(again.holdings_of(bank.principal)) == (
            after if append else before
        )
        assert again._next_id == restarted._next_id




class TestAmountsAndOwners:
    """A batch resource's amount and owner are refused when malformed, as
    ``TypecoinOutput`` refuses its fields: a negative amount reached the
    payload encoder as a raw ``ValueError``, and an owner no key hashes
    to stranded the resource it was credited."""

    def test_a_negative_output_amount_is_refused(self, bank):
        with pytest.raises(BatchError, match="non-negative"):
            VirtualOutput(One(), -400, bank.principal)

    @pytest.mark.parametrize(
        "owner", [b"", b"\x01", b"\x01" * 21], ids=["empty", "one-byte", "21-bytes"]
    )
    def test_an_owner_that_is_not_a_principal_is_refused(
        self, net, bank, server, owner
    ):
        with pytest.raises(BatchError, match="20-byte principals"):
            VirtualOutput(One(), 600, owner)
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, server.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        with pytest.raises(BatchError, match="20-byte principals"):
            server.deposit(bundle, owner=owner)
        assert server._resources == {}
        # The same bundle is accepted for a real owner.
        assert server.deposit(bundle, owner=bank.principal) == 1
