"""The structured event log: schema, ring buffer, sinks, integration."""

import io
import json

import pytest

from repro import obs
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventSchemaError,
    validate_event,
)

pytestmark = pytest.mark.obs


class TestEmit:
    def test_emit_returns_validated_event(self):
        log = EventLog(clock=lambda: 1.5)
        event = log.emit("tx.accepted", txid=b"\xab\xcd", fee=100, size=250)
        assert event.seq == 0
        assert event.ts == 1.5
        assert event.kind == "tx.accepted"
        assert event.data == {"txid": "abcd", "fee": 100, "size": 250}

    def test_sequence_numbers_increase(self):
        log = EventLog()
        first = log.emit("proof.checked", outcome="ok")
        second = log.emit("proof.checked", outcome="ok")
        assert (first.seq, second.seq) == (0, 1)

    def test_unknown_kind_raises(self):
        log = EventLog()
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            log.emit("tx.acepted", txid=b"", fee=0, size=0)

    def test_missing_required_field_raises(self):
        log = EventLog()
        with pytest.raises(EventSchemaError, match="missing payload"):
            log.emit("tx.rejected", txid=b"\x01")

    def test_extra_fields_allowed(self):
        log = EventLog()
        event = log.emit("proof.checked", outcome="ok", carrier="ff")
        assert event.data["carrier"] == "ff"

    def test_bytes_become_hex_and_objects_become_strings(self):
        log = EventLog()
        event = log.emit(
            "tx.rejected", txid=b"\x00\xff", reason=ValueError("bad fee")
        )
        assert event.data == {"txid": "00ff", "reason": "bad fee"}


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.emit("proof.checked", outcome=f"run-{index}")
        assert len(log) == 3
        assert log.dropped == 2
        outcomes = [event.data["outcome"] for event in log.events]
        assert outcomes == ["run-2", "run-3", "run-4"]
        # Sequence numbers keep counting across drops.
        assert [event.seq for event in log.events] == [2, 3, 4]

    def test_capacity_one(self):
        log = EventLog(capacity=1)
        log.emit("proof.checked", outcome="a")
        log.emit("proof.checked", outcome="b")
        assert [e.data["outcome"] for e in log.events] == ["b"]
        assert log.dropped == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_clear_resets_everything(self):
        log = EventLog(capacity=2)
        for _ in range(4):
            log.emit("proof.checked", outcome="ok")
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0
        assert log.emit("proof.checked", outcome="ok").seq == 0


class TestSerialization:
    def test_jsonl_round_trip_validates(self):
        log = EventLog(clock=lambda: 2.0)
        log.emit("tx.accepted", txid=b"\x01", fee=10, size=100)
        log.emit("block.connected", hash=b"\x02", height=1, txs=2)
        log.emit("chain.reorg", depth=2, fork_height=5)
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 3
        for line in lines:
            parsed = json.loads(line)
            validate_event(parsed)  # raises on any schema violation
            assert parsed["v"] == EVENT_SCHEMA_VERSION

    def test_every_catalogued_kind_round_trips(self):
        log = EventLog()
        for kind, required in EVENT_KINDS.items():
            log.emit(kind, **{name: "x" for name in required})
        for line in log.to_jsonl().splitlines():
            validate_event(json.loads(line))

    def test_write_jsonl(self, tmp_path):
        log = EventLog()
        log.emit("proof.checked", outcome="ok")
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(path)) == 1
        validate_event(json.loads(path.read_text().strip()))

    def test_streaming_sink_sees_dropped_events(self):
        sink = io.StringIO()
        log = EventLog(capacity=1, sink=sink)
        log.emit("proof.checked", outcome="first")
        log.emit("proof.checked", outcome="second")
        lines = sink.getvalue().splitlines()
        # The ring kept only the second event, but the sink streamed both.
        assert len(lines) == 2
        assert json.loads(lines[0])["data"]["outcome"] == "first"

    def test_snapshot_is_jsonable(self):
        log = EventLog()
        log.emit("orphan.parked", hash=b"\x01", parent=b"\x02")
        snap = log.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestValidateEvent:
    def base(self) -> dict:
        return {
            "v": EVENT_SCHEMA_VERSION,
            "seq": 0,
            "ts": 0.0,
            "kind": "proof.checked",
            "data": {"outcome": "ok"},
        }

    def test_valid(self):
        validate_event(self.base())

    @pytest.mark.parametrize("field", ["v", "seq", "ts", "kind", "data"])
    def test_missing_envelope_field(self, field):
        event = self.base()
        del event[field]
        with pytest.raises(EventSchemaError):
            validate_event(event)

    def test_wrong_version(self):
        event = self.base()
        event["v"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(EventSchemaError, match="schema version"):
            validate_event(event)

    @pytest.mark.parametrize("version", range(1, EVENT_SCHEMA_VERSION))
    def test_older_version_refused(self, version):
        # base() is a kind every version had: the version alone refuses it.
        event = self.base()
        event["v"] = version
        with pytest.raises(EventSchemaError, match="schema version"):
            validate_event(event)

    def test_unknown_kind(self):
        event = self.base()
        event["kind"] = "nope"
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            validate_event(event)

    def test_missing_payload_field(self):
        event = self.base()
        event["data"] = {}
        with pytest.raises(EventSchemaError, match="missing payload"):
            validate_event(event)

    def test_negative_seq(self):
        event = self.base()
        event["seq"] = -1
        with pytest.raises(EventSchemaError):
            validate_event(event)


class TestSchemaV2:
    """The swarm-telemetry kinds."""

    def test_current_version_is_four(self):
        assert EVENT_SCHEMA_VERSION == 4

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (
                "relay.hop",
                {"trace": "blk0-aabbccdd", "from": "node0",
                 "to": "node1", "hop": 1, "sim_time": 2.5},
            ),
            ("monitor.violation", {"monitor": "supply", "detail": "x"}),
            ("fault.inflation", {"node": "node0", "amount": 50}),
        ],
    )
    def test_new_kinds_round_trip(self, kind, payload):
        log = EventLog()
        log.emit(kind, **payload)
        parsed = json.loads(log.to_jsonl().strip())
        validate_event(parsed)
        assert parsed["v"] == EVENT_SCHEMA_VERSION
        assert parsed["data"] == payload

class TestSchemaV3:
    """The verification-service kinds."""

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("service.verdict", {"status": "ok"}),
            ("service.poison_rejected", {"txid": "aabbccdd"}),
            ("service.shed", {"inflight": 4, "reason": "overloaded"}),
        ],
    )
    def test_new_kinds_round_trip(self, kind, payload):
        log = EventLog()
        log.emit(kind, **payload)
        parsed = json.loads(log.to_jsonl().strip())
        validate_event(parsed)
        assert parsed["v"] == EVENT_SCHEMA_VERSION
        assert parsed["data"] == payload

class TestSchemaV4:
    """The compact-relay kinds."""

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (
                "compact.received",
                {"node": "node0", "hash": "ab", "txs": 10, "missing": 2},
            ),
            (
                "compact.getblocktxn",
                {"node": "node0", "peer": "node1", "hash": "ab",
                 "indexes": 2},
            ),
            (
                "compact.fallback",
                {"node": "node0", "hash": "ab", "reason": "timeout"},
            ),
            (
                "compact.withheld",
                {"node": "node0", "peer": "node1", "hash": "ab"},
            ),
        ],
    )
    def test_new_kinds_round_trip(self, kind, payload):
        log = EventLog()
        log.emit(kind, **payload)
        parsed = json.loads(log.to_jsonl().strip())
        validate_event(parsed)
        assert parsed["v"] == EVENT_SCHEMA_VERSION
        assert parsed["data"] == payload

class TestObsIntegration:
    def test_emit_helper_uses_default_log(self):
        obs.enable()
        obs.emit("proof.checked", outcome="ok")
        assert len(obs.events()) == 1

    def test_emit_uses_obs_clock(self, manual_clock):
        obs.enable()
        manual_clock.advance(42.0)
        obs.emit("proof.checked", outcome="ok")
        assert obs.events().events[-1].ts == 42.0

    def test_snapshot_includes_events(self):
        obs.enable()
        obs.reset()
        obs.emit("tx.accepted", txid=b"\x01", fee=1, size=1)
        snap = obs.snapshot()
        assert snap["events_dropped"] == 0
        assert [e["kind"] for e in snap["events"]] == ["tx.accepted"]
        for event in snap["events"]:
            validate_event(event)

    def test_reset_clears_events(self):
        obs.enable()
        obs.emit("proof.checked", outcome="ok")
        obs.reset()
        assert len(obs.events()) == 0


class TestPipelineEmitsEvents:
    """End-to-end: a regtest run produces a valid, ordered event stream."""

    def test_regtest_transfer_event_stream(self):
        from repro.bitcoin.regtest import RegtestNetwork
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut
        from repro.bitcoin.wallet import Wallet

        obs.enable()
        obs.reset()
        net = RegtestNetwork()
        wallet = Wallet.from_seed(b"events-e2e")
        net.fund_wallet(wallet, blocks=2)
        tx = wallet.create_transaction(
            net.chain, [TxOut(600, p2pkh_script(wallet.key_hash))], fee=10_000
        )
        net.send(tx)
        net.confirm(1)

        snap = obs.snapshot()
        kinds = [event["kind"] for event in snap["events"]]
        assert "tx.accepted" in kinds
        assert "block.connected" in kinds
        for event in snap["events"]:
            validate_event(event)
        # Sequence numbers are strictly increasing (minus any drops).
        seqs = [event["seq"] for event in snap["events"]]
        assert seqs == sorted(seqs)
        accepted = next(
            e for e in snap["events"] if e["kind"] == "tx.accepted"
        )
        assert accepted["data"]["txid"] == tx.txid.hex()

    def test_mempool_rejection_event_carries_reason(self):
        from repro.bitcoin.mempool import MempoolError
        from repro.bitcoin.regtest import RegtestNetwork
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut
        from repro.bitcoin.wallet import Wallet

        obs.enable()
        obs.reset()
        net = RegtestNetwork()
        wallet = Wallet.from_seed(b"events-reject")
        net.fund_wallet(wallet, blocks=2)
        tx = wallet.create_transaction(
            net.chain, [TxOut(600, p2pkh_script(wallet.key_hash))], fee=10_000
        )
        net.send(tx)
        with pytest.raises(MempoolError):
            net.send(tx)  # duplicate submission
        rejected = [
            e for e in obs.snapshot()["events"] if e["kind"] == "tx.rejected"
        ]
        assert rejected
        assert "already in mempool" in rejected[-1]["data"]["reason"]
