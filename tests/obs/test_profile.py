"""The phase profiler: taxonomy, self-time attribution, span integration
and the stack sampler's folded output.
"""

import json
import sys

import pytest

from repro import obs
from repro.obs.export import phase_counter_events, write_folded
from repro.obs.profile import (
    PHASE_NAMES,
    PHASES,
    PROFILE_SCHEMA,
    PhaseLedger,
    PhaseProfiler,
    StackSampler,
    parse_folded,
    phase_of,
)
from repro.obs.report import render_phases

pytestmark = pytest.mark.obs


class TestTaxonomy:
    def test_phases_are_unique_and_described(self):
        names = [name for name, _ in PHASES]
        assert len(names) == len(set(names))
        assert all(desc for _, desc in PHASES)
        assert "other" in PHASE_NAMES

    def test_span_mapping_covers_pipeline_spans(self):
        assert phase_of("chain.connect_block") == "chain_connect"
        assert phase_of("utxo.apply_block") == "utxo_apply"
        assert phase_of("utxo.undo_block") == "utxo_undo"
        assert phase_of("miner.build_template") == "miner_template"
        assert phase_of("store.recover") == "store_recover"
        assert phase_of("proof.check") == "logic_check"
        assert phase_of("verify.claim") == "core_verify"

    def test_prefix_fallback_and_other(self):
        assert phase_of("batch.transact") == "core_batch"
        assert phase_of("batch.withdraw") == "core_batch"
        assert phase_of("verify.something_new") == "core_verify"
        assert phase_of("lf.anything") == "lf_typecheck"
        assert phase_of("mempool.accept") == "other"
        assert phase_of("nodots") == "other"

    def test_every_mapped_phase_is_in_the_taxonomy(self):
        from repro.obs.profile import _PREFIX_PHASES, _SPAN_PHASES

        for phase in list(_SPAN_PHASES.values()) + list(_PREFIX_PHASES.values()):
            assert phase in PHASE_NAMES


class TestPhaseLedger:
    def test_accumulates_and_sorts(self):
        ledger = PhaseLedger()
        ledger.count("script")
        ledger.add("script", 0.5)
        ledger.count("ecmult", 3)
        ledger.add("ecmult", 0.25)
        view = ledger.phases()
        assert list(view) == ["ecmult", "script"]
        assert view["script"] == {"seconds": 0.5, "calls": 1}
        assert view["ecmult"] == {"seconds": 0.25, "calls": 3}
        assert ledger.total_seconds() == pytest.approx(0.75)

    def test_alloc_bytes_only_when_touched(self):
        ledger = PhaseLedger()
        ledger.count("parse")
        ledger.add("parse", 0.1)
        ledger.count("script")
        ledger.add("script", 0.1, alloc_bytes=2048)
        view = ledger.phases()
        assert "alloc_bytes" not in view["parse"]
        assert view["script"]["alloc_bytes"] == 2048


class TestSelfTime:
    def test_nested_phases_attribute_self_time(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("chain_connect")
        manual_clock.advance(1.0)
        prof.enter("utxo_apply")
        manual_clock.advance(0.5)
        prof.exit()
        manual_clock.advance(0.25)
        prof.exit()
        phases = prof.snapshot()["phases"]
        assert phases["chain_connect"]["seconds"] == pytest.approx(1.25)
        assert phases["utxo_apply"]["seconds"] == pytest.approx(0.5)

    def test_self_times_sum_to_wall_time(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("script")
        manual_clock.advance(0.2)
        prof.enter("sighash")
        manual_clock.advance(0.3)
        prof.enter("ecmult")
        manual_clock.advance(0.4)
        prof.exit()
        prof.exit()
        manual_clock.advance(0.1)
        prof.exit()
        assert prof.ledger.total_seconds() == pytest.approx(1.0)

    def test_recursion_collapses_without_clock_reads(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("lf_typecheck")
        manual_clock.advance(0.1)
        prof.enter("lf_typecheck")  # recursion: counter bump only
        prof.enter("lf_typecheck")
        manual_clock.advance(0.1)
        prof.exit()
        prof.exit()
        prof.exit()
        phases = prof.snapshot()["phases"]
        assert phases["lf_typecheck"]["seconds"] == pytest.approx(0.2)
        assert phases["lf_typecheck"]["calls"] == 3

    def test_interleaved_recursion_keeps_region_open(self, manual_clock):
        # lf -> logic -> lf must NOT collapse (different phase between).
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("logic_check")
        manual_clock.advance(0.1)
        prof.enter("lf_typecheck")
        manual_clock.advance(0.2)
        prof.exit()
        manual_clock.advance(0.1)
        prof.exit()
        phases = prof.snapshot()["phases"]
        assert phases["logic_check"]["seconds"] == pytest.approx(0.2)
        assert phases["lf_typecheck"]["seconds"] == pytest.approx(0.2)

    def test_exit_on_empty_stack_is_noop(self):
        prof = PhaseProfiler()
        prof.exit()  # must not raise
        assert prof.snapshot()["phases"] == {}

    def test_reset_clears_everything(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("script")
        manual_clock.advance(1.0)
        prof.exit()
        prof.checkpoint()
        prof.reset()
        assert prof.snapshot()["phases"] == {}
        assert prof.checkpoints == []

    def test_snapshot_shape(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("parse")
        manual_clock.advance(0.5)
        prof.exit()
        snap = prof.snapshot()
        assert snap["schema"] == PROFILE_SCHEMA
        assert snap["track_alloc"] is False
        json.dumps(snap)  # must be JSON-able


class TestSpanIntegration:
    def test_trace_span_feeds_the_profiler(self, manual_clock):
        obs.enable()
        prof = PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        with obs.trace_span("chain.connect_block", height=1):
            manual_clock.advance(1.0)
            with obs.trace_span("utxo.apply_block"):
                manual_clock.advance(0.5)
        phases = prof.snapshot()["phases"]
        assert phases["chain_connect"]["seconds"] == pytest.approx(1.0)
        assert phases["utxo_apply"]["seconds"] == pytest.approx(0.5)

    def test_unmapped_span_lands_in_other(self, manual_clock):
        obs.enable()
        prof = PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        with obs.trace_span("mempool.accept_tx"):
            manual_clock.advance(0.25)
        assert prof.snapshot()["phases"]["other"]["seconds"] == pytest.approx(0.25)

    def test_node_scope_spans_still_profile(self, manual_clock):
        obs.enable()
        prof = PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        telemetry = obs.NodeTelemetry("n0")
        with obs.node_scope(telemetry):
            with obs.trace_span("proof.check"):
                manual_clock.advance(0.125)
        assert prof.snapshot()["phases"]["logic_check"]["seconds"] == (
            pytest.approx(0.125)
        )

    def test_exception_inside_span_still_exits_phase(self, manual_clock):
        obs.enable()
        prof = PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        with pytest.raises(RuntimeError):
            with obs.trace_span("verify.claim"):
                manual_clock.advance(0.5)
                raise RuntimeError("boom")
        assert prof._stack == []
        assert prof.snapshot()["phases"]["core_verify"]["seconds"] == (
            pytest.approx(0.5)
        )


class TestPipelinePhases:
    def test_end_to_end_validation_touches_expected_phases(self):
        from repro.bitcoin.regtest import RegtestNetwork
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut
        from repro.bitcoin.wallet import Wallet

        obs.enable()
        prof = PhaseProfiler()
        obs.set_profiler(prof)
        net = RegtestNetwork()
        wallet = Wallet.from_seed(b"profile-e2e")
        net.fund_wallet(wallet, blocks=2)
        tx = wallet.create_transaction(
            net.chain, [TxOut(600, p2pkh_script(wallet.key_hash))], fee=10_000
        )
        net.send(tx)
        net.confirm(1)
        phases = prof.snapshot()["phases"]
        for expected in ("chain_connect", "utxo_apply", "script",
                         "sighash", "ecmult", "sigcache"):
            assert expected in phases, f"missing {expected}: {sorted(phases)}"
            assert phases[expected]["calls"] > 0
        assert all(phase in PHASE_NAMES for phase in phases)
        # No region may be left open after a balanced pipeline run.
        assert prof._stack == []

    def test_key_decompression_is_billed_to_ecmult(self, manual_clock):
        """The square root behind ``Point.decode`` is curve work: inside a
        ``script`` region it must not count as interpreter self time."""
        from repro.crypto import secp256k1
        from repro.crypto.secp256k1 import Point, scalar_mult

        encoded = scalar_mult(4242).encode()
        secp256k1._decompress.cache_clear()
        real_lift_x = secp256k1.lift_x

        def slow_lift_x(x, odd):
            manual_clock.advance(0.25)
            return real_lift_x(x, odd)

        obs.enable()
        prof = PhaseProfiler(clock=manual_clock)
        obs.set_profiler(prof)
        secp256k1.lift_x = slow_lift_x
        try:
            prof.enter("script")
            Point.decode(encoded)
            Point.decode(encoded)  # memo hit: no region, no clock
            prof.exit()
        finally:
            secp256k1.lift_x = real_lift_x
        phases = prof.snapshot()["phases"]
        assert phases["ecmult"] == {"seconds": pytest.approx(0.25), "calls": 1}
        assert phases["script"]["seconds"] == pytest.approx(0.0)

    def test_typecoin_pipeline_touches_proof_phases(self):
        from repro.bitcoin.regtest import RegtestNetwork
        from repro.core.builder import simple_transfer
        from repro.core.transaction import TypecoinOutput
        from repro.core.validate import Ledger
        from repro.core.wallet import TypecoinClient
        from repro.logic.propositions import One

        obs.enable()
        prof = PhaseProfiler()
        obs.set_profiler(prof)
        net = RegtestNetwork()
        client = TypecoinClient(net, b"profile-tc", Ledger())
        net.fund_wallet(client.wallet, blocks=2)
        txn = simple_transfer([], [TypecoinOutput(One(), 600, client.pubkey)])
        client.submit(txn)
        net.confirm(1)
        client.sync()
        phases = prof.snapshot()["phases"]
        assert phases["logic_check"]["calls"] > 0
        assert phases["lf_typecheck"]["calls"] > 0


class TestAllocTracking:
    def test_track_alloc_records_net_bytes(self):
        prof = PhaseProfiler(track_alloc=True)
        try:
            prof.enter("parse")
            blob = [bytes(64 * 1024) for _ in range(4)]
            prof.exit()
            phases = prof.snapshot()["phases"]
            assert phases["parse"]["alloc_bytes"] > 4 * 60 * 1024
            assert prof.snapshot()["track_alloc"] is True
            del blob
        finally:
            prof.close()

    def test_child_alloc_subtracted_from_parent(self):
        prof = PhaseProfiler(track_alloc=True)
        try:
            prof.enter("chain_connect")
            prof.enter("utxo_apply")
            blob = bytes(512 * 1024)
            prof.exit()
            prof.exit()
            phases = prof.snapshot()["phases"]
            assert phases["utxo_apply"]["alloc_bytes"] > 500 * 1024
            # Parent self-alloc excludes the child's half-megabyte.
            assert phases["chain_connect"].get("alloc_bytes", 0) < 100 * 1024
            del blob
        finally:
            prof.close()


class TestCheckpoints:
    def test_checkpoints_render_as_counter_events(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("script")
        manual_clock.advance(1.0)
        prof.exit()
        prof.checkpoint()
        manual_clock.advance(1.0)
        prof.enter("ecmult")
        manual_clock.advance(0.5)
        prof.exit()
        prof.checkpoint()
        events = phase_counter_events(prof.checkpoints)
        assert [e["ph"] for e in events] == ["C", "C"]
        assert events[0]["ts"] == pytest.approx(1.0 * 1e6)
        assert events[0]["args"] == {"script": 1.0}
        assert events[1]["args"] == {"ecmult": 0.5, "script": 1.0}


class TestStackSampler:
    def test_folded_output_round_trips(self, tmp_path):
        sampler = StackSampler()

        def leaf():
            return sum(range(2000))

        def trunk():
            return [leaf() for _ in range(50)]

        with sampler:
            trunk()
        folded = sampler.folded()
        assert folded
        entries = parse_folded(folded)
        assert entries
        joined = [";".join(frames) for frames, _ in entries]
        assert any("trunk" in stack and "leaf" in stack for stack in joined)
        assert all(value > 0 for _, value in entries)
        # write_folded round-trip
        path = tmp_path / "out.folded"
        count = write_folded(str(path), folded)
        assert count == len(entries)
        assert parse_folded(path.read_text()) == entries

    def test_install_uninstall_restores_previous_hook(self):
        sentinel_calls = []

        def sentinel(frame, event, arg):
            sentinel_calls.append(event)

        previous = sys.getprofile()
        sys.setprofile(sentinel)
        try:
            sampler = StackSampler()
            sampler.install()
            assert sys.getprofile() == sampler._hook
            sampler.uninstall()
            assert sys.getprofile() == sentinel
        finally:
            sys.setprofile(previous)

    def test_parse_folded_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_folded("no_value_here\n")
        with pytest.raises(ValueError):
            parse_folded("frame;frame notanumber\n")
        with pytest.raises(ValueError):
            parse_folded("frame;;frame 10\n")
        with pytest.raises(ValueError):
            parse_folded("frame -5\n")
        assert parse_folded("") == []
        assert parse_folded("a;b 10\n\nc 5\n") == [(["a", "b"], 10), (["c"], 5)]


class TestRenderPhases:
    def test_orders_by_self_time(self, manual_clock):
        prof = PhaseProfiler(clock=manual_clock)
        prof.enter("ecmult")
        manual_clock.advance(0.1)
        prof.exit()
        prof.enter("script")
        manual_clock.advance(0.9)
        prof.exit()
        text = render_phases(prof.snapshot())
        lines = text.splitlines()
        script_at = next(i for i, l in enumerate(lines) if l.startswith("script"))
        ecmult_at = next(i for i, l in enumerate(lines) if l.startswith("ecmult"))
        assert script_at < ecmult_at
        assert "90.0%" in lines[script_at]

    def test_empty_profile_renders_placeholder(self):
        assert "no phase activity" in render_phases({"phases": {}})
        assert "no profiler installed" in render_phases(None)
