"""Cooperative cancellation: deadlines, scoping, and checker integration."""

import pytest

from repro import cancel


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestDeadline:
    def test_after_and_remaining(self):
        clock = ManualClock()
        deadline = cancel.Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == 5.0
        assert not deadline.expired()
        clock.now = 5.0
        assert deadline.expired()
        clock.now = 7.5
        assert deadline.remaining() == -2.5


class TestScope:
    def test_none_scope_is_a_no_op(self):
        with cancel.deadline_scope(None):
            assert not cancel.ACTIVE
            assert cancel.current_deadline() is None
            cancel.checkpoint()  # must not raise

    def test_scope_installs_and_removes(self):
        deadline = cancel.Deadline.after(60.0)
        assert not cancel.ACTIVE
        with cancel.deadline_scope(deadline):
            assert cancel.ACTIVE
            assert cancel.current_deadline() is deadline
        assert not cancel.ACTIVE
        assert cancel.current_deadline() is None

    def test_expired_deadline_trips_checkpoint(self):
        clock = ManualClock()
        deadline = cancel.Deadline.after(1.0, clock=clock)
        with cancel.deadline_scope(deadline):
            cancel.checkpoint()  # alive
            clock.now = 2.0
            with pytest.raises(cancel.DeadlineExceeded):
                for _ in range(cancel.CHECK_STRIDE + 1):
                    cancel.checkpoint()

    def test_nested_outer_expiry_trips_inside_inner_scope(self):
        clock = ManualClock()
        outer = cancel.Deadline.after(1.0, clock=clock)
        inner = cancel.Deadline.after(100.0, clock=clock)
        with cancel.deadline_scope(outer):
            with cancel.deadline_scope(inner):
                clock.now = 2.0  # outer expired, inner fine
                with pytest.raises(cancel.DeadlineExceeded):
                    for _ in range(cancel.CHECK_STRIDE + 1):
                        cancel.checkpoint()

    def test_scope_cleans_up_on_exception(self):
        with pytest.raises(RuntimeError):
            with cancel.deadline_scope(cancel.Deadline.after(60.0)):
                raise RuntimeError("boom")
        assert not cancel.ACTIVE

    def test_deadline_exceeded_is_not_a_checker_error(self):
        """Expiry must unwind through ``except ProofError`` handlers."""
        from repro.core.validate import ValidationFailure
        from repro.lf.typecheck import LFTypeError
        from repro.logic.checker import ProofError

        for error in (ProofError, LFTypeError, ValidationFailure):
            assert not issubclass(cancel.DeadlineExceeded, error)


class TestCheckerIntegration:
    def test_deep_proof_check_is_cancellable(self, world):
        """An expired deadline unwinds the real checkers mid-flight."""
        from repro.core.validate import Ledger, check_typecoin_transaction, world_at
        from repro.core.verifier import dependency_levels

        net, bundle, _ = world
        clock = ManualClock()
        deadline = cancel.Deadline(1.0, clock=clock)
        clock.now = 2.0  # already expired
        ledger = Ledger()
        # The root transaction: checkable against an empty ledger.
        txid = dependency_levels(bundle.transactions)[0][0]
        txn = bundle.transactions[txid]
        _, height = net.chain.get_transaction(txid)
        with cancel.deadline_scope(deadline):
            with pytest.raises(cancel.DeadlineExceeded):
                check_typecoin_transaction(
                    ledger, txn, world_at(net.chain, height)
                )
