"""Tests for the script interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.script import (
    MAX_PUSH_SIZE,
    Op,
    Script,
    ScriptError,
    cast_to_bool,
    decode_num,
    encode_num,
    execute_script,
)


def no_signatures(_sig, _pubkey):
    """A checker that finds every signature invalid."""
    return False


def run(elements, script_sig=()):
    return execute_script(Script(script_sig), Script(elements), no_signatures)


class TestSerialization:
    def test_roundtrip_simple(self):
        script = Script([Op.OP_DUP, b"\x01\x02", Op.OP_EQUAL])
        assert Script.parse(script.serialize()) == script

    def test_roundtrip_pushdata1(self):
        script = Script([b"\xaa" * 100])
        data = script.serialize()
        assert data[0] == Op.OP_PUSHDATA1
        assert Script.parse(data) == script

    def test_roundtrip_pushdata2(self):
        script = Script([b"\xbb" * 300])
        data = script.serialize()
        assert data[0] == Op.OP_PUSHDATA2
        assert Script.parse(data) == script

    def test_oversized_push_rejected(self):
        with pytest.raises(ScriptError):
            Script([b"\x00" * (MAX_PUSH_SIZE + 1)])

    def test_truncated_push_rejected(self):
        with pytest.raises(ScriptError):
            Script.parse(bytes([5, 1, 2]))

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ScriptError):
            Script.parse(bytes([0xFF]))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([Op.OP_DUP, Op.OP_ADD, Op.OP_EQUAL, Op.OP_1]),
                st.binary(min_size=1, max_size=80),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, elements):
        script = Script(elements)
        assert Script.parse(script.serialize()) == script


class TestNumbers:
    @given(st.integers(min_value=-(2**31) + 1, max_value=2**31 - 1))
    def test_num_roundtrip(self, n):
        assert decode_num(encode_num(n)) == n

    def test_zero_is_empty(self):
        assert encode_num(0) == b""
        assert decode_num(b"") == 0

    def test_negative_encoding(self):
        assert encode_num(-1) == b"\x81"
        assert decode_num(b"\x81") == -1

    def test_sign_byte_extension(self):
        # 0x80 magnitude needs an extra byte to avoid the sign bit.
        assert encode_num(128) == b"\x80\x00"
        assert encode_num(-128) == b"\x80\x80"

    def test_overflow_rejected(self):
        with pytest.raises(ScriptError):
            decode_num(b"\x01\x02\x03\x04\x05")

    def test_cast_to_bool(self):
        assert not cast_to_bool(b"")
        assert not cast_to_bool(b"\x00")
        assert not cast_to_bool(b"\x00\x80")  # negative zero
        assert cast_to_bool(b"\x01")
        assert cast_to_bool(b"\x00\x01")


class TestExecution:
    def test_trivial_true(self):
        assert run([Op.OP_1])

    def test_trivial_false(self):
        assert not run([Op.OP_0])

    def test_empty_script_fails(self):
        assert not run([])

    def test_arithmetic(self):
        assert run([Op.OP_2, Op.OP_3, Op.OP_ADD, Op.OP_5, Op.OP_NUMEQUAL])

    def test_sub_order(self):
        assert run([Op.OP_5, Op.OP_3, Op.OP_SUB, Op.OP_2, Op.OP_NUMEQUAL])

    def test_dup_equal(self):
        assert run([b"\x42", Op.OP_DUP, Op.OP_EQUAL])

    def test_equalverify_failure(self):
        assert not run([Op.OP_1, Op.OP_2, Op.OP_EQUALVERIFY, Op.OP_1])

    def test_if_else(self):
        assert run([Op.OP_1, Op.OP_IF, Op.OP_1, Op.OP_ELSE, Op.OP_0, Op.OP_ENDIF])
        assert not run([Op.OP_0, Op.OP_IF, Op.OP_1, Op.OP_ELSE, Op.OP_0, Op.OP_ENDIF])

    def test_notif(self):
        assert run([Op.OP_0, Op.OP_NOTIF, Op.OP_1, Op.OP_ENDIF])

    def test_nested_if(self):
        script = [
            Op.OP_1, Op.OP_IF,
            Op.OP_0, Op.OP_IF, Op.OP_0, Op.OP_ELSE, Op.OP_1, Op.OP_ENDIF,
            Op.OP_ENDIF,
        ]
        assert run(script)

    def test_unterminated_if_fails(self):
        assert not run([Op.OP_1, Op.OP_IF, Op.OP_1])

    def test_else_without_if_fails(self):
        assert not run([Op.OP_ELSE, Op.OP_1])

    def test_op_return_fails(self):
        assert not run([Op.OP_RETURN, Op.OP_1])

    def test_verify(self):
        assert run([Op.OP_1, Op.OP_VERIFY, Op.OP_1])
        assert not run([Op.OP_0, Op.OP_VERIFY, Op.OP_1])

    def test_stack_ops(self):
        assert run([Op.OP_1, Op.OP_2, Op.OP_SWAP, Op.OP_1, Op.OP_NUMEQUAL])
        assert run([Op.OP_1, Op.OP_2, Op.OP_DROP, Op.OP_1, Op.OP_NUMEQUAL])
        assert run([Op.OP_1, Op.OP_2, Op.OP_OVER, Op.OP_1, Op.OP_NUMEQUAL])
        assert run([Op.OP_7, Op.OP_DEPTH, Op.OP_1, Op.OP_NUMEQUAL])

    def test_pick_and_roll(self):
        # stack: 1 2 3; PICK(2) copies the 1.
        assert run([Op.OP_1, Op.OP_2, Op.OP_3, Op.OP_2, Op.OP_PICK,
                    Op.OP_1, Op.OP_NUMEQUAL])
        # ROLL moves it instead.
        assert run([Op.OP_1, Op.OP_2, Op.OP_3, Op.OP_2, Op.OP_ROLL,
                    Op.OP_1, Op.OP_NUMEQUAL])

    def test_pick_out_of_range(self):
        assert not run([Op.OP_1, Op.OP_5, Op.OP_PICK])

    def test_alt_stack(self):
        assert run([Op.OP_5, Op.OP_TOALTSTACK, Op.OP_1, Op.OP_DROP,
                    Op.OP_FROMALTSTACK, Op.OP_5, Op.OP_NUMEQUAL])

    def test_min_max_within(self):
        assert run([Op.OP_3, Op.OP_5, Op.OP_MIN, Op.OP_3, Op.OP_NUMEQUAL])
        assert run([Op.OP_3, Op.OP_5, Op.OP_MAX, Op.OP_5, Op.OP_NUMEQUAL])
        assert run([Op.OP_4, Op.OP_3, Op.OP_6, Op.OP_WITHIN])
        assert not run([Op.OP_6, Op.OP_3, Op.OP_6, Op.OP_WITHIN])

    def test_comparisons(self):
        assert run([Op.OP_2, Op.OP_3, Op.OP_LESSTHAN])
        assert run([Op.OP_3, Op.OP_2, Op.OP_GREATERTHAN])
        assert run([Op.OP_3, Op.OP_3, Op.OP_LESSTHANOREQUAL])
        assert run([Op.OP_3, Op.OP_3, Op.OP_GREATERTHANOREQUAL])

    def test_boolean_ops(self):
        assert run([Op.OP_1, Op.OP_1, Op.OP_BOOLAND])
        assert not run([Op.OP_1, Op.OP_0, Op.OP_BOOLAND])
        assert run([Op.OP_0, Op.OP_1, Op.OP_BOOLOR])
        assert run([Op.OP_0, Op.OP_NOT])

    def test_hash_opcodes(self):
        from repro.crypto.hashing import hash160, sha256, sha256d, ripemd160

        data = b"typecoin"
        assert run([data, Op.OP_SHA256, sha256(data), Op.OP_EQUAL])
        assert run([data, Op.OP_HASH160, hash160(data), Op.OP_EQUAL])
        assert run([data, Op.OP_HASH256, sha256d(data), Op.OP_EQUAL])
        assert run([data, Op.OP_RIPEMD160, ripemd160(data), Op.OP_EQUAL])

    def test_size(self):
        assert run([b"\x01\x02\x03", Op.OP_SIZE, Op.OP_3, Op.OP_NUMEQUAL,
                    Op.OP_VERIFY, Op.OP_DROP, Op.OP_1])

    def test_scriptsig_must_be_push_only(self):
        with pytest.raises(ScriptError):
            execute_script(Script([Op.OP_DUP]), Script([Op.OP_1]), no_signatures)

    def test_scriptsig_pushes_feed_pubkey_script(self):
        assert execute_script(
            Script([b"\x2a"]), Script([b"\x2a", Op.OP_EQUAL]), no_signatures
        )

    def test_pop_from_empty_stack_fails(self):
        assert not run([Op.OP_DUP])

    def test_checksig_without_checker_fails(self):
        assert not run([b"\x00" * 65, b"\x02" + b"\x11" * 32, Op.OP_CHECKSIG])

    def test_checksig_with_custom_checker(self):
        calls = []

        def checker(sig, pubkey):
            calls.append((sig, pubkey))
            return True

        ok = execute_script(
            Script([]),
            Script([b"sig-bytes", b"key-bytes", Op.OP_CHECKSIG]),
            checker,
        )
        assert ok
        assert calls == [(b"sig-bytes", b"key-bytes")]

    def test_checkmultisig_order_sensitivity(self):
        # Signatures must appear in key order: sig-for-k1 then sig-for-k2.
        def checker(sig, pubkey):
            return (sig, pubkey) in {(b"s1", b"k1"), (b"s2", b"k2")}

        good = Script([Op.OP_0, b"s1", b"s2"])
        bad = Script([Op.OP_0, b"s2", b"s1"])
        pubkey_script = Script([Op.OP_2, b"k1", b"k2", Op.OP_2, Op.OP_CHECKMULTISIG])
        assert execute_script(good, pubkey_script, checker)
        assert not execute_script(bad, pubkey_script, checker)

    def test_checkmultisig_1_of_2_with_bogus_key(self):
        # Typecoin's metadata embedding: one real key, one garbage key.
        def checker(sig, pubkey):
            return (sig, pubkey) == (b"real-sig", b"real-key")

        script_sig = Script([Op.OP_0, b"real-sig"])
        pubkey_script = Script(
            [Op.OP_1, b"real-key", b"metadata!", Op.OP_2, Op.OP_CHECKMULTISIG]
        )
        assert execute_script(script_sig, pubkey_script, checker)

    def test_script_repr_and_len(self):
        script = Script([Op.OP_DUP, b"\xab"])
        assert "OP_DUP" in repr(script)
        assert len(script) == 3


from repro.bitcoin import script as script_module
from repro.bitcoin.script import (
    MAX_OPS_PER_SCRIPT,
    MAX_STACK_SIZE,
    ScriptResourceError,
    _Machine,
    _run,
)


class TestExecutionBudget:
    """Resource limits raise the typed ScriptResourceError (satellite 3)."""

    def test_per_script_op_limit(self):
        ok_script = Script([Op.OP_NOP] * MAX_OPS_PER_SCRIPT)
        _run(ok_script, _Machine(), no_signatures)  # exactly at the limit

        over = Script([Op.OP_NOP] * (MAX_OPS_PER_SCRIPT + 1))
        with pytest.raises(ScriptResourceError, match="op count limit"):
            _run(over, _Machine(), no_signatures)

    def test_op_limit_is_per_script_not_cumulative(self):
        # 150 ops per script is fine twice over: the 201-op ceiling resets
        # between the two scripts even though the machine is shared.
        machine = _Machine()
        _run(Script([Op.OP_NOP] * 150), machine, no_signatures)
        _run(Script([Op.OP_NOP] * 150), machine, no_signatures)
        assert machine.budget.ops == 300

    def test_stack_size_limit(self, monkeypatch):
        monkeypatch.setattr(script_module, "MAX_OPS_PER_SCRIPT", 10_000)
        monkeypatch.setattr(script_module, "MAX_SCRIPT_PUSHES", 10_000)
        machine = _Machine()
        script = Script([Op.OP_1] + [Op.OP_DUP] * MAX_STACK_SIZE)
        with pytest.raises(ScriptResourceError, match="stack size limit"):
            _run(script, machine, no_signatures)
        assert len(machine.stack) + len(machine.alt) == MAX_STACK_SIZE + 1

    def test_push_budget(self, monkeypatch):
        monkeypatch.setattr(script_module, "MAX_SCRIPT_PUSHES", 5)
        machine = _Machine()
        with pytest.raises(ScriptResourceError, match="push budget"):
            _run(Script([Op.OP_1] * 6), machine, no_signatures)
        assert machine.budget.pushes == 6

    def test_execute_script_fails_closed_on_exhaustion(self):
        # The public entry point treats resource exhaustion like any other
        # script failure: the spend is invalid, no exception escapes.
        sig = Script([Op.OP_1])
        pubkey = Script([Op.OP_NOP] * 300)
        assert execute_script(sig, pubkey, no_signatures) is False

    def test_resource_error_is_script_error(self):
        assert issubclass(ScriptResourceError, ScriptError)

    def test_budget_totals_accumulate_across_scripts(self):
        machine = _Machine()
        _run(Script([Op.OP_1, Op.OP_NOP]), machine, no_signatures)
        _run(Script([Op.OP_2, Op.OP_NOP, Op.OP_NOP]), machine, no_signatures)
        assert machine.budget.ops == 3
        assert machine.budget.pushes == 2
        assert machine.budget.script_ops == 2
