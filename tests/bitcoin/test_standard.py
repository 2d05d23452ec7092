"""Tests for standard script schemas and relay policy."""

import pytest

from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import (
    Classified,
    ScriptType,
    classify,
    multisig_script,
    op_return_script,
    p2pk_script,
    p2pkh_script,
)
from repro.crypto.keys import PrivateKey

KEY = PrivateKey.from_seed(b"standard").public


def test_p2pkh_classification():
    script = p2pkh_script(KEY.key_hash)
    result = classify(script)
    assert result.type is ScriptType.P2PKH
    assert result.data == (KEY.key_hash,)
    assert result.required_sigs == 1


def test_p2pkh_requires_20_byte_hash():
    with pytest.raises(ValueError):
        p2pkh_script(b"\x00" * 19)


def test_p2pk_classification():
    result = classify(p2pk_script(KEY.encoded))
    assert result.type is ScriptType.P2PK
    assert result.data == (KEY.encoded,)


def test_multisig_classification():
    k2 = PrivateKey.from_seed(b"second").public
    script = multisig_script(1, [KEY.encoded, k2.encoded])
    result = classify(script)
    assert result.type is ScriptType.MULTISIG
    assert result.required_sigs == 1
    assert result.data == (KEY.encoded, k2.encoded)


def test_multisig_2_of_3():
    keys = [PrivateKey.from_seed(bytes([i])).public.encoded for i in range(3)]
    result = classify(multisig_script(2, keys))
    assert result.type is ScriptType.MULTISIG
    assert result.required_sigs == 2


def test_multisig_limits():
    keys = [PrivateKey.from_seed(bytes([i])).public.encoded for i in range(4)]
    with pytest.raises(ValueError):
        multisig_script(1, keys)  # n > 3 is non-standard
    with pytest.raises(ValueError):
        multisig_script(3, keys[:2])  # m > n


def test_1of2_with_metadata_key_is_standard():
    """The paper's embedding (§3.3): one real key, one 33-byte 'key' of data."""
    metadata = b"\x02" + b"\xde\xad" * 16
    script = multisig_script(1, [KEY.encoded, metadata])
    assert classify(script).type is not ScriptType.NONSTANDARD
    assert classify(script).type is ScriptType.MULTISIG


def test_op_return_classification():
    result = classify(op_return_script(b"hello metadata"))
    assert result.type is ScriptType.OP_RETURN
    assert result.data == (b"hello metadata",)


def test_op_return_size_cap():
    with pytest.raises(ValueError):
        op_return_script(b"\x00" * 81)


def test_nonstandard_scripts():
    assert classify(Script([Op.OP_1])).type is ScriptType.NONSTANDARD
    assert classify(Script([Op.OP_ADD])).type is ScriptType.NONSTANDARD
    # Wrong-length "key hash".
    bad = Script([Op.OP_DUP, Op.OP_HASH160, b"\x00" * 19, Op.OP_EQUALVERIFY,
                  Op.OP_CHECKSIG])
    assert classify(bad).type is ScriptType.NONSTANDARD


def test_multisig_with_garbage_length_key_nonstandard():
    script = Script([Op.OP_1, b"short", Op.OP_1, Op.OP_CHECKMULTISIG])
    assert classify(script).type is ScriptType.NONSTANDARD


def test_multisig_wrong_count_nonstandard():
    # Declares 2 keys but provides 1.
    script = Script([Op.OP_1, KEY.encoded, Op.OP_2, Op.OP_CHECKMULTISIG])
    assert classify(script).type is ScriptType.NONSTANDARD


def test_standard_scripts_roundtrip_serialization():
    for script in (
        p2pkh_script(KEY.key_hash),
        p2pk_script(KEY.encoded),
        multisig_script(1, [KEY.encoded]),
        op_return_script(b"x"),
    ):
        assert classify(Script.parse(script.serialize())).type is classify(script).type
