"""Tests for the signature cache and the cached verification path.

The load-bearing property: caching is *transparent* — accept/reject
verdicts are identical with the sigcache on, off and undersized (evicting
constantly).
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin import sigcache, validation
from repro.bitcoin.block import build_block
from repro.bitcoin.mempool import (
    MempoolError,
    MempoolMissingInputError,
    MempoolValidationError,
)
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.sigcache import SignatureCache
from repro.bitcoin.sighash import SighashCache, signature_hash
from repro.bitcoin.standard import multisig_script, p2pkh_script
from repro.bitcoin.transaction import OutPoint, Script, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import UTXOSet
from repro.bitcoin.validation import (
    MissingInputError,
    ValidationError,
    check_tx_inputs,
    make_sig_checker,
)
from repro.bitcoin.wallet import Wallet
from repro.core.overlay import metadata_pubkey
from repro.crypto import secp256k1
from repro.crypto.ecdsa import Signature, verify as ecdsa_verify
from repro.crypto.keys import PrivateKey
from repro.crypto.secp256k1 import Point
from tests.bitcoin.test_hostile_blocks import corrupt_signature, non_push


# Isolate each test from the process-wide shared cache.
pytestmark = pytest.mark.usefixtures("fresh_default_cache")


@pytest.fixture
def script_runs(monkeypatch):
    """Every ``execute_script`` call ``check_tx_inputs`` makes, as the
    scriptSig it ran."""
    runs = []
    execute = validation.execute_script

    def counting(script_sig, script_pubkey, checker):
        runs.append(script_sig)
        return execute(script_sig, script_pubkey, checker)

    monkeypatch.setattr(validation, "execute_script", counting)
    return runs


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------


def test_lru_eviction_order():
    cache = SignatureCache(max_entries=2)
    cache.put(b"d1", b"p", b"s", True)
    cache.put(b"d2", b"p", b"s", True)
    # Touch d1 so d2 becomes least recently used.
    assert cache.get(b"d1", b"p", b"s") is True
    cache.put(b"d3", b"p", b"s", False)
    assert cache.get(b"d2", b"p", b"s") is None  # evicted
    assert cache.get(b"d1", b"p", b"s") is True
    assert cache.get(b"d3", b"p", b"s") is False
    assert len(cache) == 2


def test_put_existing_key_updates_without_eviction():
    cache = SignatureCache(max_entries=2)
    cache.put(b"d1", b"p", b"s", True)
    cache.put(b"d2", b"p", b"s", True)
    cache.put(b"d1", b"p", b"s", True)  # refresh, no overflow
    assert len(cache) == 2
    assert cache.get(b"d2", b"p", b"s") is True


def test_rejects_zero_capacity():
    with pytest.raises(ValueError):
        SignatureCache(max_entries=0)


def test_clear():
    cache = SignatureCache()
    cache.put(b"d", b"p", b"s", True)
    cache.clear()
    assert len(cache) == 0
    assert cache.get(b"d", b"p", b"s") is None


def test_default_cache_swap():
    mine = SignatureCache(max_entries=4)
    old = sigcache.set_default_cache(mine)
    try:
        assert sigcache.default_cache() is mine
        assert sigcache.set_default_cache(None) is mine
        assert sigcache.default_cache() is None
    finally:
        sigcache.set_default_cache(old)


# ----------------------------------------------------------------------
# Eviction never changes verdicts
# ----------------------------------------------------------------------


def test_eviction_never_changes_verdicts():
    """Random triples through a 4-entry cache: the cache's answer always
    equals direct ECDSA verification, no matter what was evicted between
    asks — including cached ``False`` verdicts."""
    rng = random.Random(1234)
    key = PrivateKey.from_seed(b"evict")
    triples = []
    for i in range(12):
        digest = bytes([i]) * 32
        sig = key.sign_digest(digest).encode()
        if i % 3 == 0:  # corrupt every third signature
            sig = bytes([sig[0] ^ 0x01]) + sig[1:]
        triples.append((digest, key.public.encoded, sig))

    expected = {
        t: ecdsa_verify(key.public.point, t[0], Signature.decode(t[2]))
        for t in triples
    }

    cache = SignatureCache(max_entries=4)
    for _ in range(200):
        digest, pub, sig = rng.choice(triples)
        verdict = cache.get(digest, pub, sig)
        if verdict is None:
            verdict = ecdsa_verify(key.public.point, digest, Signature.decode(sig))
            cache.put(digest, pub, sig, verdict)
        assert verdict == expected[(digest, pub, sig)]
        assert len(cache) <= 4


def test_malleated_signature_misses_cache():
    """A different signature encoding is different bytes: it must miss the
    cache and be verified on its own merits, never inheriting a verdict."""
    key = PrivateKey.from_seed(b"malleate")
    digest = b"\x42" * 32
    sig = key.sign_digest(digest).encode()
    cache = SignatureCache()
    cache.put(digest, key.public.encoded, sig, True)
    malleated = sig[:-1] + bytes([sig[-1] ^ 0xFF])
    assert cache.get(digest, key.public.encoded, malleated) is None


# ----------------------------------------------------------------------
# Checker integration
# ----------------------------------------------------------------------


def _funded_net():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"sc-alice")
    bob = Wallet.from_seed(b"sc-bob")
    net.fund_wallet(alice, blocks=6)
    return net, alice, bob


def _count_triple_lookups(cache, *, hits):
    """Count the cache's triple lookups that hit (or that miss)."""
    seen = {"n": 0}
    original_get = cache.get

    def counting_get(digest, pub, sig):
        verdict = original_get(digest, pub, sig)
        if (verdict is not None) == hits:
            seen["n"] += 1
        return verdict

    cache.get = counting_get
    return seen


def test_checker_consults_and_fills_cache(script_runs):
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    cache = SignatureCache()
    sigcache.set_default_cache(cache)
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    # One triple per input, and the txid once every input authorised.
    assert len(cache) == len(tx.vin) + 1
    assert cache.has_tx(tx.txid)
    assert len(script_runs) == len(tx.vin)
    # Re-validation is answered by the txid: no script, no triple asked.
    hits = _count_triple_lookups(cache, hits=True)
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert (len(script_runs), hits["n"]) == (len(tx.vin), 0)
    # With the txid evicted the scripts run again, on cached signatures.
    assert cache._lru.pop(tx.txid)
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert (len(script_runs), hits["n"]) == (2 * len(tx.vin), len(tx.vin))


def test_mempool_acceptance_warms_block_connect(script_runs):
    net, alice, bob = _funded_net()
    cache = SignatureCache()
    sigcache.set_default_cache(cache)
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    net.send(tx)
    assert len(cache) == len(tx.vin) + 1 and cache.has_tx(tx.txid)
    del script_runs[:]
    misses = _count_triple_lookups(cache, hits=False)
    net.generate(1, alice.key_hash)  # block connect finds tx's txid cached
    assert misses["n"] == 0 and script_runs == []
    assert net.chain.get_transaction(tx.txid) is not None


def test_checker_surfaces_out_of_range_as_validation_error():
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    checker = make_sig_checker(tx, len(tx.vin) + 3, Script())
    key = PrivateKey.from_seed(b"any")
    sig = key.sign_digest(b"\x01" * 32).encode() + b"\x01"
    with pytest.raises(ValidationError, match="out of range"):
        checker(sig, key.public.encoded)


def test_checker_refuses_a_key_with_an_unreduced_coordinate():
    """``04 ‖ (1 + p) ‖ y`` names the point x = 1 a second time.  It is not
    a key: the checker answers False as for any undecodable key — before
    the sighash is asked, and without storing a verdict under bytes that
    never decoded."""
    one = secp256k1.lift_x(1, odd=False)
    alias = (
        b"\x04"
        + (1 + secp256k1.FIELD_PRIME).to_bytes(32, "big")
        + one.y.to_bytes(32, "big")
    )
    with pytest.raises(ValueError, match="out of range"):
        Point.decode(alias)
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    sig = PrivateKey.from_seed(b"any").sign_digest(b"\x01" * 32).encode() + b"\x01"
    cache = SignatureCache()
    checker = make_sig_checker(tx, 0, Script(), sig_cache=cache)
    assert checker(sig, alias) is False
    assert len(cache) == 0
    out_of_range_input = make_sig_checker(tx, len(tx.vin) + 3, Script())
    assert out_of_range_input(sig, alias) is False


# ----------------------------------------------------------------------
# Differential: cache on and off give identical verdicts
# ----------------------------------------------------------------------


def _run_scenario(cache):
    """A mixed accept/reject scenario; returns every observable verdict."""
    sigcache.set_default_cache(cache)
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"diff-alice")
    bob = Wallet.from_seed(b"diff-bob")
    net.fund_wallet(alice, blocks=6)
    verdicts = []
    for i in range(4):
        tx = alice.create_transaction(
            net.chain,
            [TxOut(1500 + i, p2pkh_script(bob.key_hash))],
            fee=2000,
            exclude=set(net.mempool._spent),
        )
        net.send(tx)
        verdicts.append(("accept", tx.txid.hex()))
    # A corrupted-signature spend must be rejected identically.
    bad_src = alice.create_transaction(
        net.chain,
        [TxOut(3000, p2pkh_script(bob.key_hash))],
        fee=2000,
        exclude=set(net.mempool._spent),
    )
    sig_el = bad_src.vin[0].script_sig.elements[0]
    bad_sig = bytes([sig_el[0] ^ 0x01]) + sig_el[1:]
    bad_tx = Transaction(
        [replace(bad_src.vin[0], script_sig=Script([bad_sig, *bad_src.vin[0].script_sig.elements[1:]]))],
        bad_src.vout,
        version=bad_src.version,
        locktime=bad_src.locktime,
    )
    try:
        net.send(bad_tx)
        verdicts.append(("accept-bad", bad_tx.txid.hex()))
    except Exception as exc:
        verdicts.append(("reject", str(exc)))
    blocks = net.generate(1, alice.key_hash)
    verdicts.append(("tip", net.chain.tip.block.hash.hex(), len(blocks[0].txs)))
    return verdicts


def test_differential_verdicts_cache():
    baseline = _run_scenario(cache=None)  # caches fully disabled
    cached = _run_scenario(cache=SignatureCache())
    evicting = _run_scenario(cache=SignatureCache(max_entries=1))
    assert baseline == cached == evicting


# ----------------------------------------------------------------------
# Differential: the mempool's door and the block's door are one check
# ----------------------------------------------------------------------


def _p2pkh_spend(net, alice, bob):
    return alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )


def _carrier_spend(on_curve):
    def build(net, alice, bob):
        lock = multisig_script(
            1, [bob.default_key.public.encoded, _pseudo_key(on_curve)]
        )
        net.send(alice.create_transaction(net.chain, [TxOut(9000, lock)], fee=2000))
        net.generate(1, alice.key_hash)
        return bob.create_transaction(
            net.chain, [TxOut(1000, p2pkh_script(alice.key_hash))], fee=2000
        )

    return build


def _bad_signature(net, alice, bob):
    return corrupt_signature(_p2pkh_spend(net, alice, bob))


def _wrong_key(net, alice, bob):
    tx = _p2pkh_spend(net, alice, bob)
    other = bob.sign_input(tx, 0, p2pkh_script(bob.key_hash))
    return tx.with_input_script(0, other.vin[0].script_sig)


def _non_push_script_sig(net, alice, bob):
    return non_push(_p2pkh_spend(net, alice, bob))


def _premature_coinbase_spend(net, alice, bob):
    [block] = net.generate(1, alice.key_hash)
    coinbase = block.txs[0]
    tx = Transaction(
        [TxIn(coinbase.outpoint(0))],
        [TxOut(coinbase.vout[0].value - 2000, p2pkh_script(bob.key_hash))],
    )
    return alice.sign_all(tx, [coinbase.vout[0].script_pubkey])


@pytest.mark.parametrize(
    "build, refusal",
    [
        (_p2pkh_spend, None),
        (_carrier_spend(on_curve=True), None),
        (_carrier_spend(on_curve=False), None),
        (_bad_signature, "script validation failed on input 0"),
        (_wrong_key, "script validation failed on input 0"),
        (
            _non_push_script_sig,
            "script validation failed on input 0: scriptSig must be push-only",
        ),
        (_premature_coinbase_spend, "premature spend of coinbase output"),
    ],
    ids=[
        "p2pkh", "carrier-on-curve", "carrier-off-curve", "bad-signature",
        "wrong-key", "non-push-scriptsig", "premature-coinbase",
    ],
)
def test_mempool_verdict_equals_block_verdict(build, refusal):
    """What ``Mempool.accept`` says of a transaction (standardness off, as
    ``send_raw``) is what a block holding only that transaction is told:
    both doors are ``check_tx_inputs``."""
    net, alice, bob = _funded_net()
    tx = build(net, alice, bob)
    try:
        net.send_raw(tx)
        at_mempool = None
    except MempoolValidationError as exc:
        at_mempool = str(exc)
    sigcache.set_default_cache(SignatureCache())  # the second door asks cold
    miner = Miner(net.chain, bob.key_hash)
    template = miner.assemble()
    block = miner.grind(
        build_block(
            template.header.prev_hash,
            [template.txs[0], tx],
            template.header.timestamp,
            template.header.bits,
        )
    )
    try:
        assert net.chain.add_block(block)
        at_block = None
    except ValidationError as exc:
        at_block = str(exc)
    assert at_mempool == at_block == refusal


# ----------------------------------------------------------------------
# Differential: cache-before-decode checker vs the decode-first oracle
# ----------------------------------------------------------------------


def _decode_first_checker(tx, input_index, script_code, sighash_cache, cache):
    """The checker as it stood while decoding came before the sigcache.

    Test-only oracle: parse signature and key, then sighash, then cache,
    then ECDSA.
    """

    def checker(sig_with_type: bytes, pubkey_bytes: bytes) -> bool:
        if len(sig_with_type) < 2:
            return False
        hash_type = sig_with_type[-1]
        sig_bytes = sig_with_type[:-1]
        try:
            signature = Signature.decode(sig_bytes)
            pubkey = Point.decode(pubkey_bytes)
        except ValueError:
            return False
        try:
            if sighash_cache is not None:
                digest = sighash_cache.digest(input_index, script_code, hash_type)
            else:
                digest = signature_hash(tx, input_index, script_code, hash_type)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if cache is not None:
            cached = cache.get(digest, pubkey_bytes, sig_bytes)
            if cached is not None:
                return cached
        verdict = ecdsa_verify(pubkey, digest, signature)
        if cache is not None:
            cache.put(digest, pubkey_bytes, sig_bytes, verdict)
        return verdict

    return checker


def _decodes(pubkey_bytes: bytes) -> bool:
    try:
        Point.decode(pubkey_bytes)
    except ValueError:
        return False
    return True


def _pseudo_key(on_curve: bool) -> bytes:
    """A ``metadata_pubkey`` that does / does not decode as a point."""
    candidates = (
        metadata_pubkey(hashlib.sha256(b"pseudo-%d" % i).digest()) for i in range(64)
    )
    return next(key for key in candidates if _decodes(key) == on_curve)


_DIFF_KEY = PrivateKey.from_seed(b"diff-signer")
_DIFF_OTHER = PrivateKey.from_seed(b"diff-bystander")
_DIFF_CODE = p2pkh_script(_DIFF_KEY.public.key_hash)
_DIFF_TX = Transaction(
    [TxIn(OutPoint(b"\x11" * 32, 0)), TxIn(OutPoint(b"\x22" * 32, 1))],
    [TxOut(5000, _DIFF_CODE), TxOut(7000, _DIFF_CODE)],
)
_HASH_TYPES = [0x01, 0x02, 0x03, 0x81, 0x83, 0x00, 0x04, 0x80, 0xFF]
# Signatures that verify for exactly one (input index, hash type) each.
_GOOD_SIGS = [
    _DIFF_KEY.sign_digest(signature_hash(_DIFF_TX, index, _DIFF_CODE, ht)).encode()
    for index in (0, 1)
    for ht in (0x01, 0x83)
]
_SIG_BODIES = st.one_of(
    st.sampled_from(
        _GOOD_SIGS
        + [bytes([_GOOD_SIGS[0][0] ^ 1]) + _GOOD_SIGS[0][1:]]  # corrupted
        + [b"", b"\x00" * 63, b"\x00" * 64, b"\x00" * 65, b"\xff" * 64]
    ),
    st.binary(min_size=60, max_size=68),
)
_KEYS = st.one_of(
    st.sampled_from(
        [
            _DIFF_KEY.public.encoded,
            _DIFF_KEY.public.point.encode(compressed=False),
            _DIFF_OTHER.public.encoded,
            _pseudo_key(on_curve=True),
            _pseudo_key(on_curve=False),
            b"\x02" + b"\xff" * 32,  # x >= p
            b"\x04" + b"\x01" * 64,  # uncompressed, off-curve
            b"\x05" + _DIFF_KEY.public.encoded[1:],  # bad prefix
            _DIFF_KEY.public.encoded[:32],  # short
            b"",
        ]
    ),
    st.binary(min_size=32, max_size=33).map(lambda tail: b"\x03" + tail),
)
_CACHE_STATES = ["disabled", "cold", "warm-true", "warm-false"]


def _cache_in_state(state, index, sig_with_type, pubkey_bytes):
    """A fresh cache in the named state for this ask.

    Pre-warming respects the cache's one invariant: the checkers store a
    triple only after its key decoded, so an undecodable key is never in it.
    """
    if state == "disabled":
        return None
    cache = SignatureCache()
    if state != "cold" and sig_with_type and _decodes(pubkey_bytes):
        try:
            digest = signature_hash(_DIFF_TX, index, _DIFF_CODE, sig_with_type[-1])
        except ValueError:
            return cache
        cache.put(digest, pubkey_bytes, sig_with_type[:-1], state == "warm-true")
    return cache


def _outcome(checker, sig_with_type, pubkey_bytes):
    try:
        return checker(sig_with_type, pubkey_bytes)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


@settings(max_examples=400, deadline=None)
@given(
    sig_body=_SIG_BODIES,
    hash_type=st.one_of(st.none(), st.sampled_from(_HASH_TYPES)),
    pubkey_bytes=_KEYS,
    index=st.sampled_from([0, 1, 2, 7, -1]),
    state=st.sampled_from(_CACHE_STATES),
    midstates=st.booleans(),
)
def test_checker_matches_decode_first_oracle(
    sig_body, hash_type, pubkey_bytes, index, state, midstates
):
    """Same verdict or same error, same cache contents."""
    sig_with_type = sig_body + (b"" if hash_type is None else bytes([hash_type]))
    ours_cache = _cache_in_state(state, index, sig_with_type, pubkey_bytes)
    oracle_cache = _cache_in_state(state, index, sig_with_type, pubkey_bytes)
    ours = make_sig_checker(
        _DIFF_TX, index, _DIFF_CODE,
        sighash_cache=SighashCache(_DIFF_TX) if midstates else None,
        sig_cache=ours_cache,
    )
    oracle = _decode_first_checker(
        _DIFF_TX, index, _DIFF_CODE,
        SighashCache(_DIFF_TX) if midstates else None, oracle_cache,
    )
    assert _outcome(ours, sig_with_type, pubkey_bytes) == _outcome(
        oracle, sig_with_type, pubkey_bytes
    )
    if state != "disabled":
        assert ours_cache._lru._entries == oracle_cache._lru._entries


def test_oracle_differential_reaches_every_branch():
    """The strategy above is not vacuous: pin one example per outcome."""
    good = _GOOD_SIGS[0] + b"\x01"
    pub = _DIFF_KEY.public.encoded

    def ask(index, sig, key, cache=None):
        checker = make_sig_checker(_DIFF_TX, index, _DIFF_CODE, sig_cache=cache)
        return _outcome(checker, sig, key)

    assert ask(0, good, pub) is True
    assert ask(1, good, pub) is False  # signed for the other input
    assert ask(0, good, _pseudo_key(on_curve=False)) is False
    out_of_range = ask(2, good, pub)
    assert out_of_range[0] == "ValidationError" and "out of range" in out_of_range[1]
    # Decode-first order: no key, no signature — before the sighash objects.
    assert ask(2, good, _pseudo_key(on_curve=False)) is False
    assert ask(0, good[:-1] + b"\x04", pub)[0] == "ValidationError"
    assert ask(0, good[:-1] + b"\x04", b"\x02" + b"\xff" * 32) is False
    # A cached verdict is believed for a byte-equal re-ask, either way.
    warm = SignatureCache()
    warm.put(signature_hash(_DIFF_TX, 1, _DIFF_CODE, 1), pub, good[:-1], True)
    assert ask(1, good, pub, cache=warm) is True


# ----------------------------------------------------------------------
# The warm path does no bignum arithmetic
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pseudo_on_curve", [True, False])
def test_second_validation_does_no_curve_arithmetic(monkeypatch, pseudo_on_curve):
    """A P2PKH spend and a 1-of-2 carrier spend, validated twice: the
    second pass takes no square root and runs no ECDSA verification."""
    net, alice, bob = _funded_net()
    carrier_lock = multisig_script(
        1, [bob.default_key.public.encoded, _pseudo_key(pseudo_on_curve)]
    )
    net.send(alice.create_transaction(net.chain, [TxOut(9000, carrier_lock)], fee=2000))
    net.generate(1, alice.key_hash)
    p2pkh_spend = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    carrier_spend = bob.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(alice.key_hash))], fee=2000
    )
    assert carrier_spend.vin[0].script_sig.elements[0] == 0  # OP_0: multisig

    counts = {"sqrt": 0, "verify": 0}
    real_lift_x, real_verify = secp256k1.lift_x, validation.ecdsa_verify

    def counting_lift_x(x, odd):
        counts["sqrt"] += 1
        return real_lift_x(x, odd)

    def counting_verify(pubkey, digest, signature):
        counts["verify"] += 1
        return real_verify(pubkey, digest, signature)

    monkeypatch.setattr(secp256k1, "lift_x", counting_lift_x)
    monkeypatch.setattr(validation, "ecdsa_verify", counting_verify)
    sigcache.set_default_cache(SignatureCache())
    secp256k1._decompress.cache_clear()

    def validate_both():
        for tx in (p2pkh_spend, carrier_spend):
            check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)

    validate_both()
    assert counts["verify"] >= 2 and counts["sqrt"] >= 2  # the cold pass paid
    counts.update(sqrt=0, verify=0)
    validate_both()
    assert counts == {"sqrt": 0, "verify": 0}


# ----------------------------------------------------------------------
# Script verdicts by txid: what a hit still checks, what is never recorded
# ----------------------------------------------------------------------


def _view(entries) -> UTXOSet:
    view = UTXOSet()
    for outpoint, entry in entries.items():
        view.add(outpoint, entry)
    return view


def _two_input_spend(net, alice, bob):
    coin = net.chain.utxos.get(alice.spendables(net.chain)[0].outpoint).output
    tx = alice.create_transaction(
        net.chain, [TxOut(coin.value + 5000, p2pkh_script(bob.key_hash))], fee=2000
    )
    assert len(tx.vin) == 2
    return tx


def _warm(tx, utxos, height) -> SignatureCache:
    """Validate ``tx`` once where it is valid; its verdict is then cached."""
    check_tx_inputs(tx, utxos, height)
    cache = sigcache.default_cache()
    assert cache.has_tx(tx.txid)
    return cache


def test_warm_verdict_still_checks_that_inputs_are_unspent(script_runs):
    net, alice, bob = _funded_net()
    tx = _two_input_spend(net, alice, bob)
    _warm(tx, net.chain.utxos, net.chain.height + 1)
    # Spent: a conflicting spend of input 1's coin is mined first.
    rival = alice.sign_all(
        Transaction([tx.vin[1]], [TxOut(7000, p2pkh_script(bob.key_hash))]),
        [p2pkh_script(alice.key_hash)],
    )
    net.send(rival)
    net.generate(1, alice.key_hash)
    with pytest.raises(MissingInputError, match="missing or spent input"):
        check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    with pytest.raises(MempoolMissingInputError, match="missing or spent input"):
        net.send(tx)
    # Missing: a view that never held either coin.
    with pytest.raises(MissingInputError, match="missing or spent input"):
        check_tx_inputs(tx, UTXOSet(), net.chain.height + 1)
    assert len(script_runs) == 2 + 1  # tx's two inputs once, the rival's one


def test_warm_verdict_still_checks_coinbase_maturity():
    net, alice, bob = _funded_net()
    tx = _premature_coinbase_spend(net, alice, bob)
    height = net.chain.height + 1
    _warm(tx, net.chain.utxos, height + validation.COINBASE_MATURITY)
    with pytest.raises(ValidationError, match="premature spend of coinbase output"):
        check_tx_inputs(tx, net.chain.utxos, height)
    with pytest.raises(MempoolValidationError, match="premature spend"):
        net.send(tx)


def test_warm_verdict_still_checks_the_value_rule():
    """Legacy sighashes do not commit to the amount spent, so the one
    transaction is within its inputs in one view and over them in another."""
    net, alice, bob = _funded_net()
    tx = _p2pkh_spend(net, alice, bob)
    _warm(tx, net.chain.utxos, net.chain.height + 1)
    entry = net.chain.utxos.get(tx.vin[0].prevout)
    poorer = _view(
        {tx.vin[0].prevout: replace(entry, output=replace(entry.output, value=999))}
    )
    with pytest.raises(ValidationError, match="outputs exceed inputs"):
        check_tx_inputs(tx, poorer, net.chain.height + 1)


def test_a_transaction_over_its_inputs_is_not_recorded():
    net, alice, bob = _funded_net()
    coin = alice.spendables(net.chain)[0]
    tx = alice.sign_all(
        Transaction(
            [TxIn(coin.outpoint)],
            [TxOut(coin.output.value + 1, p2pkh_script(bob.key_hash))],
        ),
        [coin.output.script_pubkey],
    )
    with pytest.raises(ValidationError, match="outputs exceed inputs"):
        check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert not sigcache.default_cache().has_tx(tx.txid)


def test_warm_verdict_still_checks_finality_at_the_mempool():
    net, alice, bob = _funded_net()
    coin = alice.spendables(net.chain)[0]
    tx = alice.sign_all(
        Transaction(
            [TxIn(coin.outpoint, sequence=0)],
            [TxOut(coin.output.value - 2000, p2pkh_script(bob.key_hash))],
            locktime=net.chain.height + 50,
        ),
        [coin.output.script_pubkey],
    )
    _warm(tx, net.chain.utxos, net.chain.height + 1)
    with pytest.raises(MempoolError, match="not final"):
        net.send(tx)


def test_warm_verdicts_still_meet_the_in_block_double_spend_set():
    net, alice, bob = _funded_net()
    coin = alice.spendables(net.chain)[0]
    spends = [
        alice.sign_all(
            Transaction(
                [TxIn(coin.outpoint)],
                [TxOut(coin.output.value - fee, p2pkh_script(bob.key_hash))],
            ),
            [coin.output.script_pubkey],
        )
        for fee in (1000, 2000)
    ]
    for tx in spends:
        _warm(tx, net.chain.utxos, net.chain.height + 1)
    miner = Miner(net.chain, bob.key_hash)
    template = miner.assemble()
    block = miner.grind(
        build_block(
            template.header.prev_hash,
            [template.txs[0], *spends],
            template.header.timestamp,
            template.header.bits,
        )
    )
    tip = net.chain.tip.block.hash
    with pytest.raises(ValidationError, match="missing or spent input"):
        net.chain.add_block(block)
    assert net.chain.tip.block.hash == tip


def test_a_transaction_with_one_unauthorised_input_is_never_recorded():
    net, alice, bob = _funded_net()
    tx = _two_input_spend(net, alice, bob)
    sig, key = tx.vin[1].script_sig.elements
    forged = tx.with_input_script(
        1, Script([sig[:10] + bytes([sig[10] ^ 0x01]) + sig[11:], key])
    )
    cache = sigcache.default_cache()
    for _ in range(2):  # input 0's good triple is cached; that is not a verdict
        with pytest.raises(ValidationError, match="failed on input 1$"):
            check_tx_inputs(forged, net.chain.utxos, net.chain.height + 1)
        assert not cache.has_tx(forged.txid)
        assert sorted(cache._lru._entries.values()) == [False, True]


def test_a_non_push_script_sig_is_never_recorded():
    net, alice, bob = _funded_net()
    honest = _p2pkh_spend(net, alice, bob)
    cache = _warm(honest, net.chain.utxos, net.chain.height + 1)
    hostile = non_push(honest)
    for _ in range(2):
        with pytest.raises(ValidationError, match="scriptSig must be push-only"):
            check_tx_inputs(hostile, net.chain.utxos, net.chain.height + 1)
        assert not cache.has_tx(hostile.txid)


def test_an_altered_push_is_another_txid_and_misses(script_runs):
    """The malleability boundary: the honest twin's verdict is cached, the
    copy's txid is not the twin's, so the copy is judged on its own."""
    net, alice, bob = _funded_net()
    honest = _p2pkh_spend(net, alice, bob)
    cache = _warm(honest, net.chain.utxos, net.chain.height + 1)
    forged = corrupt_signature(honest)
    assert forged.txid != honest.txid and forged.vout == honest.vout
    with pytest.raises(ValidationError, match="failed on input 0$"):
        check_tx_inputs(forged, net.chain.utxos, net.chain.height + 1)
    assert not cache.has_tx(forged.txid)
    assert len(script_runs) == 2  # the twin's, then the forgery's


def test_disabled_cache_executes_every_script(script_runs):
    net, alice, bob = _funded_net()
    tx = _two_input_spend(net, alice, bob)
    sigcache.set_default_cache(None)
    for _ in range(3):
        check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert len(script_runs) == 3 * len(tx.vin)


def test_a_fresh_default_cache_holds_no_verdict(script_runs):
    """What ``bench/common.fresh_process_caches`` does between rounds: a
    verdict kept anywhere but in the replaced object would leak across."""
    net, alice, bob = _funded_net()
    tx = _two_input_spend(net, alice, bob)
    _warm(tx, net.chain.utxos, net.chain.height + 1)
    sigcache.set_default_cache(SignatureCache())
    assert len(sigcache.default_cache()) == 0
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert len(script_runs) == 2 * len(tx.vin)
    sigcache.default_cache().clear()
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert len(script_runs) == 3 * len(tx.vin)


def test_the_lru_bound_counts_both_key_shapes():
    cache = SignatureCache(max_entries=2)
    cache.put(b"d", b"p", b"s", True)
    cache.put_tx(b"\x01" * 32)
    assert cache.has_tx(b"\x01" * 32) and len(cache) == 2
    cache.put_tx(b"\x02" * 32)
    assert len(cache) == 2
    assert cache.get(b"d", b"p", b"s") is None  # the oldest entry, a triple
    cache.put(b"d", b"p", b"s", False)
    assert not cache.has_tx(b"\x01" * 32)  # and now a txid
    assert cache.has_tx(b"\x02" * 32)
