"""Transaction validity: the four rules of paper §2.

"In order for a transaction to be valid (a prerequisite for inclusion in the
blockchain):

1. The sum of the outputs must equal the sum of the inputs (minus a
   transaction fee ...).
2. Each input amount must be equal to the output amount it identifies.
3. All the inputs must identify distinct unspent outputs.
4. All of the inputs' digital signatures must be valid signatures of the
   full transaction for the public key of the output being spent."

Rule 2 is how Bitcoin's ledger model works by construction (an input *is*
the whole prior output); rules 1, 3, 4 are checked here against a UTXO view.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from repro import obs
from repro.bitcoin import sigcache
from repro.bitcoin.script import Script, ScriptError, execute_script
from repro.bitcoin.sighash import SighashCache, signature_hash
from repro.bitcoin.standard import _is_pubkey_shaped
from repro.bitcoin.transaction import MAX_MONEY, SEQUENCE_FINAL, Transaction
from repro.bitcoin.utxo import COINBASE_MATURITY, UTXOSet
from repro.crypto.ecdsa import Signature, verify as ecdsa_verify
from repro.crypto.secp256k1 import Point


class ValidationError(Exception):
    """A transaction or block violates a consensus rule."""


class MissingInputError(ValidationError):
    """An input is spent already or was never created — the one consensus
    failure an honest peer can relay (spent while the tx was in flight)."""


LOCKTIME_THRESHOLD = 500_000_000  # below: block height; above: unix time


def is_final(tx: Transaction, height: int, block_time: int) -> bool:
    """Is the transaction final (includable) at this height/time?

    nLockTime semantics: a transaction with ``locktime != 0`` may not enter
    a block until the lock expires — ``locktime < height`` for small values,
    ``locktime < block_time`` for timestamps — unless every input opts out
    with a final sequence number.  This is the native Bitcoin mechanism for
    contracts "that can be reversed if not completed by a deadline" that
    the paper's §8 contrasts with Typecoin's escrow approach.
    """
    if tx.locktime == 0:
        return True
    if all(txin.sequence == SEQUENCE_FINAL for txin in tx.vin):
        return True
    cutoff = height if tx.locktime < LOCKTIME_THRESHOLD else block_time
    return tx.locktime < cutoff


@dataclass(frozen=True)
class TxValidity:
    """Outcome of full input validation: the fee the transaction pays."""

    fee: int


def check_transaction(tx: Transaction) -> None:
    """Context-free structural checks (no UTXO view needed), run once per
    transaction object that passes them."""
    tx._well_formed  # raises ValidationError until it holds


def _check_structure(tx: Transaction) -> None:
    if not tx.vin:
        raise ValidationError("transaction has no inputs")
    if not tx.vout:
        raise ValidationError("transaction has no outputs")
    total = 0
    for out in tx.vout:
        if out.value < 0:
            raise ValidationError("negative output value")
        if out.value > MAX_MONEY:
            raise ValidationError("output value exceeds max money")
        total += out.value
        if total > MAX_MONEY:
            raise ValidationError("total output value exceeds max money")
    # Rule 3, within-transaction half: inputs must be distinct.
    prevouts = [txin.prevout for txin in tx.vin]
    if len(set(prevouts)) != len(prevouts):
        raise ValidationError("duplicate inputs")
    if tx.is_coinbase:
        return
    for txin in tx.vin:
        if txin.prevout.is_null:
            raise ValidationError("null prevout in non-coinbase transaction")


# Sentinel: "use the process-wide default signature cache".  Callers pass
# an explicit ``None`` to bypass caching (differential tests do).
_DEFAULT_SIG_CACHE = object()


def _check_signature(
    sighash, cache, sig_with_type: bytes, pubkey_bytes: bytes
) -> bool:
    """One signature check, ordered as Bitcoin Core's caching checker.

    Byte-shape checks, the digest (``sighash(hash_type)``), the signature
    cache on the raw bytes; only a miss decodes the key — a modular square
    root — and runs ECDSA.  The cache key is the exact ``(digest, pubkey
    bytes, sig bytes)`` triple and a triple is stored only after it
    decoded, so a hit is believed unparsed.
    """
    if len(sig_with_type) != 65 or not _is_pubkey_shaped(pubkey_bytes):
        return False
    sig_bytes = sig_with_type[:-1]
    try:
        digest = sighash(sig_with_type[-1])
    except ValueError as exc:
        try:  # an undecodable key answers False before the sighash is asked
            Point.decode(pubkey_bytes)
        except ValueError:
            return False
        raise ValidationError(str(exc)) from exc
    if cache is not None:
        cached = cache.get(digest, pubkey_bytes, sig_bytes)
        if cached is not None:
            return cached
    try:
        pubkey = Point.decode(pubkey_bytes)
    except ValueError:
        return False
    verdict = ecdsa_verify(pubkey, digest, Signature.decode(sig_bytes))
    if cache is not None:
        cache.put(digest, pubkey_bytes, sig_bytes, verdict)
    return verdict


def make_sig_checker(
    tx: Transaction,
    input_index: int,
    script_code,
    sighash_cache: SighashCache | None = None,
    sig_cache=_DEFAULT_SIG_CACHE,
):
    """Build the script-engine signature callback for one input.

    The callback receives ``signature || hashtype_byte`` and a pubkey, as
    Bitcoin scripts push them, computes the corresponding sighash over the
    *spending* transaction, and verifies with ECDSA.

    ``sighash_cache`` (built per transaction) reuses serialization midstates
    across this transaction's inputs; ``sig_cache`` skips ECDSA entirely for
    `(digest, pubkey, sig)` triples already verified — by default the shared
    :func:`repro.bitcoin.sigcache.default_cache`, pass ``None`` to disable.
    """
    if sighash_cache is not None:
        sighash = partial(sighash_cache.digest, input_index, script_code)
    else:
        sighash = partial(signature_hash, tx, input_index, script_code)
    if sig_cache is _DEFAULT_SIG_CACHE:
        sig_cache = sigcache.default_cache()
    return partial(_check_signature, sighash, sig_cache)


def check_tx_inputs(tx: Transaction, utxos: UTXOSet, height: int) -> TxValidity:
    """Validate a non-coinbase transaction against a UTXO view.

    Enforces rule 3 (inputs exist and are unspent — being *in* the table is
    being unspent), rule 4 (scripts/signatures authorize each spend), rule 1
    (value out ≤ value in, difference is the fee), plus coinbase maturity.

    Rule 4 is a function of what the txid pins (every scriptSig and, through
    each prevout, the script it spends), so a transaction whose inputs all
    authorised once is recorded in the default :mod:`sigcache` by txid and
    its scripts are not run again; rules 1 and 3 and maturity depend on the
    view and the height and are checked on every call.
    """
    if tx.is_coinbase:
        raise ValidationError("coinbase cannot be validated as a spend")
    check_transaction(tx)

    sig_cache = sigcache.default_cache()
    verified = sig_cache is not None and sig_cache.has_tx(tx.txid)
    sighash_cache = None if verified else SighashCache(tx)
    value_in = 0
    for index, txin in enumerate(tx.vin):
        entry = utxos.get(txin.prevout)
        if entry is None:
            raise MissingInputError(f"missing or spent input {txin.prevout}")
        if entry.is_coinbase and height - entry.height < COINBASE_MATURITY:
            raise ValidationError("premature spend of coinbase output")
        value_in += entry.output.value
        if not verified:
            script_code = entry.output.script_pubkey
            checker = make_sig_checker(
                tx, index, script_code, sighash_cache, sig_cache
            )
            try:
                authorized = execute_script(txin.script_sig, script_code, checker)
            except ScriptError as exc:
                # A scriptSig that is not push-only is refused before it
                # runs; to a peer it is one more input that does not
                # authorize its spend, not a different kind of exception.
                raise ValidationError(
                    f"script validation failed on input {index}: {exc}"
                ) from exc
            if not authorized:
                raise ValidationError(f"script validation failed on input {index}")

    value_out = tx.total_output_value()
    if value_out > value_in:
        raise ValidationError("outputs exceed inputs")
    if not verified and sig_cache is not None:
        sig_cache.put_tx(tx.txid)  # every input authorised, nothing raised
    if obs.ENABLED:
        obs.inc("validation.tx_total")
    return TxValidity(fee=value_in - value_out)


POOL_MIN_INPUTS = 16  # cold inputs that engage the workers (docs/performance.md)
_pool: tuple[int, list] | None = None  # (owner's pid, [(worker, pipe end)])


def prewarm_script_verdicts(txs: tuple[Transaction, ...], utxos: UTXOSet) -> None:
    """Record the txid verdicts of a block's cold transactions that a worker
    authorised and echoed; the caller's ``check_tx_inputs`` still judges all."""
    cache = sigcache.default_cache()
    if cache is None or sum(len(tx.vin) for tx in txs) < POOL_MIN_INPUTS:
        return
    jobs = [(tx, [utxos.get(txin.prevout) for txin in tx.vin]) for tx in txs]
    jobs = [(tx, s) for tx, s in jobs if tx.txid not in cache and None not in s]
    inputs = sum(len(tx.vin) for tx, _ in jobs)
    if inputs < POOL_MIN_INPUTS or (os.cpu_count() or 1) < 2:
        return
    for (tx, _), txid in zip(jobs, _ask_pool(jobs)):
        if txid == tx.txid:
            cache.put_tx(txid)
    if obs.ENABLED and _pool is not None:  # the pool answered
        obs.inc("validation.pool_inputs_total", inputs)


def _ask_pool(jobs) -> list[bytes | None]:
    """Each job's answer, in order; ``[]`` and no pool on any failure."""
    global _pool
    try:
        if _pool is None or _pool[0] != os.getpid():
            import multiprocessing as mp  # on first use: most processes never pay it
            _pool = (os.getpid(), [])
            for _ in range(os.cpu_count()):
                ours, theirs = mp.Pipe()  # not a queue: its lock dies with a worker
                worker = mp.Process(target=_serve, args=(theirs,), daemon=True)
                worker.start()
                theirs.close()
                _pool[1].append((worker, ours))
        workers = _pool[1]
        share = -(-len(jobs) // len(workers))  # ceiling division
        for i, (_, conn) in enumerate(workers):
            conn.send([
                (tx.serialize(), [e.output.script_pubkey.serialize() for e in spent])
                for tx, spent in jobs[i * share : (i + 1) * share]
            ])
        return [answer for _, conn in workers for answer in conn.recv()]
    except Exception:  # a killed worker, a broken pipe, a bad reply
        _drop_pool()
        return []


def _drop_pool() -> None:
    """Stop this process's workers; a forked child only forgets its parent's."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        for worker, _ in _pool[1]:
            worker.kill()
            worker.join()
    _pool = None


def _serve(conn) -> None:
    """A worker: answer each share of jobs until the parent hangs up."""
    obs.disable()
    try:
        while True:
            conn.send([_authorised_txid(*job) for job in conn.recv()])
    except EOFError:
        return


def _authorised_txid(raw: bytes, locks: list[bytes]) -> bytes | None:
    """``raw``'s txid if every input authorises spending ``locks``' outputs."""
    try:
        tx = Transaction.parse(raw)
        sighash_cache = SighashCache(tx)
        scripts = map(Script.parse, locks)
        for index, (txin, code) in enumerate(zip(tx.vin, scripts, strict=True)):
            checker = make_sig_checker(tx, index, code, sighash_cache, None)
            if not execute_script(txin.script_sig, code, checker):
                return None
    except Exception:  # the parent re-derives the refusal, with its message
        return None
    return tx.txid
