"""Reference implementations the suite (and the smoke scripts) compare
the program against.  Nothing under ``src/`` imports this module."""

from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.wallet import Spendable
from repro.core.overlay import OverlayError, check_carrier_correspondence
from repro.core.transaction import TypecoinTransaction, referenced_txids
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    resolve,
    world_at,
)
from repro.core.verifier import VerificationError
from repro.crypto import secp256k1 as ec
from repro.lf.walk import _try_delta, convertible, normalize, substitute
from repro.lf.syntax import (
    App,
    Const,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TPi,
    Var,
)
from repro.logic.conditions import Before, CAnd, CNot, CTrue, Spent
from repro.logic.propositions import (
    Atom,
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Plus,
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
)


def scalar_mult_naive(k, p=ec.GENERATOR):
    """``k·P`` by plain double-and-add, one bit at a time — the ladder the
    comb, the w-NAF quarters, GLV and Strauss/Shamir replaced."""
    k %= ec.CURVE_ORDER
    if k == 0 or p.is_infinity:
        return ec.INFINITY
    result = (0, 0, 0)
    addend = ec._to_jacobian(p)
    while k:
        if k & 1:
            result = ec._jacobian_add(result, addend)
        addend = ec._jacobian_double(addend)
        k >>= 1
    return ec._from_jacobian(result)


def rebuilt(txn):
    """``txn`` built afresh from its fields, so that its encoding, payload
    and hash are written by the encoder — a decoded transaction keeps the
    bytes it was read from, and comparing those with themselves checks
    nothing."""
    return TypecoinTransaction(
        txn.basis, txn.grant, txn.inputs, txn.outputs, txn.proof
    )


def full_scan_spendables(wallet, chain):
    """``Wallet.spendables`` as it was before the table kept an owner
    index: classify every entry of the whole unspent-txout table."""
    result = []
    for outpoint, entry in chain.utxos.items():
        if not wallet._controls(entry.output.script_pubkey):
            continue
        if entry.is_coinbase and chain.height - entry.height < COINBASE_MATURITY:
            continue
        result.append(
            Spendable(outpoint, entry.output, entry.height, entry.is_coinbase)
        )
    result.sort(key=lambda s: (s.height, s.outpoint))
    return result


def sweep_order(transactions):
    """A parents-first order by repeated in-order sweeps over the bundle,
    each placing whatever has become ready (quadratic on a reversed
    chain) — how ``core.verifier`` ordered a bundle before it levelled."""
    pending = dict(transactions)
    placed = []
    placed_set = set()
    while pending:
        progressed = False
        for txid in list(pending):
            deps = {
                dep
                for dep in referenced_txids(pending[txid])
                if dep in transactions and dep != txid
            }
            if deps <= placed_set:
                placed.append(txid)
                placed_set.add(txid)
                del pending[txid]
                progressed = True
        if not progressed:
            raise VerificationError(
                "claim bundle contains a dependency cycle"
            )
    return placed


def replay_claim(chain, bundle, min_confirmations=1, require_unspent=True):
    """``verify_claim`` as it was while the library and the service each
    had their own §3 loop: the library's, in sweep order, with no levels
    and no memo.  Returns the ledger; raises ``VerificationError``."""
    ledger = Ledger()
    for txid in sweep_order(bundle.transactions):
        txn = bundle.transactions[txid]
        found = chain.get_transaction(txid)
        if found is None:
            raise VerificationError(
                f"carrier {txid[:8].hex()}… is not in the active chain"
            )
        carrier, height = found
        confirmations = chain.height - height + 1
        if confirmations < min_confirmations:
            raise VerificationError(
                f"carrier {txid[:8].hex()}… has {confirmations}"
                f" confirmations, policy requires {min_confirmations}"
            )
        try:
            check_carrier_correspondence(carrier, txn)
        except OverlayError as exc:
            raise VerificationError(f"hash embedding check failed: {exc}") from exc
        try:
            check_typecoin_transaction(ledger, txn, world_at(chain, height))
        except ValidationFailure as exc:
            raise VerificationError(f"type check failed: {exc}") from exc
        ledger.register(txid, txn, resolve(txid, txn))

    target = ledger.output(bundle.outpoint.txid, bundle.outpoint.index)
    if target is None:
        raise VerificationError("claimed txout is not produced by the bundle")
    if not convertible(target.prop, bundle.prop):
        raise VerificationError(
            f"claimed type {normalize(bundle.prop)} but output has type"
            f" {normalize(target.prop)}"
        )
    if require_unspent and chain.is_spent(bundle.outpoint):
        raise VerificationError("claimed txout has already been spent")
    return ledger


# ----------------------------------------------------------------------
# Normal forms as they were before they were kept on the node: every call
# rebuilds every node, whether or not anything under it reduced.
# ----------------------------------------------------------------------


def plain_normalize(term, _depth=0):
    """``repro.lf.walk.normalize`` on an LF term, with no memo."""
    if _depth > 10_000:
        raise RecursionError("normalization diverged")
    if isinstance(term, (Var, Const, PrincipalLit, NatLit)):
        return term
    if isinstance(term, Lam):
        return Lam(
            term.var, plain_normalize_family(term.domain), plain_normalize(term.body)
        )
    if isinstance(term, App):
        func = plain_normalize(term.func, _depth + 1)
        arg = plain_normalize(term.arg, _depth + 1)
        if isinstance(func, Lam):
            return plain_normalize(substitute(func.body, func.var, arg), _depth + 1)
        reduced = App(func, arg)
        delta = _try_delta(reduced)
        return reduced if delta is None else delta
    raise TypeError(f"not an LF term: {term!r}")


def plain_normalize_family(family):
    """``repro.lf.walk.normalize`` on a type family, with no memo."""
    if isinstance(family, TConst):
        return family
    if isinstance(family, TApp):
        return TApp(plain_normalize_family(family.family), plain_normalize(family.arg))
    if isinstance(family, TPi):
        return TPi(
            family.var,
            plain_normalize_family(family.domain),
            plain_normalize_family(family.body),
        )
    raise TypeError(f"not an LF family: {family!r}")


def plain_normalize_cond(cond):
    """``repro.lf.walk.normalize`` on a condition, with no memo."""
    if isinstance(cond, (CTrue, Spent)):
        return cond
    if isinstance(cond, CAnd):
        return CAnd(plain_normalize_cond(cond.left), plain_normalize_cond(cond.right))
    if isinstance(cond, CNot):
        return CNot(plain_normalize_cond(cond.body))
    if isinstance(cond, Before):
        return Before(plain_normalize(cond.time))
    raise TypeError(f"not a condition: {cond!r}")


def plain_normalize_prop(prop):
    """``repro.lf.walk.normalize`` on a proposition, with no memo."""
    if isinstance(prop, Atom):
        return Atom(plain_normalize_family(prop.family))
    if isinstance(prop, Lolli):
        return Lolli(
            plain_normalize_prop(prop.antecedent), plain_normalize_prop(prop.consequent)
        )
    if isinstance(prop, (Tensor, With, Plus)):
        return type(prop)(
            plain_normalize_prop(prop.left), plain_normalize_prop(prop.right)
        )
    if isinstance(prop, (Zero, One)):
        return prop
    if isinstance(prop, Bang):
        return Bang(plain_normalize_prop(prop.body))
    if isinstance(prop, (Forall, Exists)):
        return type(prop)(
            prop.var,
            plain_normalize_family(prop.domain),
            plain_normalize_prop(prop.body),
        )
    if isinstance(prop, Says):
        return Says(plain_normalize(prop.principal), plain_normalize_prop(prop.body))
    if isinstance(prop, Receipt):
        return Receipt(
            plain_normalize_prop(prop.prop), prop.amount, plain_normalize(prop.recipient)
        )
    if isinstance(prop, IfProp):
        return IfProp(
            plain_normalize_cond(prop.condition), plain_normalize_prop(prop.body)
        )
    raise TypeError(f"not a proposition: {prop!r}")


def median_time_past_walk(chain, block_hash):
    """The median of a block's timestamp and its ten predecessors', read by
    walking parent links — the walk each index entry now does once."""
    times = []
    entry = chain.entry(block_hash)
    while entry is not None and len(times) < 11:
        times.append(entry.block.header.timestamp)
        entry = chain.entry(entry.prev) if entry.prev else None
    times.sort()
    return times[len(times) // 2]
