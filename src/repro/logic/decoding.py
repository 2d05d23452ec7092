"""Decoding the canonical wire format back into syntax trees.

:mod:`repro.logic.encoding` defines the α-invariant byte format used for
hashing and signing; this module is its inverse, so that claim bundles and
transactions can actually travel between principals (§3: the prover
"provides the Typecoin transaction T_I, as well as 𝔗").

Bound variables are regenerated from de Bruijn depth (``u0, u1, …`` for LF
binders, ``p0, p1, …`` for proof binders), so ``decode(encode(x))`` is
α-equivalent to ``x`` and ``encode(decode(b)) == b``.  Bytes are hostile:
each decoder either raises :class:`DecodingError` or returns a value whose
encoding is exactly the bytes it read, so input the encoder cannot have
written (a non-minimal LEB128, an unknown kind sort) is refused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.lf.syntax import (
    BUILTIN,
    THIS,
    App,
    Const,
    ConstRef,
    Kind,
    KindSort,
    KindT,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TPi,
    Term,
    TypeFamily,
    Var,
)
from repro.logic import proofterms as pt
from repro.logic.conditions import Before, CAnd, CNot, Condition, CTrue, Spent
from repro.logic.propositions import (
    Atom,
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Plus,
    Proposition,
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
)


class DecodingError(Exception):
    """Malformed or truncated wire data."""


# The deepest term the decoders build before refusing the input.  Wire
# data is hostile and the decoders recurse once per constructor, so without
# a bound 5 KB of ``¬`` leaves them as RecursionError, not DecodingError.
# Measured: the deepest transaction of the benchmark's working set
# (``build_working_set(7, 1)``, 79 transactions) nests 23 levels, the
# deepest anything in tier-1 decodes 15, and a plain transfer 3 per
# input/output pair, so 256 is an order of magnitude of headroom and ≈ 85
# pairs.  The checkers take ≈ 990 levels before Python's own limit;
# ``decode_proof``, at three frames a level the costliest decoder, reaches
# 256 in ≈ 770 of the interpreter's 1 000 frames.
MAX_NESTING = 256


@dataclass
class Cursor:
    """A byte reader with LEB128/blob primitives and binder environments."""

    data: bytes
    pos: int = 0
    nesting: int = 0  # constructor levels open above the read position

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise DecodingError("unexpected end of input")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def uint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if byte == 0 and shift:
                    raise DecodingError("non-minimal LEB128 value")
                return result
            shift += 7
            if shift > 63:
                raise DecodingError("LEB128 value too large")

    def blob(self) -> bytes:
        length = self.uint()
        if self.pos + length > len(self.data):
            raise DecodingError("truncated blob")
        value = self.data[self.pos : self.pos + length]
        self.pos += length
        return value

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _nested(decode):
    """Count one constructor level around ``decode``; refuse past the bound.

    The count lives on the cursor, so it spans every syntactic category a
    term passes through (a proof inside a proposition inside a family …)
    and does not depend on how deep the caller's own stack is.
    """

    @functools.wraps(decode)
    def bounded(cursor: Cursor, *depths: int):
        if cursor.nesting >= MAX_NESTING:
            raise DecodingError(
                f"nesting too deep: more than {MAX_NESTING} constructor levels"
            )
        cursor.nesting += 1
        result = decode(cursor, *depths)
        cursor.nesting -= 1
        return result

    return bounded


def _lf_name(depth: int) -> str:
    return f"u{depth}"


def _proof_name(depth: int) -> str:
    return f"p{depth}"


def decode_ref(cursor: Cursor) -> ConstRef:
    space_blob = cursor.blob()
    try:
        name = cursor.blob().decode()
    except UnicodeDecodeError:
        raise DecodingError("constant name is not UTF-8") from None
    if space_blob == b"\x00":
        return ConstRef(THIS, name)
    if space_blob == b"\x01":
        return ConstRef(BUILTIN, name)
    if space_blob[:1] == b"\x02":
        return ConstRef(space_blob[1:], name)
    raise DecodingError(f"unknown namespace tag {space_blob[:1]!r}")


@_nested
def decode_term(cursor: Cursor, depth: int = 0) -> Term:
    tag = cursor.byte()
    if tag == 0x10:
        index = cursor.uint()
        if index >= depth:
            raise DecodingError("de Bruijn index out of range")
        return Var(_lf_name(depth - 1 - index))
    if tag == 0x11:
        return Const(decode_ref(cursor))
    if tag == 0x12:
        domain = decode_family(cursor, depth)
        body = decode_term(cursor, depth + 1)
        return Lam(_lf_name(depth), domain, body)
    if tag == 0x13:
        func = decode_term(cursor, depth)
        arg = decode_term(cursor, depth)
        return App(func, arg)
    if tag == 0x14:
        key_hash = cursor.blob()
        if len(key_hash) != 20:
            raise DecodingError("principal literals are 20-byte key hashes")
        return PrincipalLit(key_hash)
    if tag == 0x15:
        return NatLit(cursor.uint())
    raise DecodingError(f"unknown term tag 0x{tag:02x}")


@_nested
def decode_family(cursor: Cursor, depth: int = 0) -> TypeFamily:
    tag = cursor.byte()
    if tag == 0x20:
        return TConst(decode_ref(cursor))
    if tag == 0x21:
        family = decode_family(cursor, depth)
        arg = decode_term(cursor, depth)
        return TApp(family, arg)
    if tag == 0x22:
        domain = decode_family(cursor, depth)
        body = decode_family(cursor, depth + 1)
        return TPi(_lf_name(depth), domain, body)
    raise DecodingError(f"unknown family tag 0x{tag:02x}")


@_nested
def decode_kind(cursor: Cursor, depth: int = 0) -> KindT:
    tag = cursor.byte()
    if tag == 0x30:
        sort = cursor.byte()
        if sort > 1:
            raise DecodingError(f"unknown kind sort {sort}")
        return Kind(KindSort.TYPE if sort == 0 else KindSort.PROP)
    if tag == 0x31:
        domain = decode_family(cursor, depth)
        body = decode_kind(cursor, depth + 1)
        return KPi(_lf_name(depth), domain, body)
    raise DecodingError(f"unknown kind tag 0x{tag:02x}")


@_nested
def decode_cond(cursor: Cursor, depth: int = 0) -> Condition:
    tag = cursor.byte()
    if tag == 0x40:
        return CTrue()
    if tag == 0x41:
        left = decode_cond(cursor, depth)
        right = decode_cond(cursor, depth)
        return CAnd(left, right)
    if tag == 0x42:
        return CNot(decode_cond(cursor, depth))
    if tag == 0x43:
        return Before(decode_term(cursor, depth))
    if tag == 0x44:
        txid = cursor.blob()
        if len(txid) != 32:
            raise DecodingError("spent conditions name 32-byte txids")
        return Spent(txid, cursor.uint())
    raise DecodingError(f"unknown condition tag 0x{tag:02x}")


@_nested
def decode_prop(cursor: Cursor, depth: int = 0) -> Proposition:
    tag = cursor.byte()
    if tag == 0x50:
        return Atom(decode_family(cursor, depth))
    if tag in (0x51, 0x52, 0x53, 0x54):
        left = decode_prop(cursor, depth)
        right = decode_prop(cursor, depth)
        ctor = {0x51: Lolli, 0x52: Tensor, 0x53: With, 0x54: Plus}[tag]
        return ctor(left, right)
    if tag == 0x55:
        return Zero()
    if tag == 0x56:
        return One()
    if tag == 0x57:
        return Bang(decode_prop(cursor, depth))
    if tag in (0x58, 0x59):
        domain = decode_family(cursor, depth)
        body = decode_prop(cursor, depth + 1)
        ctor = Forall if tag == 0x58 else Exists
        return ctor(_lf_name(depth), domain, body)
    if tag == 0x5A:
        principal = decode_term(cursor, depth)
        body = decode_prop(cursor, depth)
        return Says(principal, body)
    if tag == 0x5B:
        prop = decode_prop(cursor, depth)
        amount = cursor.uint()
        recipient = decode_term(cursor, depth)
        return Receipt(prop, amount, recipient)
    if tag == 0x5C:
        condition = decode_cond(cursor, depth)
        body = decode_prop(cursor, depth)
        return IfProp(condition, body)
    raise DecodingError(f"unknown proposition tag 0x{tag:02x}")


@_nested
def decode_proof(
    cursor: Cursor, depth: int = 0, lf_depth: int = 0
) -> pt.ProofTerm:
    tag = cursor.byte()

    def prf(d=0, lf=0):
        return decode_proof(cursor, depth + d, lf_depth + lf)

    def prp(lf=0):
        return decode_prop(cursor, lf_depth + lf)

    def trm(lf=0):
        return decode_term(cursor, lf_depth + lf)

    if tag == 0x60:
        index = cursor.uint()
        if index >= depth:
            raise DecodingError("proof de Bruijn index out of range")
        return pt.PVar(_proof_name(depth - 1 - index))
    if tag == 0x61:
        return pt.PConst(decode_ref(cursor))
    if tag == 0x62:
        annotation = prp()
        body = prf(d=1)
        return pt.LolliIntro(_proof_name(depth), annotation, body)
    if tag == 0x63:
        return pt.LolliElim(prf(), prf())
    if tag == 0x64:
        return pt.TensorIntro(prf(), prf())
    if tag == 0x65:
        scrutinee = prf()
        body = prf(d=2)
        return pt.TensorElim(
            _proof_name(depth), _proof_name(depth + 1), scrutinee, body
        )
    if tag == 0x66:
        return pt.WithIntro(prf(), prf())
    if tag == 0x67:
        return pt.WithFst(prf())
    if tag == 0x68:
        return pt.WithSnd(prf())
    if tag == 0x69:
        return pt.PlusInl(prp(), prf())
    if tag == 0x6A:
        return pt.PlusInr(prp(), prf())
    if tag == 0x6B:
        scrutinee = prf()
        left = prf(d=1)
        right = prf(d=1)
        name = _proof_name(depth)
        return pt.PlusCase(scrutinee, name, left, name, right)
    if tag == 0x6C:
        return pt.OneIntro()
    if tag == 0x6D:
        return pt.OneElim(prf(), prf())
    if tag == 0x6E:
        scrutinee = prf()
        annotation = prp()
        return pt.ZeroElim(scrutinee, annotation)
    if tag == 0x6F:
        return pt.BangIntro(prf())
    if tag == 0x70:
        scrutinee = prf()
        body = prf(d=1)
        return pt.BangElim(_proof_name(depth), scrutinee, body)
    if tag == 0x71:
        domain = decode_family(cursor, lf_depth)
        body = prf(lf=1)
        return pt.ForallIntro(_lf_name(lf_depth), domain, body)
    if tag == 0x72:
        body = prf()
        arg = trm()
        return pt.ForallElim(body, arg)
    if tag == 0x73:
        annotation = prp()
        witness = trm()
        body = prf()
        return pt.ExistsIntro(annotation, witness, body)
    if tag == 0x74:
        scrutinee = prf()
        body = decode_proof(cursor, depth + 1, lf_depth + 1)
        return pt.ExistsElim(
            _lf_name(lf_depth), _proof_name(depth), scrutinee, body
        )
    if tag == 0x75:
        principal = trm()
        body = prf()
        return pt.SayReturn(principal, body)
    if tag == 0x76:
        scrutinee = prf()
        body = prf(d=1)
        return pt.SayBind(_proof_name(depth), scrutinee, body)
    if tag in (0x77, 0x78):
        principal = trm()
        prop = prp()
        pubkey = cursor.blob()
        signature = cursor.blob()
        ctor = pt.Assert if tag == 0x77 else pt.AssertPersistent
        return ctor(principal, prop, pt.Affirmation(pubkey, signature))
    if tag == 0x79:
        condition = decode_cond(cursor, lf_depth)
        body = prf()
        return pt.IfReturn(condition, body)
    if tag == 0x7A:
        scrutinee = prf()
        body = prf(d=1)
        return pt.IfBind(_proof_name(depth), scrutinee, body)
    if tag == 0x7B:
        condition = decode_cond(cursor, lf_depth)
        body = prf()
        return pt.IfWeaken(condition, body)
    if tag == 0x7C:
        return pt.IfSay(prf())
    raise DecodingError(f"unknown proof tag 0x{tag:02x}")
