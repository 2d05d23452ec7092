"""The canonical wire format of the syntax: one encoder and one decoder.

A transaction's bytes are the hash its carrier embeds (§3), ``assert``
signs a proposition's (§4, Appendix A), and the §3 prover *sends* T_I and
𝔗: one format is a hash preimage, a signed message and a transport.

No layout is written here.  :func:`encode` and :func:`decode` read each
class's off its declaration — its row in :data:`repro.lf.syntax.SHAPES`
and its dataclass fields: the tag byte it declares (none for a class read
only where its caller knows what comes next, like a transaction's inputs),
then its fields in declaration order, binder names left out.  A field is
a child in the category its annotation names, or data: ``int`` as
unsigned LEB128, ``bytes`` length-prefixed, ``ConstRef`` as namespace then
name, ``KindSort`` as one byte, ``Affirmation`` as key then signature.
``Var`` and ``PVar`` are de Bruijn indices into the LF or the proof
binders above them, so two α-equivalent nodes encode identically.

The decoder names binders by depth (``u0, u1, …`` for LF binders,
``p0, p1, …`` for proof binders), so ``decode(encode(x))`` is α-equivalent
to ``x`` and ``encode(decode(b)) == b``.  Bytes are hostile: :func:`decode`
raises :class:`DecodingError` — for a constructor's own ``ValueError``
too — or returns a value whose encoding is exactly the bytes it read, so
input the encoder cannot have written (a non-minimal LEB128, an unknown
kind sort) is refused.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.lf.basis import Declaration
from repro.lf.syntax import (
    BUILTIN,
    SHAPES,
    THIS,
    ConstRef,
    KindSort,
    KindT,
    Term,
    TypeFamily,
    Var,
)
from repro.logic.conditions import Condition
from repro.logic.proofterms import Affirmation, ProofTerm, PVar
from repro.logic.propositions import Proposition


class EncodingError(Exception):
    """A node cannot be canonically encoded: it has a free variable."""


class DecodingError(Exception):
    """Malformed or truncated wire data."""


# The deepest term the decoder builds before refusing the input.  Wire
# data is hostile and the decoder recurses once per constructor, so without
# a bound 5 KB of ``¬`` leaves it as RecursionError, not DecodingError.
# Measured: the deepest transaction of the benchmark's working set
# (``build_working_set(7, 1)``, 79 transactions) nests 23 levels, the
# deepest anything in tier-1 decodes 15, and a plain transfer 3 per
# input/output pair, so 256 is an order of magnitude of headroom and ≈ 85
# pairs.  The checkers take ≈ 990 levels before Python's own limit; the
# decoder, one frame a level, reaches 256 in ≈ 260 of the interpreter's
# 1 000 frames.
MAX_NESTING = 256


def write_uint(n: int) -> bytes:
    """Unsigned LEB128."""
    if n < 0:
        raise ValueError(f"{n} is not an unsigned integer")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def write_blob(data: bytes) -> bytes:
    """``data`` behind its length."""
    return write_uint(len(data)) + data


def write_ref(ref: ConstRef) -> bytes:
    """A constant's namespace — ``this``, builtin, or a txid — then its name."""
    if ref.space is THIS:
        space = b"\x00"
    elif ref.space is BUILTIN:
        space = b"\x01"
    else:
        space = b"\x02" + ref.space
    return write_blob(space) + write_blob(ref.name.encode())


@dataclass
class Cursor:
    """A byte reader over wire data, counting the constructor levels open
    above its position (across every category a term passes through, and
    independent of the caller's own stack), and recording the txid
    namespace of every constant reference it reads (``txids``, in order:
    what a node's ``ConstRef`` fields name, so a transaction's decoder
    knows its references without walking what it built)."""

    data: bytes
    pos: int = 0
    nesting: int = 0
    txids: list[bytes] = field(default_factory=list, init=False)

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

    def ref(self) -> ConstRef:
        """A constant reference; a txid namespace is recorded in ``txids``."""
        ref = self.name()
        if isinstance(ref.space, bytes):
            self.txids.append(ref.space)
        return ref

    def name(self) -> ConstRef:
        """A constant as a basis declares it: read, not recorded — a
        declared name is no reference."""
        space = self.blob()
        try:
            name = self.blob().decode()
        except UnicodeDecodeError:
            raise DecodingError("constant name is not UTF-8") from None
        if space == b"\x00":
            return ConstRef(THIS, name)
        if space == b"\x01":
            return ConstRef(BUILTIN, name)
        if space[:1] == b"\x02":
            return ConstRef(space[1:], name)
        raise DecodingError(f"unknown namespace tag {space[:1]!r}")

    def expect(self, magic: bytes, what: str) -> None:
        """Step over ``magic``, which must come next."""
        if self.data[self.pos : self.pos + len(magic)] != magic:
            raise DecodingError(f"bad {what} magic")
        self.pos += len(magic)

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _read_sort(cursor: Cursor) -> KindSort:
    sort = cursor.byte()
    if sort > 1:
        raise DecodingError(f"unknown kind sort {sort}")
    return KindSort.PROP if sort else KindSort.TYPE


# A data field's annotation: how it is written and read.
_DATA_FORMS = {
    "int": (write_uint, Cursor.uint),
    "bytes": (write_blob, Cursor.blob),
    "ConstRef": (write_ref, Cursor.ref),
    "KindSort": (lambda s: b"\x00" if s is KindSort.TYPE else b"\x01", _read_sort),
    "Affirmation": (
        lambda signed: write_blob(signed.pubkey) + write_blob(signed.signature),
        lambda cursor: Affirmation(cursor.blob(), cursor.blob()),
    ),
}


class _Layout(NamedTuple):
    cls: type
    tag: bytes  # empty for an untagged layout
    # per field on the wire: (name, writer — None for a child —, the LF
    # binder and the proof binders that scope over it)
    writes: tuple[tuple[str, typing.Any, str | None, tuple[str, ...]], ...]
    # per field: (step, child category or data reader, depths added)
    reads: tuple[tuple[str, typing.Any, int, int], ...]


class _Category(NamedTuple):
    union: typing.Any  # what decode is asked for
    name: str  # its word in a refusal
    by_tag: dict[int, _Layout] | None  # None for an untagged class, which
    layout: _Layout | None  # has this one layout
    counted: bool  # a node of it is one level toward MAX_NESTING


# A child field's annotation: its category.  A declaration is no level of
# its own: it only frames the kind, family or proposition it declares.
_CATEGORIES = {
    "Term": _Category(Term, "term", {}, None, True),
    "TypeFamily": _Category(TypeFamily, "family", {}, None, True),
    "KindT": _Category(KindT, "kind", {}, None, True),
    "Condition": _Category(Condition, "condition", {}, None, True),
    "Proposition": _Category(Proposition, "proposition", {}, None, True),
    "ProofTerm": _Category(ProofTerm, "proof", {}, None, True),
    "Declaration": _Category(Declaration, "declaration", {}, None, False),
}
_CHILD, _DATA, _LF_NAME, _PROOF_NAME = "child", "data", "lf-name", "proof-name"
_LAYOUTS: dict[type, _Layout] = {}


def _layout(cls: type) -> _Layout:
    """``cls``'s layout, read off its declaration once."""
    shape = SHAPES.get(cls)
    if shape is None:
        raise TypeError(f"{cls.__name__} has no wire layout")
    scopes = dict(shape.proof_binders)
    over: dict[str, list[str]] = {}  # child: the proof binders over it, in order
    for binder, child in shape.proof_binders:
        over.setdefault(child, []).append(binder)
    writes, reads = [], []
    # A variable is an index, not its field: see _write and _read.
    for spec in () if cls in (Var, PVar) else dataclasses.fields(cls):
        name = spec.name
        annotation = getattr(spec.type, "__name__", spec.type).strip("'\"")
        if name == shape.binder:
            reads.append((_LF_NAME, None, 0, 0))
        elif name in scopes:
            reads.append((_PROOF_NAME, None, 0, over[scopes[name]].index(name)))
        elif annotation in _CATEGORIES:
            lf_binder = shape.binder if name == "body" else None
            proof_binders = tuple(over.get(name, ()))
            writes.append((name, None, lf_binder, proof_binders))
            reads.append((
                _CHILD, _CATEGORIES[annotation], int(lf_binder is not None),
                len(proof_binders),
            ))
        elif annotation in _DATA_FORMS:
            writer, reader = _DATA_FORMS[annotation]
            writes.append((name, writer, None, ()))
            reads.append((_DATA, reader, 0, 0))
        else:
            raise TypeError(f"{cls.__name__}.{name}: no wire form for {annotation}")
    tag = b"" if shape.tag is None else bytes((shape.tag,))
    layout = _LAYOUTS[cls] = _Layout(cls, tag, tuple(writes), tuple(reads))
    return layout


for _category in _CATEGORIES.values():
    for _cls in typing.get_args(_category.union):
        _category.by_tag[SHAPES[_cls].tag] = _layout(_cls)


def encode(node) -> bytes:
    """The canonical bytes of ``node``: a syntax node, a declaration, or an
    instance of a class with an untagged layout.

    Raises :class:`EncodingError` on a free variable.
    """
    out = bytearray()
    _write(node, out, (), ())
    return bytes(out)


def _write(node, out: bytearray, lf_env: tuple, proof_env: tuple) -> None:
    # One frame per nesting level: the recursion is direct.
    cls = node.__class__
    layout = _LAYOUTS.get(cls) or _layout(cls)
    out += layout.tag
    if cls is Var:
        if node.name not in lf_env:
            raise EncodingError(f"free variable {node.name} in canonical encoding")
        out += write_uint(lf_env[::-1].index(node.name))
        return
    if cls is PVar:
        if node.name not in proof_env:
            raise EncodingError(f"free proof variable {node.name}")
        out += write_uint(proof_env[::-1].index(node.name))
        return
    for name, writer, lf_binder, proof_binders in layout.writes:
        value = getattr(node, name)
        if writer is not None:
            out += writer(value)
            continue
        lf, proof = lf_env, proof_env
        if lf_binder is not None:
            lf += (getattr(node, lf_binder),)
        for binder in proof_binders:
            proof += (getattr(node, binder),)
        _write(value, out, lf, proof)


def decode(cursor: Cursor, category):
    """Read one node of ``category`` at the cursor: a syntactic union
    (``Term`` … ``ProofTerm``), ``Declaration``, or a class with an
    untagged layout."""
    for table in _CATEGORIES.values():
        if table.union is category:  # not ``in``: a typing.Union hashes slowly
            break
    else:  # a class with an untagged layout
        layout = _LAYOUTS.get(category) or _layout(category)
        table = _Category(category, category.__name__, None, layout, False)
    return _read(cursor, table, 0, 0)


def _read(cursor: Cursor, category: _Category, lf: int, proof: int):
    # One frame per nesting level: the recursion is direct, and the level
    # count lives on the cursor.
    counted = category.counted
    if counted:
        if cursor.nesting >= MAX_NESTING:
            raise DecodingError(
                f"nesting too deep: more than {MAX_NESTING} constructor levels"
            )
        cursor.nesting += 1
    layout = category.layout
    if layout is None:
        tag = cursor.byte()
        layout = category.by_tag.get(tag)
        if layout is None:
            raise DecodingError(f"unknown {category.name} tag 0x{tag:02x}")
    cls = layout.cls
    if cls is Var:
        index = cursor.uint()
        if index >= lf:
            raise DecodingError("de Bruijn index out of range")
        node = Var(f"u{lf - 1 - index}")
    elif cls is PVar:
        index = cursor.uint()
        if index >= proof:
            raise DecodingError("proof de Bruijn index out of range")
        node = PVar(f"p{proof - 1 - index}")
    else:
        values = []
        for step, what, lf_added, proof_added in layout.reads:
            if step is _CHILD:
                values.append(_read(cursor, what, lf + lf_added, proof + proof_added))
            elif step is _DATA:
                values.append(what(cursor))
            elif step is _LF_NAME:
                values.append(f"u{lf}")
            else:
                values.append(f"p{proof + proof_added}")
        try:
            node = cls(*values)
        except ValueError as exc:
            raise DecodingError(str(exc)) from None
    if counted:
        cursor.nesting -= 1
    return node
