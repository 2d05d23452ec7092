"""Proof-carrying authorization on Typecoin (paper §1–§2).

The motivating application: single-use authorization credentials.  This
module packages the homework vocabulary — files, ``may_read``/``may_write``
and the nonce-infused ``may_write_this`` — plus a :class:`FileServer` that
runs the §2 protocol:

    "Bob submits the write to the file system, which replies with a nonce
    n.  Bob then submits a Typecoin transaction that alters his credential
    to include the nonce ...  Once the filesystem sees the nonce in a
    confirmed transaction, it recognizes that Bob has committed to the
    write, so it performs it."
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field

from repro.bitcoin.chain import Blockchain
from repro.lf.basis import Basis, KindDecl, NAT_T, PRINCIPAL_T, PropDecl, TypeDecl
from repro.lf.syntax import (
    Const,
    ConstRef,
    KIND_PROP,
    KIND_TYPE,
    KPi,
    NatLit,
    PrincipalLit,
    TConst,
    Term,
    Var,
    apply_family,
)
from repro.logic.propositions import Atom, Forall, Lolli, Proposition, Says
from repro.core.verifier import ClaimBundle, VerificationError, verify_claim


@dataclass(frozen=True)
class AuthVocabulary:
    """Constant references of a published authorization basis."""

    file: ConstRef
    may_read: ConstRef
    may_write: ConstRef
    may_write_this: ConstRef
    use_write: ConstRef
    files: dict[str, ConstRef]

    def resolved(self, txid: bytes) -> "AuthVocabulary":
        return AuthVocabulary(
            file=self.file.resolved(txid),
            may_read=self.may_read.resolved(txid),
            may_write=self.may_write.resolved(txid),
            may_write_this=self.may_write_this.resolved(txid),
            use_write=self.use_write.resolved(txid),
            files={name: ref.resolved(txid) for name, ref in self.files.items()},
        )

    def file_term(self, name: str) -> Const:
        return Const(self.files[name])

    def may_write_prop(self, who: Term, filename: str) -> Atom:
        return Atom(
            apply_family(TConst(self.may_write), who, self.file_term(filename))
        )

    def may_write_this_prop(self, who: Term, filename: str, nonce: int | Term) -> Atom:
        n = NatLit(nonce) if isinstance(nonce, int) else nonce
        return Atom(
            apply_family(
                TConst(self.may_write_this), who, self.file_term(filename), n
            )
        )


def authorization_basis(
    owner: PrincipalLit, filenames: list[str]
) -> tuple[Basis, AuthVocabulary]:
    """The §2 vocabulary, published by the resource owner.

    Declares the ``file`` type with one constant per named file, the
    ``may_read``/``may_write``/``may_write_this`` families, and the rule
    that lets a credential holder infuse a nonce::

        use_write : ∀K:principal. ∀F:file. ∀N:nat.
                    ⟨owner⟩may_write K F ⊸ may_write_this K F N
    """
    basis = Basis()
    file_ref = basis.declare_local("file", KindDecl(KIND_TYPE))
    files = {
        name: basis.declare_local(name, TypeDecl(TConst(file_ref)))
        for name in filenames
    }
    may_read = basis.declare_local(
        "may_read",
        KindDecl(KPi("k", PRINCIPAL_T, KPi("f", TConst(file_ref), KIND_PROP))),
    )
    may_write = basis.declare_local(
        "may_write",
        KindDecl(KPi("k", PRINCIPAL_T, KPi("f", TConst(file_ref), KIND_PROP))),
    )
    may_write_this = basis.declare_local(
        "may_write_this",
        KindDecl(
            KPi(
                "k",
                PRINCIPAL_T,
                KPi("f", TConst(file_ref), KPi("n", NAT_T, KIND_PROP)),
            )
        ),
    )

    def mw(k: str, f: str) -> Atom:
        return Atom(apply_family(TConst(may_write), Var(k), Var(f)))

    def mwt(k: str, f: str, n: str) -> Atom:
        return Atom(apply_family(TConst(may_write_this), Var(k), Var(f), Var(n)))

    use_write = basis.declare_local(
        "use_write",
        PropDecl(
            Forall("K", PRINCIPAL_T, Forall("F", TConst(file_ref), Forall(
                "N", NAT_T,
                Lolli(Says(owner, mw("K", "F")), mwt("K", "F", "N")),
            )))
        ),
    )
    vocab = AuthVocabulary(
        file=file_ref,
        may_read=may_read,
        may_write=may_write,
        may_write_this=may_write_this,
        use_write=use_write,
        files=files,
    )
    return basis, vocab


@dataclass
class WriteTicket:
    """An outstanding nonce issued to a would-be writer."""

    principal: bytes
    filename: str
    nonce: int


class FileServerError(Exception):
    """A write was refused."""


@dataclass
class FileServer:
    """The verifying resource owner of §2.

    Tracks file contents, issues nonces, and performs writes only once a
    confirmed transaction demonstrates a nonce-infused credential.
    """

    chain: Blockchain
    vocab: AuthVocabulary
    contents: dict[str, bytes] = field(default_factory=dict)
    _tickets: dict[int, WriteTicket] = field(default_factory=dict)
    _used_nonces: set[int] = field(default_factory=set)

    def request_write(self, principal: bytes, filename: str) -> int:
        """Phase 1: hand the writer a nonce for this specific write."""
        if filename not in self.vocab.files:
            raise FileServerError(f"no such file {filename!r}")
        nonce = secrets.randbelow(2**31)
        self._tickets[nonce] = WriteTicket(principal, filename, nonce)
        return nonce

    def expected_prop(self, nonce: int) -> Proposition:
        """The proposition the writer's txout must carry."""
        ticket = self._tickets.get(nonce)
        if ticket is None:
            raise FileServerError("unknown or expired nonce")
        return self.vocab.may_write_this_prop(
            PrincipalLit(ticket.principal), ticket.filename, ticket.nonce
        )

    def complete_write(self, nonce: int, bundle: ClaimBundle, data: bytes) -> None:
        """Phase 2: verify the claim and perform the write.

        "Once the filesystem sees the nonce in a confirmed transaction, it
        recognizes that Bob has committed to the write, so it performs it."
        """
        ticket = self._tickets.get(nonce)
        if ticket is None:
            raise FileServerError("unknown or expired nonce")
        if nonce in self._used_nonces:
            raise FileServerError("nonce already used")
        expected = self.expected_prop(nonce)
        from repro.lf.walk import convertible

        if not convertible(bundle.prop, expected):
            raise FileServerError("claimed proposition does not match ticket")
        try:
            verify_claim(
                self.chain,
                bundle,
                require_unspent=False,  # spending the spent credential later
                # is the writer's cleanup business (§3.1)
            )
        except VerificationError as exc:
            raise FileServerError(f"claim rejected: {exc}") from exc
        self._used_nonces.add(nonce)
        del self._tickets[nonce]
        self.contents[ticket.filename] = data
