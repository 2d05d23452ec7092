"""Dependency levelling and the structural walk, pinned to what they replaced.

``dependency_levels`` took over from the service's quadratic wavefront
levelling, and ``nodes_of_type`` from two reflective
``dataclasses.fields`` walkers.  The old bodies live on here, as oracles
only: generated dependency graphs must level identically (same levels,
same order, same cycle error), and every transaction of the rich working
set must yield the same references and ``spent`` atoms.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transaction import (
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
    referenced_txids,
)
from repro.lf.walk import nodes_of_type
from repro.core.verifier import VerificationError, dependency_levels
from repro.lf.basis import Basis
from repro.lf.syntax import ConstRef, TConst
from repro.logic.conditions import Spent
from repro.logic.proofterms import OneIntro
from repro.logic.propositions import Atom, One, Tensor

PUBKEY = b"\x02" + b"\x44" * 32


# -- oracles: the bodies this PR replaced, verbatim ---------------------


def quadratic_levels(transactions):
    """``service.server._wavefront_levels`` as it was: a full walk of
    every pending transaction at every level."""
    pending = dict(transactions)
    placed = set()
    levels = []
    while pending:
        level = [
            txid
            for txid, txn in pending.items()
            if all(
                dep in placed or dep not in transactions or dep == txid
                for dep in referenced_txids(txn)
            )
        ]
        if not level:
            raise VerificationError("claim bundle contains a dependency cycle")
        for txid in level:
            placed.add(txid)
            del pending[txid]
        levels.append(level)
    return levels


def reflective_nodes(txn, node_type):
    """The walker ``referenced_txids`` and the pool's ``spent``-atom
    collector each carried: ``is_dataclass``/``fields`` asked of every
    node."""
    found = []

    def walk(node):
        if isinstance(node, node_type):
            found.append(node)
            return
        if isinstance(node, (tuple, list)):
            for item in node:
                walk(item)
            return
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            for field_info in dataclasses.fields(node):
                walk(getattr(node, field_info.name))

    for _ref, decl in txn.basis:
        walk(decl)
    walk(txn.grant)
    for inp in txn.inputs:
        walk(inp.prop)
    for out in txn.outputs:
        walk(out.prop)
    walk(txn.proof)
    return found


def reflective_referenced_txids(txn):
    found = {inp.txid for inp in txn.inputs}
    for ref in reflective_nodes(txn, ConstRef):
        if isinstance(ref.space, bytes):
            found.add(ref.space)
    return frozenset(found)


def spent_nodes(walker, txn):
    """The ``spent(txid.n)`` atoms ``walker`` finds, as a set of pairs."""
    return {(atom.txid, atom.index) for atom in walker(txn, Spent)}


# -- generated dependency graphs ----------------------------------------


def txid_of(n: int) -> bytes:
    return bytes([n]) * 32


def make_txn(spends=(), mentions=()):
    """A transaction whose only structure is its references: ``spends``
    become inputs, ``mentions`` constants of those transactions' bases."""
    grant = One()
    for n in mentions:
        grant = Tensor(grant, Atom(TConst(ConstRef(txid_of(n), "c"))))
    return TypecoinTransaction(
        Basis(),
        grant,
        [TypecoinInput(txid_of(n), 0, One(), 0) for n in spends],
        [TypecoinOutput(One(), 0, PUBKEY)],
        OneIntro(),
    )


def bundle_of(edges: dict, order=None) -> dict:
    """``edges[n] = (spends, mentions)``, inserted in ``order``."""
    order = list(edges) if order is None else order
    return {txid_of(n): make_txn(*edges[n]) for n in order}


OUTSIDE = (200, 201)  # txids never in a bundle


@st.composite
def bundles(draw):
    size = draw(st.integers(0, 9))
    acyclic = draw(st.booleans())
    edges = {}
    for n in range(size):
        # Acyclic bundles point only at lower numbers (plus themselves
        # and the outside world, which are not edges); the rest point
        # anywhere, so most of them hold a cycle.
        inside = range(n + 1) if acyclic else range(size)
        targets = st.sampled_from([*inside, *OUTSIDE])
        edges[n] = (
            draw(st.lists(targets, max_size=3, unique=True)),
            draw(st.lists(targets, max_size=2, unique=True)),
        )
    return bundle_of(edges, draw(st.permutations(range(size))))


def outcome(fn, transactions):
    try:
        return fn(transactions)
    except VerificationError as exc:
        return f"VerificationError: {exc}"


@settings(max_examples=300, deadline=None)
@given(bundles())
def test_levels_equal_the_quadratic_oracle(transactions):
    assert outcome(dependency_levels, transactions) == outcome(
        quadratic_levels, transactions
    )


# The shapes the issue names, spelled out: (edges, insertion order,
# expected levels) — numbers stand for txids.
NAMED = {
    "empty": ({}, [], []),
    "chain": (
        {0: ((), ()), 1: ((0,), ()), 2: ((1,), ())},
        [0, 1, 2],
        [[0], [1], [2]],
    ),
    "chain, children first": (
        {0: ((), ()), 1: ((0,), ()), 2: ((1,), ())},
        [2, 1, 0],
        [[0], [1], [2]],
    ),
    "diamond": (
        {0: ((), ()), 1: ((0,), ()), 2: ((0,), ()), 3: ((1, 2), ())},
        [3, 2, 0, 1],
        [[0], [2, 1], [3]],
    ),
    "shared basis": (
        {0: ((), ()), 1: ((), (0,)), 2: ((), (0,)), 3: ((1,), (0,))},
        [0, 1, 2, 3],
        [[0], [1, 2], [3]],
    ),
    "independent beside a chain": (
        {0: ((), ()), 1: ((0,), ()), 2: ((), ())},
        [0, 1, 2],
        [[0, 2], [1]],
    ),
    "self-reference": (
        {0: ((0,), (0,)), 1: ((0, 1), ())},
        [1, 0],
        [[0], [1]],
    ),
    "references out of the bundle": (
        {0: ((200,), (201,)), 1: ((0, 201), ())},
        [0, 1],
        [[0], [1]],
    ),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_shapes(name):
    edges, order, levels = NAMED[name]
    transactions = bundle_of(edges, order)
    assert dependency_levels(transactions) == [
        [txid_of(n) for n in level] for level in levels
    ]
    assert dependency_levels(transactions) == quadratic_levels(transactions)


@pytest.mark.parametrize(
    "edges",
    [
        {0: ((1,), ()), 1: ((0,), ())},
        {0: ((), ()), 1: ((0, 2), ()), 2: ((), (1,))},
    ],
    ids=["two-cycle", "cycle below a root"],
)
def test_cycle_is_the_same_verification_error(edges):
    transactions = bundle_of(edges)
    with pytest.raises(VerificationError) as caught:
        dependency_levels(transactions)
    assert str(caught.value) == "claim bundle contains a dependency cycle"
    assert outcome(dependency_levels, transactions) == outcome(
        quadratic_levels, transactions
    )


def test_each_transaction_is_walked_once(edge_walks):
    """The point of the rewrite, at the helper: a reversed chain cost the
    old levelling n(n+1)/2 walks."""
    edges = {n: ((n - 1,) if n else (), ()) for n in range(12)}
    transactions = bundle_of(edges, list(reversed(range(12))))
    assert len(dependency_levels(transactions)) == 12
    assert len(edge_walks) == 12


# -- the single traversal on real transactions --------------------------


def test_traversal_equals_the_reflective_walkers(working_set):
    seen = {}
    for claim in working_set.claims:
        seen.update(claim.bundle.transactions)
    assert len(seen) > 40
    with_basis_refs = with_spent = 0
    for txn in seen.values():
        assert referenced_txids(txn) == reflective_referenced_txids(txn)
        assert spent_nodes(nodes_of_type, txn) == spent_nodes(
            reflective_nodes, txn
        )
        with_basis_refs += bool(
            referenced_txids(txn) - {inp.txid for inp in txn.inputs}
        )
        with_spent += bool(nodes_of_type(txn, Spent))
    # The set exercises both collectors, not just input edges.
    assert with_basis_refs and with_spent


def test_traversal_survives_a_proof_deeper_than_the_stack():
    import sys

    from repro.logic.proofterms import BangIntro

    proof = OneIntro()
    for _ in range(sys.getrecursionlimit() + 100):
        proof = BangIntro(proof)
    txn = TypecoinTransaction(
        Basis(), One(), [], [TypecoinOutput(One(), 0, PUBKEY)], proof
    )
    assert referenced_txids(txn) == frozenset()
    assert nodes_of_type(txn, Spent) == []
