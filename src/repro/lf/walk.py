"""One walker per structural operation, for every node of the syntax.

Appendix A states every judgement up to α-equivalence and capture-avoiding
substitution.  Each function here is the one implementation of one such
operation for LF kinds, families and terms, conditions, propositions and
proof terms alike: it reads a node class's children, data fields and
binder from :data:`repro.lf.syntax.SHAPES` (see that module) and never
asks which syntactic class a node belongs to.  The only node classes named
below are ``Var`` (the variable itself), ``App`` and ``Lam`` (β) and the
δ-rule's literals.  So a change of binder representation is a change to
this module, the wire codec and the parser / pretty-printer edges.

Every walker recurses into itself directly — one interpreter frame per
nesting level, with no helper call or comprehension in between — so the
depths the decoder admits (``MAX_NESTING``) stay within reach.

Definitional equality is α-equivalence of β(δ)-normal forms.  One δ-rule
augments β: the builtin ``add`` applied to two ``nat`` literals reduces to
their sum, which is what lets ``plus_refl n m`` inhabit ``plus n m (n+m)``
with literal numbers (see :mod:`repro.lf.basis`).

A normal form is a pure function of a deeply immutable node, so
:func:`normalize` computes it once per node: the result is stored in the
node's instance ``__dict__`` under :data:`NORMAL_FORM`, the way
``functools.cached_property`` stores its value, and the result is marked
as its own normal form.  Dataclass ``==``, ``hash``, ``repr`` and
``fields`` never read the instance dict, so the memo is invisible to them
and to every encoding.  A rebuild returns the node itself when no child
changed — in :func:`substitute` and :func:`substitute_this` too — so a node
already in normal form costs one walk and no copies, and keeps its memo.
The memo check sits inline at the top of :func:`normalize` rather than in
a decorator: a wrapper would double the interpreter frames per level.
"""

from __future__ import annotations

import dataclasses

from repro.lf.syntax import SHAPES, App, Const, ConstRef, Lam, NatLit, Var, fresh_name

_CLOSED: frozenset[str] = frozenset()


def free_vars(node) -> frozenset[str]:
    """The free LF variables of a node."""
    if node.__class__ is Var:
        return frozenset((node.name,))
    shape = SHAPES[node.__class__]
    found = _CLOSED
    for name in shape.children:
        inner = free_vars(getattr(node, name))
        if name == "body" and shape.binder is not None:
            inner = inner - {getattr(node, shape.binder)}
        found = found | inner
    return found


def substitute(node, var: str, replacement):
    """Capture-avoiding substitution ``[replacement/var]node``.

    A binder that would capture a free variable of ``replacement`` is
    renamed through :func:`repro.lf.syntax.fresh_name` first.  Returns
    ``node`` itself when ``var`` does not occur free in it.
    """
    cls = node.__class__
    if cls is Var:
        return replacement if node.name == var else node
    shape = SHAPES[cls]
    if not shape.children:
        return node
    shadowed = None
    changed = False
    if shape.binder is not None:
        bound = getattr(node, shape.binder)
        captures = bound != var and bound in free_vars(replacement)
        if bound == var or (captures and var not in free_vars(node.body)):
            shadowed = "body"  # var is bound there, or absent from it
        elif captures:
            renamed = fresh_name(bound)
            body = substitute(node.body, bound, Var(renamed))
            node = dataclasses.replace(node, **{shape.binder: renamed, "body": body})
            changed = True
    values = []
    for name in shape.fields:
        value = getattr(node, name)
        if name in shape.children and name != shadowed:
            new = substitute(value, var, replacement)
            if new is not value:
                value = new
                changed = True
        values.append(value)
    return cls(*values) if changed else node


def substitute_this(node, txid: bytes):
    """Resolve every ``this``-reference to the given transaction id.

    Applied when a transaction enters the blockchain: "all its declarations
    are added to the global basis, with this replaced by the transaction's
    identifier" (paper §4).
    """
    shape = SHAPES[node.__class__]
    changed = False
    values = []
    for name in shape.fields:
        value = getattr(node, name)
        if name in shape.children:
            new = substitute_this(value, txid)
        elif name == "ref":
            new = value.resolved(txid)
        else:
            new = value
        if new is not value:
            value = new
            changed = True
        values.append(value)
    return node.__class__(*values) if changed else node


def alpha_equal(a, b) -> bool:
    """Structural equality up to bound-variable renaming; data fields are
    compared with ``==``."""
    return _alpha(a, b, {}, {})


def _alpha(a, b, env_a: dict, env_b: dict) -> bool:
    # One node against itself is α-equal when both sides bind every name
    # alike; under different binders a shared subterm may not be.
    if a is b and env_a == env_b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is Var:
        return env_a.get(a.name, a.name) == env_b.get(b.name, b.name)
    shape = SHAPES[cls]
    for name in shape.data:
        if getattr(a, name) != getattr(b, name):
            return False
    for name in shape.children:
        if name == "body" and shape.binder is not None:
            marker = object()
            inner_a = {**env_a, getattr(a, shape.binder): marker}
            inner_b = {**env_b, getattr(b, shape.binder): marker}
            if not _alpha(a.body, b.body, inner_a, inner_b):
                return False
        elif not _alpha(getattr(a, name), getattr(b, name), env_a, env_b):
            return False
    return True


# The δ-reducible arithmetic constants, filled in by repro.lf.basis at
# import time (avoiding a circular import).
_DELTA_ARITH: dict[ConstRef, object] = {}


def register_arith(ref: ConstRef, fn) -> None:
    """Register a binary nat operation for δ-reduction (add, etc.)."""
    _DELTA_ARITH[ref] = fn


def _try_delta(term: App):
    """Reduce ``op l1 l2`` when op is registered and both args are literals."""
    if not isinstance(term.func, App):
        return None
    inner = term.func
    if not isinstance(inner.func, Const):
        return None
    fn = _DELTA_ARITH.get(inner.func.ref)
    if fn is None:
        return None
    a, b = inner.arg, term.arg
    if isinstance(a, NatLit) and isinstance(b, NatLit):
        return NatLit(fn(a.value, b.value))
    return None


# The instance-dict key of a node's memoised normal form.  The value is
# ``True`` when the node is its own normal form (a marker rather than a
# self-reference, so a node is never a reference cycle of its own), else
# the normal-form node.
NORMAL_FORM = "_normal_form"


def remember_normal_form(node, normal):
    """Record ``normal`` as ``node``'s normal form, and as its own; return it."""
    if normal is node:
        node.__dict__[NORMAL_FORM] = True
    else:
        node.__dict__[NORMAL_FORM] = normal
        normal.__dict__[NORMAL_FORM] = True
    return normal


def normalize(node):
    """The β(δ)-normal form of a node, computed once and kept on it."""
    shape = SHAPES[node.__class__]
    if not shape.children:
        return node
    known = node.__dict__.get(NORMAL_FORM)
    if known is not None:
        return node if known is True else known
    changed = False
    values = []
    for name in shape.fields:
        value = getattr(node, name)
        if name in shape.children:
            new = normalize(value)
            if new is not value:
                value = new
                changed = True
        values.append(value)
    normal = node.__class__(*values) if changed else node
    if node.__class__ is App:
        if isinstance(normal.func, Lam):
            func = normal.func
            normal = normalize(substitute(func.body, func.var, normal.arg))
        else:
            normal = _try_delta(normal) or normal
    return remember_normal_form(node, normal)


def convertible(a, b) -> bool:
    """Definitional equality: α-equivalence of normal forms."""
    return _alpha(normalize(a), normalize(b), {}, {})


def nodes_of_type(root, node_type) -> list:
    """Every ``node_type`` value anywhere under ``root``.

    Descends through the children of every node with a shape — a syntax
    node, a declaration, a Typecoin transaction and its inputs and
    outputs — and through the tuples, lists and dicts that hold them.  A
    matching node is collected, not entered; data fields are matched too
    (a ``ConstRef``, say).  Iterative, so a deep proof term cannot exhaust
    the interpreter stack.
    """
    found = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
            continue
        shape = SHAPES.get(node.__class__)
        if shape is None:
            stack.extend(node.values() if isinstance(node, dict) else node)
            continue
        for name in shape.children:
            stack.append(getattr(node, name))
        for name in shape.data:
            value = getattr(node, name)
            if isinstance(value, node_type):
                found.append(value)
    return found
