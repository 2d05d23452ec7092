"""The Bitcoin script language: a Forth-like stack machine (paper §3.3).

Scripts are sequences of opcodes and data pushes.  Spending a txout runs the
input's scriptSig followed by the output's scriptPubKey over a shared stack;
the spend is authorized iff execution succeeds and leaves a truthy top.

The interpreter supports the opcodes needed by every standard schema (P2PK,
P2PKH, m-of-n multisig, OP_RETURN) plus enough general machinery (flow
control, arithmetic, hashing, stack shuffling) that non-standard scripts can
be written and — as on the real network — relayed or refused by policy, not
by the consensus interpreter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from repro import obs
from repro.crypto.hashing import hash160, ripemd160, sha256, sha256d

if TYPE_CHECKING:
    from repro.bitcoin.standard import Classified

MAX_SCRIPT_SIZE = 10_000
MAX_STACK_SIZE = 1_000
MAX_OPS_PER_SCRIPT = 201
MAX_PUSH_SIZE = 520
MAX_NUM_SIZE = 4  # bytes in a script number an opcode reads
# Total stack pushes one execution may perform across both scripts.  No
# legal script approaches this (the stack cap is 1000 and the op budget
# bounds pops), but an explicit budget turns any interpreter bug that
# would loop or balloon into a typed, attributable failure.
MAX_SCRIPT_PUSHES = 2_000


class ScriptError(Exception):
    """Raised when script parsing or execution fails."""


class ScriptResourceError(ScriptError):
    """An execution budget (ops, pushes, stack size) was exhausted."""


class Op(enum.IntEnum):
    """Opcode numbers (the subset of Bitcoin's we implement)."""

    OP_0 = 0x00
    # 0x01–0x4B are direct pushes of that many bytes.
    OP_PUSHDATA1 = 0x4C
    OP_PUSHDATA2 = 0x4D
    OP_1NEGATE = 0x4F
    OP_1 = 0x51
    OP_2 = 0x52
    OP_3 = 0x53
    OP_4 = 0x54
    OP_5 = 0x55
    OP_6 = 0x56
    OP_7 = 0x57
    OP_8 = 0x58
    OP_9 = 0x59
    OP_10 = 0x5A
    OP_11 = 0x5B
    OP_12 = 0x5C
    OP_13 = 0x5D
    OP_14 = 0x5E
    OP_15 = 0x5F
    OP_16 = 0x60
    OP_NOP = 0x61
    OP_IF = 0x63
    OP_NOTIF = 0x64
    OP_ELSE = 0x67
    OP_ENDIF = 0x68
    OP_VERIFY = 0x69
    OP_RETURN = 0x6A
    OP_TOALTSTACK = 0x6B
    OP_FROMALTSTACK = 0x6C
    OP_2DROP = 0x6D
    OP_2DUP = 0x6E
    OP_IFDUP = 0x73
    OP_DEPTH = 0x74
    OP_DROP = 0x75
    OP_DUP = 0x76
    OP_NIP = 0x77
    OP_OVER = 0x78
    OP_PICK = 0x79
    OP_ROLL = 0x7A
    OP_ROT = 0x7B
    OP_SWAP = 0x7C
    OP_TUCK = 0x7D
    OP_SIZE = 0x82
    OP_EQUAL = 0x87
    OP_EQUALVERIFY = 0x88
    OP_1ADD = 0x8B
    OP_1SUB = 0x8C
    OP_NEGATE = 0x8F
    OP_ABS = 0x90
    OP_NOT = 0x91
    OP_0NOTEQUAL = 0x92
    OP_ADD = 0x93
    OP_SUB = 0x94
    OP_BOOLAND = 0x9A
    OP_BOOLOR = 0x9B
    OP_NUMEQUAL = 0x9C
    OP_NUMEQUALVERIFY = 0x9D
    OP_NUMNOTEQUAL = 0x9E
    OP_LESSTHAN = 0x9F
    OP_GREATERTHAN = 0xA0
    OP_LESSTHANOREQUAL = 0xA1
    OP_GREATERTHANOREQUAL = 0xA2
    OP_MIN = 0xA3
    OP_MAX = 0xA4
    OP_WITHIN = 0xA5
    OP_RIPEMD160 = 0xA6
    OP_SHA256 = 0xA8
    OP_HASH160 = 0xA9
    OP_HASH256 = 0xAA
    OP_CHECKSIG = 0xAC
    OP_CHECKSIGVERIFY = 0xAD
    OP_CHECKMULTISIG = 0xAE
    OP_CHECKMULTISIGVERIFY = 0xAF


# A script element is either an Op or a bytes push.
Element = Op | bytes

# Hot-path opcode decoding: a dict hit is ~5x cheaper than IntEnum's
# __call__ (EnumType.__call__ → __new__ → value lookup) and block parsing
# decodes one opcode per script element.
_OP_BY_VALUE: dict[int, Op] = {int(op): op for op in Op}
_PUSHDATA1 = 0x4C
_PUSHDATA2 = 0x4D


@dataclass(frozen=True)
class Script:
    """An immutable parsed script: a tuple of opcodes and byte pushes."""

    elements: tuple[Element, ...]

    def __init__(self, elements: Iterable[Element] = ()):
        object.__setattr__(self, "elements", tuple(elements))
        for el in self.elements:
            if isinstance(el, bytes) and len(el) > MAX_PUSH_SIZE:
                raise ScriptError("push exceeds 520-byte limit")

    def serialize(self) -> bytes:
        """Canonical byte serialization (minimal pushes)."""
        return self._encoding

    @cached_property
    def _encoding(self) -> bytes:
        """Built once, by the encoder — never the bytes ``parse`` read (a
        non-minimal push re-encodes); an over-long script raises each time."""
        out = bytearray()
        for el in self.elements:
            if isinstance(el, Op):
                out.append(int(el))
            else:
                n = len(el)
                if n <= 0x4B:
                    out.append(n)
                elif n <= 0xFF:
                    out.append(int(Op.OP_PUSHDATA1))
                    out.append(n)
                else:
                    out.append(int(Op.OP_PUSHDATA2))
                    out += n.to_bytes(2, "little")
                out += el
        if len(out) > MAX_SCRIPT_SIZE:
            raise ScriptError("script exceeds 10k-byte limit")
        return bytes(out)

    @cached_property
    def _classified(self) -> Classified:
        """``standard.classify``'s answer, built once per script."""
        from repro.bitcoin.standard import _classify  # it imports this module

        return _classify(self)

    @staticmethod
    def parse(data) -> "Script":
        """Parse a serialized script back into elements.

        Accepts bytes or a memoryview (the zero-copy transaction parser
        hands script bodies over without slicing them out of the block
        buffer); pushes are materialized as bytes either way, which is
        free for a bytes input.
        """
        size = len(data)
        if size > MAX_SCRIPT_SIZE:
            raise ScriptError("script exceeds 10k-byte limit")
        elements: list[Element] = []
        append = elements.append
        i = 0
        while i < size:
            byte = data[i]
            i += 1
            if 0x01 <= byte <= 0x4B:
                if i + byte > size:
                    raise ScriptError("truncated push")
                append(bytes(data[i : i + byte]))
                i += byte
            elif byte == _PUSHDATA1:
                if i >= size:
                    raise ScriptError("truncated PUSHDATA1")
                n = data[i]
                i += 1
                if i + n > size:
                    raise ScriptError("truncated push")
                append(bytes(data[i : i + n]))
                i += n
            elif byte == _PUSHDATA2:
                if i + 2 > size:
                    raise ScriptError("truncated PUSHDATA2")
                n = data[i] | (data[i + 1] << 8)
                i += 2
                if i + n > size:
                    raise ScriptError("truncated push")
                if n > MAX_PUSH_SIZE:
                    raise ScriptError("push exceeds 520-byte limit")
                append(bytes(data[i : i + n]))
                i += n
            else:
                op = _OP_BY_VALUE.get(byte)
                if op is None:
                    raise ScriptError(f"unknown opcode 0x{byte:02x}")
                append(op)
        # Every element is already validated (pushes are bounds- and
        # size-checked above), so skip the constructor's re-validation.
        script = object.__new__(Script)
        object.__setattr__(script, "elements", tuple(elements))
        return script

    def __add__(self, other: "Script") -> "Script":
        return Script(self.elements + other.elements)

    def __len__(self) -> int:
        return len(self.serialize())

    def __repr__(self) -> str:
        parts = [
            el.name if isinstance(el, Op) else el.hex() for el in self.elements
        ]
        return f"Script({' '.join(parts)})"


# --- Script numbers (CScriptNum): little-endian, sign-magnitude top bit. ---


def encode_num(value: int) -> bytes:
    if value == 0:
        return b""
    negative = value < 0
    magnitude = abs(value)
    out = bytearray()
    while magnitude:
        out.append(magnitude & 0xFF)
        magnitude >>= 8
    if out[-1] & 0x80:
        out.append(0x80 if negative else 0x00)
    elif negative:
        out[-1] |= 0x80
    return bytes(out)


def decode_num(data: bytes) -> int:
    if len(data) > MAX_NUM_SIZE:
        raise ScriptError("script number overflow")
    if not data:
        return 0
    value = int.from_bytes(data, "little")
    if data[-1] & 0x80:
        value &= ~(0x80 << (8 * (len(data) - 1)))
        return -value
    return value


def cast_to_bool(data: bytes) -> bool:
    """Bitcoin's truthiness: nonzero, ignoring a possible negative zero."""
    for i, byte in enumerate(data):
        if byte != 0:
            return not (i == len(data) - 1 and byte == 0x80)
    return False


# Type of the callback the interpreter uses to verify a signature: it gets
# (signature_bytes_with_hashtype, pubkey_bytes) and returns validity.  The
# transaction layer supplies a closure over the sighash computation so the
# script engine stays ignorant of transactions.
SigChecker = Callable[[bytes, bytes], bool]


@dataclass
class ExecutionBudget:
    """Resource accounting for one script execution.

    Tracks totals (``ops``, ``pushes``) across both scripts for metrics,
    while enforcing the per-script op limit Bitcoin imposes
    (:data:`MAX_OPS_PER_SCRIPT`) and an overall push budget
    (:data:`MAX_SCRIPT_PUSHES`); exhaustion raises
    :class:`ScriptResourceError` rather than letting a runaway script spin.
    """

    ops: int = 0
    pushes: int = 0
    script_ops: int = 0  # ops within the currently running script

    def begin_script(self) -> None:
        self.script_ops = 0

    def count_op(self) -> None:
        self.ops += 1
        self.script_ops += 1
        if self.script_ops > MAX_OPS_PER_SCRIPT:
            raise ScriptResourceError("op count limit exceeded")

    def count_push(self) -> None:
        self.pushes += 1
        if self.pushes > MAX_SCRIPT_PUSHES:
            raise ScriptResourceError("push budget exceeded")


@dataclass
class _Machine:
    stack: list[bytes] = field(default_factory=list)
    alt: list[bytes] = field(default_factory=list)
    budget: ExecutionBudget = field(default_factory=ExecutionBudget)
    # High-water mark of combined stack depth; maintained only when the
    # interpreter is observed (set by execute_script).
    track_depth: bool = False
    depth_hwm: int = 0

    def push(self, item: bytes) -> None:
        self.budget.count_push()
        self.stack.append(item)
        depth = len(self.stack) + len(self.alt)
        if depth > MAX_STACK_SIZE:
            raise ScriptResourceError("stack size limit exceeded")
        if self.track_depth and depth > self.depth_hwm:
            self.depth_hwm = depth

    def pop(self) -> bytes:
        if not self.stack:
            raise ScriptError("pop from empty stack")
        return self.stack.pop()

    def pop_num(self) -> int:
        return decode_num(self.pop())

    def push_num(self, value: int) -> None:
        self.push(encode_num(value))

    def push_bool(self, value: bool) -> None:
        self.push(b"\x01" if value else b"")


_SMALL_INT = {
    Op.OP_1: 1, Op.OP_2: 2, Op.OP_3: 3, Op.OP_4: 4, Op.OP_5: 5, Op.OP_6: 6,
    Op.OP_7: 7, Op.OP_8: 8, Op.OP_9: 9, Op.OP_10: 10, Op.OP_11: 11,
    Op.OP_12: 12, Op.OP_13: 13, Op.OP_14: 14, Op.OP_15: 15, Op.OP_16: 16,
}

_DISABLED_IN_SCRIPTSIG = frozenset({
    Op.OP_CHECKSIG, Op.OP_CHECKSIGVERIFY,
    Op.OP_CHECKMULTISIG, Op.OP_CHECKMULTISIGVERIFY,
})


def _run(
    script: Script,
    machine: _Machine,
    checker: SigChecker,
    op_counts: dict[Op, int] | None = None,
) -> None:
    budget = machine.budget
    budget.begin_script()
    # exec_flags[i] says whether the i-th nested IF branch is live.
    exec_flags: list[bool] = []

    for element in script.elements:
        live = all(exec_flags)

        if isinstance(element, bytes):
            if live:
                machine.push(element)
            continue

        op = element
        if op > Op.OP_16:
            budget.count_op()
            if op_counts is not None:
                op_counts[op] = op_counts.get(op, 0) + 1

        # Flow control runs even in dead branches.
        if op == Op.OP_IF or op == Op.OP_NOTIF:
            taken = False
            if live:
                cond = cast_to_bool(machine.pop())
                taken = cond if op == Op.OP_IF else not cond
            exec_flags.append(taken)
            continue
        if op == Op.OP_ELSE:
            if not exec_flags:
                raise ScriptError("OP_ELSE without OP_IF")
            exec_flags[-1] = not exec_flags[-1]
            continue
        if op == Op.OP_ENDIF:
            if not exec_flags:
                raise ScriptError("OP_ENDIF without OP_IF")
            exec_flags.pop()
            continue
        if not live:
            continue

        if op == Op.OP_0:
            machine.push(b"")
        elif op in _SMALL_INT:
            machine.push_num(_SMALL_INT[op])
        elif op == Op.OP_1NEGATE:
            machine.push_num(-1)
        elif op == Op.OP_NOP:
            pass
        elif op == Op.OP_VERIFY:
            if not cast_to_bool(machine.pop()):
                raise ScriptError("OP_VERIFY failed")
        elif op == Op.OP_RETURN:
            raise ScriptError("OP_RETURN executed")
        elif op == Op.OP_TOALTSTACK:
            machine.alt.append(machine.pop())
        elif op == Op.OP_FROMALTSTACK:
            if not machine.alt:
                raise ScriptError("alt stack empty")
            machine.push(machine.alt.pop())
        elif op == Op.OP_2DROP:
            machine.pop()
            machine.pop()
        elif op == Op.OP_2DUP:
            a, b = machine.pop(), machine.pop()
            for item in (b, a, b, a):
                machine.push(item)
        elif op == Op.OP_IFDUP:
            top = machine.pop()
            machine.push(top)
            if cast_to_bool(top):
                machine.push(top)
        elif op == Op.OP_DEPTH:
            machine.push_num(len(machine.stack))
        elif op == Op.OP_DROP:
            machine.pop()
        elif op == Op.OP_DUP:
            top = machine.pop()
            machine.push(top)
            machine.push(top)
        elif op == Op.OP_NIP:
            top = machine.pop()
            machine.pop()
            machine.push(top)
        elif op == Op.OP_OVER:
            a, b = machine.pop(), machine.pop()
            for item in (b, a, b):
                machine.push(item)
        elif op in (Op.OP_PICK, Op.OP_ROLL):
            n = machine.pop_num()
            if n < 0 or n >= len(machine.stack):
                raise ScriptError("PICK/ROLL index out of range")
            index = len(machine.stack) - 1 - n
            item = machine.stack[index]
            if op == Op.OP_ROLL:
                del machine.stack[index]
            machine.push(item)
        elif op == Op.OP_ROT:
            c, b, a = machine.pop(), machine.pop(), machine.pop()
            for item in (b, c, a):
                machine.push(item)
        elif op == Op.OP_SWAP:
            a, b = machine.pop(), machine.pop()
            machine.push(a)
            machine.push(b)
        elif op == Op.OP_TUCK:
            a, b = machine.pop(), machine.pop()
            for item in (a, b, a):
                machine.push(item)
        elif op == Op.OP_SIZE:
            top = machine.pop()
            machine.push(top)
            machine.push_num(len(top))
        elif op in (Op.OP_EQUAL, Op.OP_EQUALVERIFY):
            equal = machine.pop() == machine.pop()
            if op == Op.OP_EQUALVERIFY:
                if not equal:
                    raise ScriptError("OP_EQUALVERIFY failed")
            else:
                machine.push_bool(equal)
        elif op == Op.OP_1ADD:
            machine.push_num(machine.pop_num() + 1)
        elif op == Op.OP_1SUB:
            machine.push_num(machine.pop_num() - 1)
        elif op == Op.OP_NEGATE:
            machine.push_num(-machine.pop_num())
        elif op == Op.OP_ABS:
            machine.push_num(abs(machine.pop_num()))
        elif op == Op.OP_NOT:
            machine.push_bool(machine.pop_num() == 0)
        elif op == Op.OP_0NOTEQUAL:
            machine.push_bool(machine.pop_num() != 0)
        elif op == Op.OP_ADD:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_num(a + b)
        elif op == Op.OP_SUB:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_num(a - b)
        elif op == Op.OP_BOOLAND:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a != 0 and b != 0)
        elif op == Op.OP_BOOLOR:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a != 0 or b != 0)
        elif op in (Op.OP_NUMEQUAL, Op.OP_NUMEQUALVERIFY):
            b, a = machine.pop_num(), machine.pop_num()
            if op == Op.OP_NUMEQUALVERIFY:
                if a != b:
                    raise ScriptError("OP_NUMEQUALVERIFY failed")
            else:
                machine.push_bool(a == b)
        elif op == Op.OP_NUMNOTEQUAL:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a != b)
        elif op == Op.OP_LESSTHAN:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a < b)
        elif op == Op.OP_GREATERTHAN:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a > b)
        elif op == Op.OP_LESSTHANOREQUAL:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a <= b)
        elif op == Op.OP_GREATERTHANOREQUAL:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_bool(a >= b)
        elif op == Op.OP_MIN:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_num(min(a, b))
        elif op == Op.OP_MAX:
            b, a = machine.pop_num(), machine.pop_num()
            machine.push_num(max(a, b))
        elif op == Op.OP_WITHIN:
            hi, lo, x = machine.pop_num(), machine.pop_num(), machine.pop_num()
            machine.push_bool(lo <= x < hi)
        elif op == Op.OP_RIPEMD160:
            machine.push(ripemd160(machine.pop()))
        elif op == Op.OP_SHA256:
            machine.push(sha256(machine.pop()))
        elif op == Op.OP_HASH160:
            machine.push(hash160(machine.pop()))
        elif op == Op.OP_HASH256:
            machine.push(sha256d(machine.pop()))
        elif op in (Op.OP_CHECKSIG, Op.OP_CHECKSIGVERIFY):
            pubkey = machine.pop()
            sig = machine.pop()
            ok = bool(sig) and checker(sig, pubkey)
            if op == Op.OP_CHECKSIGVERIFY:
                if not ok:
                    raise ScriptError("OP_CHECKSIGVERIFY failed")
            else:
                machine.push_bool(ok)
        elif op in (Op.OP_CHECKMULTISIG, Op.OP_CHECKMULTISIGVERIFY):
            n = machine.pop_num()
            if not 0 <= n <= 20:
                raise ScriptError("multisig n out of range")
            pubkeys = [machine.pop() for _ in range(n)]
            m = machine.pop_num()
            if not 0 <= m <= n:
                raise ScriptError("multisig m out of range")
            sigs = [machine.pop() for _ in range(m)]
            # Historical off-by-one: an extra element is consumed.
            machine.pop()
            # Signatures must match pubkeys in order (the last pushed first).
            # One signature is taken if any key takes it, and the checker
            # raises for it at every decodable key or at none, so a 1-of-n
            # lock tries its keys in push order: a carrier's owner key
            # before its metadata pseudo-key (§3.3).
            ok = True
            key_iter = iter(pubkeys[::-1] if m == 1 else pubkeys)
            for sig in sigs:
                matched = False
                for pubkey in key_iter:
                    if sig and checker(sig, pubkey):
                        matched = True
                        break
                if not matched:
                    ok = False
                    break
            if op == Op.OP_CHECKMULTISIGVERIFY:
                if not ok:
                    raise ScriptError("OP_CHECKMULTISIGVERIFY failed")
            else:
                machine.push_bool(ok)
        else:  # pragma: no cover - every Op is handled above
            raise ScriptError(f"unimplemented opcode {op!r}")

    if exec_flags:
        raise ScriptError("unterminated OP_IF")


def execute_script(
    script_sig: Script,
    script_pubkey: Script,
    checker: SigChecker,
) -> bool:
    """Run scriptSig then scriptPubKey on a shared stack; True iff authorized.

    Per post-2010 Bitcoin the two scripts run as separate programs sharing
    only the data stack, and the scriptSig must be push-only (so it cannot
    tamper with the scriptPubKey's control flow).
    """
    for element in script_sig.elements:
        if isinstance(element, Op) and element not in (
            Op.OP_0, Op.OP_1NEGATE, *(_SMALL_INT.keys()),
        ):
            raise ScriptError("scriptSig must be push-only")
    machine = _Machine()
    enabled = obs.ENABLED
    op_counts: dict[Op, int] | None = None
    if enabled:
        machine.track_depth = True
        op_counts = {}
    ok = True
    exhausted: ScriptResourceError | None = None
    try:
        _run(script_sig, machine, checker, op_counts)
        _run(script_pubkey, machine, checker, op_counts)
    except ScriptResourceError as exc:
        ok = False
        exhausted = exc
    except ScriptError:
        ok = False
    result = ok and bool(machine.stack) and cast_to_bool(machine.stack[-1])
    if enabled:
        obs.inc("script.executions_total")
        obs.inc("script.ops_total", machine.budget.ops)
        obs.inc("script.pushes_total", machine.budget.pushes)
        obs.gauge_max("script.stack_depth_hwm", machine.depth_hwm)
        if not result:
            obs.inc("script.failures_total")
        if exhausted is not None:
            obs.inc("script.budget_exhausted_total")
            obs.emit("script.budget_exhausted", reason=str(exhausted))
        for op, count in op_counts.items():
            obs.inc(f"script.op.{op.name}", count)
    return result
