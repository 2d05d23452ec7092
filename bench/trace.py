"""Span tracing for the traced benchmark run.

The benchmark records spans from *outside* the program: a fixed list of
public entry points (:data:`ENTRY_POINTS`) is rebound to timing wrappers
for the duration of a traced run and restored afterwards.  Methods are
rebound on their class; module functions are rebound in every loaded
``repro.*`` (and ``bench.*``) module namespace that holds the original
object, because ``from x import f`` copies the reference.

A span is ``[name, start, end, parent]`` (``parent`` indexes the span
list, -1 at top level).  A call that re-enters the layer already on top
of the stack opens no span, so recursive entry points (``infer_type``)
count their outermost call only.  A layer's self time is its spans'
duration minus the duration of their direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, "module:function" or "module:Class.method").  The span name
# is the layer; layers that report two groups of metrics (crypto sign vs
# verify, store append vs snapshot vs recover) use one name per group.
ENTRY_POINTS = [
    ("bitcoin.wallet", "repro.bitcoin.wallet:Wallet.create_transaction"),
    ("bitcoin.wallet", "repro.bitcoin.wallet:Wallet.spendables"),
    ("bitcoin.wallet", "repro.bitcoin.wallet:Wallet.sign_input"),
    ("core.wallet", "repro.core.wallet:TypecoinClient.submit"),
    ("core.wallet", "repro.core.wallet:TypecoinClient.sync"),
    ("core.wallet", "repro.core.wallet:TypecoinClient.claim_bundle"),
    ("core.validate", "repro.core.validate:check_typecoin_transaction"),
    ("core.overlay", "repro.core.overlay:build_carrier"),
    ("core.overlay", "repro.core.overlay:check_carrier_correspondence"),
    ("core.verifier", "repro.core.verifier:verify_claim"),
    ("logic.checker", "repro.logic.checker:check_proof"),
    ("logic.checker", "repro.logic.checker:infer"),
    ("logic.checker", "repro.logic.checker:verify_affirmation"),
    ("logic.checker", "repro.logic.checker:check_prop_formation"),
    ("lf.typecheck", "repro.lf.typecheck:infer_type"),
    ("lf.typecheck", "repro.lf.typecheck:infer_kind"),
    ("lf.typecheck", "repro.lf.typecheck:check_type"),
    ("service", "repro.service.server:VerificationService.verify"),
    ("crypto.sign", "repro.crypto.ecdsa:sign"),
    ("crypto.verify", "repro.crypto.ecdsa:verify"),
    ("crypto.verify", "repro.crypto.ecdsa:batch_verify"),
    ("bitcoin.script", "repro.bitcoin.script:execute_script"),
    ("bitcoin.sighash", "repro.bitcoin.sighash:signature_hash"),
    ("bitcoin.sighash", "repro.bitcoin.sighash:SighashCache.digest"),
    ("bitcoin.validation", "repro.bitcoin.validation:check_tx_inputs"),
    ("bitcoin.mempool", "repro.bitcoin.mempool:Mempool.accept"),
    ("bitcoin.chain", "repro.bitcoin.chain:Blockchain.add_block"),
    ("bitcoin.codec", "repro.bitcoin.block:Block.parse"),
    ("bitcoin.codec", "repro.bitcoin.transaction:Transaction.parse_from"),
    ("bitcoin.codec", "repro.bitcoin.transaction:Transaction.serialize"),
    ("bitcoin.network", "repro.bitcoin.network:Node.submit_transaction"),
    ("bitcoin.network", "repro.bitcoin.network:Node.submit_block"),
    ("bitcoin.network", "repro.bitcoin.network:Node.submit_compact_block"),
    ("bitcoin.network", "repro.bitcoin.network:Node.send_to"),
    ("bitcoin.miner", "repro.bitcoin.miner:Miner.assemble"),
    ("store.append", "repro.store.store:BlockStore.append_connect"),
    ("store.snapshot", "repro.store.store:BlockStore.write_snapshot"),
    ("store.recover", "repro.store.recovery:recover_chain"),
]

# Top-level packages whose namespaces are searched for module functions:
# the program, and the benchmark's workloads that call into it.
_REBOUND = ("repro", "bench")

UNTIMED = "untimed"  # span name of paused intervals (oracle replays)

# Counts taken at an entry point, so that a ratio is measured where the
# work happens: entry point -> (counter, function of (args, result)).
_COUNTERS = {
    "repro.bitcoin.wallet:Wallet.spendables": (
        "bitcoin.wallet.utxos_scanned",
        lambda args, _result: len(args[1].utxos),
    ),
    "repro.bitcoin.block:Block.parse": (
        "bitcoin.codec.bytes",
        lambda args, _result: len(args[0]),
    ),
    "repro.bitcoin.transaction:Transaction.serialize": (
        "bitcoin.codec.bytes",
        lambda _args, result: len(result),
    ),
}


def resolve(target: str):
    """The object an entry point currently names (wrapped or not)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.installed = False
        self.active = False
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        # Calls per entry point in the window, re-entries included (a
        # relayed message is a ``send_to`` inside ``submit_transaction``).
        self.calls_by_target: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- rebinding -----------------------------------------------------

    def install(self) -> None:
        """Rebind every entry point; raises if one no longer exists."""
        for name, target in ENTRY_POINTS:
            module_name, _, qualname = target.partition(":")
            if "." in qualname:
                cls_name, _, attr = qualname.partition(".")
                cls = resolve(f"{module_name}:{cls_name}")
                self._wrap_method(cls, attr, name, target)
            else:
                self._wrap_function(resolve(target), name, target)
        self.installed = True

    def uninstall(self) -> None:
        self.installed = False
        self.active = False
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_method(self, cls, attr, name, target) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(raw.__func__, name, target))
        else:
            wrapped = self._wrapper(raw, name, target)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, original, name, target) -> None:
        wrapped = self._wrapper(original, name, target)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] not in _REBOUND:
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, attr, original))
                    namespace[attr] = wrapped

    def _wrapper(self, fn, name, target):
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(target)
        calls = self.calls_by_target
        errors = self.errors

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[target] += 1
            if stack and spans[stack[-1]][0] == name:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.counters[counter[0]] += counter[1](args, result)
                return result
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                stack.pop()
                errors[name] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- the benchmark's own spans -------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack
        self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
        return len(self.spans) - 1

    @contextmanager
    def harness(self):
        """Marks the benchmark's own code (callbacks it schedules inside
        the program's event loop)."""
        if not self.active:
            yield
            return
        index = self._open("harness")
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Records nothing inside (oracle replays), and leaves an
        ``untimed`` span behind, so that the time is subtracted from
        whichever span encloses it."""
        if not self.active:
            yield
            return
        index = self._open(UNTIMED)
        self.active = False
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self.active = True

    # -- windows -------------------------------------------------------

    def begin_window(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.errors.clear()
        self.calls_by_target.clear()
        self._stack.clear()
        self.active = True

    def end_window(self) -> "WindowTrace":
        self.active = False
        if self._stack:
            raise RuntimeError("trace window closed with open spans")
        return WindowTrace(
            [tuple(span) for span in self.spans],
            dict(self.counters),
            dict(self.errors),
            dict(self.calls_by_target),
        )

    def abort_window(self) -> None:
        """Close a window that an exception cut short."""
        self.active = False
        self._stack.clear()


class WindowTrace:
    """The spans of one timed window, with per-layer aggregates."""

    def __init__(self, spans, counters, errors, calls_by_target):
        self.spans = spans
        self.counters = counters
        self.errors = errors
        self.calls_by_target = calls_by_target

    def layers(self) -> dict[str, dict]:
        """name -> {"calls", "total_s", "self_s"} over the window."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def top_level_s(self) -> float:
        """Timed wall seconds covered by spans that have no parent."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name == UNTIMED:
                if parent >= 0:
                    total -= end - start
            elif parent < 0:
                total += end - start
        return total

    def write(self, path, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name, round(start - origin, 7), round(end - origin, 7), parent]
                        for name, start, end, parent in self.spans
                    ],
                },
                fh,
            )
