"""One bounded map: least recently used evicted first.

Every bounded keyed map in ``src/`` is an :class:`LRU` — the signature
cache (:mod:`repro.bitcoin.sigcache`), the per-key ecmult tables and the
R-parity hints (:mod:`repro.crypto`), the relay's seen sets and orphan
pool (:mod:`repro.bitcoin.relay`), and the verification service's memo
and affirmation cache (:mod:`repro.service.cache`).  It lives here, with
no dependency, so the substrate can import it without reaching up into
the layers built on it.

* ``get`` makes the key the most recently used and counts ``hits`` /
  ``misses``; ``put`` does the same for the key it stores and returns
  the ``(key, value)`` it evicted, if any.  ``None`` is never a value:
  ``get`` answers ``None`` for "not held".
* ``in`` neither moves the key nor counts.  A map that only ever asks
  ``in`` and ``put``s absent keys (the relay's) evicts first-in,
  first-out.

Thread-safe: the service's requests verify through the module-wide
crypto maps from several threads at once.  Fork-safe: a worker forked
while another thread held a map's lock would inherit it held and wait
for ever, so each live map gets a fresh lock in the child.  A child
forked in the middle of a ``put`` may hold one entry over the bound
until its own next ``put``.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

__all__ = ["LRU"]


class LRU:
    """A thread-safe map of at most ``capacity`` entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _LIVE.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Is ``key`` held?  Neither moved nor counted."""
        return key in self._entries

    def get(self, key):
        """The value under ``key`` (now the most recently used), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> tuple | None:
        """Hold ``value`` under ``key`` as the most recently used; the
        least recently used ``(key, value)`` if that evicted it."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = None
            # A loop, not an ``if``: a child forked mid-``put`` may start
            # one over the bound, and its next ``put`` brings it back.
            while len(self._entries) > self.capacity:
                evicted = self._entries.popitem(last=False)
            return evicted

    def pop(self, key):
        """Drop ``key``; its value, or None if it was not held."""
        with self._lock:
            return self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_LIVE: "weakref.WeakSet[LRU]" = weakref.WeakSet()


def _unlock_in_child() -> None:
    for lru in _LIVE:
        lru._lock = threading.Lock()


os.register_at_fork(after_in_child=_unlock_in_child)
