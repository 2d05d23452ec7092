"""Every bounded keyed map in ``src/`` is one :class:`repro.lru.LRU`.

The signature cache, the per-key ecmult tables, the R-parity hints, the
relay's seen sets and orphan pool, and the service's memo and affirmation
cache were each their own ``OrderedDict`` or insertion-ordered dict, with
their own eviction and their own capacity option, and the ``Point.decode``
memo was a ``functools.lru_cache``.  So no ordered-dict bookkeeping is
spelt outside ``repro/lru.py``, no ``functools`` memo is spelt at all,
none of the retired names or options is spelt at all, and each map is an
``LRU`` at run time.
"""

import re

from repro.bitcoin import sigcache
from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import Node, Simulation
from repro.bitcoin.regtest import RegtestNetwork
from repro.crypto import ecdsa, secp256k1
from repro.logic import checker
from repro.lru import LRU
from repro.service import VerificationService, cache
from tests.guards import SRC, sources, spelt, words

ONE_LRU = SRC / "lru.py"
BOOKKEEPING = (r"\bOrderedDict\b", r"\bmove_to_end\b", r"\bpopitem\(", r"\bnext\(iter\(")
RETIRED = (
    "AffirmationCache", "seen_limit", "orphan_limit", "memo_capacity",
    "_POINT_TABLE_CACHE_MAX", "_PARITY_HINTS_MAX",
)


def test_no_ordered_dict_bookkeeping_outside_the_one_lru():
    outside = [p for p in sources() if p != ONE_LRU]
    assert spelt("|".join(BOOKKEEPING), outside) == []


def test_no_functools_memo_in_src():
    pattern = r"\blru_cache\b|\bfunctools\.cache\b|\bfrom functools import [^\n]*\bcache\b"
    assert spelt(pattern, sources()) == []


def test_no_retired_name_is_spelt_in_src():
    assert spelt(words(RETIRED), sources()) == []


def test_only_repro_lru_defines_an_lru():
    defined = spelt(re.compile(r"^class \w*LRU\b", re.M), sources())
    assert defined == ["src/repro/lru.py: class LRU"]
    assert "LRU" not in cache.__all__


def test_every_bounded_map_is_an_lru():
    node = Node("n", Simulation(seed=1), ChainParams.regtest())
    service = VerificationService(RegtestNetwork().chain)
    try:
        maps = {
            "sigcache": sigcache.SignatureCache()._lru,
            "point tables": secp256k1._POINT_TABLE_CACHE,
            "parity hints": ecdsa._PARITY_HINTS,
            "decompressed points": secp256k1._DECOMPRESSED,
            "seen blocks": node.relay._seen_blocks,
            "seen txs": node.relay._seen_txs,
            "orphans": node.relay._orphans,
            "memo": service.memo._lru,
            "affirmations": checker.AFFIRMATION_CACHE,
        }
    finally:
        service.close()
    assert {name for name, m in maps.items() if type(m) is not LRU} == set()
