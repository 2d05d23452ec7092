"""Every bounded keyed map in ``src/`` is one :class:`repro.lru.LRU`.

The signature cache, the per-key ecmult tables, the R-parity hints, the
relay's seen sets and orphan pool, and the service's memo and affirmation
cache were each their own ``OrderedDict`` or insertion-ordered dict, with
their own eviction and their own capacity option.  So no ordered-dict
bookkeeping is spelt outside ``repro/lru.py``, none of the retired names
or options is spelt at all, and each map is an ``LRU`` at run time.
"""

import re
from pathlib import Path

from repro.bitcoin import sigcache
from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import Node, Simulation
from repro.bitcoin.regtest import RegtestNetwork
from repro.crypto import ecdsa, secp256k1
from repro.logic import checker
from repro.lru import LRU
from repro.service import VerificationService, cache

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_LRU = SRC / "repro" / "lru.py"
BOOKKEEPING = (r"\bOrderedDict\b", r"\bmove_to_end\b", r"\bpopitem\(", r"\bnext\(iter\(")
RETIRED = (
    "AffirmationCache", "seen_limit", "orphan_limit", "memo_capacity",
    "_POINT_TABLE_CACHE_MAX", "_PARITY_HINTS_MAX",
)


def _spelt(pattern: re.Pattern, paths) -> list[str]:
    return [
        f"{path.relative_to(SRC)}: {match.group(0)}"
        for path in paths
        for match in pattern.finditer(path.read_text())
    ]


def test_no_ordered_dict_bookkeeping_outside_the_one_lru():
    outside = [p for p in sorted(SRC.rglob("*.py")) if p != ONE_LRU]
    assert _spelt(re.compile("|".join(BOOKKEEPING)), outside) == []


def test_no_retired_name_is_spelt_in_src():
    pattern = re.compile(r"\b(" + "|".join(RETIRED) + r")\b")
    assert _spelt(pattern, sorted(SRC.rglob("*.py"))) == []


def test_only_repro_lru_defines_an_lru():
    defined = _spelt(re.compile(r"^class \w*LRU\b", re.M), sorted(SRC.rglob("*.py")))
    assert defined == ["repro/lru.py: class LRU"]
    assert "LRU" not in cache.__all__


def test_every_bounded_map_is_an_lru():
    node = Node("n", Simulation(seed=1), ChainParams.regtest())
    service = VerificationService(RegtestNetwork().chain)
    try:
        maps = {
            "sigcache": sigcache.SignatureCache()._lru,
            "point tables": secp256k1._POINT_TABLE_CACHE,
            "parity hints": ecdsa._PARITY_HINTS,
            "seen blocks": node.relay._seen_blocks,
            "seen txs": node.relay._seen_txs,
            "orphans": node.relay._orphans,
            "memo": service.memo._lru,
            "affirmations": checker.AFFIRMATION_CACHE,
        }
    finally:
        service.close()
    assert {name for name, m in maps.items() if type(m) is not LRU} == set()
