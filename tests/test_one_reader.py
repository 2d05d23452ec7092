"""Every function under ``src/repro`` has a reader that is not a test.

``scripts/reach.py`` runs the entry points and fails on a function none of
them reaches unless ``scripts/reach_allow.txt`` names it with a reason.
The run takes minutes, so tier-1 checks what can be read off the files:
the list parses, every line names a function that exists and an open
ROADMAP item, the components deleted for having only test readers are
spelt nowhere, the options only tests set are gone, and the comparison
itself fails both ways it should.
"""

import importlib.util
import inspect
import re

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.sync import start_sync
from repro.store import BlockStore
from tests.guards import ROOT, open_items, sources, spelt

RETIRED = (
    "base58", "b58", "merkle_branch", "verify_branch", "backoff_sequence",
    "SyncConfig", "fsync_appends",
)


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()


def test_every_listed_function_exists_with_a_reason():
    allowed = reach.read_allow(reach.ALLOW_FILE.read_text())
    assert allowed
    assert sorted(set(allowed) - set(reach.all_functions())) == []


def test_every_item_reason_names_an_open_roadmap_item():
    allowed = reach.read_allow(reach.ALLOW_FILE.read_text())
    items = {int(r.split()[1]) for r in allowed.values() if r.startswith("item")}
    assert items and items <= open_items()


def test_a_line_without_one_of_the_four_reasons_is_refused():
    for bad in ("repro.x:f  unused", "repro.x:f", "f  crash-path", "repro.x:f  item"):
        try:
            reach.read_allow(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")
    assert reach.read_allow("repro.x:f  item 8  # why\n") == {"repro.x:f": "item 8"}


def test_no_retired_name_is_spelt_in_src():
    pattern = re.compile(r"\b(" + "|".join(RETIRED) + r")")
    assert spelt(pattern, sources()) == []


def test_only_the_remaining_parameters_are_settable():
    assert list(inspect.signature(BlockStore).parameters) == ["root", "snapshot_interval"]
    assert list(inspect.signature(RegtestNetwork).parameters) == []
    assert list(inspect.signature(start_sync).parameters) == ["node", "peer", "reason"]


def test_the_comparison_fails_both_ways():
    functions = {"repro.a:ran", "repro.a:idle", "repro.a:listed"}
    allowed = {"repro.a:listed": "item 8"}
    assert reach.compare(functions, {"repro.a:ran", "repro.a:idle"}, allowed) == []
    assert reach.compare(functions, {"repro.a:ran"}, allowed) == [
        "unreached and not listed: repro.a:idle",
    ]
    assert reach.compare(functions, set(functions), allowed) == [
        "listed but reached (drop the line): repro.a:listed",
    ]
    assert reach.compare(functions - {"repro.a:listed"}, set(), allowed) == [
        "unreached and not listed: repro.a:idle",
        "unreached and not listed: repro.a:ran",
        "listed but not a function under src/repro: repro.a:listed",
    ]


def test_the_ast_list_spells_qualnames_as_code_objects_do(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class C:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "def f():\n"
        "    def inner(): pass\n"
    )
    assert set(reach.functions_in(source)) == {"C.p", "f", "f.<locals>.inner"}
    assert reach.functions_in(source)["C.p"] == range(3, 5)
