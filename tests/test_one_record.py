"""A count is recorded once, read off the source.

``repro.obs`` keeps two metric kinds, counters and gauges, under plain
string names.  A distribution or a breakdown is read from the event log,
which carries each value: a reorganisation's depth is ``chain.reorg``'s
``depth``, a block's propagation is rebuilt from ``relay.hop`` events.
So no histogram, bucket set, quantile estimator or label helper is spelt
under ``src/``, every catalogue row is a counter or a gauge, a snapshot
holds exactly the series and the events, and no ``obs.inc`` call passes
a keyword argument.
"""

import ast

from repro import obs
from tests.guards import ROOT, sources, spelt, words

RETIRED = (
    "Histogram", "quantile_from_cumulative", "series_name",
    "escape_label_value", "DEFAULT_BUCKETS", "COUNT_BUCKETS",
    "block_births", r"obs\.observe",
)


def test_no_retired_record_is_spelt_in_src():
    assert spelt(words(RETIRED), sources()) == []


def test_every_catalogued_series_is_a_counter_or_a_gauge():
    assert {kind for _name, kind in obs.CATALOGUE} <= {"c", "g"}


def test_a_snapshot_holds_the_series_and_the_events():
    assert set(obs.snapshot()) == {
        "counters", "gauges", "events", "events_dropped",
    }


def test_no_inc_call_passes_a_keyword():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inc"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "obs"
        and node.keywords
    ]
    assert found == []
