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
import re
from pathlib import Path

from repro import obs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RETIRED = (
    "Histogram", "quantile_from_cumulative", "series_name",
    "escape_label_value", "DEFAULT_BUCKETS", "COUNT_BUCKETS",
    "block_births", r"obs\.observe",
)


def test_no_retired_record_is_spelt_in_src():
    pattern = re.compile(r"\b(" + "|".join(RETIRED) + r")\b")
    spelt = [
        f"{path.relative_to(ROOT)}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert spelt == []


def test_every_catalogued_series_is_a_counter_or_a_gauge():
    assert {kind for _name, kind in obs.CATALOGUE} <= {"c", "g"}


def test_a_snapshot_holds_the_series_and_the_events():
    assert set(obs.snapshot()) == {
        "counters", "gauges", "events", "events_dropped",
    }


def test_no_inc_call_passes_a_keyword():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inc"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "obs"
        and node.keywords
    ]
    assert found == []
