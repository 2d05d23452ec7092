"""How long something took is measured in one place, outside the program.

``bench/`` times every layer from outside ``src/`` (``docs/profiling.md``);
``repro.obs`` records what happened — counters, gauges, events — and its
clock only stamps event ``ts``.  So the span tracer, the Chrome-trace
exporter and the flight recorder do not import, no wrapper that existed
to open a span is spelt in ``src/``, nothing outside ``repro.obs`` reads
the obs clock, and no catalogued histogram is a wall-time one.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro import obs

SRC = Path(__file__).resolve().parents[1] / "src"
OBS = SRC / "repro" / "obs"
RETIRED = (
    "trace_span", "set_tracer", "render_trace", "_apply_block_txs_inner",
    "_undo_block_inner", "_connect_inner", "_assemble_inner", "_recover_inner",
)
HISTOGRAMS = {"chain.reorg_depth", "net.block_propagation_seconds"}


@pytest.mark.parametrize("module", ["trace", "export", "flight"])
def test_retired_obs_module_does_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.obs.{module}")


def _spelt(pattern: re.Pattern, paths) -> list[str]:
    return [
        f"{path.relative_to(SRC)}: {match.group(0)}"
        for path in paths
        for match in pattern.finditer(path.read_text())
    ]


def test_no_retired_name_is_spelt_in_src():
    pattern = re.compile(r"\b(" + "|".join(RETIRED) + r")\b")
    assert _spelt(pattern, sorted(SRC.rglob("*.py"))) == []


def test_only_obs_reads_the_obs_clock():
    outside = [p for p in sorted(SRC.rglob("*.py")) if OBS not in p.parents]
    assert _spelt(re.compile(r"\bobs\.clock\b"), outside) == []


def test_every_catalogued_histogram_is_not_wall_time():
    catalogued = {name for name, kind in obs.CATALOGUE if kind.startswith("h")}
    assert catalogued == HISTOGRAMS
