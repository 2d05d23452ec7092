"""The paper-experiment runner: discovery, the counter gate, and what a
failing run leaves behind to explain itself."""

import json
import os
import re
import subprocess
import sys

import pytest

pytestmark = pytest.mark.obs

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
sys.path.insert(0, os.path.abspath(BENCH_DIR))

import runner  # noqa: E402
from repro.obs.events import validate_event  # noqa: E402


class TestRunnerDiscovery:
    def test_discovers_all_eighteen_experiments(self):
        names = runner.discover_experiments()
        assert len(names) == 18
        assert all(name.startswith("bench_") for name in names)
        assert "bench_e6_verifier_scaling" in names
        assert "bench_e10_service" in names
        assert "bench_a2_chaos_convergence" in names
        assert "bench_a3_propagation" in names
        assert "bench_a4_compact_relay" in names
        assert "bench_b2_recovery" in names

    def test_only_filter(self):
        names = runner.discover_experiments(only=["e6", "f1"])
        assert names == ["bench_e6_verifier_scaling",
                         "bench_f1_syntax_roundtrip"]

    def test_experiment_key(self):
        assert runner.experiment_key("bench_e6_verifier_scaling") == (
            "e6_verifier_scaling"
        )


EXPECTED = {
    "e6": {"ecmult.mults_total": 213, "sigcache.hits_total": 222},
    "f1": {},
}


class TestCounterGate:
    def test_matching_run_passes(self):
        assert runner.diff_counters(EXPECTED, dict(EXPECTED)) == []

    def test_edited_count_names_experiment_series_expected_and_got(self):
        got = {**EXPECTED, "e6": {**EXPECTED["e6"], "ecmult.mults_total": 214}}
        assert runner.diff_counters(EXPECTED, got) == [
            "e6: ecmult.mults_total expected 213 got 214"
        ]

    def test_absent_series_is_expected_to_read_zero(self):
        got = {**EXPECTED, "f1": {"lf.typecheck_total": 4}}
        assert runner.diff_counters(EXPECTED, got) == [
            "f1: lf.typecheck_total expected 0 got 4"
        ]
        assert runner.diff_counters(got, EXPECTED) == [
            "f1: lf.typecheck_total expected 4 got 0"
        ]

    def test_experiment_missing_from_either_side_fails(self):
        only_e6 = {"e6": EXPECTED["e6"]}
        (line,) = runner.diff_counters(EXPECTED, only_e6)
        assert line.startswith("f1:") and "did not run" in line
        (line,) = runner.diff_counters(only_e6, EXPECTED)
        assert line.startswith("f1:") and "not in counters.json" in line

    def test_counters_file_has_one_entry_per_experiment(self):
        recorded = runner.load_counters()
        assert sorted(recorded) == sorted(
            runner.experiment_key(name) for name in runner.discover_experiments()
        )
        for counts in recorded.values():
            assert list(counts) == sorted(counts)
            assert all(type(n) is int and n > 0 for n in counts.values())


COUNTING_BENCH = (
    "from repro import obs\n"
    "def bench_zz_count():\n"
    "    obs.inc('script.ops_total', 3)\n"
)
BROKEN_BENCH = (
    "def bench_zz_boom():\n"
    "    raise RuntimeError('intentional')\n"
)


def emitting_bench(outcome: str) -> str:
    return (
        "from repro import obs\n"
        "def bench_zz_emit():\n"
        f"    obs.emit('proof.checked', outcome={outcome!r})\n"
    )


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """An empty experiments directory standing in for ``benchmarks/``;
    the isolated child finds its modules through the inherited path."""
    monkeypatch.setattr(runner, "BENCH_DIR", str(tmp_path))
    monkeypatch.syspath_prepend(str(tmp_path))
    return tmp_path


class TestRunnerMain:
    def test_record_then_check_round_trips(self, bench_dir, capfd):
        (bench_dir / "bench_zz_counting.py").write_text(COUNTING_BENCH)
        assert runner.main(["--record"]) == 0
        counters = bench_dir / runner.COUNTERS_FILE
        assert json.loads(counters.read_text()) == {
            "zz_counting": {"script.ops_total": 3}
        }
        assert runner.main([]) == 0
        assert runner.main(["--only", "zz_counting"]) == 0

        counters.write_text(json.dumps({"zz_counting": {"script.ops_total": 4}}))
        capfd.readouterr()
        assert runner.main([]) == 1
        assert ("zz_counting: script.ops_total expected 4 got 3"
                in capfd.readouterr().err)

    def test_failing_bench_is_reported_and_the_rest_still_run(
        self, bench_dir, capfd
    ):
        (bench_dir / "bench_zz_a_broken.py").write_text(BROKEN_BENCH)
        (bench_dir / "bench_zz_b_counting.py").write_text(COUNTING_BENCH)
        assert runner.main(["--record"]) == 1
        assert not (bench_dir / runner.COUNTERS_FILE).exists()
        captured = capfd.readouterr()
        assert "[2/2] zz_b_counting" in captured.out
        assert "intentional" in captured.err
        assert "FAILED experiments: zz_a_broken" in captured.err

    def test_a_failing_or_differing_experiment_prints_its_report(
        self, bench_dir, capfd
    ):
        (bench_dir / "bench_zz_counting.py").write_text(COUNTING_BENCH)
        assert runner.main(["--record"]) == 0
        capfd.readouterr()
        assert runner.main([]) == 0
        assert "per-stage breakdown" not in capfd.readouterr().err

        counters = bench_dir / runner.COUNTERS_FILE
        counters.write_text(json.dumps({"zz_counting": {"script.ops_total": 4}}))
        assert runner.main([]) == 1
        err = capfd.readouterr().err
        assert "--- zz_counting: per-stage breakdown ---" in err
        assert re.search(r"script\.ops_total +3\n", err)

        (bench_dir / "bench_zz_broken.py").write_text(BROKEN_BENCH)
        assert runner.main(["--only", "zz_broken"]) == 1
        assert "--- zz_broken: per-stage breakdown ---" in capfd.readouterr().err

    def test_the_event_log_of_the_last_experiment_is_written(
        self, bench_dir, tmp_path_factory, monkeypatch
    ):
        (bench_dir / "bench_zz_a_first.py").write_text(emitting_bench("first"))
        (bench_dir / "bench_zz_b_last.py").write_text(emitting_bench("last"))
        path = tmp_path_factory.mktemp("events") / "events.jsonl"
        monkeypatch.setenv("REPRO_OBS_EVENTS", str(path))
        assert runner.main(["--record"]) == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            validate_event(event)
        assert [(e["kind"], e["data"]) for e in events] == [
            ("proof.checked", {"outcome": "last"})
        ]

    def test_figure3_experiment_runs_on_its_own(self):
        """``--only f3`` in a fresh interpreter: the experiment must find
        the ``tests`` package without e8 having put the repo root on the
        path first, and read the counts the full run recorded."""
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "runner.py"),
             "--only", "f3"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestRunExperiment:
    def test_records_failure_without_crashing(self, tmp_path, monkeypatch):
        # A module whose bench raises must yield ok=False, not a crash.
        (tmp_path / "bench_zz_broken.py").write_text(BROKEN_BENCH)
        monkeypatch.syspath_prepend(str(tmp_path))
        result = runner.run_experiment("bench_zz_broken")
        assert result["ok"] is False
        (error,) = result["errors"]
        assert error.startswith("bench_zz_boom:") and "intentional" in error

    def test_import_failure_recorded(self, tmp_path, monkeypatch):
        bad = tmp_path / "bench_zz_unimportable.py"
        bad.write_text("raise ImportError('no such dep')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        result = runner.run_experiment("bench_zz_unimportable")
        assert result["ok"] is False
        assert "no such dep" in result["errors"][0]

    def test_calls_each_bench_once_and_keeps_its_counters(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "bench_zz_twice.py").write_text(
            COUNTING_BENCH + COUNTING_BENCH.replace("zz_count", "zz_count_again")
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        result = runner.run_experiment("bench_zz_twice")
        assert (result["ok"], result["errors"]) == (True, [])
        assert result["counters"] == {"script.ops_total": 6}
        assert "script.ops_total" in result["report"]
