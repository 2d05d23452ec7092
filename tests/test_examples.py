"""Every script in ``examples/`` runs to completion.

Each runs as its own process with ``PYTHONPATH=src``, as a reader would
run it from the repository root, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_all_here():
    assert [path.name for path in EXAMPLES] == [
        "batch_server.py", "escrow_puzzle.py", "expiring_option.py",
        "homework_pca.py", "newcoin_bank.py", "quickstart.py",
    ]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
