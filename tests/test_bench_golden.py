"""The benchmark's seed-0 bit-identity digests, checked with the unit tests.

Each workload's first pass at seed 0 must hash to its digest in
``bench/golden.json``, so a change that moves any output bit fails here
and not only when the benchmark runs. This file only runs ``bench/run.py``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["checkers", "sums_pipeline", "cli_matrix"])
def test_golden_matches_at_seed_0(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "golden: match" in proc.stdout, proc.stdout
    assert "# failed_ratio = 0.0 " in proc.stdout, proc.stdout
