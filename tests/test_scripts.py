"""Smoke tests: the example scripts run from the repository root."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, header", [
    (["scripts/facet_census.py", "5"], "  n   total  diamond  special     pbw    secs"),
    (["scripts/transfer_experiment.py", "3", "1"], "grid of 4 cells, dilation factor 1"),
])
def test_script_runs(argv, header):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
