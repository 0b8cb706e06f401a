"""Each narrative demo runs to completion and prints its headline result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tjurina

SRC = Path(tjurina.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize("script, line", [
    ("01_two_quintics.py", "symmetry order:  4"),
    ("02_double_points.py", "y^2-(x-2)^5 at (2,0): DoubleA(n=4)"),
    ("03_family_tour.py", "  9 |      55 | (5, 5)         | True"),
    ("04_global_invariants.py", "  global tau = 4"),
])
def test_demo_runs_and_prints(script, line):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
