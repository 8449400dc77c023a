"""The experiment drivers in scripts/ run to completion at a tiny size."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("termination_sweep.py", ["--max-size", "3", "--logics", "K,WK"]),
    ("axiom_matrix.py", ["--mode", "constructive"]),
    ("run_fuzz.py", ["--count", "1", "--logics", "WM"]),
])
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
