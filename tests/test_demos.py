"""Smoke tests: every demo runs to completion and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, header", [
    ("fidelity_and_ptm.py", "fidelity of CNOT against itself and against doing nothing:"),
    ("sampled_fidelity_estimation.py", "exact AGF of the noisy channel:"),
    ("cnot_from_cross_resonance.py", "  eps tpcx omega   tpcx AGI vqgo omega   vqgo AGI"),
    ("syndrome_extraction.py", "device: deltas [211.0, 223.0, 236.0, 248.0] MHz"),
    ("entangling_power_map.py", "canonical coordinates of named gates (units of pi):"),
    ("gradient_descent_synthesis.py", "environment gradient (18 parameters)"),
])
def test_demo_runs(demo, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)
