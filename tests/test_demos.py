"""Smoke tests: the fidelity-estimation demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, header", [
    ("fidelity_and_ptm.py", "fidelity of CNOT against itself and against doing nothing:"),
    ("sampled_fidelity_estimation.py", "exact AGF of the noisy channel:"),
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
