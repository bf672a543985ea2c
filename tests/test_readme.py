"""The README's python blocks run as written: in order, in one namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.filterwarnings("error")
def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2  # the quick start, then the measured-cost descent
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["res"].best_params.shape == (3, 2, 3)  # (depth+1, qubits, 3)
    assert namespace["x"].shape == (18,) and namespace["diag"]["iterations"] >= 1
