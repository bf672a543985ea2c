"""The program's names that perfbench/tracing.py wraps stay in place: its
spans see the sweep command, vqgo, minimize_quasi_newton's callables and
the shift-rule gradients of a measured cost."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from gatesynth import cli, optimkit
from gatesynth.channels import CNOT
from reference import dfe_descent

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hooks_record_spans(tmp_path):
    tracing = _load_tracing()
    originals = (optimkit.vqgo, optimkit.minimize_quasi_newton, cli.cmd_cnot_sweep)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        cfg = tmp_path / "cnot.json"
        cfg.write_text(json.dumps({
            "eps_cases": [0.1], "t_start_ns": 70.0, "t_stop_ns": 80.0, "t_step_ns": 5.0,
            "omega0_mhz": 120.0, "outer_maxiter": 3, "max_sweeps": 1,
            "optimizer": {"restarts": 1, "max_iterations": 20},
        }))
        assert cli.main(["cnot-sweep", "--config", str(cfg),
                         "--output", str(tmp_path / "out.csv")]) == 0
        # with the cnot-sweep entry of cli._COMMANDS rebuilt around the traced command
        assert cli.main(["--verify", str(tmp_path / "out.csv")]) == 0
        res = optimkit.vqgo(CNOT, [CNOT], cfg=optimkit.OptimizerConfig(restarts=1, seed=1))
        optimkit.minimize_quasi_newton(lambda x: float(x @ x), lambda x: 2 * x, np.ones(3))
    finally:
        tracer.uninstall()
    assert (optimkit.vqgo, optimkit.minimize_quasi_newton, cli.cmd_cnot_sweep) == originals
    spans = tracing.Spans(tracer)
    assert spans.calls("cli.cmd_cnot_sweep") == 1
    assert spans.calls("cli.verify_artifact") == 1
    assert spans.calls("optimkit.concatenated_optimize") == 1
    # the outer search's inner designs and the direct call
    assert spans.calls("optimkit.vqgo") >= 2
    assert spans.notes("optimkit.vqgo")[-1] == {"cost": res.best_cost}
    assert spans.calls("optimkit.minimize_quasi_newton") == 1
    assert spans.calls("optimkit.minimize_quasi_newton.cost") >= 2
    assert spans.calls("optimkit.minimize_quasi_newton.gradient") >= 2


def test_traced_emulated_vqgo_records_shift_rule_gradients():
    # the descent of an emulated measurement: full-support DFE and its shift rule
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        _, _, diag = dfe_descent(CNOT, [CNOT], optimkit.OptimizerConfig(max_iterations=5, seed=1))
    finally:
        tracer.uninstall()
    spans = tracing.Spans(tracer)
    assert spans.calls("optimkit.minimize_quasi_newton") == 1
    assert spans.calls("optimkit.minimize_quasi_newton.gradient") == diag["ngev"]
    notes = spans.notes("ansatz.parameter_shift_gradient")
    assert notes and all(note == {"callable": True} for note in notes)
    assert len(notes) == diag["ngev"]
