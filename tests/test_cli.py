"""Command-line runner: configs, artifacts, determinism, verification,
and exit codes. All invocations go through cli.main() in-process."""

import csv
import dataclasses
import io
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatesynth import cli
from gatesynth.channels import CNOT, SWAP
from gatesynth.devices import CrossResonancePair, DriveSpec, cr_gate
from gatesynth.numkit import derive_seed
from gatesynth.optimkit import AmplitudeBounds, OptimizerConfig, concatenated_optimize, vqgo


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _body(path):
    """Artifact text without the volatile '#' header lines."""
    return "".join(
        line for line in open(path) if not line.startswith("#")
    )


def _meta(path):
    out = {}
    for line in open(path):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(": ")
            out[key] = value
    return out


def _rows(path):
    return list(csv.DictReader(io.StringIO(_body(path))))


TINY_CNOT = {
    "eps_cases": [0.0],
    "t_start_ns": 60.0,
    "t_stop_ns": 90.0,
    "t_step_ns": 15.0,
    "outer_maxiter": 4,
    "max_sweeps": 1,
    "optimizer": {"restarts": 1, "max_iterations": 60, "gradient_tolerance": 1e-6},
}

TINY_SYNDROME = {
    "crosstalk_cases": [0.0],
    "t_start_ns": 75.0,
    "t_stop_ns": 75.0,
    "t_step_ns": 75.0,
    "outer_maxiter": 6,
    "max_sweeps": 1,
    "optimizer": {"restarts": 1, "max_iterations": 25, "gradient_tolerance": 1e-5},
}

TINY_CARTAN = {
    "grid_points": 2,
    "optimizer": {"restarts": 1, "max_iterations": 80, "gradient_tolerance": 1e-6},
}

TINY_SINGLE = {
    "target": {"kind": "cnot"},
    "sources": [{"kind": "cnot"}],
    "optimizer": {"restarts": 1, "max_iterations": 120},
}


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"grid_pints": 2})
    assert cli.main(["cartan-map", "--config", cfg]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_json_is_located(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{\n  "grid_points": 2,\n}\n')
    assert cli.main(["cartan-map", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:3:1" in err


@pytest.mark.parametrize("text, message", [
    ('{"seed": ' + "7" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["int-string-limit", "nesting"])
def test_json_past_a_parser_limit_is_located(tmp_path, capsys, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert cli.main(["cartan-map", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path}: {message}")


def test_non_object_config_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", [1, 2, 3])
    assert cli.main(["cartan-map", "--config", cfg]) == 1
    assert "top level" in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert cli.main(["cartan-map", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path, capsys, monkeypatch):
    def never_run(cfg, workers):
        raise AssertionError("the command ran before its output was checked")

    command, defaults, _, output = cli._COMMANDS["cartan-map"]
    monkeypatch.setitem(cli._COMMANDS, "cartan-map", (command, defaults, never_run, output))
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    for out in (tmp_path / "missing_dir" / "out.csv", tmp_path):
        assert cli.main(["cartan-map", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("output error: ") and str(out) in err[0]
    assert not (tmp_path / "missing_dir").exists()


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_bad_optimizer_config(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"optimizer": {"restarts": 0}})
    assert cli.main(["cartan-map", "--config", cfg]) == 1
    assert "optimizer config" in capsys.readouterr().err


def test_cartan_map_rows_and_verify(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    out = str(tmp_path / "map.csv")
    assert cli.main(["cartan-map", "--config", cfg, "--output", out]) == 0
    lines = _body(out).splitlines()
    assert lines[0].split(",") == cli.CARTAN_COLUMNS
    assert len(lines) == 1 + 2**3  # header + grid_points^3
    # corner rows: identity gate cannot synthesize CNOT, SWAP-corner can
    rows = [dict(zip(cli.CARTAN_COLUMNS, ln.split(","))) for ln in lines[1:]]
    ident = [r for r in rows if float(r["c_x"]) == 0.0 and float(r["c_y"]) == 0.0
             and float(r["c_z"]) == 0.0][0]
    assert float(ident["best_agf"]) < 0.7
    assert float(ident["entangling_power"]) == 0.0
    assert cli.main(["--verify", out]) == 0


def test_cartan_map_determinism(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["cartan-map", "--config", cfg, "--output", a]) == 0
    assert cli.main(["cartan-map", "--config", cfg, "--output", b]) == 0
    assert _body(a) == _body(b)
    assert _meta(a)["config_hash"] == _meta(b)["config_hash"]


def test_cartan_map_workers_match_serial(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["cartan-map", "--config", cfg, "--output", a]) == 0
    assert cli.main(["cartan-map", "--config", cfg, "--output", b,
                     "--workers", "2"]) == 0
    assert _body(a) == _body(b)


def test_seed_override_changes_hash(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["cartan-map", "--config", cfg, "--output", a]) == 0
    assert cli.main(["cartan-map", "--config", cfg, "--output", b,
                     "--seed", "7"]) == 0
    assert _meta(a)["config_hash"] != _meta(b)["config_hash"]
    assert _meta(b)["seed"] == "7"


def test_cnot_sweep_rows_and_verify(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CNOT)
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", out]) == 0
    lines = _body(out).splitlines()
    assert lines[0].split(",") == cli.SWEEP_COLUMNS
    # 1 eps case x 3 grid times x 2 methods
    assert len(lines) == 1 + 1 * 3 * 2
    # each method's amplitude is fixed once per case and carried by its rows
    for method in ("tpcx", "vqgo"):
        omegas = {r["omega_mhz"] for r in _rows(out) if r["method"] == method}
        assert len(omegas) == 1 and float(omegas.pop()) > 0
    assert cli.main(["--verify", out]) == 0


def _hex(cells):
    return [float(x).hex() for x in cells.split(";")]


def _tiny_cnot_sources(eps, omegas, t):
    """TINY_CNOT's two source layers, built from the library alone."""
    pair = CrossResonancePair(200.0, 5.0, eps, np.pi / 4)
    return [cr_gate(pair, DriveSpec(float(omegas[0]), t))] * 2


def _tiny_cnot_optimizer(seed):
    return OptimizerConfig(**TINY_CNOT["optimizer"], seed=seed)


def test_vqgo_rows_are_the_search_and_grid_designs_run_alone(tmp_path):
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, eps_cases=[0.0, 0.1]))
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", out]) == 0
    rows = {(float(r["eps"]), float(r["t_ns"])): r for r in _rows(out) if r["method"] == "vqgo"}
    # each case's row at t_opt 75 is its amplitude search's design
    for case, eps in enumerate((0.0, 0.1)):
        w, res, _ = concatenated_optimize(
            CNOT, lambda w: _tiny_cnot_sources(eps, w, 75.0), 50.0, AmplitudeBounds(0.0, 200.0),
            _tiny_cnot_optimizer(derive_seed(0, 1, case)), outer_maxiter=4, max_sweeps=1)
        assert _hex(rows[eps, 75.0]["omega_mhz"]) == [x.hex() for x in w]
        _assert_row_is(rows[eps, 75.0], res)
    # a grid row is its design alone: case 1 at t 90, grid index 2
    sources = _tiny_cnot_sources(0.1, [float(rows[0.1, 90.0]["omega_mhz"])], 90.0)
    _assert_row_is(rows[0.1, 90.0], vqgo(CNOT, sources, cfg=_tiny_cnot_optimizer(
        derive_seed(0, 2, 1, 2))))


def _assert_row_is(row, res):
    assert _hex(row["agi"]) == [res.best_cost.hex()]
    assert _hex(row["theta"]) == [x.hex() for x in res.best_params.ravel()]
    assert row["restarts"] == str(len(res.restart_diagnostics))
    assert row["iterations"] == str(res.iterations_used)


def test_restarts_column_counts_the_restarts_run(tmp_path):
    optimizer = dict(TINY_CNOT["optimizer"], restarts=3, stop_below=0.5)
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, optimizer=optimizer))
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", out]) == 0
    # every design's first restart ends below stop_below, so it runs no other
    assert [r["restarts"] for r in _rows(out) if r["method"] == "vqgo"] == ["1"] * 3


def test_t_opt_off_the_grid_adds_its_own_rows(tmp_path):
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, t_opt_ns=67.5))
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", out]) == 0
    for method in ("tpcx", "vqgo"):
        assert [r["t_ns"] for r in _rows(out) if r["method"] == method] == [
            "60", "67.5", "75", "90"]
    assert cli.main(["--verify", out]) == 0


def test_cnot_sweep_pair_file_is_inlined_and_verifies(tmp_path):
    pair = {"delta_mhz": 200.0, "g_mhz": 5.0}
    pair_path = _write(tmp_path / "pair.json", pair)
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, pair=pair_path))
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", out]) == 0
    stored = json.loads(_meta(out)["config"])
    assert stored["pair"] == pair
    assert _meta(out)["config_hash"] == cli._config_hash(stored)
    (tmp_path / "pair.json").unlink()  # the artifact alone must suffice
    assert cli.main(["--verify", out]) == 0


def test_cnot_sweep_missing_pair_file_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, pair=missing))
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and missing in err
    assert "Traceback" not in err


def test_cnot_sweep_malformed_pair_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "pair.json"
    bad.write_text('{"delta_mhz": 200.0,\n "g_mhz": }\n')
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, pair=str(bad)))
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{bad}:2:" in err
    assert "Traceback" not in err


def test_syndrome_sweep_device_file_is_inlined(tmp_path):
    from importlib import resources

    fixture = resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    device = json.loads(fixture.read_text())
    dev_path = _write(tmp_path / "device.json", device)
    cfg = _write(tmp_path / "c.json", dict(TINY_SYNDROME, device=dev_path))
    out = str(tmp_path / "synd.csv")
    assert cli.main(["syndrome-sweep", "--config", cfg, "--output", out]) == 0
    assert json.loads(_meta(out)["config"])["device"] == device
    (tmp_path / "device.json").unlink()
    assert cli.main(["--verify", out]) == 0


def test_missing_or_malformed_device_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for device, located in ((missing, missing), ({"pairs": [{"g_mhz": 5.0}]}, "delta_mhz")):
        cfg = _write(tmp_path / "c.json", dict(TINY_SYNDROME, device=device))
        assert cli.main(["syndrome-sweep", "--config", cfg,
                         "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and located in err
        assert "Traceback" not in err


def test_outer_maxiter_below_amplitudes_plus_two_is_config_error(tmp_path, capsys):
    # four amplitudes need at least six outer evaluations
    cfg = _write(tmp_path / "c.json", dict(TINY_SYNDROME, outer_maxiter=3))
    out = tmp_path / "synd.csv"
    assert cli.main(["syndrome-sweep", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "outer_maxiter must be an integer >= 6, got 3" in err
    assert not out.exists()


_DRIVE_COMMANDS = [
    ("cnot-sweep", TINY_CNOT, "t_opt_ns"),
    ("syndrome-sweep", TINY_SYNDROME, "t_opt_ns"),
]
_BAD_DRIVE_VALUES = [
    ("omega_bounds_mhz", [5]),
    ("omega_bounds_mhz", [150, 100]),
    ("omega_bounds_mhz", "ab"),
    ("omega_bounds_mhz", [-1, 10]),
    ("omega_bounds_mhz", [0, float("inf")]),
    ("omega_bounds_mhz", [True, 5]),
    ("t", -5),
    ("t", "x"),
    ("t", None),
]


@pytest.mark.parametrize("command, base, t_key", _DRIVE_COMMANDS)
@pytest.mark.parametrize("key, value", _BAD_DRIVE_VALUES)
def test_bad_amplitude_bounds_or_gate_time_is_config_error(
        tmp_path, capsys, command, base, t_key, key, value):
    key = t_key if key == "t" else key
    cfg = _write(tmp_path / "c.json", dict(base, **{key: value}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert key in err and json.dumps(value, separators=(",", ":")) in err
    assert not out.exists()


# an amplitude box narrower than 4e-8 MHz, where COBYLA's start radius (a quarter
# of the width) would be below its final radius 1e-8: scipy failed with a
# traceback at [0, 1e-15], and at [0, 1e-9] silently lowered the final radius
@pytest.mark.parametrize("command, base, omega0", [
    ("cnot-sweep", TINY_CNOT, 0.0), ("syndrome-sweep", TINY_SYNDROME, [0.0] * 4)])
@pytest.mark.parametrize("bounds", [[0.0, 1e-15], [0.0, 1e-9], [0.0, 3.9e-8]])
def test_amplitude_box_too_narrow_to_search_is_config_error(
        tmp_path, capsys, command, base, omega0, bounds):
    cfg = _write(tmp_path / "c.json", dict(base, omega0_mhz=omega0, omega_bounds_mhz=bounds))
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: omega_bounds_mhz {json.dumps(bounds, separators=(',', ':'))}: "
                   f"a side {bounds[1]:.3g} wide is narrower than 4e-08: "
                   f"COBYLA would start below its final radius 1e-08\n")
    assert not out.exists()


@pytest.mark.parametrize("command, base, omega0", [
    ("cnot-sweep", TINY_CNOT, 0.0), ("syndrome-sweep", TINY_SYNDROME, [0.0] * 4)])
def test_narrowest_amplitude_box_runs_without_a_warning(tmp_path, command, base, omega0):
    cfg = _write(tmp_path / "c.json", dict(base, omega0_mhz=omega0, omega_bounds_mhz=[0.0, 4e-8]))
    out = str(tmp_path / "out.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", cfg, "--output", out]) == 0
    assert cli.main(["--verify", out]) == 0


# the least outer budget is amplitudes + 2 in the CLI and in the library alike
@pytest.mark.parametrize("command, base, omega0", [
    ("cnot-sweep", TINY_CNOT, 50.0), ("syndrome-sweep", TINY_SYNDROME, [80.0] * 4)])
def test_cli_and_library_reject_the_same_outer_budget(tmp_path, capsys, command, base, omega0):
    least = np.size(omega0) + 2

    def factory(w):
        raise LookupError("the search started")

    for outer_maxiter in (least - 1, least):
        # max_sweeps 0 is read after outer_maxiter, so an accepted budget names it
        cfg = _write(tmp_path / "c.json", dict(base, outer_maxiter=outer_maxiter, max_sweeps=0))
        assert cli.main([command, "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        rejected = err.startswith(f"config error: outer_maxiter must be an integer >= {least}, ")
        assert rejected == (outer_maxiter < least)
        assert rejected or err.startswith("config error: max_sweeps must be an integer >= 1")
        search = dict(outer_maxiter=outer_maxiter, max_sweeps=1)
        if outer_maxiter < least:
            with pytest.raises(ValueError, match=f"outer_maxiter {outer_maxiter} is below {least}"):
                concatenated_optimize(CNOT, factory, omega0, **search)
        else:
            with pytest.raises(LookupError, match="the search started"):
                concatenated_optimize(CNOT, factory, omega0, **search)


TINY_PAIR = {"delta_mhz": 200.0, "g_mhz": 5.0, "eps": 0.1, "phi_rad": 0.5}

# (command, key, bad value, other overrides): every key of every command's
# defaults appears at least once
_BAD_VALUES = [
    ("cnot-sweep", "pair", {"delta_mhz": "x", "g_mhz": 5}, {}),
    ("cnot-sweep", "pair", {"delta_mhz": 200, "g_mhz": 5, "eps": 0.1}, {}),
    ("cnot-sweep", "pair", 7, {}),
    ("cnot-sweep", "eps_cases", [-1], {}),
    ("cnot-sweep", "eps_cases", "x", {}),
    ("cnot-sweep", "eps_cases", [], {}),
    ("cnot-sweep", "phi_rad", "x", {}),
    ("cnot-sweep", "depth", "abc", {}),
    ("cnot-sweep", "depth", -1, {}),
    ("cnot-sweep", "depth", 1.5, {}),
    ("cnot-sweep", "t_opt_ns", -1, {}),
    ("cnot-sweep", "t_start_ns", -15, {}),
    ("cnot-sweep", "t_stop_ns", 45, {}),
    ("cnot-sweep", "t_step_ns", "x", {}),
    ("cnot-sweep", "t_step_ns", 0, {}),
    ("cnot-sweep", "omega0_mhz", [50], {}),
    ("cnot-sweep", "omega_bounds_mhz", [5], {}),
    ("cnot-sweep", "outer_maxiter", 2, {}),
    ("cnot-sweep", "max_sweeps", 0, {}),
    ("cnot-sweep", "seed", -1, {}),
    ("cnot-sweep", "seed", 1.5, {}),
    ("cnot-sweep", "optimizer", {"restarts": 2.5}, {}),
    ("cnot-sweep", "optimizer", "x", {}),
    ("syndrome-sweep", "device", {"pairs": "x"}, {}),
    ("syndrome-sweep", "device", {"pairs": [TINY_PAIR] * 3}, {}),
    ("syndrome-sweep", "crosstalk_cases", ["x"], {}),
    ("syndrome-sweep", "depth", 0, {}),
    ("syndrome-sweep", "opposite_sign_layers", "false", {}),
    ("syndrome-sweep", "opposite_sign_layers", True, {"depth": 3}),
    ("syndrome-sweep", "t_opt_ns", "x", {}),
    ("syndrome-sweep", "t_start_ns", None, {}),
    ("syndrome-sweep", "t_stop_ns", "x", {}),
    ("syndrome-sweep", "t_step_ns", -7.5, {}),
    ("syndrome-sweep", "omega0_mhz", [80, 80], {}),
    ("syndrome-sweep", "omega_bounds_mhz", [10, 5], {}),
    ("syndrome-sweep", "outer_maxiter", 5, {}),
    ("syndrome-sweep", "max_sweeps", 0, {}),
    ("syndrome-sweep", "seed", "1", {}),
    ("syndrome-sweep", "optimizer", [], {}),
    ("cartan-map", "grid_points", "x", {}),
    ("cartan-map", "grid_points", 1, {}),
    ("cartan-map", "depth", -1, {}),
    ("cartan-map", "seed", -1, {}),
    ("cartan-map", "optimizer", {"restarts": 0}, {}),
    ("single-optimize", "target", {"kind": "canonical", "c": "ab"}, {}),
    ("single-optimize", "target", {"kind": "canonical", "c": [0.1, 0.2]}, {}),
    ("single-optimize", "target", 5, {}),
    ("single-optimize", "sources", [{"kind": "warp"}], {}),
    ("single-optimize", "sources", 5, {}),
    ("single-optimize", "target", {"kind": "identity", "qubits": 0}, {}),
    ("single-optimize", "sources",
     ["cnot", {"kind": "cr", "pair": {"delta_mhz": 200, "g_mhz": "x"}, "omega_mhz": 50, "t_ns": 75}],
     {}),
    ("single-optimize", "target", {"kind": "random_su4", "seed": -1}, {}),
    ("single-optimize", "sources", [{"kind": "cr", "pair": TINY_PAIR, "omega_mhz": 50, "t_ns": -1}],
     {}),
    ("single-optimize", "sources", [{"kind": "cr", "pair": TINY_PAIR, "omega_mhz": "x", "t_ns": 75}],
     {}),
    ("single-optimize", "target", "warp", {}),
    ("single-optimize", "seed", 1.5, {}),
    ("single-optimize", "optimizer", "x", {}),
    ("single-optimize", "seed", -1, {}),
    ("single-optimize", "optimizer", {"max_iterations": True}, {}),
    # an amplitude start outside the amplitude bounds
    ("cnot-sweep", "omega0_mhz", 250, {}),
    ("syndrome-sweep", "omega0_mhz", [80, 80, 80, 5], {"omega_bounds_mhz": [10, 200]}),
    # a cr source without its gate time
    ("single-optimize", "sources", ["cnot", {"kind": "cr", "pair": TINY_PAIR, "omega_mhz": 50}], {}),
    # a scale whose product with a device eps overflows
    ("syndrome-sweep", "crosstalk_cases", [1e300],
     {"device": {"pairs": [{**TINY_PAIR, "eps": 1e300}] * 4}}),
    ("cnot-sweep", "optimizer", {"restarts": 1, "max_iter": 60}, {}),
    # a repeated case value, 0 and -0 being one
    ("cnot-sweep", "eps_cases", [0.1, 0.1], {}),
    ("cnot-sweep", "eps_cases", [0.0, -0.0], {}),
    ("syndrome-sweep", "crosstalk_cases", [1.0, 0.0, 1], {}),
]
_TINY = {"cnot-sweep": TINY_CNOT, "syndrome-sweep": TINY_SYNDROME,
         "cartan-map": TINY_CARTAN, "single-optimize": TINY_SINGLE}


def test_bad_values_cover_every_config_key():
    for command, (_, defaults, _, _) in cli._COMMANDS.items():
        assert {key for c, key, _, _ in _BAD_VALUES if c == command} == set(defaults)


def test_readme_config_table_covers_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | commands | accepted value |")[1].split("\n\n")[0]
    documented = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            documented |= set(re.findall(r"`([^`]+)`", line.split("|")[1]))
    defaults = [v for k, v in vars(cli).items() if k.endswith("_DEFAULTS")]
    assert len(defaults) >= 4
    assert set().union(*defaults) == documented  # no key undocumented, no stale row


# the keys of the amplitude search single-optimize once ran, with their old defaults:
# it is one vqgo design of `target` from `sources`, and they are unknown keys
_REMOVED_SINGLE_KEYS = {
    "mode": "vqgo", "pair": None, "t_ns": 75.0, "depth": 2, "omega0_mhz": 50.0,
    "omega_bounds_mhz": [0.0, 200.0], "outer_maxiter": 40, "max_sweeps": 6,
}


@pytest.mark.parametrize("key, value", _REMOVED_SINGLE_KEYS.items(), ids=_REMOVED_SINGLE_KEYS)
def test_single_optimize_rejects_amplitude_search_keys(tmp_path, capsys, key, value):
    cfg = _write(tmp_path / "c.json", {**TINY_SINGLE, key: value})
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: unknown config key {key!r}\n"
    assert not out.exists()


def test_omega0_outside_bounds_names_key_value_and_bounds(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, omega0_mhz=250))
    out = tmp_path / "out.csv"
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: omega0_mhz must lie within omega_bounds_mhz [0, 200], got 250\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, other", _BAD_VALUES)
def test_bad_config_value_is_config_error(tmp_path, capsys, command, key, value, other):
    cfg = _write(tmp_path / "c.json", {**_TINY[command], **other, key: value})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert not out.exists()


# one bad value per OptimizerConfig field, read from the `optimizer` object
_BAD_OPTIMIZER_FIELDS = [
    ("max_iterations", 0),
    ("gradient_tolerance", "x"),
    ("cost_tolerance", float("nan")),
    ("restarts", True),
    ("seed", 3),
    ("stop_below", float("inf")),
]


def test_bad_optimizer_fields_cover_every_field():
    fields = {f.name for f in dataclasses.fields(OptimizerConfig)}
    assert {name for name, _ in _BAD_OPTIMIZER_FIELDS} == fields


@pytest.mark.parametrize("field, value", _BAD_OPTIMIZER_FIELDS)
def test_bad_optimizer_field_is_located(tmp_path, capsys, field, value):
    optimizer = {**TINY_SINGLE["optimizer"], field: value}
    cfg = _write(tmp_path / "c.json", {**TINY_SINGLE, "optimizer": optimizer})
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: optimizer config: {field} ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_memory_depth_is_an_unknown_optimizer_key(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {**TINY_SINGLE, "optimizer": {"memory_depth": 10}})
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == "config error: optimizer config: unknown key 'memory_depth'\n"
    assert not out.exists()


@pytest.mark.parametrize("command, overrides, key", [
    ("cnot-sweep", {"outer_maxiter": 10**300}, "outer_maxiter"),
    ("cnot-sweep", {"depth": 10**300}, "depth"),
    ("cartan-map", {"grid_points": 10**300}, "grid_points"),
    ("single-optimize", {"optimizer": {"max_iterations": 10**300}},
     "optimizer config: max_iterations"),
    ("syndrome-sweep", {"seed": 2**63}, "seed"),
])
def test_integer_above_maxsize_is_config_error(tmp_path, capsys, command, overrides, key):
    cfg = _write(tmp_path / "c.json", {**_TINY[command], **overrides})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be an integer >= ")
    assert f"and <= {sys.maxsize}, got " in err and err.count("\n") == 1
    assert not out.exists()


# a depth or grid_points of 2**45 asks for source layers beyond a 47-bit
# address space, so no host allocates them
@pytest.mark.parametrize("command, key", [
    ("cnot-sweep", "depth"),
    ("syndrome-sweep", "depth"),
    ("cartan-map", "depth"),
    ("cartan-map", "grid_points"),
])
def test_size_that_cannot_be_built_is_config_error(tmp_path, capsys, command, key):
    cfg = _write(tmp_path / "c.json", {**_TINY[command], key: 2**45})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} {2**45} needs ")
    assert "address" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_empty_time_grid_is_config_error(tmp_path, capsys, workers):
    grid = {"t_start_ns": 75, "t_stop_ns": 75, "t_step_ns": 1e-300}
    cfg = _write(tmp_path / "c.json", {**TINY_CNOT, **grid})
    out = tmp_path / "out.csv"
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", str(out),
                     "--workers", workers]) == 1
    assert capsys.readouterr().err == (
        "config error: t_step_ns 1e-300 gives no gate time "
        "in [t_start_ns, t_stop_ns] = [75, 75]\n")
    assert not out.exists()


@pytest.mark.parametrize("step", [1e-12, 1e-300])
def test_time_grid_too_large_to_build_is_config_error(tmp_path, capsys, step):
    # numpy refuses both grids before it allocates anything
    grid = {"t_start_ns": 0, "t_stop_ns": 750, "t_step_ns": step}
    cfg = _write(tmp_path / "c.json", {**TINY_SYNDROME, **grid})
    out = tmp_path / "out.csv"
    assert cli.main(["syndrome-sweep", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: t_step_ns {step:g} gives too many gate times "
                          "in [t_start_ns, t_stop_ns] = [0, 750]: ")
    assert err.count("\n") == 1 and not out.exists()


def _recording_pool(monkeypatch, cpus):
    """The sizes of the pools the CLI starts, with `cpus` usable CPUs; each
    pool runs its chunks in-process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    return sizes


def test_pool_has_no_more_processes_than_designs(tmp_path, monkeypatch):
    # times 60, 75 and 90: the amplitude search is the design at t_opt 75, so two grid designs
    cfg = _write(tmp_path / "c.json", TINY_CNOT)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", a]) == 0
    sizes = _recording_pool(monkeypatch, cpus=64)
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", b, "--workers", "64"]) == 0
    assert sizes and max(sizes) <= 2
    assert _body(a) == _body(b)


def test_pool_has_no_more_processes_than_usable_cpus(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)  # 8 designs
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["cartan-map", "--config", cfg, "--output", a]) == 0
    sizes = _recording_pool(monkeypatch, cpus=2)
    assert cli.main(["cartan-map", "--config", cfg, "--output", b, "--workers", "64"]) == 0
    assert sizes and max(sizes) <= 2
    assert _body(a) == _body(b)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    if hasattr(cli.os, "sched_getaffinity"):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert cli._usable_cpus() == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 7)
    assert cli._usable_cpus() == 7
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


@pytest.mark.parametrize("qubits", [6, 40])
def test_identity_wider_than_five_qubits_is_config_error(tmp_path, capsys, qubits):
    spec = {"kind": "identity", "qubits": qubits}
    cfg = _write(tmp_path / "c.json", {**TINY_SINGLE, "target": spec, "sources": [spec]})
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"config error: target.qubits must be an integer >= 1 and <= 5, got {qubits}\n")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_config_error(tmp_path, capsys, command, workers):
    out = tmp_path / "out"
    assert cli.main([command, "--workers", workers, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: --workers must be an integer >= 1, got {workers}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, base", [
    ("cnot-sweep", TINY_CNOT),
    ("syndrome-sweep", dict(TINY_SYNDROME, crosstalk_cases=[0.0, 1.0], opposite_sign_layers=True)),
    ("cnot-sweep", dict(TINY_CNOT, eps_cases=[0.0, 0.1])),
    # the README's one-gate-time recipe: no grid design besides the search's
    ("cnot-sweep", dict(TINY_CNOT, eps_cases=[0.1], phi_rad=0.5, t_start_ns=75, t_stop_ns=75)),
])
def test_sweep_workers_match_serial(tmp_path, command, base):
    cfg = _write(tmp_path / "c.json", base)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main([command, "--config", cfg, "--output", a]) == 0
    assert cli.main([command, "--config", cfg, "--output", b, "--workers", "2"]) == 0
    assert _body(a) == _body(b)
    assert cli.main(["--verify", b]) == 0


def test_cnot_sweep_tpcx_does_not_depend_on_omega0(tmp_path):
    outs = []
    for omega0 in (50.0, 120.0):
        cfg = _write(tmp_path / f"c{omega0:g}.json",
                     dict(TINY_CNOT, eps_cases=[0.1], omega0_mhz=omega0))
        outs.append(str(tmp_path / f"s{omega0:g}.csv"))
        assert cli.main(["cnot-sweep", "--config", cfg, "--output", outs[-1]]) == 0
    a, b = ({r["omega_mhz"] for r in _rows(p) if r["method"] == "tpcx"} for p in outs)
    assert a == b and len(a) == 1
    assert abs(float(a.pop()) - 36.48) < 0.01  # the global optimum at eps 0.1
    tpcx_rows = [[ln for ln in _body(p).splitlines() if ln.startswith("tpcx,")]
                 for p in outs]
    assert len(tpcx_rows[0]) == 3 and tpcx_rows[0] == tpcx_rows[1]


def test_verify_catches_tampering(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    out = tmp_path / "map.csv"
    assert cli.main(["cartan-map", "--config", cfg, "--output", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("#") and not line.startswith("c_x"):
            cells = line.split(",")
            cells[4] = "0.5"  # overwrite best_agf
            lines[i] = ",".join(cells)
            break
    out.write_text("".join(lines))
    assert cli.main(["--verify", str(out)]) == 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Text of one small artifact of each CSV command."""
    tmp = tmp_path_factory.mktemp("artifacts")
    texts = {}
    for command, base in (("cartan-map", TINY_CARTAN), ("cnot-sweep", TINY_CNOT),
                          ("syndrome-sweep", TINY_SYNDROME)):
        out = tmp / f"{command}.csv"
        assert cli.main([command, "--config", _write(tmp / "c.json", base),
                         "--output", str(out)]) == 0
        texts[command] = out.read_text()
    return texts


_BASE_META = ["command", "version", "timestamp", "seed", "config_hash", "config"]


@pytest.mark.parametrize("command, keys", [
    ("cartan-map", _BASE_META),
    ("cnot-sweep", _BASE_META + ["case0_outer_evaluations"]),
    ("syndrome-sweep", _BASE_META + ["case0_outer_evaluations"]),
])
def test_header_states_only_what_config_and_rows_do_not(artifacts, command, keys):
    # a case's value, amplitudes and source time are in the config or the rows
    header = [ln for ln in artifacts[command].splitlines() if ln.startswith("#")]
    assert [ln[2:].partition(": ")[0] for ln in header] == keys


def test_sweep_header_numbers_every_case(tmp_path):
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, eps_cases=[0.0, 0.1]))
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", out]) == 0
    assert list(_meta(out))[len(_BASE_META):] == [f"case{i}_outer_evaluations" for i in (0, 1)]
    assert int(_meta(out)["case1_outer_evaluations"]) >= 1


def _tamper(text, row_index, column, value):
    header = [ln for ln in text.splitlines(keepends=True) if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
    rows[row_index][column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return "".join(header) + buf.getvalue()


@pytest.mark.parametrize("command, row_index, column, value, message", [
    ("cartan-map", 2, "theta", "1;2", "cannot reshape array of size 2"),
    ("cartan-map", 2, "c_y", "abc", "could not convert string to float: 'abc'"),
    ("cartan-map", 2, "best_agf", "", "could not convert string to float: ''"),
    ("cnot-sweep", 3, "theta", "1;2", "cannot reshape array of size 2"),
    ("cnot-sweep", 3, "t_ns", "x", "could not convert string to float: 'x'"),
    ("cnot-sweep", 0, "omega_mhz", "", "index 0 is out of bounds"),
    ("cnot-sweep", 3, "eps", "-1", "eps must be a finite number >= 0"),
    ("cnot-sweep", 3, "method", "foo", "method 'foo' is not one of tpcx, vqgo"),
    ("syndrome-sweep", 0, "method", "tpcx", "method 'tpcx' is not one of vqgo"),
    # the cells --verify does not recompute must still have their written form
    ("cnot-sweep", 3, "restarts", "x", "restarts must be an integer >= 0, got 'x'"),
    ("cnot-sweep", 3, "iterations", "-1", "iterations must be an integer >= 0, got '-1'"),
    ("syndrome-sweep", 0, "restarts", "1.0", "restarts must be an integer >= 0, got '1.0'"),
    ("cnot-sweep", 3, "converged", "nan", "converged must be true or false, got 'nan'"),
    ("cnot-sweep", 0, "converged", "", "converged must be true or false, got ''"),
    ("cnot-sweep", 0, "theta", "nan", "a tpcx row's theta must be empty, got 'nan'"),
])
def test_verify_rejects_malformed_rows(tmp_path, capsys, artifacts, command, row_index,
                                       column, value, message):
    out = tmp_path / "art.csv"
    out.write_text(_tamper(artifacts[command], row_index, column, value))
    assert cli.main(["--verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out}: row {row_index}: ") and message in err


@pytest.mark.parametrize("config, message", [
    ("{{", "config header: Expecting property name enclosed in double quotes"),
    ("[2]", "config header must be a JSON object"),
    ('{"depth": 0}', "config header: depth must be an integer >= 1, got 0"),
    # a second command line overrides the first
    ("{}\n# command: single_optimize", "cannot verify artifacts of command 'single_optimize'"),
    (None, "missing command/config metadata"),  # no header lines at all
    pytest.param('{"seed": ' + "7" * 5000 + "}", "config header: Exceeds the limit (4300 digits)",
                 id="int-string-limit"),
    pytest.param("[" * 100_000, "config header: maximum recursion depth exceeded", id="nesting"),
])
def test_verify_rejects_malformed_config_header(tmp_path, capsys, artifacts, config, message):
    out = tmp_path / "art.csv"
    text = artifacts["cartan-map"]
    if config is None:
        text = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
    out.write_text(re.sub(r"^# config: .*$", f"# config: {config}", text, flags=re.M))
    assert cli.main(["--verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out}: {message}") and "Traceback" not in err


@pytest.mark.parametrize("command, row_index, column", [
    ("cartan-map", 1, "best_agf"),
    ("cnot-sweep", 0, "agi"),
    ("cnot-sweep", 4, "agi"),
    ("cnot-sweep", 2, "phi_rad"),
    ("syndrome-sweep", 0, "phi_rad"),
])
def test_verify_counts_nan_as_mismatch(tmp_path, capsys, artifacts, command, row_index, column):
    out = tmp_path / "art.csv"
    out.write_text(_tamper(artifacts[command], row_index, column, "nan"))
    assert cli.main(["--verify", str(out)]) == 1
    assert f"row {row_index}: stated nan" in capsys.readouterr().out


def test_verify_locates_a_bad_sweep_grid_in_the_config_header(tmp_path, capsys, artifacts):
    out = tmp_path / "art.csv"
    out.write_text(artifacts["cnot-sweep"].replace('"t_step_ns":15.0', '"t_step_ns":-1'))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {out}: config header: t_step_ns must be a finite number > 0, got -1\n")


def test_verify_rejects_a_repeated_case_value_in_the_config_header(tmp_path, capsys, artifacts):
    out = tmp_path / "art.csv"
    out.write_text(artifacts["cnot-sweep"].replace('"eps_cases":[0.0]', '"eps_cases":[0.0,-0.0]'))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {out}: config header: eps_cases repeats a value, got [0.0,-0.0]\n")


def _edit_rows(text, edit):
    """text with its body rows replaced by edit(rows), the header lines kept."""
    lines = text.splitlines(keepends=True)
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return "".join(header + body[:1] + edit(body[1:]))


@pytest.mark.parametrize("command, old, new", [
    ("cnot-sweep", "restarts,iterations,converged", "foo,bar,baz"),
    ("cnot-sweep", "iterations,converged,theta", "iterations,converged"),
    ("cartan-map", "best_agf,theta", "best_agf,theta,extra"),
])
def test_verify_rejects_a_column_row_not_its_commands(tmp_path, capsys, artifacts, command,
                                                      old, new):
    out = tmp_path / "art.csv"
    text = artifacts[command]
    out.write_text(text.replace(old, new, 1))
    columns = next(ln for ln in text.splitlines() if not ln.startswith("#"))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: {out}: column row "
                                       f"{columns.replace(old, new)!r} is not {columns!r}\n")


@pytest.mark.parametrize("command, row_index", [("cnot-sweep", 2), ("cartan-map", 0)])
def test_verify_rejects_a_row_with_a_surplus_cell(tmp_path, capsys, artifacts, command,
                                                  row_index):
    out = tmp_path / "art.csv"
    out.write_text(_edit_rows(artifacts[command], lambda rows: [
        row.replace("\n", ",1\n") if k == row_index else row for k, row in enumerate(rows)]))
    assert cli.main(["--verify", str(out)]) == 1
    columns = len(cli.CARTAN_COLUMNS if command == "cartan-map" else cli.SWEEP_COLUMNS)
    assert capsys.readouterr().err == (
        f"config error: {out}: row {row_index}: cells past the {columns} columns: ['1']\n")


def test_verify_names_the_command_of_a_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path / "c.json", TINY_SINGLE)
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {out}: cannot verify artifacts of command 'single_optimize'\n")


def test_verify_of_an_untouched_sweep_reads_no_mismatch(tmp_path, capsys, artifacts):
    out = tmp_path / "art.csv"
    out.write_text(artifacts["cnot-sweep"])
    assert cli.main(["--verify", str(out)]) == 0
    assert capsys.readouterr().out.endswith("6 rows checked, 0 mismatches\n")


def test_verify_names_a_missing_row(tmp_path, capsys, artifacts):
    out = tmp_path / "art.csv"
    out.write_text(_edit_rows(artifacts["cnot-sweep"], lambda rows: [
        r for r in rows if not (r.startswith("vqgo,") and ",90," in r)]))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{out}: no vqgo eps 0 t_ns 90 row", f"{out}: 5 rows checked, 1 mismatches"]


@pytest.mark.parametrize("edit, problems", [
    (lambda rows: rows + rows[3:4], ["row 6: repeats the vqgo eps 0 t_ns 75 row"]),
    (lambda rows: rows[:1] + rows, ["row 1: repeats the tpcx eps 0 t_ns 60 row"]),
])
def test_verify_counts_a_repeated_row(tmp_path, capsys, artifacts, edit, problems):
    out = tmp_path / "art.csv"
    out.write_text(_edit_rows(artifacts["cnot-sweep"], edit))
    assert cli.main(["--verify", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"{out}: {p}" for p in problems]
    assert lines[-1] == f"{out}: 7 rows checked, {len(problems)} mismatches"


def test_verify_counts_a_row_its_config_does_not_give(tmp_path, capsys, artifacts):
    # the t=60 tpcx row moved to t=61: its AGI, its place and the gap it leaves
    out = tmp_path / "art.csv"
    out.write_text(_tamper(artifacts["cnot-sweep"], 0, "t_ns", "61"))
    assert cli.main(["--verify", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{out}: row 0: stated ")
    assert lines[1:] == [f"{out}: row 0: tpcx eps 0 t_ns 61 is not a row its config gives",
                         f"{out}: no tpcx eps 0 t_ns 60 row",
                         f"{out}: 6 rows checked, 3 mismatches"]


@pytest.mark.parametrize("edit, problems", [
    (lambda rows: rows[:3] + rows[4:], ["no c_x 0 c_y 0.785398 c_z 0.785398 row"]),
    (lambda rows: rows + rows[2:3], ["row 8: repeats the c_x 0 c_y 0.785398 c_z 0 row"]),
    (lambda rows: rows[:-2], ["no c_x 0.785398 c_y 0.785398 c_z 0 row",
                              "no c_x 0.785398 c_y 0.785398 c_z 0.785398 row"]),
])
def test_verify_checks_the_cartan_grid_row_set(tmp_path, capsys, artifacts, edit, problems):
    out = tmp_path / "map.csv"
    out.write_text(_edit_rows(artifacts["cartan-map"], edit))
    assert cli.main(["--verify", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = len(edit(list(range(8))))
    assert lines == [f"{out}: {p}" for p in problems] + [
        f"{out}: {rows} rows checked, {len(problems)} mismatches"]


def test_verify_counts_a_cartan_row_off_the_grid(tmp_path, capsys, artifacts):
    # the first row's c_z moved off the axis: its fidelity, its entangling power,
    # its place and its gap
    out = tmp_path / "map.csv"
    out.write_text(_tamper(artifacts["cartan-map"], 0, "c_z", "0.5"))
    assert cli.main(["--verify", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{out}: row 0: stated ")
    assert lines[1].startswith(f"{out}: row 0: stated 0 recomputed ")
    assert lines[2:] == [f"{out}: row 0: c_x 0 c_y 0 c_z 0.5 is not a row its config gives",
                         f"{out}: no c_x 0 c_y 0 c_z 0 row",
                         f"{out}: 8 rows checked, 4 mismatches"]


def test_verify_recomputes_a_cartan_rows_entangling_power(tmp_path, capsys, artifacts):
    out = tmp_path / "map.csv"
    out.write_text(_tamper(artifacts["cartan-map"], 0, "entangling_power", "0.5"))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{out}: row 0: stated 0.5 recomputed 0", f"{out}: 8 rows checked, 1 mismatches"]



def _with_config(text, edit):
    """Artifact text whose '# config:' line holds its config after edit(config)
    (in place), written as a run writes it; every other line is kept."""
    def rewrite(match):
        cfg = json.loads(match.group(1))
        edit(cfg)
        return "# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return re.sub(r"^# config: (.*)$", rewrite, text, count=1, flags=re.M)


@pytest.mark.parametrize("command, rows", [("cartan-map", 8), ("cnot-sweep", 6),
                                           ("syndrome-sweep", 1)])
def test_verify_of_untouched_artifacts_reads_no_mismatch(tmp_path, capsys, artifacts, command,
                                                         rows):
    out = tmp_path / "art.csv"
    for text in (artifacts[command], _with_config(artifacts[command], lambda cfg: None)):
        out.write_text(text)
        assert cli.main(["--verify", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}: {rows} rows checked, 0 mismatches\n"


@pytest.mark.parametrize("command, methods", [("cartan-map", {None}),
                                              ("cnot-sweep", {"tpcx", "vqgo"}),
                                              ("syndrome-sweep", {"vqgo"})])
def test_verify_recomputes_every_stated_value_exactly(artifacts, command, methods):
    # a run and --verify score a row through the same AGI kernel, so the
    # recomputed value is the stated one to the bit, not just within VERIFY_ATOL
    text = artifacts[command]
    header = json.loads(re.search(r"^# config: (.*)$", text, flags=re.M).group(1))
    defaults, verifier = cli._VERIFIERS[command.replace("-", "_")]
    check = verifier(cli.merge_config(header, defaults))[0]
    rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
    assert {row.get("method") for row in rows} == methods
    for row in rows:
        _, stated, recomputed = check(row)
        assert stated == recomputed


@pytest.mark.parametrize("command, edit, message", [
    ("cnot-sweep", lambda cfg: cfg.update(foo=1), "unknown config key 'foo'"),
    ("cartan-map", lambda cfg: cfg.update(foo=1), "unknown config key 'foo'"),
    # a syndrome-sweep key, which cnot-sweep rejects in a run
    ("cnot-sweep", lambda cfg: cfg.update(opposite_sign_layers=True),
     "unknown config key 'opposite_sign_layers'"),
    ("cnot-sweep", lambda cfg: cfg["optimizer"].update(seed=3),
     "optimizer config: seed is not an optimizer field; set the top-level seed"),
])
def test_verify_reads_the_header_config_by_its_commands_rules(tmp_path, capsys, artifacts,
                                                              command, edit, message):
    out = tmp_path / "art.csv"
    out.write_text(_with_config(artifacts[command], edit))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr() == ("", f"config error: {out}: config header: {message}\n")


def test_verify_rejects_a_header_value_with_the_runs_message(tmp_path, capsys, artifacts):
    outside = {"omega0_mhz": 250.0}  # the box is [0, 200]
    cfg = _write(tmp_path / "c.json", dict(TINY_CNOT, **outside))
    assert cli.main(["cnot-sweep", "--config", cfg, "--output", str(tmp_path / "run.csv")]) == 1
    run = capsys.readouterr().err
    assert run == ("config error: omega0_mhz must lie within omega_bounds_mhz [0, 200], "
                   "got 250.0\n")
    out = tmp_path / "art.csv"
    out.write_text(_with_config(artifacts["cnot-sweep"], lambda cfg: cfg.update(outside)))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr() == (
        "", run.replace("config error: ", f"config error: {out}: config header: ", 1))


def test_verify_rejects_a_header_config_its_hash_does_not_match(tmp_path, capsys, artifacts):
    # optimizer.restarts edited from 1 to 7, the config_hash line left as written
    out = tmp_path / "art.csv"
    text = artifacts["cnot-sweep"]
    out.write_text(_with_config(text, lambda cfg: cfg["optimizer"].update(restarts=7)))
    assert cli.main(["--verify", str(out)]) == 1
    stated = re.search(r"^# config_hash: (\w+)$", text, flags=re.M).group(1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"config error: {re.escape(str(out))}: config header: "
                        f"config_hash {stated} is not the config's [0-9a-f]{{64}}\n", captured.err)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("# seed: 0\n", "# seed: 7\n"), "seed 7 is not the config's seed 0"),
    (lambda text: text.replace("# seed: 0\n", ""), "seed None is not the config's seed 0"),
])
def test_verify_rejects_a_seed_line_the_config_does_not_give(tmp_path, capsys, artifacts, edit,
                                                             message):
    out = tmp_path / "art.csv"
    out.write_text(edit(artifacts["cnot-sweep"]))
    assert cli.main(["--verify", str(out)]) == 1
    assert capsys.readouterr() == ("", f"config error: {out}: config header: {message}\n")

def test_successive_calls_share_one_parser_and_no_state(tmp_path, monkeypatch):
    parser = cli._parser()
    assert cli._parser() is parser
    parsed = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv: parsed.append(parse_args(argv)) or parsed[-1])
    one, grid = str(tmp_path / "one.json"), str(tmp_path / "map.csv")
    single = _write(tmp_path / "s.json", TINY_SINGLE)
    cartan = _write(tmp_path / "c.json", TINY_CARTAN)
    assert cli.main(["single-optimize", "--config", single, "--output", one,
                     "--seed", "7", "--workers", "2"]) == 0
    assert cli.main(["cartan-map", "--config", cartan, "--output", grid]) == 0
    assert cli.main(["--verify", grid]) == 0
    assert [vars(args) for args in parsed] == [
        {"verify": None, "command": "single-optimize", "config": single, "seed": 7, "workers": 2,
         "output": one},
        {"verify": None, "command": "cartan-map", "config": cartan, "seed": None, "workers": 1,
         "output": grid},
        {"verify": grid, "command": None},
    ]
    assert json.loads(Path(one).read_text())["seed"] == 7 and _meta(grid)["seed"] == "0"


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    ghost = tmp_path / "ghost.csv"
    assert cli.main(["--verify", str(ghost)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: ") and str(ghost) in err[0]


def test_syndrome_sweep_rows_and_verify(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_SYNDROME)
    out = str(tmp_path / "synd.csv")
    assert cli.main(["syndrome-sweep", "--config", cfg, "--output", out]) == 0
    lines = _body(out).splitlines()
    assert lines[0].split(",") == cli.SWEEP_COLUMNS
    assert len(lines) == 1 + 1 * 1  # one case, one grid point
    row = dict(zip(cli.SWEEP_COLUMNS, lines[1].split(",")))
    assert row["method"] == "vqgo"
    assert row["phi_rad"] == ""
    assert len(row["omega_mhz"].split(";")) == 4
    assert len(row["theta"].split(";")) == 3 * 5 * 3  # (depth+1, 5 qubits, 3)
    config = json.loads(_meta(out)["config"])
    assert config["depth"] * config["t_opt_ns"] == 150  # total source time in ns
    assert cli.main(["--verify", out]) == 0


def test_single_optimize_report(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_SINGLE)
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    for key in ["agi", "converged", "iterations_used", "theta", "cost_history", "command",
                "config", "config_hash", "seed", "version", "timestamp", "wall_time_s"]:
        assert key in report
    assert report["agi"] < 1e-6
    assert np.asarray(report["theta"]).shape == (2, 2, 3)


def test_single_optimize_reports_each_restart(tmp_path):
    config = {**TINY_SINGLE, "seed": 4,
              "optimizer": {"restarts": 3, "max_iterations": 40, "gradient_tolerance": 1e-6}}
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", _write(tmp_path / "c.json", config),
                     "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    res = vqgo(CNOT, [CNOT], OptimizerConfig(**config["optimizer"], seed=4))
    assert report["restarts"] == res.restart_diagnostics
    assert [sorted(run) for run in report["restarts"]] == [["iterations", "nfev", "ngev",
                                                            "reason"]] * 3
    assert sum(run["iterations"] for run in report["restarts"]) == report["iterations_used"]
    for run in report["restarts"]:
        assert run["reason"] in ("grad_tol", "cost_tol", "line_search", "budget")
        # a gradient at the start and after each accepted step, and a cost for each of them
        accepted = run["iterations"] - (run["reason"] == "line_search")
        assert run["ngev"] == accepted + 1 <= run["nfev"]


def test_single_optimize_reports_match_up_to_volatiles(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_SINGLE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(a)]) == 0
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for volatile in ("timestamp", "wall_time_s"):
        ra.pop(volatile), rb.pop(volatile)
    assert ra == rb


def test_single_optimize_bad_source_spec(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 dict(TINY_SINGLE, sources=[{"kind": "canonical"}]))
    assert cli.main(["single-optimize", "--config", cfg]) == 1
    assert "sources[0].c must be a list of 3 finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"target": {"kind": "identity", "qubits": 3}}, "sources[0] acts on 2 qubit(s), target on 3"),
    ({"sources": ["cnot", {"kind": "identity", "qubits": 1}]},
     "sources[1] acts on 1 qubit(s), target on 2"),
])
def test_single_optimize_qubit_count_mismatch_is_config_error(tmp_path, capsys, overrides,
                                                              message):
    cfg = _write(tmp_path / "c.json", {**TINY_SINGLE, **overrides})
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not out.exists()


def test_gate_from_spec_kinds():
    assert np.array_equal(cli.gate_from_spec("cnot"), CNOT)
    assert np.array_equal(cli.gate_from_spec({"kind": "swap"}), SWAP)
    assert cli.gate_from_spec({"kind": "identity", "qubits": 3}).shape == (8, 8)
    c = cli.gate_from_spec({"kind": "canonical", "c": [np.pi / 4, 0, 0]})
    assert c.shape == (4, 4)
    u1 = cli.gate_from_spec({"kind": "random_su4", "seed": 5})
    u2 = cli.gate_from_spec({"kind": "random_su4", "seed": 5})
    assert np.array_equal(u1, u2)
    assert abs(np.linalg.det(u1) - 1.0) < 1e-10
    g = cli.gate_from_spec({
        "kind": "cr",
        "pair": {"delta_mhz": 200.0, "g_mhz": 5.0, "eps": 0.0, "phi_rad": 0.0},
        "omega_mhz": 60.0, "t_ns": 75.0,
    })
    assert g.shape == (4, 4)
    with pytest.raises(cli.ConfigError):
        cli.gate_from_spec({"kind": "warp"})


def test_format_roundtrip():
    xs = np.array([0.0, np.pi, 1e-17, 123.456789012345678])
    assert np.array_equal(cli._parse_list(cli._fmt_list(xs)), xs)
    assert cli._parse_list("").size == 0


@pytest.mark.parametrize("command, key", [
    ("cnot-sweep", None),  # the config file itself
    ("cnot-sweep", "pair"),
    ("syndrome-sweep", "device"),
])
def test_non_utf8_input_file_is_config_error(tmp_path, capsys, command, key):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"seed": 1}')
    cfg = _write(tmp_path / "c.json", {**_TINY[command], key: str(bad)}) if key else str(bad)
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(f"{bad}: byte 0 is not UTF-8 text\n")
    assert not out.exists()


def test_verify_non_utf8_artifact_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# command: cnot_sweep\n\xff\n")
    assert cli.main(["--verify", str(bad)]) == 1
    assert capsys.readouterr().err == f"config error: {bad}: byte 22 is not UTF-8 text\n"


_NOT_FINITE = " gives a gate that is not finite"


@pytest.mark.parametrize("command, overrides, message", [
    ("cnot-sweep", {"eps_cases": [1e308]},
     "eps_cases value 1e+308 at amplitude 200 MHz" + _NOT_FINITE),
    ("cnot-sweep", {"pair": {"delta_mhz": 1e5, "g_mhz": 5.0}, "t_opt_ns": 1e308},
     "t_opt_ns 1e+308 at amplitude 200 MHz" + _NOT_FINITE),
    ("cnot-sweep", {"pair": {"delta_mhz": 1e5, "g_mhz": 5.0}, "t_stop_ns": 1e308,
                    "t_step_ns": 1e307},
     "t_stop_ns 1e+308 at amplitude 200 MHz" + _NOT_FINITE),
    ("syndrome-sweep", {"crosstalk_cases": [1e308]},
     "crosstalk_cases value 1e+308 at amplitude 200 MHz" + _NOT_FINITE),
    ("single-optimize", {"sources": [{"kind": "cr", "pair": {**TINY_PAIR, "eps": 10},
                                      "omega_mhz": 1e308, "t_ns": 75}]},
     "sources[0]" + _NOT_FINITE),
    ("single-optimize", {"target": {"kind": "canonical", "c": [1e308] * 3}},
     "target" + _NOT_FINITE),
    # finite phases beyond 2**52 rad, where exp(-i*w*t) is rounding noise
    ("single-optimize", {"sources": [{"kind": "cr", "pair": TINY_PAIR, "omega_mhz": 50,
                                      "t_ns": 1e308}]},
     "sources[0]: phase 1.3e+308 rad is above 2**52 rad, where floats are 1 rad apart"),
    ("cnot-sweep", {"eps_cases": [0.1], "t_stop_ns": 1e308, "t_step_ns": 1e307},
     "t_stop_ns 1e+308 at amplitude 200 MHz: phase 1.59e+308 rad is above 2**52 rad, "
     "where floats are 1 rad apart"),
])
def test_source_gate_that_is_not_finite_is_config_error(tmp_path, capsys, command, overrides,
                                                        message):
    cfg = _write(tmp_path / "c.json", {**_TINY[command], **overrides})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()



_GOOD_PAIR = {"delta_mhz": 223.0, "g_mhz": 5.7}
_BAD_PAIRS = {
    "string": {**_GOOD_PAIR, "g_mhz": "x"},
    "huge": {**_GOOD_PAIR, "delta_mhz": 10**400},
    "nan": {**_GOOD_PAIR, "delta_mhz": float("nan")},
    "negative eps": {**_GOOD_PAIR, "eps": -1},
    "boolean": {**_GOOD_PAIR, "g_mhz": True},
    "unknown key": {**_GOOD_PAIR, "esp": 0.3},
    "missing key": {"delta_mhz": 223.0},
}


@pytest.mark.parametrize("pair", _BAD_PAIRS.values(), ids=_BAD_PAIRS)
def test_device_file_and_syndrome_sweep_read_pairs_by_one_rule_set(tmp_path, capsys, pair):
    from importlib import resources

    from gatesynth import devices

    fixture = resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    device = json.loads(fixture.read_text())
    device["pairs"][1] = pair
    path = _write(tmp_path / "device.json", device)
    with pytest.raises(ValueError) as raised:
        devices.load_device(path)
    prefix = f"{path}: "
    assert str(raised.value).startswith(prefix + "pairs[1]")
    cfg = _write(tmp_path / "c.json", dict(TINY_SYNDROME, device=device))
    assert cli.main(["syndrome-sweep", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: device.{str(raised.value)[len(prefix):]}\n"
