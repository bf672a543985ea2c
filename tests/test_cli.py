"""Command-line runner: configs, artifacts, determinism, verification,
and exit codes. All invocations go through cli.main() in-process."""

import json

import numpy as np
import pytest

from gatesynth import cli
from gatesynth.channels import CNOT, SWAP


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


def test_non_object_config_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", [1, 2, 3])
    assert cli.main(["cartan-map", "--config", cfg]) == 1
    assert "top level" in capsys.readouterr().err


def test_missing_config_file_fails(tmp_path, capsys):
    assert cli.main(["cartan-map", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_CARTAN)
    out = str(tmp_path / "missing_dir" / "out.csv")
    assert cli.main(["cartan-map", "--config", cfg, "--output", out]) == 2


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
    meta = _meta(out)
    assert "case0_omega_tpcx_mhz" in meta and "case0_omega_vqgo_mhz" in meta
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
    assert "outer_maxiter 3" in err and "6" in err
    assert not out.exists()


_DRIVE_COMMANDS = [
    ("cnot-sweep", TINY_CNOT, "t_opt_ns"),
    ("syndrome-sweep", TINY_SYNDROME, "t_opt_ns"),
    ("single-optimize", TINY_SINGLE, "t_ns"),
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


def test_cnot_sweep_tpcx_does_not_depend_on_omega0(tmp_path):
    outs = []
    for omega0 in (50.0, 120.0):
        cfg = _write(tmp_path / f"c{omega0:g}.json",
                     dict(TINY_CNOT, eps_cases=[0.1], omega0_mhz=omega0))
        outs.append(str(tmp_path / f"s{omega0:g}.csv"))
        assert cli.main(["cnot-sweep", "--config", cfg, "--output", outs[-1]]) == 0
    a, b = (_meta(p)["case0_omega_tpcx_mhz"] for p in outs)
    assert a == b and abs(float(a) - 36.48) < 0.01  # the global optimum at eps 0.1
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


def test_verify_missing_file_is_io_error(tmp_path):
    assert cli.main(["--verify", str(tmp_path / "ghost.csv")]) == 2


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
    meta = _meta(out)
    assert meta["source_time_total_ns"] == "150"
    assert cli.main(["--verify", out]) == 0


def test_single_optimize_report(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_SINGLE)
    out = tmp_path / "report.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    for key in ["agi", "converged", "iterations_used", "theta", "cost_history",
                "config_hash", "seed", "version", "timestamp", "wall_time_s"]:
        assert key in report
    assert report["agi"] < 1e-6
    assert np.asarray(report["theta"]).shape == (2, 2, 3)


def test_single_optimize_reports_match_up_to_volatiles(tmp_path):
    cfg = _write(tmp_path / "c.json", TINY_SINGLE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(a)]) == 0
    assert cli.main(["single-optimize", "--config", cfg, "--output", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for volatile in ("timestamp", "wall_time_s"):
        ra.pop(volatile), rb.pop(volatile)
    assert ra == rb


def test_single_optimize_concatenated_requires_pair(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", dict(TINY_SINGLE, mode="concatenated"))
    assert cli.main(["single-optimize", "--config", cfg]) == 1
    assert "pair" in capsys.readouterr().err


def test_single_optimize_bad_source_spec(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 dict(TINY_SINGLE, sources=[{"kind": "canonical"}]))
    assert cli.main(["single-optimize", "--config", cfg]) == 1
    assert "source spec" in capsys.readouterr().err


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
