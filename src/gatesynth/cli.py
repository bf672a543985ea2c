"""Experiment runner: reproducible sweeps and single optimizations driven
by JSON configs, emitting CSV (or a JSON report) with full metadata.

Artifacts carry '#'-prefixed header lines (tool version, timestamp, seed,
config hash, and the canonical config itself) followed by a CSV body.
Only the timestamp is volatile: re-running a command with the same config
and seed reproduces the body byte-identically, because every sweep point
derives its own RNG seed from its grid index rather than from execution
order. `--verify` re-evaluates each row's infidelity from the stored
parameters and checks it against the stated value.

Exit codes: 0 success, 1 config or verification error, 2 I/O error.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from .analysis import canonical_gate, entangling_power
from .ansatz import agi_cost
from .channels import CNOT, SWAP, agi
from .devices import (
    CrossResonancePair,
    DriveSpec,
    FourQubitDevice,
    cr_gate,
    four_cr_gate,
    load_device,
    pair_from_dict,
    syndrome_target,
    tpcx,
)
from .numkit import derive_rng, derive_seed, haar_unitary
from .optimkit import (
    AmplitudeBounds,
    OptimizerConfig,
    check_outer_maxiter,
    concatenated_optimize,
    minimize_on_interval,
    vqgo,
)

VERIFY_ATOL = 1e-9

SWEEP_COLUMNS = [
    "method", "eps", "phi_rad", "omega_mhz", "t_ns",
    "agi", "restarts", "iterations", "converged", "theta",
]
CARTAN_COLUMNS = ["c_x", "c_y", "c_z", "entangling_power", "best_agf", "theta"]


class ConfigError(Exception):
    pass


class OutputError(Exception):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _fmt_list(xs):
    return ";".join(_fmt(x) for x in np.asarray(xs, dtype=float).ravel())


def _parse_list(s):
    if not s:
        return np.array([])
    return np.array([float(tok) for tok in s.split(";")])


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(obj):
    return hashlib.sha256(_canonical_json(obj).encode()).hexdigest()


def _fixture_path(name):
    return resources.files("gatesynth").joinpath("fixtures", name)


def _read_json(path):
    """Parse a JSON input file; an unreadable or malformed file is a config
    error located at its path (and line:column)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _inline_file(cfg, key):
    """Replace a file path held in cfg[key] by the file's JSON contents, so
    an artifact's config (and its hash) holds the data itself and --verify
    needs no other file."""
    if isinstance(cfg[key], str):
        cfg[key] = _read_json(cfg[key])
    return cfg[key]


def load_config(path, defaults):
    """Merge a JSON config file over per-command defaults; unknown keys
    are config errors so typos fail loudly."""
    cfg = json.loads(json.dumps(defaults))
    if path is not None:
        user = _read_json(path)
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            cfg[key] = value
    return cfg


def optimizer_from_dict(d, seed):
    """OptimizerConfig from a config's `optimizer` entries over the
    dataclass defaults, with the given seed."""
    try:
        return OptimizerConfig(**{**(d or {}), "seed": seed})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer config: {exc}") from exc


def _outer_maxiter(cfg, amplitudes):
    try:
        return check_outer_maxiter(int(cfg["outer_maxiter"]), amplitudes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite(x):
    """x as a float if it is a finite JSON number (not a bool), else None."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        v = float(x)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _drive_settings(cfg, t_key):
    """The amplitude bounds and gate time of a config: omega_bounds_mhz must
    be two finite numbers with 0 <= lower < upper and cfg[t_key] a finite
    number >= 0. A bad value is a config error naming the key and value."""
    raw = cfg["omega_bounds_mhz"]
    lo_hi = [_finite(x) for x in raw] if isinstance(raw, list) and len(raw) == 2 else [None]
    if None in lo_hi or not 0 <= lo_hi[0] < lo_hi[1]:
        raise ConfigError("omega_bounds_mhz must be two finite numbers with "
                          f"0 <= lower < upper, got {_canonical_json(raw)}")
    t = _finite(cfg[t_key])
    if t is None or t < 0:
        raise ConfigError(f"{t_key} must be a finite number >= 0, got {_canonical_json(cfg[t_key])}")
    return AmplitudeBounds(*lo_hi), t


def _t_grid(cfg):
    start, stop, step = cfg["t_start_ns"], cfg["t_stop_ns"], cfg["t_step_ns"]
    if step <= 0 or stop < start:
        raise ConfigError("need t_step_ns > 0 and t_stop_ns >= t_start_ns")
    return np.arange(start, stop + 0.5 * step, step)


def _map_jobs(fn, jobs, workers):
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _write_artifact(path, meta, columns, rows):
    buf = io.StringIO()
    for key, value in meta:
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror}") from exc


def _base_meta(command, cfg):
    return [
        ("command", command),
        ("version", __version__),
        ("timestamp", datetime.now(timezone.utc).isoformat()),
        ("seed", cfg["seed"]),
        ("config_hash", _config_hash(cfg)),
        ("config", _canonical_json(cfg)),
    ]


# ------------------------------------------------------------------ cnot sweep

CNOT_SWEEP_DEFAULTS = {
    "pair": {"delta_mhz": 200.0, "g_mhz": 5.0},
    "eps_cases": [0.0, 0.1, 1.0],
    "phi_rad": np.pi / 4,
    "depth": 2,
    "t_opt_ns": 75.0,
    "t_start_ns": 0.0,
    "t_stop_ns": 750.0,
    "t_step_ns": 7.5,
    "omega0_mhz": 50.0,
    "omega_bounds_mhz": [0.0, 200.0],
    "outer_maxiter": 40,
    "max_sweeps": 6,
    "seed": 0,
    "optimizer": {},
}


def _cnot_point(args):
    pair_d, omega, t, depth, opt_d = args
    pair = CrossResonancePair(**pair_d)
    sources = [cr_gate(pair, DriveSpec(omega, t))] * depth
    res = vqgo(CNOT, sources, cfg=OptimizerConfig(**opt_d))
    return res


def cmd_cnot_sweep(cfg, workers):
    """Per crosstalk case: fix the drive amplitude by optimizing at
    t_opt_ns, then sweep the gate time with amplitudes held fixed, one row
    per (method, case, t). The echoed-CR (tpcx) baseline amplitude comes
    from a deterministic grid + bounded Brent search over omega_bounds_mhz
    (minimize_on_interval), so it does not depend on omega0_mhz; omega0_mhz
    seeds only the concatenated amplitude+angle search of the synthesis.
    A `pair` given as a file path is read into cfg."""
    bounds, t_opt = _drive_settings(cfg, "t_opt_ns")
    base = _inline_file(cfg, "pair")
    if not isinstance(base, dict) or not {"delta_mhz", "g_mhz"} <= base.keys():
        raise ConfigError("pair must be an object with delta_mhz and g_mhz")
    outer_maxiter = _outer_maxiter(cfg, 1)
    grid = _t_grid(cfg)
    depth = int(cfg["depth"])
    seed = int(cfg["seed"])
    meta = []
    rows = []
    jobs = []
    for case_idx, eps in enumerate(cfg["eps_cases"]):
        pair_d = {
            "delta": float(base["delta_mhz"]),
            "g": float(base["g_mhz"]),
            "eps": float(eps),
            "phi": float(cfg["phi_rad"]),
        }
        pair = CrossResonancePair(**pair_d)

        omega_tpcx, _, _ = minimize_on_interval(
            lambda w: agi(CNOT, tpcx(pair, w, t_opt)), bounds.lower, bounds.upper
        )

        inner = optimizer_from_dict(cfg["optimizer"], derive_seed(seed, 1, case_idx))
        factory = lambda w, p=pair: [cr_gate(p, DriveSpec(float(w[0]), t_opt))] * depth
        w_v, res_v, diag_v = concatenated_optimize(
            CNOT, factory, [cfg["omega0_mhz"]], bounds, t_opt, inner,
            outer_maxiter=outer_maxiter, max_sweeps=int(cfg["max_sweeps"]),
        )
        omega_vqgo = float(w_v[0])
        meta.append((f"case{case_idx}_eps", _fmt(eps)))
        meta.append((f"case{case_idx}_omega_tpcx_mhz", _fmt(omega_tpcx)))
        meta.append((f"case{case_idx}_omega_vqgo_mhz", _fmt(omega_vqgo)))
        meta.append((f"case{case_idx}_agi_vqgo_at_t_opt", _fmt(res_v.best_cost)))
        meta.append((f"case{case_idx}_outer_evaluations", str(diag_v["outer_evaluations"])))

        for t_idx, t in enumerate(grid):
            rows.append([
                "tpcx", _fmt(eps), _fmt(cfg["phi_rad"]), _fmt(omega_tpcx), _fmt(t),
                _fmt(agi(CNOT, tpcx(pair, omega_tpcx, t))), "0", "0", "true", "",
            ])
            opt_d = optimizer_from_dict(cfg["optimizer"], derive_seed(seed, 2, case_idx, t_idx)).__dict__
            jobs.append(((pair_d, omega_vqgo, float(t), depth, dict(opt_d)),
                         (case_idx, t_idx, eps, omega_vqgo, float(t))))

    results = _map_jobs(_cnot_point, [j[0] for j in jobs], workers)
    for (job, (case_idx, t_idx, eps, omega_vqgo, t)), res in zip(jobs, results):
        rows.append([
            "vqgo", _fmt(eps), _fmt(cfg["phi_rad"]), _fmt(omega_vqgo), _fmt(t),
            _fmt(res.best_cost), str(job[4]["restarts"]), str(res.iterations_used),
            "true" if res.converged else "false", _fmt_list(res.best_params),
        ])
    rows.sort(key=lambda r: (float(r[1]), float(r[4]), r[0]))
    return meta, SWEEP_COLUMNS, rows


# -------------------------------------------------------------- syndrome sweep

SYNDROME_SWEEP_DEFAULTS = {
    "device": None,
    "crosstalk_cases": [0.0, 1.0],
    "depth": 2,
    "opposite_sign_layers": False,
    "t_opt_ns": 75.0,
    "t_start_ns": 0.0,
    "t_stop_ns": 750.0,
    "t_step_ns": 7.5,
    "omega0_mhz": [80.0, 80.0, 80.0, 80.0],
    "omega_bounds_mhz": [0.0, 200.0],
    "outer_maxiter": 15,
    "max_sweeps": 1,
    "seed": 0,
    "optimizer": {},
}


def _device_from_config(cfg):
    raw = _inline_file(cfg, "device")
    if raw is None:
        return load_device(_fixture_path("syndrome_device.json"))[0]
    if not isinstance(raw, dict) or "pairs" not in raw:
        raise ConfigError("device must be an object with a 'pairs' list")
    try:
        return FourQubitDevice(tuple(pair_from_dict(p) for p in raw["pairs"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"device: {exc}") from exc


def _syndrome_sources(dev_pairs, omegas, t, depth, opposite):
    dev = FourQubitDevice(tuple(CrossResonancePair(**p) for p in dev_pairs))
    omegas = np.asarray(omegas, dtype=float)
    if opposite and depth == 2:
        return [four_cr_gate(dev, omegas, t), four_cr_gate(dev, -omegas, t)]
    return [four_cr_gate(dev, omegas, t)] * depth


def _syndrome_point(args):
    dev_pairs, omegas, t, depth, opposite, opt_d = args
    sources = _syndrome_sources(dev_pairs, omegas, t, depth, opposite)
    return vqgo(syndrome_target(), sources, cfg=OptimizerConfig(**opt_d))


def cmd_syndrome_sweep(cfg, workers):
    """Four-qubit parity-extraction synthesis: per crosstalk case,
    optimize the four drive amplitudes at t_opt_ns (outer derivative-free
    over the amplitude vector, inner angle optimization), then sweep t
    with amplitudes fixed. The eps column stores the crosstalk scale
    applied to the device file's per-qubit eps values (0 = off). A
    `device` given as a file path is read into cfg."""
    bounds, t_opt = _drive_settings(cfg, "t_opt_ns")
    dev_base = _device_from_config(cfg)
    outer_maxiter = _outer_maxiter(cfg, np.size(cfg["omega0_mhz"]))
    grid = _t_grid(cfg)
    depth = int(cfg["depth"])
    opposite = bool(cfg["opposite_sign_layers"])
    seed = int(cfg["seed"])
    target = syndrome_target()
    meta = [("source_time_total_ns", _fmt(depth * t_opt))]
    rows = []
    jobs = []
    for case_idx, scale in enumerate(cfg["crosstalk_cases"]):
        dev = FourQubitDevice(tuple(
            CrossResonancePair(p.delta, p.g, p.eps * float(scale), p.phi)
            for p in dev_base.pairs
        ))
        dev_pairs = [
            {"delta": p.delta, "g": p.g, "eps": p.eps, "phi": p.phi} for p in dev.pairs
        ]
        inner = optimizer_from_dict(cfg["optimizer"], derive_seed(seed, 1, case_idx))
        factory = lambda w, dp=dev_pairs: _syndrome_sources(dp, w, t_opt, depth, opposite)
        w_v, res_v, diag_v = concatenated_optimize(
            target, factory, cfg["omega0_mhz"], bounds, t_opt, inner,
            outer_maxiter=outer_maxiter, max_sweeps=int(cfg["max_sweeps"]),
        )
        meta.append((f"case{case_idx}_crosstalk_scale", _fmt(scale)))
        meta.append((f"case{case_idx}_omega_vqgo_mhz", _fmt_list(w_v)))
        meta.append((f"case{case_idx}_agi_vqgo_at_t_opt", _fmt(res_v.best_cost)))
        meta.append((f"case{case_idx}_outer_evaluations", str(diag_v["outer_evaluations"])))
        for t_idx, t in enumerate(grid):
            opt_d = optimizer_from_dict(cfg["optimizer"], derive_seed(seed, 2, case_idx, t_idx)).__dict__
            jobs.append(((dev_pairs, np.asarray(w_v), float(t), depth, opposite, dict(opt_d)),
                         (case_idx, t_idx, scale, w_v, float(t))))

    results = _map_jobs(_syndrome_point, [j[0] for j in jobs], workers)
    for (job, (case_idx, t_idx, scale, w_v, t)), res in zip(jobs, results):
        rows.append([
            "vqgo", _fmt(scale), "", _fmt_list(w_v), _fmt(t),
            _fmt(res.best_cost), str(job[5]["restarts"]), str(res.iterations_used),
            "true" if res.converged else "false", _fmt_list(res.best_params),
        ])
    rows.sort(key=lambda r: (float(r[1]), float(r[4])))
    return meta, SWEEP_COLUMNS, rows


# ----------------------------------------------------------------- cartan map

CARTAN_MAP_DEFAULTS = {
    "grid_points": 9,
    "depth": 2,
    "seed": 0,
    "optimizer": {"restarts": 3},
}


def _cartan_point(args):
    c, depth, opt_d = args
    gate = canonical_gate(c)
    res = vqgo(CNOT, [gate] * depth, cfg=OptimizerConfig(**opt_d))
    return entangling_power(gate), res


def cmd_cartan_map(cfg, workers):
    """Grid over canonical coordinates in [0, pi/4]^3: each point reports
    the entangling power of its canonical gate and the best fidelity of a
    depth-`depth` synthesis of CNOT from identical copies of that gate."""
    npts = int(cfg["grid_points"])
    if npts < 2:
        raise ConfigError("grid_points must be >= 2")
    depth = int(cfg["depth"])
    seed = int(cfg["seed"])
    axis = np.linspace(0.0, np.pi / 4, npts)
    jobs = []
    for ix in range(npts):
        for iy in range(npts):
            for iz in range(npts):
                opt_d = optimizer_from_dict(cfg["optimizer"], derive_seed(seed, ix, iy, iz)).__dict__
                jobs.append(((axis[ix], axis[iy], axis[iz]), depth, dict(opt_d)))
    results = _map_jobs(_cartan_point, jobs, workers)
    rows = []
    for (c, _, _), (ep, res) in zip(jobs, results):
        rows.append([
            _fmt(c[0]), _fmt(c[1]), _fmt(c[2]), _fmt(ep),
            _fmt(1.0 - res.best_cost), _fmt_list(res.best_params),
        ])
    return [("depth", str(depth))], CARTAN_COLUMNS, rows


# ------------------------------------------------------------- single optimize

SINGLE_OPTIMIZE_DEFAULTS = {
    "target": {"kind": "cnot"},
    "sources": [{"kind": "cnot"}],
    "mode": "vqgo",
    "pair": None,
    "depth": 2,
    "t_ns": 75.0,
    "omega0_mhz": 50.0,
    "omega_bounds_mhz": [0.0, 200.0],
    "outer_maxiter": 40,
    "max_sweeps": 6,
    "seed": 0,
    "optimizer": {},
}


def gate_from_spec(spec):
    """Build a unitary from a config gate spec: cnot | swap | identity |
    canonical {c} | random_su4 {seed} | cr {pair, omega_mhz, t_ns}."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind == "cnot":
        return CNOT.copy()
    if kind == "swap":
        return SWAP.copy()
    if kind == "identity":
        return np.eye(2 ** int(spec.get("qubits", 2)), dtype=complex)
    if kind == "canonical":
        return canonical_gate([float(x) for x in spec["c"]])
    if kind == "random_su4":
        u = haar_unitary(4, derive_rng(int(spec["seed"])))
        return u / np.linalg.det(u) ** 0.25
    if kind == "cr":
        pair = pair_from_dict(spec["pair"])
        return cr_gate(pair, DriveSpec(float(spec["omega_mhz"]), float(spec["t_ns"])))
    raise ConfigError(f"unknown gate kind {spec.get('kind')!r}")


def cmd_single_optimize(cfg, workers):
    """One synthesis run (plain or concatenated); returns the report dict."""
    bounds, t = _drive_settings(cfg, "t_ns")
    seed = int(cfg["seed"])
    opt = optimizer_from_dict(cfg["optimizer"], seed)
    try:
        target = gate_from_spec(cfg["target"])
    except KeyError as exc:
        raise ConfigError(f"target spec missing key {exc}") from exc
    start = time.perf_counter()
    if cfg["mode"] == "vqgo":
        try:
            sources = [gate_from_spec(s) for s in cfg["sources"]]
        except KeyError as exc:
            raise ConfigError(f"source spec missing key {exc}") from exc
        res = vqgo(target, sources, cfg=opt)
        extra = {}
    elif cfg["mode"] == "concatenated":
        if cfg["pair"] is None:
            raise ConfigError("concatenated mode needs a 'pair' entry")
        outer_maxiter = _outer_maxiter(cfg, 1)
        pair = pair_from_dict(cfg["pair"])
        depth = int(cfg["depth"])
        factory = lambda w: [cr_gate(pair, DriveSpec(float(w[0]), t))] * depth
        w_v, res, diag = concatenated_optimize(
            target, factory, [cfg["omega0_mhz"]], bounds, t, opt,
            outer_maxiter=outer_maxiter, max_sweeps=int(cfg["max_sweeps"]),
        )
        extra = {"omega_mhz": [float(x) for x in w_v],
                 "outer_evaluations": diag["outer_evaluations"]}
    else:
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    wall = time.perf_counter() - start
    report = {
        "command": "single_optimize",
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "agi": res.best_cost,
        "converged": res.converged,
        "iterations_used": res.iterations_used,
        "restart_index": res.restart_index,
        "theta": np.asarray(res.best_params).tolist(),
        "cost_history": [float(v) for v in res.cost_history],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall,
    }
    report.update(extra)
    return report


# --------------------------------------------------------------------- verify

def _read_artifact(path):
    meta = {}
    body = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(": ")
                meta[key] = value
            else:
                body.append(line)
    reader = csv.DictReader(body)
    return meta, list(reader)


def _verify_row(command, cfg, row):
    stated = float(row.get("agi", row.get("best_agf")))
    theta_flat = _parse_list(row.get("theta", ""))
    if command == "cnot_sweep":
        base = _inline_file(cfg, "pair")
        pair = CrossResonancePair(
            delta=float(base["delta_mhz"]), g=float(base["g_mhz"]),
            eps=float(row["eps"]), phi=float(row["phi_rad"]),
        )
        omega = float(row["omega_mhz"])
        t = float(row["t_ns"])
        if row["method"] == "tpcx":
            return agi(CNOT, tpcx(pair, omega, t)), stated
        depth = int(cfg["depth"])
        sources = [cr_gate(pair, DriveSpec(omega, t))] * depth
        theta = theta_flat.reshape(depth + 1, 2, 3)
        return agi_cost(theta, sources, CNOT), stated
    if command == "syndrome_sweep":
        dev_base = _device_from_config(cfg)
        scale = float(row["eps"])
        dev_pairs = [
            {"delta": p.delta, "g": p.g, "eps": p.eps * scale, "phi": p.phi}
            for p in dev_base.pairs
        ]
        omegas = _parse_list(row["omega_mhz"])
        depth = int(cfg["depth"])
        sources = _syndrome_sources(
            dev_pairs, omegas, float(row["t_ns"]), depth, bool(cfg["opposite_sign_layers"])
        )
        theta = theta_flat.reshape(depth + 1, 5, 3)
        return agi_cost(theta, sources, syndrome_target()), stated
    if command == "cartan_map":
        c = [float(row["c_x"]), float(row["c_y"]), float(row["c_z"])]
        depth = int(cfg["depth"])
        sources = [canonical_gate(c)] * depth
        theta = theta_flat.reshape(depth + 1, 2, 3)
        return 1.0 - agi_cost(theta, sources, CNOT), stated
    raise ConfigError(f"cannot verify artifacts of command {command!r}")


def verify_artifact(path):
    """Recompute every row's fidelity figure from its stored parameters;
    returns the number of mismatches."""
    meta, rows = _read_artifact(path)
    if "command" not in meta or "config" not in meta:
        raise ConfigError(f"{path}: missing command/config metadata")
    cfg = json.loads(meta["config"])
    command = meta["command"]
    mismatches = 0
    for idx, row in enumerate(rows):
        recomputed, stated = _verify_row(command, cfg, row)
        if abs(recomputed - stated) > VERIFY_ATOL:
            print(f"{path}: row {idx}: stated {stated:.12g} recomputed {recomputed:.12g}")
            mismatches += 1
    print(f"{path}: {len(rows)} rows checked, {mismatches} mismatches")
    return mismatches


# ----------------------------------------------------------------------- main

_COMMANDS = {
    "cnot-sweep": ("cnot_sweep", CNOT_SWEEP_DEFAULTS, cmd_cnot_sweep, "cnot_sweep.csv"),
    "syndrome-sweep": ("syndrome_sweep", SYNDROME_SWEEP_DEFAULTS, cmd_syndrome_sweep,
                       "syndrome_sweep.csv"),
    "cartan-map": ("cartan_map", CARTAN_MAP_DEFAULTS, cmd_cartan_map, "cartan_map.csv"),
    "single-optimize": ("single_optimize", SINGLE_OPTIMIZE_DEFAULTS, cmd_single_optimize,
                        "single_optimize.json"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gatesynth",
        description="Reproducible gate-synthesis experiments (CSV/JSON artifacts).",
    )
    parser.add_argument("--verify", metavar="PATH",
                        help="re-check a previously written artifact and exit")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (defaults otherwise)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--output", help="artifact path")
    args = parser.parse_args(argv)

    try:
        if args.verify:
            return 1 if verify_artifact(args.verify) else 0
        if not args.command:
            parser.print_help()
            return 1
        command, defaults, fn, default_output = _COMMANDS[args.command]
        cfg = load_config(args.config, defaults)
        if args.seed is not None:
            cfg["seed"] = args.seed
        output = args.output or default_output
        if command == "single_optimize":
            report = fn(cfg, args.workers)
            try:
                with open(output, "w") as fh:
                    json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise OutputError(f"{output}: {exc.strerror}") from exc
            print(f"wrote {output} (agi {report['agi']:.3e})")
        else:
            meta, columns, rows = fn(cfg, args.workers)
            _write_artifact(output, _base_meta(command, cfg) + meta, columns, rows)
            print(f"wrote {output} ({len(rows)} rows)")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
