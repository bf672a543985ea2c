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
import errno
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from importlib import resources
from typing import Callable

import numpy as np

from . import __version__
from .analysis import canonical_gate, entangling_power
from .ansatz import agi_cost
from .channels import CNOT, SWAP, agi
from .devices import (
    CrossResonancePair,
    DriveSpec,
    cr_gate,
    device_from_dict,
    four_cr_gate,
    pair_from_dict,
    syndrome_target,
    tpcx,
)
from .inputs import ADDRESSABLE_BYTES, ConfigError, canonical_json, read, read_json, read_text
from .numkit import PhaseError, derive_rng, derive_seed, haar_unitary, qubit_count
from .optimkit import (
    AmplitudeBounds,
    OptimizerConfig,
    concatenated_optimize,
    least_evaluations,
    minimize_on_interval,
    vqgo,
    vqgo_batch,
)

VERIFY_ATOL = 1e-9

SWEEP_COLUMNS = [
    "method", "eps", "phi_rad", "omega_mhz", "t_ns",
    "agi", "restarts", "iterations", "converged", "theta",
]
CARTAN_COLUMNS = ["c_x", "c_y", "c_z", "entangling_power", "best_agf", "theta"]


def _fmt(x):
    return format(float(x), ".17g")


def _fmt_list(xs):
    return ";".join(_fmt(x) for x in np.asarray(xs, dtype=float).ravel())


def _parse_list(s):
    if not s:
        return np.array([])
    return np.array([float(tok) for tok in s.split(";")])


def _config_hash(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _inline_file(cfg, key):
    """Replace a file path held in cfg[key] by the file's JSON contents, so
    an artifact's config (and its hash) holds the data itself and --verify
    needs no other file."""
    if isinstance(cfg[key], str):
        cfg[key] = read_json(cfg[key], f"{key}: ")
    return cfg[key]


def merge_config(user, defaults, where=""):
    """A JSON object `user` (a config) merged over a copy of per-command defaults; a key
    the defaults lack is a config error after `where`, so typos fail loudly."""
    cfg = json.loads(json.dumps(defaults))
    for key, value in user.items():
        if key not in cfg:
            raise ConfigError(f"{where}unknown config key {key!r}")
        cfg[key] = value
    return cfg


def optimizer_from_dict(d, seed):
    """OptimizerConfig from a config's `optimizer` object and the top-level
    seed; `seed` belongs at the top level, and a bad entry is the
    constructor's error after "optimizer config: "."""
    where = "optimizer config: "
    if not isinstance(d, dict):
        raise ConfigError(f"{where}optimizer must be an object, got {canonical_json(d)}")
    names = {f.name for f in fields(OptimizerConfig)}
    for key in d:
        if key == "seed":
            raise ConfigError(f"{where}seed is not an optimizer field; set the top-level seed")
        if key not in names:
            raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return OptimizerConfig(**d, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _check_buildable(key, value, layers, dim):
    """ConfigError naming cfg[key] = value when `layers` source gates of
    dim x dim complex entries take more than the ADDRESSABLE_BYTES (2**47)
    a 64-bit process can address, so that no host can build them."""
    if layers * dim**2 * 16 > ADDRESSABLE_BYTES:
        raise ConfigError(f"{key} {value} needs {layers} source layers of {dim}x{dim} gates, "
                          f"more than the 2**47 bytes a 64-bit process can address")


def _layer_signs(cfg, designs, dim):
    """The sign of the drive amplitudes in each of the `depth` source
    layers of `designs` designs of dim x dim gates: all +1, or (+1, -1)
    when syndrome-sweep's opposite_sign_layers is set, which needs depth 2."""
    depth = read(cfg, "depth", int, low=1)
    _check_buildable("depth", depth, designs * depth, dim)
    opposite = "opposite_sign_layers" in cfg and read(cfg, "opposite_sign_layers", bool)
    if opposite and depth != 2:
        raise ConfigError(f"opposite_sign_layers needs depth 2, got depth {depth}")
    return (1, -1) if opposite else (1,) * depth


def _usable_cpus():
    """The CPUs this process may run on (the CPU count where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _synthesize(target, sources, cfgs, workers):
    """vqgo_batch(target, sources, cfgs), split into at most `workers`
    contiguous chunks, and no more than the usable CPUs, that a pool of as
    many processes runs; one chunk runs in-process, and no designs start
    nothing. The results do not depend on the split."""
    parts = min(workers, len(cfgs), _usable_cpus())
    if parts <= 1:
        return vqgo_batch(target, sources, cfgs)
    cuts = [len(cfgs) * k // parts for k in range(parts + 1)]
    chunks = [(sources[a:b], cfgs[a:b]) for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        return sum(pool.map(vqgo_batch, [target] * parts, *zip(*chunks)), [])


def _check_output(path):
    """Raise, before any work and without creating it, the OSError that
    writing `path` would: its directory is missing, or it is a directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_artifact(path, meta, columns, rows):
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value if isinstance(value, str) else canonical_json(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _base_meta(command, cfg):
    """The record every artifact opens with, as '#' lines or report keys."""
    return {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": cfg["seed"],
        "config_hash": _config_hash(cfg),
        "config": cfg,
    }


# ---------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class Sweep:
    """One sweep command's problem, read by its run, pool jobs and --verify:
    `target` from CR drives. A value of cfg[cases_key] (eps column) is a case;
    case(cfg, value) builds its pair or device, source(case, omegas, t) evolves
    it. baseline(pair, omega, t): echoed-CR CNOT AGI (method tpcx), an array of
    them for an array of amplitudes."""

    target: np.ndarray
    cases_key: str
    case: Callable
    source: Callable
    baseline: Callable = None

    @property
    def qubits(self):
        return qubit_count(self.target.shape[0])

    @property
    def methods(self):
        return ("vqgo",) if self.baseline is None else ("tpcx", "vqgo")


def _sources(sweep, case, omegas, t, signs):
    """The source layers of one design: layer i evolves the case at
    signs[i] * omegas (an array) for t ns; each distinct sign is evolved once."""
    gates = {s: sweep.source(case, s * omegas, t) for s in set(signs)}
    return [gates[s] for s in signs]


def _case_cells(value, case):
    """The eps and phi_rad cells of a case's rows; a device has no phase."""
    return [_fmt(value), _fmt(case.phi) if isinstance(case, CrossResonancePair) else ""]


def _finite_gate(where, source, *args):
    """source(*args), a gate, or a ConfigError naming `where` on a PhaseError or if the gate
    is not finite: an overflowing Hamiltonian raises ValueError, a phase w*t NaN."""
    with np.errstate(all="ignore"):
        try:
            gate = source(*args)
            if np.isfinite(gate).all():
                return gate
        except PhaseError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        except ValueError:
            pass
    raise ConfigError(f"{where} gives a gate that is not finite")


def _read_sweep(sweep, cfg):
    """What a sweep's run and --verify read of cfg, checked: ({value: case},
    layer signs, row keys (method, eps, t), search arguments, t_opt_ns, time
    grid, row times (the grid and t_opt_ns), OptimizerConfig). Each source must
    be finite at the box's top amplitude at 0 ns, t_opt_ns and the last time."""
    values = read(cfg, sweep.cases_key, size="any", low=0)
    if len(set(values)) < len(values):  # 0.0 and -0.0 are one value
        raise ConfigError(f"{sweep.cases_key} repeats a value, "
                          f"got {canonical_json(cfg[sweep.cases_key])}")
    cases = {value: sweep.case(cfg, value) for value in values}
    amplitudes = sweep.qubits - 1
    lo, hi = read(cfg, "omega_bounds_mhz", size=2, low=0)
    try:
        bounds = AmplitudeBounds(lo, hi)  # lower < upper, and a box COBYLA can search
    except ValueError as exc:
        raise ConfigError(f"omega_bounds_mhz {canonical_json(cfg['omega_bounds_mhz'])}: "
                          f"{exc}") from exc
    omega0 = read(cfg, "omega0_mhz", size=amplitudes if amplitudes > 1 else None)
    if not all(lo <= w <= hi for w in np.atleast_1d(omega0)):
        raise ConfigError(f"omega0_mhz must lie within omega_bounds_mhz [{lo:g}, {hi:g}], "
                          f"got {canonical_json(cfg['omega0_mhz'])}")
    search = {"omega0": omega0, "bounds": bounds,
              "outer_maxiter": read(cfg, "outer_maxiter", int, low=least_evaluations(amplitudes)),
              "max_sweeps": read(cfg, "max_sweeps", int, low=1)}
    t_opt = read(cfg, "t_opt_ns", low=0)
    t_start = read(cfg, "t_start_ns", low=0)
    t_stop = read(cfg, "t_stop_ns", low=t_start)
    t_step = read(cfg, "t_step_ns", above=0)
    span = f"in [t_start_ns, t_stop_ns] = [{t_start:g}, {t_stop:g}]"
    try:
        grid = np.arange(t_start, t_stop + 0.5 * t_step, t_step)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"t_step_ns {t_step:g} gives too many gate times {span}: {exc}") from exc
    if not grid.size:
        raise ConfigError(f"t_step_ns {t_step:g} gives no gate time {span}")
    times = grid if t_opt in grid else np.append(grid, t_opt)
    signs = _layer_signs(cfg, len(cases) * grid.size, sweep.target.shape[0])
    opt = optimizer_from_dict(cfg["optimizer"], read(cfg, "seed", int, low=0))
    for value, case in cases.items():  # each source gate, before any search
        for where, t in ((f"{sweep.cases_key} value {value:g}", 0.0),
                         (f"t_opt_ns {t_opt:g}", t_opt),
                         (f"t_stop_ns {t_stop:g}", grid[-1])):
            _finite_gate(f"{where} at amplitude {hi:g} MHz", sweep.source, case,
                         [hi] * amplitudes, t)
    keys = set(itertools.product(sweep.methods, values, times.tolist()))
    return cases, signs, keys, search, t_opt, grid, times, opt


def _sweep(sweep, cfg, workers):
    """Per case: the concatenated amplitude+angle search at t_opt_ns fixes the
    drive amplitudes and is the t_opt vqgo row; the grid's other times are
    synthesized with them held fixed. One row per (method, case, t in grid and
    t_opt). The baseline's amplitude is tuned by minimize_on_interval."""
    cases, signs, _, search, t_opt, grid, times, opt = _read_sweep(sweep, cfg)
    lo, hi = search["bounds"].pairs(1)[0]
    meta, rows = {}, []
    heads, results = [], []  # vqgo rows: each case's t_opt row is its amplitude search's design,
    grid_heads, sources, cfgs = [], [], []  # and the grid's other times go to one batch
    for case_idx, (value, case) in enumerate(cases.items()):
        cells = _case_cells(value, case)
        if sweep.baseline is not None:
            omega_b, _, _ = minimize_on_interval(lambda w: sweep.baseline(case, w, t_opt), lo, hi)
            rows += [["tpcx", *cells, _fmt(omega_b), _fmt(t),
                      _fmt(sweep.baseline(case, omega_b, t)), "0", "0", "true", ""] for t in times]
        w_v, res_v, diag_v = concatenated_optimize(
            sweep.target, lambda w, c=case: _sources(sweep, c, w, t_opt, signs),
            cfg=replace(opt, seed=derive_seed(opt.seed, 1, case_idx)), **search)
        meta[f"case{case_idx}_outer_evaluations"] = str(diag_v["outer_evaluations"])
        heads.append(["vqgo", *cells, _fmt_list(w_v), _fmt(t_opt)])
        results.append(res_v)
        for t_idx, t in enumerate(grid):
            if t != t_opt:
                grid_heads.append(["vqgo", *cells, _fmt_list(w_v), _fmt(t)])
                sources.append(_sources(sweep, case, w_v, float(t), signs))
                cfgs.append(replace(opt, seed=derive_seed(opt.seed, 2, case_idx, t_idx)))

    results += _synthesize(sweep.target, sources, cfgs, workers)
    rows += [head + [_fmt(res.best_cost), str(len(res.restart_diagnostics)),
                     str(res.iterations_used), "true" if res.converged else "false",
                     _fmt_list(res.best_params)] for head, res in zip(heads + grid_heads, results)]
    rows.sort(key=lambda r: (float(r[1]), float(r[4]), r[0]))
    return meta, SWEEP_COLUMNS, rows


# ------------------------------------------------------------------ cnot sweep

# the amplitude+angle search at t_opt_ns and the gate-time grid of both sweeps
_SWEEP_DEFAULTS = {
    "depth": 2,
    "omega0_mhz": 50.0,
    "omega_bounds_mhz": [AmplitudeBounds.lower, AmplitudeBounds.upper],
    "outer_maxiter": 40,
    "max_sweeps": 6,
    "seed": 0,
    "optimizer": {},
    "t_opt_ns": 75.0,
    "t_start_ns": 0.0,
    "t_stop_ns": 750.0,
    "t_step_ns": 7.5,
}

CNOT_SWEEP_DEFAULTS = {
    **_SWEEP_DEFAULTS,
    "pair": {"delta_mhz": 200.0, "g_mhz": 5.0},
    "eps_cases": [0.0, 0.1, 1.0],
    "phi_rad": np.pi / 4,
}


def _cnot_case(cfg, eps):
    """`pair` (an object, or a file path read into cfg) with eps and phi_rad."""
    raw = _inline_file(cfg, "pair")
    if isinstance(raw, dict) and raw.keys() & {"eps", "phi_rad"}:
        raise ConfigError(f"pair must hold only delta_mhz and g_mhz, got {canonical_json(raw)}")
    return replace(pair_from_dict(raw, "pair."), eps=eps, phi=read(cfg, "phi_rad"))


def _cnot_source(pair, omegas, t):
    return cr_gate(pair, DriveSpec(float(omegas[0]), t))


def _tpcx_agi(pair, omega, t):
    """agi(CNOT, tpcx(pair, omega, t)): one AGI, or an array of them for an array
    of amplitudes, each bitwise the call on its amplitude alone."""
    return agi(CNOT, tpcx(pair, omega, t))


CNOT_SWEEP = Sweep(CNOT, "eps_cases", _cnot_case, _cnot_source, baseline=_tpcx_agi)


def cmd_cnot_sweep(cfg, workers):
    """CNOT from CR sources with crosstalk, beside the echoed-CR baseline."""
    return _sweep(CNOT_SWEEP, cfg, workers)


# -------------------------------------------------------------- syndrome sweep

SYNDROME_SWEEP_DEFAULTS = {
    **_SWEEP_DEFAULTS,
    "device": None,
    "crosstalk_cases": [0.0, 1.0],
    "opposite_sign_layers": False,
    "omega0_mhz": [80.0, 80.0, 80.0, 80.0],
    "outer_maxiter": 15,
    "max_sweeps": 1,
}


def _syndrome_case(cfg, scale):
    """`device` (an object with a `pairs` list, a file path read into cfg, or
    null for the packaged fixture) with each pair's eps multiplied by scale."""
    raw = _inline_file(cfg, "device")
    if raw is None:
        raw = read_json(resources.files(__package__) / "fixtures" / "syndrome_device.json")
    device = device_from_dict(raw, "device.")
    try:
        return device.with_crosstalk(scale)
    except ValueError as exc:  # a product eps * scale above the largest float
        raise ConfigError(f"crosstalk_cases value {scale:g}: {exc}") from exc


SYNDROME_SWEEP = Sweep(syndrome_target(), "crosstalk_cases", _syndrome_case, four_cr_gate)


def cmd_syndrome_sweep(cfg, workers):
    """Four-qubit parity extraction from four simultaneous CR drives; a case
    scales the device's eps values (0 = crosstalk off)."""
    return _sweep(SYNDROME_SWEEP, cfg, workers)


# ----------------------------------------------------------------- cartan map

CARTAN_MAP_DEFAULTS = {
    "grid_points": 9,
    "depth": 2,
    "seed": 0,
    "optimizer": {"restarts": 3},
}


def _read_cartan(cfg):
    """What cartan-map's run and --verify read of cfg, checked: (the axis of
    grid_points values in [0, pi/4], layer signs, OptimizerConfig, row keys)."""
    npts = read(cfg, "grid_points", int, low=2)
    _check_buildable("grid_points", npts, npts**3, CNOT.shape[0])
    signs = _layer_signs(cfg, npts**3, CNOT.shape[0])
    opt = optimizer_from_dict(cfg["optimizer"], read(cfg, "seed", int, low=0))
    axis = np.linspace(0.0, np.pi / 4, npts)
    return axis, signs, opt, set(itertools.product(axis.tolist(), repeat=3))


def cmd_cartan_map(cfg, workers):
    """Grid over canonical coordinates in [0, pi/4]^3: each point reports
    the entangling power of its canonical gate and the best fidelity of a
    depth-`depth` synthesis of CNOT from identical copies of that gate."""
    axis, signs, opt, _ = _read_cartan(cfg)
    grid = list(itertools.product(range(axis.size), repeat=3))
    coords = [tuple(axis[list(index)]) for index in grid]
    gates = [canonical_gate(c) for c in coords]
    cfgs = [replace(opt, seed=derive_seed(opt.seed, *index)) for index in grid]
    results = _synthesize(CNOT, [[gate] * len(signs) for gate in gates], cfgs, workers)
    rows = [[*map(_fmt, c), _fmt(entangling_power(gate)), _fmt(1.0 - res.best_cost),
             _fmt_list(res.best_params)] for c, gate, res in zip(coords, gates, results)]
    return {}, CARTAN_COLUMNS, rows


# ------------------------------------------------------------- single optimize

SINGLE_OPTIMIZE_DEFAULTS = {
    "target": {"kind": "cnot"},
    "sources": [{"kind": "cnot"}],
    "seed": 0,
    "optimizer": {},
}


def gate_from_spec(spec, where="gate"):
    """Build a unitary from a config gate spec: cnot | swap | identity
    {qubits} | canonical {c} | random_su4 {seed} | cr {pair, omega_mhz,
    t_ns}. A bad spec is a ConfigError located at `where`."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind") if isinstance(spec, dict) else None
    w = where + "."
    if kind in ("cnot", "swap"):
        return (CNOT if kind == "cnot" else SWAP).copy()
    if kind == "identity":
        qubits = read({"qubits": 2, **spec}, "qubits", int, low=1, where=w)
        widest = SYNDROME_SWEEP.qubits  # the widest register the package models
        if qubits > widest:
            raise ConfigError(f"{w}qubits must be an integer >= 1 and <= {widest}, got {qubits}")
        return np.eye(2 ** qubits, dtype=complex)
    if kind == "canonical":
        return _finite_gate(where, canonical_gate, read(spec, "c", size=3, where=w))
    if kind == "random_su4":
        u = haar_unitary(4, derive_rng(read(spec, "seed", int, low=0, where=w)))
        return u / np.linalg.det(u) ** 0.25
    if kind == "cr":
        pair = pair_from_dict(spec.get("pair"), w + "pair.")
        drive = DriveSpec(read(spec, "omega_mhz", where=w), read(spec, "t_ns", low=0, where=w))
        return _finite_gate(where, cr_gate, pair, drive)
    raise ConfigError(f"{where} must be a gate spec of kind cnot, swap, identity, canonical, "
                      f"random_su4 or cr, got {canonical_json(spec)}")


def cmd_single_optimize(cfg, workers):
    """One vqgo design of `target` from `sources`, one source layer per
    entry; returns its results and each restart's diagnostics."""
    opt = optimizer_from_dict(cfg["optimizer"], read(cfg, "seed", int, low=0))
    target = gate_from_spec(cfg["target"], "target")
    if not isinstance(cfg["sources"], list):
        raise ConfigError(f"sources must be a list of gate specs, "
                          f"got {canonical_json(cfg['sources'])}")
    sources = [gate_from_spec(s, f"sources[{i}]") for i, s in enumerate(cfg["sources"])]
    n = lambda gate: qubit_count(gate.shape[0])
    for i, source in enumerate(sources):
        if source.shape != target.shape:
            raise ConfigError(f"sources[{i}] acts on {n(source)} qubit(s), target on {n(target)}")
    start = time.perf_counter()
    res = vqgo(target, sources, cfg=opt)
    return {
        "wall_time_s": time.perf_counter() - start,
        "agi": res.best_cost,
        "converged": res.converged,
        "iterations_used": res.iterations_used,
        "restart_index": res.restart_index,
        "theta": np.asarray(res.best_params).tolist(),
        "cost_history": [float(v) for v in res.cost_history],
        "restarts": res.restart_diagnostics,
    }


# --------------------------------------------------------------------- verify

def _verify_sweep(sweep, cfg):
    """--verify's (row check, row keys, row name) of a sweep config. check(row)
    gives its (method, eps, t_ns), and its phase (phi_rad, "" read as 0) and AGI
    as stated and as recomputed; an eps no case of cfg gets its case built once."""
    cases, signs, keys = _read_sweep(sweep, cfg)[:3]
    case = functools.cache(lambda value: cases[value] if value in cases else sweep.case(cfg, value))

    def check(row):  # an unreadable row, or a method its command never writes, raises
        theta = _parse_list(row["theta"])
        if row["method"] not in sweep.methods:
            raise ValueError(f"method {row['method']!r} is not one of {', '.join(sweep.methods)}")
        eps, t, agi = (float(row[key]) for key in ("eps", "t_ns", "agi"))
        omegas, pair = _parse_list(row["omega_mhz"]), case(eps)
        if row["method"] == "tpcx":
            recomputed = sweep.baseline(pair, omegas[0], t)
        else:
            theta = theta.reshape(len(signs) + 1, sweep.qubits, 3)
            recomputed = agi_cost(theta, _sources(sweep, pair, omegas, t, signs), sweep.target)
        phi = float(_case_cells(eps, pair)[1] or 0)  # "" for a device
        return (row["method"], eps, t), (float(row["phi_rad"] or 0), agi), (phi, recomputed)

    return check, keys, "{} eps {:g} t_ns {:g}"


def _verify_cartan(cfg):
    """--verify's (row check, row keys, row name) of a cartan-map config. check(row)
    gives its coordinates, and its best_agf and entangling_power stated and recomputed."""
    _, signs, _, keys = _read_cartan(cfg)

    def check(row):
        theta = _parse_list(row["theta"]).reshape(len(signs) + 1, 2, 3)
        key = tuple(float(row[col]) for col in CARTAN_COLUMNS[:3])
        gate = canonical_gate(key)
        recomputed = 1.0 - agi_cost(theta, [gate] * len(signs), CNOT), entangling_power(gate)
        return key, (float(row["best_agf"]), float(row["entangling_power"])), recomputed

    return check, keys, "c_x {:g} c_y {:g} c_z {:g}"


# each CSV command's defaults and its --verify reading of a config
_VERIFIERS = {
    "cnot_sweep": (CNOT_SWEEP_DEFAULTS, functools.partial(_verify_sweep, CNOT_SWEEP)),
    "syndrome_sweep": (SYNDROME_SWEEP_DEFAULTS, functools.partial(_verify_sweep, SYNDROME_SWEEP)),
    "cartan_map": (CARTAN_MAP_DEFAULTS, _verify_cartan),
}


def verify_artifact(path):
    """Recompute each row's fidelity figure from its stored parameters and its
    phase from the config, and check that the artifact holds one row per key
    its config gives ((method, eps, t) or the grid point); returns the number of
    mismatches, each bad value or missing, repeated or unexpected row being one.
    The header config, read by its command's reader, must match the seed and
    config_hash lines; an unreadable header or row is a located config error."""
    lines = list(io.StringIO(read_text(path)))
    meta = dict(ln[1:].strip().partition(": ")[::2] for ln in lines if ln.startswith("#"))
    rows = list(csv.DictReader([ln for ln in lines if not ln.startswith("#")], restval=""))
    if "command" not in meta or "config" not in meta:
        raise ConfigError(f"{path}: missing command/config metadata")
    try:
        header = json.loads(meta["config"])
    except (ValueError, RecursionError) as exc:  # malformed, or past a parser limit
        raise ConfigError(f"{path}: config header: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: config header must be a JSON object")
    if meta["command"] not in _VERIFIERS:
        raise ConfigError(f"{path}: cannot verify artifacts of command {meta['command']!r}")
    defaults, verifier = _VERIFIERS[meta["command"]]
    try:
        cfg = merge_config(header, defaults)
        check, keys, name = verifier(cfg)
        if meta.get("config_hash") != (digest := _config_hash(header)):  # header as parsed
            raise ConfigError(f"config_hash {meta.get('config_hash')} is not the config's {digest}")
        if meta.get("seed") != (seed := canonical_json(cfg["seed"])):
            raise ConfigError(f"seed {meta.get('seed')} is not the config's seed {seed}")
    except ConfigError as exc:
        raise ConfigError(f"{path}: config header: {exc}") from exc
    missing = set(keys)
    mismatches = 0
    for idx, row in enumerate(rows):
        try:
            key, stated, recomputed = check(row)
        except (IndexError, KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: row {idx}: {exc}") from exc
        problems = [f"stated {s:.12g} recomputed {r:.12g}"
                    for s, r in zip(stated, recomputed) if not abs(r - s) <= VERIFY_ATOL]
        if key not in keys:
            problems.append(f"{name.format(*key)} is not a row its config gives")
        elif key not in missing:
            problems.append(f"repeats the {name.format(*key)} row")
        missing.discard(key)
        for problem in problems:
            print(f"{path}: row {idx}: {problem}")
        mismatches += len(problems)
    for key in sorted(missing):
        print(f"{path}: no {name.format(*key)} row")
    mismatches += len(missing)
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


@functools.cache
def _parser():
    """The CLI's parser, built on the first call of a process (not at import)."""
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
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)

    try:
        if args.verify:
            return 1 if verify_artifact(args.verify) else 0
        if not args.command:
            parser.print_help()
            return 1
        if args.workers < 1:
            raise ConfigError(f"--workers must be an integer >= 1, got {args.workers}")
        command, defaults, fn, default_output = _COMMANDS[args.command]
        user = {} if args.config is None else read_json(args.config)
        if not isinstance(user, dict):
            raise ConfigError(f"{args.config}: top level must be a JSON object")
        cfg = merge_config(user, defaults, f"{args.config}: ")
        if args.seed is not None:
            cfg["seed"] = args.seed
        output = args.output or default_output
        _check_output(output)
        result = fn(cfg, args.workers)
        meta = _base_meta(command, cfg)  # after fn, which reads files into cfg
        if command == "single_optimize":
            with open(output, "w") as fh:
                json.dump({**meta, **result}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {output} (agi {result['agi']:.3e})")
        else:
            extra, columns, rows = result
            _write_artifact(output, {**meta, **extra}, columns, rows)
            print(f"wrote {output} ({len(rows)} rows)")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading the --verify artifact, else writing the output
        print(f"{'input' if args.verify else 'output'} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
