"""The benchmark's workloads: the paper's CNOT-from-CR sweep as users run it
through the CLI, and the four-qubit parity (syndrome) extraction.

A workload builds its fixed inputs in setup(), then runs rounds of the same
operations, one per entry of `cases`. An operation's optimizer and sampling
seeds come from (run seed, case), so one seed gives one set of inputs and
every round repeats the same work. The program is reached through module
attributes (optimkit.vqgo, not a name bound at import), so a traced run sees
every call. check() compares each result with the oracles, or with
properties the method must have; it runs after the timing.
"""

import contextlib
import csv
import io
import json
from importlib import resources

import numpy as np
from gatesynth import ansatz, channels, cli, devices, dfe, optimkit

import oracles

T_OPT_NS = 75.0
DEPTH = 2
CR_PAIR = {"delta_mhz": 200.0, "g_mhz": 5.0}
CR_PHI = np.pi / 4
# eps_fail = delta_acc = 0.05 gives ceil(1/(0.05**2 * 0.05)) = 8,000 single-shot
# settings. Each setting of a Clifford target is +-1, so by Hoeffding a correct
# sampler misses the true AGF by more than 0.05 with probability below 1e-4.
DFE_BUDGET = {"eps_fail": 0.05, "delta_acc": 0.05}
DFE_TOLERANCE = 0.05


class OperationFailed(Exception):
    pass


def op_seeds(seed, case_index):
    """Optimizer seed and sampling seed of one operation."""
    state = np.random.SeedSequence([seed, case_index]).generate_state(2)
    return [int(s) for s in state]


def _certify(u, r_target, plan, seed):
    return dfe.dfe_estimate(u, r_target, plan, cfg=dfe.DfeSamplingConfig(**DFE_BUDGET),
                            rng=np.random.default_rng(seed))


def _oracle_cr_source(eps, omega, t):
    h = oracles.cr_hamiltonian(CR_PAIR["delta_mhz"], CR_PAIR["g_mhz"], eps, CR_PHI, omega)
    return oracles.evolve(h, t)


class CnotSweep:
    """`gatesynth cnot-sweep` in-process through cli.main, three invocations
    per crosstalk case, each followed by `gatesynth --verify` on its artifact."""

    name = "cnot_sweep"
    # Each invocation has its own optimizer seed. The work of one invocation
    # depends on its start points (in about one in three it runs an extra
    # inner design, some 17% more work), so three per crosstalk case keep the
    # median operation and the total steady from one run seed to the next.
    cases = (0.0, 0.1, 1.0) * 3
    # Criterion 06's tolerances with a fixed iteration budget: 60 quasi-Newton
    # iterations per restart keep the work of one design nearly independent of
    # its start point, and a second restart runs only when the first ends above
    # stop_below. outer_maxiter 3 is the least COBYLA honours for one amplitude
    # (amplitudes + 2). max_sweeps 2 keeps the repeated outer sweep.
    CONFIG = {
        "pair": CR_PAIR,
        "phi_rad": CR_PHI,
        "depth": DEPTH,
        "t_opt_ns": T_OPT_NS,
        "t_start_ns": 71.25,
        "t_stop_ns": 78.75,
        "t_step_ns": 3.75,
        "omega0_mhz": 120.0,
        "omega_bounds_mhz": [0.0, 200.0],
        "outer_maxiter": 3,
        "max_sweeps": 2,
        "optimizer": {"restarts": 2, "max_iterations": 60, "gradient_tolerance": 1e-8,
                      "cost_tolerance": 1e-13, "stop_below": 1e-3},
    }

    def __init__(self, workdir, workers=1, tracer=None):
        self.workdir = workdir
        self.workers = workers
        self.tracer = tracer
        self.tpcx_at_opt = {}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for c, eps in enumerate(self.cases):
            cfg = dict(self.CONFIG, eps_cases=[eps])
            (self.workdir / f"case{c}.json").write_text(json.dumps(cfg))

    def prepare_checks(self):
        self.cnot = oracles.cnot()

    def run(self, seeds, c):
        config = self.workdir / f"case{c}.json"
        artifact = self.workdir / f"case{c}.csv"
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            rc = cli.main(["cnot-sweep", "--config", str(config), "--output", str(artifact),
                           "--workers", str(self.workers), "--seed", str(seeds[0])])
            if rc != 0:
                raise OperationFailed(f"cnot-sweep exited {rc}")
            rc_verify = cli.main(["--verify", str(artifact)])
        if self.tracer is not None:
            counts = self.tracer.counts
            counts["cli.artifact_bytes"] = counts.get("cli.artifact_bytes", 0) + artifact.stat().st_size
        return artifact, rc_verify

    def check(self, c, out):
        artifact, rc_verify = out
        eps = self.cases[c]
        problems = [] if rc_verify == 0 else [f"--verify exited {rc_verify}"]
        with open(artifact) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if len(rows) != 6:
            problems.append(f"{len(rows)} rows, expected 3 gate times x 2 methods")
        for row in rows:
            t, omega, stated = float(row["t_ns"]), float(row["omega_mhz"]), float(row["agi"])
            if row["method"] == "tpcx":
                u = oracles.tpcx(CR_PAIR["delta_mhz"], CR_PAIR["g_mhz"], eps, CR_PHI, omega, t)
            else:
                theta = np.array([float(x) for x in row["theta"].split(";")]).reshape(DEPTH + 1, 2, 3)
                u = oracles.circuit(theta, [_oracle_cr_source(eps, omega, t)] * DEPTH)
            recomputed = oracles.agi(self.cnot, u)
            if abs(recomputed - stated) > 1e-9:
                problems.append(f"{row['method']} t={t:g}: stated AGI {stated:.12g}, "
                                f"recomputed {recomputed:.12g}")
            if t != T_OPT_NS:
                continue
            if row["method"] == "vqgo" and stated > 1e-3:
                problems.append(f"vqgo AGI at t_opt {stated:.3g} > 1e-3")
            if row["method"] == "tpcx":
                self.tpcx_at_opt[eps] = stated
        base = self.tpcx_at_opt.get(0.0)
        if eps == 0.0 and not (base is not None and 0.01 <= base <= 0.07):
            problems.append(f"TPCX AGI at eps=0 is {base}, outside [0.01, 0.07]")
        if eps == 0.1 and base is not None and not self.tpcx_at_opt.get(0.1, 0.0) >= 3 * base:
            problems.append(f"TPCX AGI at eps=0.1 ({self.tpcx_at_opt.get(0.1)}) < 3x eps=0 ({base})")
        return problems


class Parity5q:
    """Four-qubit parity extraction from two simultaneous-drive sources at
    the fixture's reference amplitudes, each design certified by sampled DFE."""

    name = "parity_5q"
    CROSSTALK = ("no_crosstalk", "crosstalk")
    # 150 iterations that no tolerance ends early, so a design does fixed
    # work. With crosstalk about one start point in six ends far from the
    # target (AGI 0.9697 or 0.7277 after 150 iterations; without crosstalk
    # about one in forty); only then does a further restart run, each adding
    # some 60% to the operation. Three such starts in a row happen (run seed
    # 4, case 7), so up to six restarts. Four designs per crosstalk case,
    # each with its own seed, keep the median operation where it is and
    # make one extra restart about 8% of the total.
    cases = CROSSTALK * 4
    OPTIMIZER = {"restarts": 6, "max_iterations": 150, "gradient_tolerance": 1e-7,
                 "cost_tolerance": 1e-12, "stop_below": 0.01}

    def __init__(self, workdir, workers=1, tracer=None):
        self.fixture = resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")

    def setup(self):
        dev, raw = devices.load_device(self.fixture)
        self.target = devices.syndrome_target()
        self.sources = {}
        for case in self.CROSSTALK:
            omegas = raw["reference_omega_mhz"][case]
            gate = devices.four_cr_gate(dev.with_crosstalk(case == "crosstalk"), omegas, T_OPT_NS)
            self.sources[case] = [gate] * DEPTH
        self.r_target = channels.ptm(self.target)
        self.plan = dfe.dfe_plan(self.r_target)

    def prepare_checks(self):
        raw = json.loads(self.fixture.read_text())
        self.oracle_target = oracles.parity_target()
        self.oracle_sources = {}
        for case in self.CROSSTALK:
            pairs = [(p["delta_mhz"], p["g_mhz"], p["eps"] if case == "crosstalk" else 0.0,
                      p["phi_rad"]) for p in raw["pairs"]]
            h = oracles.four_cr_hamiltonian(pairs, raw["reference_omega_mhz"][case])
            self.oracle_sources[case] = [oracles.evolve(h, T_OPT_NS)] * DEPTH

    def run(self, seeds, c):
        sources = self.sources[self.cases[c]]
        cfg = optimkit.OptimizerConfig(seed=seeds[0], **self.OPTIMIZER)
        res = optimkit.vqgo(self.target, sources, cfg=cfg)
        u = ansatz.build_circuit(res.best_params, sources)
        return res, _certify(u, self.r_target, self.plan, seeds[1])

    def check(self, c, out):
        res, estimate = out
        case = self.cases[c]
        u = oracles.circuit(res.best_params, self.oracle_sources[case])
        agi = oracles.agi(self.oracle_target, u)
        problems = []
        if agi > 0.01:
            problems.append(f"{case}: AGI {agi:.4g} > 0.01")
        if abs(agi - res.best_cost) > 1e-9:
            problems.append(f"{case}: stated AGI {res.best_cost:.12g}, recomputed {agi:.12g}")
        if abs(estimate - (1.0 - agi)) > DFE_TOLERANCE:
            problems.append(f"{case}: DFE estimate {estimate:.4f} vs AGF {1.0 - agi:.4f}")
        if len(self.sources[case]) * T_OPT_NS != 150.0:
            problems.append(f"{case}: total source time is not 150 ns")
        return problems


WORKLOADS = {w.name: w for w in (CnotSweep, Parity5q)}
