"""End-to-end acceptance checks. Each test exercises one headline
capability at its stated tolerance and prints a single PASS/FAIL line;
run with -s (or read failure output) to see them all.

Budgets are trimmed to what the checks need: multistart optimizers stop
early once they are comfortably under the bar, and sweep-style checks
use the smallest grids that still exercise the claim.
"""

import json
from importlib import resources

import numpy as np

from gatesynth import cli
from gatesynth.analysis import (
    canonical_gate,
    cartan_coordinates,
    entangling_power,
    entangling_power_mc,
    operator_schmidt,
)
from gatesynth.ansatz import agi_cost, parameter_shift_gradient, random_params
from gatesynth.channels import CNOT, SWAP, agf_from_ptms, agf_unitary, agi, ptm
from gatesynth.devices import (
    CrossResonancePair,
    DriveSpec,
    FourQubitDevice,
    cr_gate,
    four_cr_gate,
    load_device,
    syndrome_target,
    tpcx,
)
from gatesynth.dfe import DfeSamplingConfig, dfe_estimate, dfe_plan
from gatesynth.numkit import derive_rng, derive_seed, expm_hermitian, haar_unitary
from gatesynth.optimkit import (
    AmplitudeBounds,
    OptimizerConfig,
    concatenated_optimize,
    minimize_derivative_free,
    vqgo,
)


def _report(num, ok, detail):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_fidelity_path_equivalence():
    rng = derive_rng(1)
    worst_ptm = worst_dfe = 0.0
    for _ in range(100):
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        f_closed = agf_unitary(u, v)
        r_u = ptm(u)
        worst_ptm = max(worst_ptm, abs(f_closed - agf_from_ptms(r_u, ptm(v))))
        f_dfe = dfe_estimate(v, r_u, dfe_plan(r_u))
        worst_dfe = max(worst_dfe, abs(f_closed - f_dfe))
    ok = worst_ptm < 1e-10 and worst_dfe < 1e-10
    assert _report(
        1, ok,
        f"100 unitary pairs: closed form vs PTM overlap {worst_ptm:.2e}, "
        f"vs exact fidelity estimator {worst_dfe:.2e} (tolerance 1e-10)",
    )


def test_criterion_02_gradient_matches_finite_differences():
    step = 1e-6
    worst = 0.0
    for trial in range(50):
        rng = derive_rng(2, trial)
        sources = [haar_unitary(4, rng), haar_unitary(4, rng)]
        target = haar_unitary(4, rng)
        theta = random_params(2, 2, rng)
        grad = parameter_shift_gradient(theta, sources, target)
        fd = np.zeros_like(grad)
        for idx in np.ndindex(theta.shape):
            tp, tm = theta.copy(), theta.copy()
            tp[idx] += step
            tm[idx] -= step
            fd[idx] = (
                agi_cost(tp, sources, target) - agi_cost(tm, sources, target)
            ) / (2 * step)
        worst = max(worst, float(np.abs(grad - fd).max()))
    ok = worst < 1e-5
    assert _report(
        2, ok,
        f"50 random (n=2, d=2) instances: max |shift-rule - central FD| "
        f"= {worst:.2e} (tolerance 1e-5)",
    )


def test_criterion_03_depth3_universality():
    sources = [CNOT, CNOT, CNOT]
    worst = 0.0
    for k in range(20):
        u = haar_unitary(4, derive_rng(3, k))
        u = u / np.linalg.det(u) ** 0.25
        cfg = OptimizerConfig(
            restarts=8, max_iterations=2000, gradient_tolerance=1e-9,
            cost_tolerance=1e-14, seed=derive_seed(3, k), stop_below=1e-8,
        )
        res = vqgo(u, sources, cfg=cfg)
        worst = max(worst, res.best_cost)
    ok = worst < 1e-6
    assert _report(
        3, ok,
        f"20 Haar SU(4) targets from three ideal CNOT sources: worst AGI "
        f"= {worst:.2e} (tolerance 1e-6, <= 8 restarts)",
    )


def test_criterion_04_entangling_power():
    exact_err = max(
        abs(entangling_power(CNOT) - 2.0 / 9.0),
        abs(entangling_power(SWAP)),
        abs(entangling_power(np.eye(4))),
    )
    batches, per_batch = 20, 5000  # 1e5 samples per gate
    worst_sigma = 0.0
    for k in range(10):
        u = haar_unitary(4, derive_rng(4, k))
        analytic = entangling_power(u)
        means = np.array([
            entangling_power_mc(u, per_batch, derive_rng(4, k, b))
            for b in range(batches)
        ])
        se = means.std(ddof=1) / np.sqrt(batches)
        worst_sigma = max(worst_sigma, abs(means.mean() - analytic) / se)
    ok = exact_err < 1e-12 and worst_sigma < 3.0
    assert _report(
        4, ok,
        f"analytic corner error {exact_err:.2e} (tolerance 1e-12); "
        f"Monte-Carlo vs analytic worst deviation {worst_sigma:.2f} standard "
        f"errors on 10 gates (limit 3)",
    )


def test_criterion_05_cartan_corners_and_roundtrip():
    pi4 = np.pi / 4
    corner_err = max(
        float(np.abs(cartan_coordinates(np.eye(4))).max()),
        float(np.abs(cartan_coordinates(SWAP) - pi4).max()),
        float(np.abs(cartan_coordinates(CNOT) - [pi4, 0.0, 0.0]).max()),
    )
    worst = 0.0
    for k in range(50):
        u = haar_unitary(4, derive_rng(5, k))
        c = cartan_coordinates(u)
        cfg = OptimizerConfig(
            restarts=12, max_iterations=3000, gradient_tolerance=1e-11,
            cost_tolerance=1e-16, seed=derive_seed(5, k), stop_below=1e-9,
        )
        res = vqgo(u, [canonical_gate(c)], cfg=cfg)
        worst = max(worst, res.best_cost)
    ok = corner_err < 1e-9 and worst < 1e-8
    assert _report(
        5, ok,
        f"identity/SWAP/CNOT corner coordinates within {corner_err:.2e}; "
        f"50-gate canonical round-trip worst AGI {worst:.2e} (tolerance 1e-8)",
    )


def test_criterion_06_cnot_synthesis_with_crosstalk():
    t_opt = 75.0
    agis = {}
    for case_idx, eps in enumerate([0.0, 0.1, 1.0]):
        pair = CrossResonancePair(200.0, 5.0, eps, np.pi / 4)
        factory = lambda w, p=pair: [cr_gate(p, DriveSpec(float(w[0]), t_opt))] * 2
        cfg = OptimizerConfig(
            restarts=2, max_iterations=600, gradient_tolerance=1e-8,
            cost_tolerance=1e-13, seed=derive_seed(6, case_idx), stop_below=1e-6,
        )
        _, res, _ = concatenated_optimize(
            CNOT, factory, [50.0], AmplitudeBounds(), cfg,
            outer_maxiter=20, max_sweeps=2,
        )
        agis[eps] = res.best_cost
    worst = max(agis.values())
    ok = worst <= 1e-3
    assert _report(
        6, ok,
        "CNOT from CR sources at t=75 ns, amplitude+angle optimized: AGI "
        + ", ".join(f"eps={e:g}: {v:.2e}" for e, v in agis.items())
        + " (bar 1e-3 for all cases)",
    )


def test_criterion_07_echoed_cr_baseline():
    t_opt = 75.0
    agis = {}
    for eps in [0.0, 0.1, 1.0]:
        pair = CrossResonancePair(200.0, 5.0, eps, np.pi / 4)
        w, _, _ = minimize_derivative_free(
            lambda x, p=pair: agi(CNOT, tpcx(p, float(x[0]), t_opt)),
            [50.0], [(0.0, 200.0)], 300,
        )
        agis[eps] = agi(CNOT, tpcx(pair, float(w[0]), t_opt))
    ok = (
        0.01 <= agis[0.0] <= 0.07
        and agis[0.1] / agis[0.0] >= 3.0
        and agis[1.0] >= agis[0.1] * 0.9
    )
    assert _report(
        7, ok,
        f"echoed-CR baseline at t=75 ns: AGI(0)={agis[0.0]:.4f} in [0.01,0.07], "
        f"AGI(0.1)/AGI(0)={agis[0.1] / agis[0.0]:.2f} >= 3, "
        f"AGI(1.0)={agis[1.0]:.4f} >= 0.9*AGI(0.1)={0.9 * agis[0.1]:.4f}",
    )


def test_criterion_08_syndrome_extraction():
    dev_base, _ = load_device(
        resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    )
    t_opt, depth = 75.0, 2
    target = syndrome_target()
    agis = {}
    for case_idx, scale in enumerate([0.0, 1.0]):
        dev = FourQubitDevice(tuple(
            CrossResonancePair(p.delta, p.g, p.eps * scale, p.phi)
            for p in dev_base.pairs
        ))
        factory = lambda w, d=dev: [
            four_cr_gate(d, np.asarray(w, dtype=float), t_opt)
        ] * depth
        cfg = OptimizerConfig(
            restarts=2, max_iterations=600, gradient_tolerance=1e-7,
            cost_tolerance=1e-12, seed=derive_seed(8, case_idx), stop_below=3e-3,
        )
        _, res, _ = concatenated_optimize(
            target, factory, [80.0, 80.0, 80.0, 80.0], AmplitudeBounds(),
            cfg, outer_maxiter=10, max_sweeps=1,
        )
        agis[scale] = res.best_cost
    source_time = depth * t_opt
    ok = max(agis.values()) <= 0.01 and source_time == 150.0
    assert _report(
        8, ok,
        f"four-qubit parity extraction at t=75 ns: AGI crosstalk-off "
        f"{agis[0.0]:.2e}, crosstalk-on {agis[1.0]:.2e} (bar 0.01); total "
        f"source time {source_time:g} ns (required 150)",
    )


def test_criterion_09_cartan_region_map():
    axis = np.linspace(0.0, np.pi / 4, 5)
    pi8 = np.pi / 8
    straddle_failures = []
    worst_straddle = 0.0
    corner_agf = {}
    for ix, cx in enumerate(axis):
        for iy, cy in enumerate(axis):
            for iz, cz in enumerate(axis):
                c = (cx, cy, cz)
                all_above = all(v > pi8 for v in c)
                all_below = all(v < pi8 for v in c)
                is_corner = (ix, iy, iz) in ((0, 0, 0), (4, 4, 4))
                if (all_above or all_below) and not is_corner:
                    continue  # interior of the excluded region: no claim
                gate = canonical_gate(c)
                cfg = OptimizerConfig(
                    restarts=4, max_iterations=1500, gradient_tolerance=1e-9,
                    cost_tolerance=1e-13, seed=derive_seed(9, ix, iy, iz),
                    stop_below=1e-4,
                )
                res = vqgo(CNOT, [gate, gate], cfg=cfg)
                if is_corner:
                    corner_agf[(ix, iy, iz)] = 1.0 - res.best_cost
                else:
                    worst_straddle = max(worst_straddle, res.best_cost)
                    if not (1.0 - res.best_cost > 0.999):
                        straddle_failures.append((c, res.best_cost))
    straddle_ok = not straddle_failures
    # at both corners (identity, SWAP up to phase) the depth-2 circuit is a
    # product of single-qubit gates; Cauchy-Schwarz on CNOT's operator-Schmidt
    # decomposition bounds |Tr(CNOT^dag (A (x) B))|^2 <= 4 * lambda_max, so
    # the product-gate AGF ceiling is (lambda_max + 1) / 5 (= 0.6, attained)
    corner_bar = (max(operator_schmidt(CNOT)) + 1.0) / 5.0
    corner_ok = all(f <= corner_bar + 1e-9 for f in corner_agf.values())
    corners = ", ".join(f"{k}: {v:.4f}" for k, v in corner_agf.items())
    _report(
        9, straddle_ok and corner_ok,
        f"5x5x5 canonical grid, depth 2 vs CNOT: worst straddle-region AGF "
        f"{1.0 - worst_straddle:.6f} (bar > 0.999, {'ok' if straddle_ok else 'FAILED'}); "
        f"corner AGF {corners} (product-gate bar <= {corner_bar:.4f})",
    )
    assert straddle_ok, f"straddle points under 0.999: {straddle_failures}"
    assert corner_ok, (
        f"corner points reached AGF {corners}, above the product-gate "
        f"ceiling (lambda_max + 1)/5 = {corner_bar:.4f} from CNOT's operator "
        f"Schmidt spectrum: the depth-2 circuit at the identity and SWAP "
        f"corners must not entangle."
    )


def test_criterion_10_sampled_dfe_guarantee():
    rng = derive_rng(9)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    channel = expm_hermitian(h, 0.05) @ CNOT
    r_target = ptm(CNOT)
    exact = agf_unitary(CNOT, channel)
    plan = dfe_plan(r_target)
    cfg = DfeSamplingConfig(eps_fail=0.05, delta_acc=0.05)
    hits = 0
    for trial in range(100):
        est = dfe_estimate(channel, r_target, plan, cfg=cfg,
                           rng=derive_rng(100, trial))
        if abs(est - exact) <= 0.05:
            hits += 1
    ok = hits >= 90
    assert _report(
        10, ok,
        f"sampled fidelity estimation (eps_fail=delta_acc=0.05, "
        f"{cfg.num_settings()} single-shot settings) on a near-CNOT channel "
        f"(exact AGF {exact:.5f}): {hits}/100 trials within 0.05 (need >= 90)",
    )


def test_criterion_11_determinism(tmp_path):
    def run_twice(args_fn):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}_{args_fn.__name__}"
            assert cli.main(args_fn(str(out))) == 0
            outs.append(out)
        return outs

    def strip_header(path):
        return "".join(
            line for line in open(path) if not line.startswith("#")
        )

    results = {}

    cnot_cfg = tmp_path / "cnot.json"
    cnot_cfg.write_text(json.dumps({
        "eps_cases": [0.0, 1.0],
        "t_start_ns": 60.0, "t_stop_ns": 90.0, "t_step_ns": 15.0,
        "outer_maxiter": 4, "max_sweeps": 1,
        "optimizer": {"restarts": 1, "max_iterations": 60,
                      "gradient_tolerance": 1e-6},
    }))

    def cnot_sweep(out):
        return ["cnot-sweep", "--config", str(cnot_cfg), "--output", out]

    a, b = run_twice(cnot_sweep)
    results["cnot_sweep"] = strip_header(a) == strip_header(b)

    synd_cfg = tmp_path / "synd.json"
    synd_cfg.write_text(json.dumps({
        "crosstalk_cases": [0.0, 1.0],
        "t_start_ns": 75.0, "t_stop_ns": 75.0, "t_step_ns": 75.0,
        "outer_maxiter": 6, "max_sweeps": 1,
        "optimizer": {"restarts": 1, "max_iterations": 25,
                      "gradient_tolerance": 1e-5},
    }))

    def syndrome_sweep(out):
        return ["syndrome-sweep", "--config", str(synd_cfg), "--output", out]

    a, b = run_twice(syndrome_sweep)
    results["syndrome_sweep"] = strip_header(a) == strip_header(b)

    single_cfg = tmp_path / "single.json"
    single_cfg.write_text(json.dumps({
        "target": {"kind": "random_su4", "seed": 11},
        "sources": [{"kind": "cnot"}, {"kind": "cnot"}, {"kind": "cnot"}],
        "optimizer": {"restarts": 2, "max_iterations": 300},
    }))

    def single_optimize(out):
        return ["single-optimize", "--config", str(single_cfg), "--output", out]

    a, b = run_twice(single_optimize)
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for volatile in ("timestamp", "wall_time_s"):
        ra.pop(volatile), rb.pop(volatile)
    results["single_optimize"] = ra == rb

    ok = all(results.values())
    assert _report(
        11, ok,
        "re-running artifact commands reproduces bodies byte-identically: "
        + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in results.items()),
    )
