"""Optimizers: quasi-Newton descent, bounded derivative-free search, the
multistart circuit synthesizer, and the two-level amplitude search."""

import hashlib
import warnings
import weakref
from collections import deque
from importlib import resources

import numpy as np
import pytest

from gatesynth import ansatz, cli, devices, optimkit
from gatesynth.analysis import cartan_coordinates
from gatesynth.ansatz import (
    agi_cost,
    parameter_shift_gradient,
    random_params,
    wrap_angles,
)
from gatesynth.channels import CNOT, SIGMA_X, SWAP, agi
from gatesynth.devices import CrossResonancePair, DriveSpec, cr_gate
from gatesynth.numkit import derive_rng, derive_seed, expm_hermitian
from reference import dfe_descent, remember_pair, two_loop_direction


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        optimkit.OptimizerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        optimkit.OptimizerConfig(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        optimkit.OptimizerConfig(cost_tolerance=-1.0)
    with pytest.raises(ValueError):
        optimkit.OptimizerConfig(restarts=0)
    for field, value in (("restarts", 2.5), ("max_iterations", True), ("seed", "1")):
        with pytest.raises(TypeError, match=field):
            optimkit.OptimizerConfig(**{field: value})
    for field in ("max_iterations", "restarts"):
        with pytest.raises(ValueError, match=field):
            optimkit.OptimizerConfig(**{field: 10**400})
    with pytest.raises(ValueError, match="seed"):
        optimkit.OptimizerConfig(seed=-1)
    assert optimkit.OptimizerConfig(seed=np.uint32(7)).seed == 7
    assert optimkit.OptimizerConfig(seed=2**64 - 1).seed == 2**64 - 1  # derive_seed's range
    for field in ("gradient_tolerance", "cost_tolerance", "stop_below"):
        for value in (np.nan, np.inf, -np.inf, True, "1e-9", 10**400):
            with pytest.raises(ValueError, match=field):
                optimkit.OptimizerConfig(**{field: value})
    assert optimkit.OptimizerConfig(stop_below=np.float64(1e-3)).stop_below == 1e-3


def test_amplitude_bounds():
    b = optimkit.AmplitudeBounds()
    assert b.pairs(4) == [(0.0, 200.0)] * 4
    with pytest.raises(ValueError):
        optimkit.AmplitudeBounds(lower=5.0, upper=5.0)
    with pytest.raises(ValueError):
        optimkit.AmplitudeBounds(lower=-1.0, upper=10.0)
    for lower, upper, field in ((0.0, np.inf, "upper"), (np.nan, 10.0, "lower"),
                                (0.0, 10**400, "upper")):
        with pytest.raises(ValueError, match=field):
            optimkit.AmplitudeBounds(lower=lower, upper=upper)


def _quadratic(dim, seed):
    rng = derive_rng(50, seed)
    m = rng.normal(size=(dim, dim))
    a = m @ m.T + dim * np.eye(dim)
    b = rng.normal(size=dim)
    sol = np.linalg.solve(a, b)

    def f(x):
        return 0.5 * x @ a @ x - b @ x

    def g(x):
        return a @ x - b

    return f, g, sol


def test_quasi_newton_quadratic():
    f, g, sol = _quadratic(6, 0)
    x, fx, diag = optimkit.minimize_quasi_newton(f, g, np.zeros(6))
    assert np.abs(x - sol).max() < 1e-8
    assert diag["converged"]


@pytest.mark.parametrize("size", [6, 18, 45])
def test_quasi_newton_direction_is_the_two_loop_recursion(size):
    # pairs from a quadratic of condition 100 fill the memory, fill it exactly,
    # wrap past it and, once, fail the curvature test; at each length the
    # compact form's direction is the two-loop recursion's to rounding
    rng = derive_rng(41, size)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    hessian = q @ np.diag(np.logspace(-1, 1, size)) @ q.T
    pairs = deque(maxlen=optimkit.LBFGS_MEMORY)
    memory = optimkit._no_pairs(size)
    lengths = []
    for k in range(2 * optimkit.LBFGS_MEMORY + 3):
        for g in rng.standard_normal((3, size)):
            expected = two_loop_direction(g, pairs)
            gap = np.linalg.norm(optimkit._lbfgs_direction(g, memory) - expected)
            assert gap <= 1e-13 * np.linalg.norm(expected), (k, len(pairs))
        s = rng.standard_normal(size)
        y = -s if k == optimkit.LBFGS_MEMORY // 2 else hessian @ s
        remember_pair(pairs, s, y)
        memory = optimkit._remember(memory, s, y)
        assert len(memory[2]) == len(pairs)
        lengths.append(len(pairs))
    m = optimkit.LBFGS_MEMORY
    assert lengths[m // 2] == lengths[m // 2 - 1] and lengths[-1] == m and lengths.count(m) > 3


def test_quasi_newton_rosenbrock():
    def f(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def g(x):
        return np.array([
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ])

    x, fx, diag = optimkit.minimize_quasi_newton(f, g, np.array([-1.2, 1.0]))
    assert np.abs(x - 1.0).max() < 1e-6
    assert fx < 1e-12


def test_quasi_newton_stationary_start():
    f, g, sol = _quadratic(4, 1)
    x, fx, diag = optimkit.minimize_quasi_newton(f, g, sol)
    assert diag["iterations"] == 0
    assert diag["converged"] and diag["reason"] == "grad_tol"
    assert (diag["nfev"], diag["ngev"]) == (1, 1)
    assert np.array_equal(x, sol)


def test_quasi_newton_rejects_non_finite():
    def f(x):
        return np.nan

    def g(x):
        return np.zeros(2)

    with pytest.raises(ValueError):
        optimkit.minimize_quasi_newton(f, g, np.zeros(2))


def _nan_after_first_call(gradient):
    """gradient, whose every answer after its first is NaN."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        value = gradient(*args, **kwargs)
        return value if len(calls) == 1 else np.full_like(value, np.nan)
    return wrapped


def test_non_finite_gradient_during_descent_is_rejected(monkeypatch):
    grad = _nan_after_first_call(lambda x: 2 * x)
    with pytest.raises(ValueError, match="^non-finite gradient during descent$"):
        optimkit.minimize_quasi_newton(lambda x: float(x @ x), grad, np.array([1.0, -2.0]))
    kernel, gradients = optimkit.pass_costs_and_gradients, _nan_after_first_call(lambda g: g)

    def nan_kernel(*args):
        costs, grads = kernel(*args)
        return costs, gradients(grads)
    monkeypatch.setattr(optimkit, "pass_costs_and_gradients", nan_kernel)
    cfg = optimkit.OptimizerConfig(restarts=2, max_iterations=50)
    with pytest.raises(ValueError, match="^restart 0: non-finite gradient during descent$"):
        optimkit.vqgo(CNOT, [CNOT], cfg=cfg)


def test_quasi_newton_quadratic_termination_budget(monkeypatch):
    # with memory >= dimension the parabola line search is exact on
    # quadratics, so descent finishes in at most dim + 5 iterations
    for dim in [2, 5, 10, 20]:
        f, g, sol = _quadratic(dim, dim)
        monkeypatch.setattr(optimkit, "LBFGS_MEMORY", dim)
        cfg = optimkit.OptimizerConfig(gradient_tolerance=1e-8)
        x, fx, diag = optimkit.minimize_quasi_newton(f, g, np.zeros(dim), cfg)
        assert diag["converged"]
        assert diag["iterations"] <= dim + 5
        assert np.abs(x - sol).max() < 1e-6


def test_quasi_newton_unit_step_costs_once_above_the_memory():
    # above LBFGS_MEMORY parameters an Armijo unit step is taken without the
    # parabola trial; at or below it every step also costs that trial
    assert optimkit.LBFGS_MEMORY < 20
    f, g, sol = _quadratic(20, 20)
    x, fx, diag = optimkit.minimize_quasi_newton(f, g, np.zeros(20))
    assert diag["converged"]
    assert diag["nfev"] <= diag["iterations"] + 3
    assert np.abs(x - sol).max() < 1e-6
    f, g, sol = _quadratic(6, 6)
    x, fx, diag = optimkit.minimize_quasi_newton(f, g, np.zeros(6))
    assert diag["nfev"] == 2 * diag["iterations"] + 1
    assert np.abs(x - sol).max() < 1e-8


def test_quasi_newton_history_is_monotone():
    def f(x):
        return np.sum(np.cos(x) + 0.1 * x**2)

    def g(x):
        return -np.sin(x) + 0.2 * x

    x0 = derive_rng(51).uniform(-3, 3, size=8)
    x, fx, diag = optimkit.minimize_quasi_newton(f, g, x0)
    hist = np.array(diag["cost_history"])
    assert np.all(np.diff(hist) <= 0)
    assert hist[-1] == fx


def test_quasi_newton_reason_cost_tol():
    # any accepted step improves by less than a huge cost tolerance
    f, g, sol = _quadratic(4, 2)
    cfg = optimkit.OptimizerConfig(cost_tolerance=1e6)
    x, fx, diag = optimkit.minimize_quasi_newton(f, g, np.zeros(4), cfg)
    assert diag["reason"] == "cost_tol" and diag["converged"]
    assert diag["iterations"] == 1
    assert diag["ngev"] == 2 and diag["nfev"] >= 2


def test_quasi_newton_reason_line_search():
    # the start is the kink of |x|_1 at the origin, where the stated
    # gradient gives no descent direction: every trial step raises the cost
    x0 = np.zeros(2)

    def f(x):
        return float(np.abs(x).sum())

    def g(x):
        return np.ones(2)

    x, fx, diag = optimkit.minimize_quasi_newton(f, g, x0)
    assert diag["reason"] == "line_search" and not diag["converged"]
    assert np.array_equal(x, x0) and diag["iterations"] == 1
    assert diag["ngev"] == 1 and diag["nfev"] > 60


def test_quasi_newton_vanished_step_is_line_search():
    # away from the origin the backtracked steps round to nothing: x + t*p
    # equals x, so the accepted "step" does not move and is no convergence
    x0 = np.array([1.0, -2.0])

    def f(x):
        return float(np.abs(x - x0).sum())

    def g(x):
        return np.ones(2)

    x, fx, diag = optimkit.minimize_quasi_newton(f, g, x0)
    assert diag["reason"] == "line_search" and not diag["converged"]
    assert np.array_equal(x, x0) and fx == 0.0
    assert diag["iterations"] == 1 and diag["ngev"] == 1


def test_quasi_newton_reason_budget():
    def f(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def g(x):
        return np.array([
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ])

    calls = {"f": 0, "g": 0}

    def counted(fn, key):
        def wrapped(x):
            calls[key] += 1
            return fn(x)
        return wrapped

    cfg = optimkit.OptimizerConfig(max_iterations=3)
    x, fx, diag = optimkit.minimize_quasi_newton(
        counted(f, "f"), counted(g, "g"), np.array([-1.2, 1.0]), cfg)
    assert diag["reason"] == "budget" and not diag["converged"]
    assert diag["iterations"] == 3
    assert (diag["nfev"], diag["ngev"]) == (calls["f"], calls["g"])
    assert diag["ngev"] == 4


def test_derivative_free_quadratic():
    def f(x):
        return (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2

    x, fx, diag = optimkit.minimize_derivative_free(
        f, [0.0, 0.0], [(-10, 10), (-10, 10)], 5000
    )
    assert np.abs(x - [3.0, -1.0]).max() < 1e-3
    assert diag["iterations"] > 0


def test_derivative_free_minimum_at_bound():
    def f(x):
        return (x[0] - 50.0) ** 2

    x, fx, diag = optimkit.minimize_derivative_free(f, [5.0], [(0.0, 20.0)], 5000)
    assert abs(x[0] - 20.0) < 1e-6


def test_derivative_free_never_reports_out_of_bounds():
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.sum(x**2)

    x, fx, diag = optimkit.minimize_derivative_free(
        f, [4.0, 4.0], [(1.0, 8.0), (1.0, 8.0)], 5000
    )
    pts = np.array(seen)
    assert pts.min() >= 1.0 - 1e-12 and pts.max() <= 8.0 + 1e-12
    assert np.all(x >= 1.0) and np.all(x <= 8.0)
    assert abs(x[0] - 1.0) < 1e-6 and abs(x[1] - 1.0) < 1e-6


def test_derivative_free_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimkit.minimize_derivative_free(lambda x: x[0], [0.0], [(0.0, np.inf)], 5000)
    with pytest.raises(ValueError):
        optimkit.minimize_derivative_free(lambda x: np.nan, [0.5], [(0.0, 1.0)], 5000)
    calls = []
    for x0 in ([1.5], [-0.1], [np.nan]):
        with pytest.raises(ValueError, match="outside the bounds"):
            optimkit.minimize_derivative_free(calls.append, x0, [(0.0, 1.0)], 5000)
    assert calls == []


def test_derivative_free_rejects_a_budget_below_the_least_before_any_evaluation():
    calls = []
    with pytest.raises(ValueError, match=r"max_evaluations 2 is below 3, .* over 1 variable"):
        optimkit.minimize_derivative_free(calls.append, [0.5], [(0.0, 1.0)], 2)
    assert calls == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, diag = optimkit.minimize_derivative_free(
            lambda x: float(x[0]), [0.5], [(0.0, 1.0)], optimkit.least_evaluations(1))
    assert diag["iterations"] == 3

# boxes whose narrowest side is under 4 * COBYLA_FINAL_RADIUS: COBYLA's start
# radius, a quarter of it, would be below its final radius
_NARROW_BOXES = [
    [(0.0, 1e-15)],
    [(0.0, 1e-9)],
    [(0.0, 3.9e-8)],
    [(1e6, 1e6 + 1e-9)],
    [(0.0, 200.0), (0.0, 1e-9), (0.0, 200.0), (0.0, 200.0)],
]


@pytest.mark.parametrize("box", _NARROW_BOXES)
def test_derivative_free_rejects_a_box_too_narrow_before_any_evaluation(box):
    calls = []
    with pytest.raises(ValueError, match="narrower than 4e-08"):
        optimkit.minimize_derivative_free(calls.append, [lo for lo, _ in box], box, 5000)
    assert calls == []
    if len(box) == 1:
        with pytest.raises(ValueError, match="narrower than 4e-08"):
            optimkit.AmplitudeBounds(*box[0])


@pytest.mark.parametrize("lower", [0.0, 1.0, 1e6])
@pytest.mark.parametrize("amplitudes", [1, 4])
def test_derivative_free_searches_the_narrowest_box_without_a_warning(lower, amplitudes):
    upper = lower + 4 * optimkit.COBYLA_FINAL_RADIUS
    while upper - lower < 4 * optimkit.COBYLA_FINAL_RADIUS:  # the narrowest box of floats
        upper = np.nextafter(upper, np.inf)
    with pytest.raises(ValueError, match="narrower than 4e-08"):
        optimkit.AmplitudeBounds(lower, np.nextafter(upper, -np.inf))
    box = optimkit.AmplitudeBounds(lower, upper).pairs(amplitudes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _, diag = optimkit.minimize_derivative_free(
            lambda x: float(np.sum(x)), [upper] * amplitudes, box,
            optimkit.least_evaluations(amplitudes))
    assert 1 <= diag["iterations"] <= optimkit.least_evaluations(amplitudes)
    assert np.all((lower <= x) & (x <= upper))


def test_vqgo_exact_source():
    cfg = optimkit.OptimizerConfig(restarts=2, max_iterations=600, seed=3)
    res = optimkit.vqgo(CNOT, [CNOT], cfg=cfg)
    assert res.best_cost < 1e-9
    assert res.best_params.shape == (2, 2, 3)
    assert res.best_params.min() >= 0.0 and res.best_params.max() < 2 * np.pi
    assert res.restart_index in (0, 1)
    assert res.iterations_used > 0


def test_vqgo_swap_source_cannot_reach_cnot():
    # a single SWAP layer plus local rotations cannot realize CNOT
    cfg = optimkit.OptimizerConfig(restarts=3, max_iterations=400, seed=4)
    res = optimkit.vqgo(CNOT, [SWAP], cfg=cfg)
    assert res.best_cost > 0.05


def test_vqgo_cost_matches_circuit():
    from gatesynth.ansatz import build_circuit

    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=200, seed=5)
    res = optimkit.vqgo(CNOT, [CNOT, CNOT], cfg=cfg)
    u = build_circuit(res.best_params, [CNOT, CNOT])
    assert abs(agi(CNOT, u) - res.best_cost) < 1e-12


def test_vqgo_deterministic():
    cfg = optimkit.OptimizerConfig(restarts=2, max_iterations=150, seed=6)
    a = optimkit.vqgo(CNOT, [CNOT], cfg=cfg)
    b = optimkit.vqgo(CNOT, [CNOT], cfg=cfg)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.best_cost == b.best_cost
    assert a.iterations_used == b.iterations_used


def test_vqgo_stop_below_skips_restarts():
    cfg = optimkit.OptimizerConfig(restarts=6, max_iterations=400, seed=3,
                                   stop_below=1e-8)
    res = optimkit.vqgo(CNOT, [CNOT], cfg=cfg)
    assert res.best_cost < 1e-8
    assert res.restart_index == 0  # first start already clears the bar
    full = optimkit.vqgo(CNOT, [CNOT],
                         cfg=optimkit.OptimizerConfig(restarts=6,
                                                      max_iterations=400, seed=3))
    assert res.iterations_used < full.iterations_used
    with pytest.raises(ValueError):
        optimkit.OptimizerConfig(stop_below=0.0)


def _serial_vqgo(target, sources, cfg):
    """vqgo written out with minimize_quasi_newton on agi_cost and the exact
    parameter_shift_gradient: the reference for the lockstep driver."""
    n, d = int(np.log2(len(target))), len(sources)
    cost = lambda theta: agi_cost(theta, sources, target)
    gradient = lambda theta: parameter_shift_gradient(theta, sources, target)
    runs = []
    for r in range(cfg.restarts):
        x0 = random_params(n, d, derive_rng(cfg.seed, r)).ravel()
        x, fx, diag = optimkit.minimize_quasi_newton(
            lambda x: cost(x.reshape(d + 1, n, 3)),
            lambda x: gradient(x.reshape(d + 1, n, 3)).ravel(),
            x0, cfg)
        runs.append((x, fx, diag, r))
        if cfg.stop_below is not None and min(run[1] for run in runs) < cfg.stop_below:
            break
    x, fx, diag, r = min(runs, key=lambda run: run[1])
    theta = wrap_angles(x.reshape(d + 1, n, 3))
    return theta, cost(theta), diag, r, runs


def test_vqgo_batch_rows_match_each_design_alone():
    pair = CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    times = (40.0, 60.0, 75.0, 90.0, 120.0)
    sources = [[cr_gate(pair, DriveSpec(60.0, t))] * 2 for t in times]
    # stop_below makes some designs drop out after one restart, others not
    cfgs = [optimkit.OptimizerConfig(restarts=2, max_iterations=80, seed=k, stop_below=1e-3)
            for k in range(len(times))]
    batch = optimkit.vqgo_batch(CNOT, sources, cfgs)
    assert len({res.iterations_used for res in batch}) > 1
    for src, cfg, res in zip(sources, cfgs, batch):
        alone = optimkit.vqgo(CNOT, src, cfg=cfg)
        assert res.best_params.tobytes() == alone.best_params.tobytes()
        assert (res.best_cost, res.iterations_used, res.restart_index, res.converged,
                res.cost_history) == (alone.best_cost, alone.iterations_used,
                                      alone.restart_index, alone.converged, alone.cost_history)
        theta, cost, diag, r, runs = _serial_vqgo(CNOT, src, cfg)
        assert res.best_params.tobytes() == theta.tobytes() and res.best_cost == cost
        assert res.restart_index == r and res.cost_history == diag["cost_history"]
        assert res.iterations_used == sum(run[2]["iterations"] for run in runs)


def test_vqgo_batch_of_no_designs_is_empty():
    assert optimkit.vqgo_batch(CNOT, [], []) == []


def test_vqgo_batch_releases_a_finished_designs_passes(monkeypatch):
    # one design stops after one iteration, the other runs on: no pass of any round,
    # the short design's included, is still alive when the next round's pass is built
    pair = CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    short_sources, long_sources = ([cr_gate(pair, DriveSpec(60.0, t))] * 2 for t in (40.0, 75.0))
    build = ansatz.circuit_pass
    made, calls = [], []  # weakrefs to each pass's arrays; per call (short row in it, alive)

    def tracked(theta, sources):
        short = any(np.array_equal(s, short_sources) for s in sources)
        calls.append((short, sum(ref() is not None for ref in made)))
        steps, ahead = build(theta, sources)
        made.append(weakref.ref(ahead))
        return steps, ahead

    monkeypatch.setattr(ansatz, "circuit_pass", tracked)
    cfgs = [optimkit.OptimizerConfig(restarts=1, max_iterations=m, seed=3) for m in (1, 60)]
    short, long = optimkit.vqgo_batch(CNOT, [short_sources, long_sources], cfgs)
    assert short.iterations_used == 1 and long.iterations_used > 10
    last_short = max(k for k, (has_short, _) in enumerate(calls) if has_short)
    later = [alive for _, alive in calls[last_short + 1:]]
    assert len(later) > 10 and max(alive for _, alive in calls) == 0


def test_vqgo_batch_answers_every_designs_gradient_in_one_round(monkeypatch):
    # each round is one pass_costs_and_gradients over every active design, which builds one
    # circuit pass, so a design takes part in as many rounds as it asks for points (the costs of
    # its restarts and its final cost), and the batch runs as many as its hungriest design
    pair = CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    sources = [[cr_gate(pair, DriveSpec(60.0, t))] * 2 for t in (40.0, 75.0, 120.0)]
    cfgs = [optimkit.OptimizerConfig(restarts=2, max_iterations=40, seed=k) for k in range(3)]
    build, gradient, passes, gradients = (ansatz.circuit_pass,
                                          optimkit.pass_costs_and_gradients, [], [])

    def built(theta, stacked):
        passes.append(len(theta))
        return build(theta, stacked)

    def counted(theta, stacked, target):
        gradients.append(len(theta))
        return gradient(theta, stacked, target)

    monkeypatch.setattr(ansatz, "circuit_pass", built)
    monkeypatch.setattr(optimkit, "pass_costs_and_gradients", counted)
    batch = optimkit.vqgo_batch(CNOT, sources, cfgs)
    points = [sum(run["nfev"] for run in res.restart_diagnostics) + 1 for res in batch]
    assert len(set(points)) > 1
    assert gradients == passes == [sum(p > k for p in points) for k in range(max(points))]
    assert all(run["ngev"] <= run["nfev"] for res in batch for run in res.restart_diagnostics)


def test_vqgo_reaches_cnot_exactly_when_the_source_straddles_pi_over_8():
    # the rule of criterion 09 as an oracle the optimizer does not share: depth-2
    # synthesis of CNOT from two copies of a gate succeeds iff the gate's canonical
    # coordinates are neither all above nor all below pi/8. The 75 ns, eps 0.1 CR
    # gate starts to straddle between 100 and 110 MHz; each amplitude here keeps
    # every coordinate more than 0.05 rad from pi/8.
    pair = CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    omegas = (40.0, 60.0, 80.0, 130.0, 160.0, 190.0)
    gates = [cr_gate(pair, DriveSpec(w, 75.0)) for w in omegas]
    coords = np.array([cartan_coordinates(g) for g in gates])
    assert np.abs(coords - np.pi / 8).min() > 0.05
    straddles = [not (all(c > np.pi / 8) or all(c < np.pi / 8)) for c in coords]
    assert straddles == [False] * 3 + [True] * 3
    cfgs = [optimkit.OptimizerConfig(seed=derive_seed(0, k), stop_below=1e-12)
            for k in range(len(omegas))]
    results = optimkit.vqgo_batch(CNOT, [[g, g] for g in gates], cfgs)  # each row is its vqgo
    assert [res.best_cost < 1e-6 for res in results] == straddles


def test_vqgo_keeps_per_restart_diagnostics():
    cfg = optimkit.OptimizerConfig(restarts=3, max_iterations=40, seed=6)
    res = optimkit.vqgo(CNOT, [CNOT], cfg=cfg)
    runs = res.restart_diagnostics
    assert len(runs) == 3
    assert sum(run["iterations"] for run in runs) == res.iterations_used
    for run in runs:
        assert set(run) == {"iterations", "reason", "nfev", "ngev"}
        assert run["reason"] in ("grad_tol", "cost_tol", "line_search", "budget")
        assert run["nfev"] > run["iterations"] and run["ngev"] >= 1
    stopped = optimkit.vqgo(CNOT, [CNOT], cfg=optimkit.OptimizerConfig(
        restarts=6, max_iterations=400, seed=3, stop_below=1e-8))
    assert len(stopped.restart_diagnostics) == stopped.restart_index + 1 == 1


def test_vqgo_shape_validation():
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=5)
    with pytest.raises(ValueError, match="target shape"):
        optimkit.vqgo_batch(CNOT[:, :2], [[CNOT]], [cfg])
    with pytest.raises(ValueError, match="one config and one source list"):
        optimkit.vqgo_batch(CNOT, [[CNOT]], [cfg, cfg])
    with pytest.raises(ValueError, match="^restart 0: non-finite cost"):
        optimkit.vqgo(CNOT, [np.full((4, 4), np.nan)], cfg=cfg)


def test_vqgo_emulated_backend_agrees_with_exact():
    # the emulated measurement: a descent of the full-support DFE cost, from the
    # start point of vqgo's restart 0, finds what exact vqgo finds in as many steps
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=200, seed=7)
    exact = optimkit.vqgo(CNOT, [CNOT], cfg=cfg)
    _, cost, diag = dfe_descent(CNOT, [CNOT], cfg)
    assert cost < 1e-6
    assert abs(exact.best_cost - cost) < 1e-6
    assert diag["iterations"] == exact.iterations_used


def test_concatenated_flat_landscape_stops_early():
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=300, seed=8)

    def factory(w):
        return [CNOT]

    omega, res, diag = optimkit.concatenated_optimize(
        CNOT, factory, [50.0], cfg=cfg, outer_maxiter=10, max_sweeps=6
    )
    assert diag["sweeps"] <= 2
    assert res.best_cost < 1e-9
    assert 0.0 <= omega[0] <= 200.0
    assert diag["outer_evaluations"] > 0


def test_concatenated_finds_interior_optimum():
    # source exp(-i*(w/100)*(pi/4)*XX) equals the target class only at
    # w = 100, so the outer search must drive the amplitude there
    xx = np.kron(SIGMA_X, SIGMA_X)
    target = expm_hermitian(xx, np.pi / 4)
    cfg = optimkit.OptimizerConfig(
        restarts=1, max_iterations=250, gradient_tolerance=1e-8, seed=9
    )

    def factory(w):
        return [expm_hermitian(xx, float(w[0]) / 100.0 * np.pi / 4)]

    omega, res, diag = optimkit.concatenated_optimize(
        target, factory, [50.0], cfg=cfg, outer_maxiter=40, max_sweeps=3
    )
    assert abs(omega[0] - 100.0) < 2.0
    assert res.best_cost < 1e-4
    assert len(diag["outer_history"]) == diag["sweeps"]


def test_concatenated_deterministic():
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=150, seed=10)

    def factory(w):
        return [CNOT]

    a = optimkit.concatenated_optimize(CNOT, factory, [30.0], cfg=cfg,
                                       outer_maxiter=8, max_sweeps=2)
    b = optimkit.concatenated_optimize(CNOT, factory, [30.0], cfg=cfg,
                                       outer_maxiter=8, max_sweeps=2)
    assert np.array_equal(a[0], b[0])
    assert a[1].best_cost == b[1].best_cost


def test_concatenated_rejects_outer_budget_below_amplitudes_plus_two():
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=10, seed=11)

    def factory(w):
        return [CNOT]

    with pytest.raises(ValueError, match=r"outer_maxiter 4 is below 5"):
        optimkit.concatenated_optimize(CNOT, factory, [30.0, 40.0, 50.0], cfg=cfg,
                                       outer_maxiter=4, max_sweeps=1)


def test_concatenated_rejects_max_sweeps_below_one():
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=10, seed=11)
    calls = []

    def factory(w):
        calls.append(w)
        return [CNOT]

    for max_sweeps in (0, -1):
        with pytest.raises(ValueError, match=f"max_sweeps must be >= 1, got {max_sweeps}"):
            optimkit.concatenated_optimize(CNOT, factory, [50.0], cfg=cfg,
                                           outer_maxiter=3, max_sweeps=max_sweeps)
    assert calls == []


def test_derivative_free_stops_below_target():
    seen = []

    def f(x):
        seen.append(float(x[0]))
        return (x[0] - 3.0) ** 2

    x, fx, diag = optimkit.minimize_derivative_free(
        f, [0.0], [(-10.0, 10.0)], 5000, stop_below=4.0
    )
    assert fx < 4.0 and fx == (x[0] - 3.0) ** 2
    assert seen[-1] == x[0]  # no evaluation after the first one under the bound
    assert all((v - 3.0) ** 2 >= 4.0 for v in seen[:-1])
    assert diag["converged"] and diag["iterations"] == len(seen)
    full = optimkit.minimize_derivative_free(f, [0.0], [(-10.0, 10.0)], 5000)
    assert full[2]["iterations"] > diag["iterations"]


def test_concatenated_stops_at_first_amplitude_under_stop_below():
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=300, seed=8,
                                   stop_below=1e-8)

    def factory(w):
        return [CNOT]

    omega, res, diag = optimkit.concatenated_optimize(
        CNOT, factory, [50.0], cfg=cfg, outer_maxiter=10, max_sweeps=6
    )
    assert res.best_cost < 1e-8
    assert omega[0] == 50.0
    assert diag["inner_runs"] == 1
    assert diag["sweeps"] == 1
    assert diag["outer_evaluations"] == 1
    assert diag["cache_hits"] == 0


def _xx_interior_case(stop_below):
    xx = np.kron(SIGMA_X, SIGMA_X)
    target = expm_hermitian(xx, np.pi / 4)
    cfg = optimkit.OptimizerConfig(restarts=1, max_iterations=100,
                                   gradient_tolerance=1e-8, seed=9,
                                   stop_below=stop_below)

    def factory(w):
        return [expm_hermitian(xx, float(w[0]) / 100.0 * np.pi / 4)]

    return optimkit.concatenated_optimize(
        target, factory, [50.0], cfg=cfg, outer_maxiter=12, max_sweeps=3
    )


def test_concatenated_without_stop_below_is_unchanged():
    # values of the search with stop_below None, recorded when the circuit
    # pass formed each step product S_i @ L_i once for both propagator chains
    omega, res, diag = _xx_interior_case(None)
    assert omega[0] == 100.0
    assert res.best_cost == 4.651834473179406e-14
    assert diag["sweeps"] == 2
    assert diag["outer_evaluations"] == 24
    assert diag["outer_history"] == [4.651834473179406e-14, 4.651834473179406e-14]
    assert diag["inner_runs"] + diag["cache_hits"] == diag["outer_evaluations"]


def test_concatenated_returns_the_design_built_at_its_amplitude(monkeypatch):
    # two evaluations 1e-11 apart, which a cache keyed on amplitudes rounded
    # to 10 decimals answered with one design; the search returns the second
    def search(f, x0, bounds, max_evaluations, stop_below=None):
        near = np.asarray(x0, dtype=float) + 1e-11
        f(np.asarray(x0, dtype=float))
        return near, f(near), {"iterations": 2}

    def design(target, sources, cfg=None):
        return optimkit.OptimizationResult(np.array(sources[0]), 0.5, 1, True, 0, [0.5])

    monkeypatch.setattr(optimkit, "minimize_derivative_free", search)
    monkeypatch.setattr(optimkit, "vqgo", design)
    omega, res, diag = optimkit.concatenated_optimize(
        np.eye(2), lambda w: [w.copy()], [50.0], outer_maxiter=4, max_sweeps=1)
    assert omega[0] == 50.0 + 1e-11 and omega[0] != 50.0
    assert res.best_params.tobytes() == omega.tobytes()
    assert (diag["inner_runs"], diag["cache_hits"]) == (2, 0)


def test_concatenated_stop_below_ends_the_search():
    full = _xx_interior_case(None)[2]
    omega, res, diag = _xx_interior_case(1e-5)
    assert res.best_cost < 1e-5
    assert diag["outer_history"][-1] == res.best_cost
    # the last evaluation is the first under the bound, and no sweep follows
    assert all(v >= 1e-5 for v in diag["outer_history"][:-1])
    assert diag["inner_runs"] < full["inner_runs"]
    assert diag["inner_runs"] + diag["cache_hits"] == diag["outer_evaluations"]


def _two_wells(x):
    # a shallow well at 120 and a deep one at 35, on [0, 200]
    return -0.3 * np.exp(-((x - 120.0) / 8.0) ** 2) - np.exp(-((x - 35.0) / 8.0) ** 2)


def test_interval_search_finds_deep_minimum_that_cobyla_misses():
    x_dfo, f_dfo, _ = optimkit.minimize_derivative_free(
        lambda w: _two_wells(w[0]), [120.0], [(0.0, 200.0)], 5000)
    assert abs(x_dfo[0] - 120.0) < 1.0  # stuck in the shallow well
    x, fx, diag = optimkit.minimize_on_interval(_two_wells, 0.0, 200.0)
    assert abs(x - 35.0) < 1e-3
    assert fx == _two_wells(x) and fx < f_dfo - 0.5
    assert diag["nfev"] > optimkit.INTERVAL_GRID_POINTS
    lo, hi = diag["bracket"]
    assert lo < 35.0 < hi
    assert abs((hi - lo) - 2 * 200.0 / (optimkit.INTERVAL_GRID_POINTS - 1)) < 1e-9


def test_interval_search_stays_in_bounds_and_beats_the_grid():
    rng = derive_rng(52)
    cases = [(lambda x: x, 2.0, 9.0), (lambda x: -x, 2.0, 9.0)]
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        cases.append((lambda x, a=a, b=b, c=c: np.sin(a * x + b) + c * np.cos(3 * x),
                      -1.0, 4.0))
    for f, lower, upper in cases:
        seen = []

        def g(x):
            seen.extend(np.atleast_1d(x))
            return f(x)

        x, fx, diag = optimkit.minimize_on_interval(g, lower, upper)
        grid = np.linspace(lower, upper, optimkit.INTERVAL_GRID_POINTS)
        assert lower <= x <= upper
        assert min(seen) >= lower and max(seen) <= upper
        assert fx == f(x) and fx <= min(f(v) for v in grid)
        assert diag["nfev"] == len(seen)
    # monotone costs end exactly on the bound
    assert optimkit.minimize_on_interval(lambda x: x, 2.0, 9.0)[0] == 2.0
    assert optimkit.minimize_on_interval(lambda x: -x, 2.0, 9.0)[0] == 9.0


def _interval_search_one_point_a_call(f, lower, upper):
    """minimize_on_interval with a scalar objective f, every point its own call:
    the reference the batch objective must match bitwise."""
    import scipy.optimize

    seen = []

    def value(x):
        seen.append(x)
        return float(f(float(x)))

    grid = np.linspace(lower, upper, optimkit.INTERVAL_GRID_POINTS)
    values = [value(x) for x in grid]
    k = int(np.argmin(values))
    bracket = (float(grid[max(k - 1, 0)]), float(grid[min(k + 1, grid.size - 1)]))
    res = scipy.optimize.minimize_scalar(value, bounds=bracket, method="bounded")
    x, fx = float(grid[k]), values[k]
    if res.fun < fx:
        x, fx = float(res.x), float(res.fun)
    return x, fx, {"nfev": len(seen), "bracket": bracket}


def _cr_baseline(eps):
    pair = CrossResonancePair(200.0, 5.0, eps, np.pi / 4)
    return (lambda w: cli._tpcx_agi(pair, w, 75.0),
            lambda w: agi(CNOT, devices.tpcx(pair, w, 75.0)))


@pytest.mark.parametrize("objectives", [
    pytest.param((_two_wells, _two_wells), id="two_wells"),
    *(pytest.param(_cr_baseline(eps), id=f"cr_baseline_eps{eps}") for eps in (0.0, 0.1, 1.0)),
])
def test_batch_interval_search_is_bitwise_one_point_a_call(objectives):
    batch, scalar = objectives
    x, fx, diag = optimkit.minimize_on_interval(batch, 0.0, 200.0)
    rx, rfx, rdiag = _interval_search_one_point_a_call(scalar, 0.0, 200.0)
    assert (x.hex(), fx.hex()) == (rx.hex(), rfx.hex())
    assert [b.hex() for b in diag["bracket"]] == [b.hex() for b in rdiag["bracket"]]
    assert diag["nfev"] == rdiag["nfev"] > optimkit.INTERVAL_GRID_POINTS


def test_interval_search_rejects_a_wrong_number_of_values():
    for f in (lambda x: x[:-1], lambda x: np.append(x, 0.0), lambda x: 0.0,
              lambda x: x[:, None]):
        with pytest.raises(ValueError, match=r"value\(s\) for 41 point\(s\)"):
            optimkit.minimize_on_interval(f, 0.0, 1.0)


def test_interval_search_is_deterministic_and_rejects_bad_input():
    a = optimkit.minimize_on_interval(_two_wells, 0.0, 200.0)
    b = optimkit.minimize_on_interval(_two_wells, 0.0, 200.0)
    assert a[:2] == b[:2]
    for lower, upper in ((5.0, 5.0), (6.0, 5.0), (0.0, np.inf), (np.nan, 1.0), (0.0, 10**400)):
        with pytest.raises(ValueError):
            optimkit.minimize_on_interval(_two_wells, lower, upper)
    with pytest.raises(ValueError):
        optimkit.minimize_on_interval(lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0)


# (float.hex of the AGI, iterations, sha256 of the angles' bytes), recorded
# when the circuit pass formed each step product S_i @ L_i once for both
# propagator chains
_PINNED = {
    "cnot_from_cr": ("0x1.31f7f23600000p-18", 120,
                     "9f838c71d143bc4913499913b0241208acdf62ced80b2d1cff61455a710f0776"),
    "syndrome": ("0x1.3645a9930ec0ap-1", 25,
                 "7674d163d92da8325f6252500d7767fe49367c8daf3c60739a25696ee2eb57e1"),
}


def test_vqgo_results_are_pinned_bitwise():
    pair = CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    cfg = optimkit.OptimizerConfig(restarts=2, max_iterations=60, gradient_tolerance=1e-8,
                                   cost_tolerance=1e-13, seed=5)
    designs = {"cnot_from_cr": optimkit.vqgo(CNOT, [cr_gate(pair, DriveSpec(120.0, 75.0))] * 2,
                                             cfg)}
    dev, raw = devices.load_device(
        resources.files("gatesynth") / "fixtures" / "syndrome_device.json")
    gate = devices.four_cr_gate(dev, raw["reference_omega_mhz"]["crosstalk"], 75.0)
    designs["syndrome"] = optimkit.vqgo(devices.syndrome_target(), [gate] * 2,
                                        optimkit.OptimizerConfig(restarts=1, max_iterations=25,
                                                                 seed=3))
    for name, res in designs.items():
        assert (res.best_cost.hex(), res.iterations_used,
                hashlib.sha256(res.best_params.tobytes()).hexdigest()) == _PINNED[name], name
