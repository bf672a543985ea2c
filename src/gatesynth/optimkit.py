"""Optimizers and the synthesis driver loop.

minimize_quasi_newton is a self-contained limited-memory BFGS whose
direction is the compact form of its held pair arrays and whose line
search costs the unit step x+p first. Up to dimension LBFGS_MEMORY, where
its memory of pairs covers the full history, it also tries the minimizer
of the parabola through (f(x), directional derivative, f(x+p)), which
makes it terminate on quadratic costs in at most `dimension` iterations;
above it, that trial is made only for a unit step that fails the Armijo
test. Armijo backtracking guards the non-quadratic case. Its iteration is
a generator of points: it is sent each point's cost and a callable for the
gradient there, which it calls only at the start and at each accepted
point, so one driver can answer the points of many descents together.

minimize_derivative_free is a bounded COBYLA search from a start point,
whose limits are this module's COBYLA_* constants and least_evaluations;
minimize_on_interval is a start-free 1-D search (a fixed grid, then
bounded Brent around its best point).

vqgo runs multistart gradient descent on the circuit-infidelity cost;
vqgo_batch, the one loop that serves design points, runs many such
designs of one target in lockstep: a round is one stacked circuit pass
that gives every point its cost and its gradient, so in vqgo each
point's gradient is computed with its cost, and ngev counts the ones the
descent used. vqgo is its batch of one. concatenated_optimize wraps vqgo
in an outer derivative-free search over source-drive amplitudes.
minimize_quasi_newton descends a measured cost with its shift-rule
gradient, ansatz.parameter_shift_gradient(..., cost=).
"""

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .ansatz import (
    circuit_pass,
    pass_costs,
    pass_gradients,
    random_params,
    stack_sources,
    wrap_angles,
)
from .inputs import ConfigError, read
from .numkit import derive_rng, qubit_count

# (s, y) pairs the quasi-Newton direction remembers
LBFGS_MEMORY = 10
# sufficient decrease a line-search step must show: f(x+tp) <= f(x) + ARMIJO*t*(g.p)
ARMIJO = 1e-4
# COBYLA's trust-region radius: it starts at a quarter of the narrowest side
# of the box, at most COBYLA_MAX_START_RADIUS, and ends at COBYLA_FINAL_RADIUS
COBYLA_MAX_START_RADIUS = 10.0
COBYLA_FINAL_RADIUS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Budgets are integers >= 1 that fit a C ssize_t, and a TypeError if no integer;
    tolerances finite numbers > 0 (stop_below may be None); the seed, which only feeds a
    SeedSequence (derive_seed gives 64-bit ones), any integer >= 0."""

    max_iterations: int = 5000
    gradient_tolerance: float = 1e-9
    cost_tolerance: float = 1e-12
    restarts: int = 8
    seed: int = 0
    stop_below: float = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if f.type is int and not integral:
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
            if f.name == "seed" and value < 0:
                raise ConfigError(f"seed must be an integer >= 0, got {value!r}")
            if f.name != "seed" and (value is not None or f.name != "stop_below"):
                read(vars(self), f.name, f.type, low=1 if f.type is int else None,
                     above=0 if f.type is float else None)


@dataclass
class OptimizationResult:
    best_params: np.ndarray
    best_cost: float
    iterations_used: int
    converged: bool
    restart_index: int
    cost_history: list
    restart_diagnostics: list = field(default_factory=list)


@dataclass(frozen=True)
class AmplitudeBounds:
    """Box bounds (MHz) applied to every drive amplitude; the box must be
    wide enough for COBYLA to search (see cobyla_start_radius)."""

    lower: float = 0.0
    upper: float = 200.0

    def __post_init__(self):
        read(vars(self), "upper", above=read(vars(self), "lower", low=0))
        cobyla_start_radius(self.lower, self.upper)

    def pairs(self, k):
        return [(self.lower, self.upper)] * k


def minimize_quasi_newton(f, grad, x0, cfg=None):
    """Limited-memory BFGS descent; returns (x*, f*, diagnostics).

    Each step costs x+p and, for at most LBFGS_MEMORY parameters or an x+p
    that fails the Armijo test, the parabola's minimizer (module docstring):
    finite termination on quadratic costs holds up to that dimension.

    Terminates when the max-abs gradient drops below gradient_tolerance,
    an accepted step improves the cost by less than cost_tolerance, the
    line search finds no step that lowers the cost or that moves x, or the
    iteration budget runs out. Raises ValueError on non-finite cost or
    gradient values. diagnostics carries iterations, converged, reason
    (grad_tol, cost_tol, line_search or budget), nfev and ngev (cost and
    gradient evaluations; grad is called only at the start point and at
    accepted points) and the cost_history of accepted iterates
    (non-increasing).
    """
    steps = _quasi_newton_steps(x0, cfg or OptimizerConfig())
    try:
        x = next(steps)
        while True:
            x = steps.send((f(x), partial(grad, x)))
    except StopIteration as done:
        return done.value


def _no_pairs(size):
    """An L-BFGS memory (S, Y, d, W, gamma) of no pairs: its direction is -g."""
    return np.empty((0, size)), np.empty((0, size)), np.empty(0), np.empty((0, 0)), 1.0


def _remember(memory, s, y):
    """The memory with (s, y) appended unless s.y fails the curvature test.
    S and Y hold the last LBFGS_MEMORY pairs as rows, oldest first, d[i] =
    s_i.y_i, W inverts U[i, j] = s_i.y_j (i <= j) and gamma = s.y / y.y of the
    newest pair. Dropping the oldest pair keeps W[1:, 1:], the inverse of U's
    trailing block; a new pair adds to W the column -W (S y) / s.y and 1 / s.y."""
    sy, yy = np.dot(s, y), np.dot(y, y)
    if not sy > 1e-10 * math.sqrt(np.dot(s, s)) * math.sqrt(yy):  # np.linalg.norm computes these
        return memory
    S, Y, d, W, _ = memory
    if d.size == LBFGS_MEMORY:
        S, Y, d, W = S[1:], Y[1:], d[1:], W[1:, 1:]
    grown = np.zeros((d.size + 1, d.size + 1))
    grown[:-1, :-1], grown[:-1, -1], grown[-1, -1] = W, W @ (S @ y) / -sy, 1.0 / sy
    S, Y = np.concatenate((S, s[None])), np.concatenate((Y, y[None]))
    return S, Y, np.append(d, sy), grown, sy / yy


def _lbfgs_direction(g, memory):
    """The L-BFGS direction -H g of a memory, the two-loop recursion's, in the
    compact form of Byrd, Nocedal and Schnabel (Math. Prog. 63, 129 (1994))."""
    S, Y, d, W, gamma = memory
    a = W @ (S @ g)
    r = gamma * (g - a @ Y)
    return -(r + ((d * a - Y @ r) @ W) @ S)


def _quasi_newton_steps(x0, cfg):
    """minimize_quasi_newton as a generator: it yields points, is sent
    (cost, gradient) for each, where gradient is a callable of no argument
    that gives the gradient there, and returns (x*, f*, diagnostics). It
    calls gradient only at the start point and at each accepted point, and
    ngev counts those calls: the gradients the descent used."""
    nfev = ngev = 0

    def cost(z):
        nonlocal nfev
        nfev += 1
        fz, gradient_at = yield z
        return float(fz), gradient_at

    def gradient(gradient_at):
        nonlocal ngev
        ngev += 1
        return np.asarray(gradient_at(), dtype=float)

    x = np.asarray(x0, dtype=float).copy()
    fx, gradient_at = yield from cost(x)
    gx = gradient(gradient_at)
    if not (math.isfinite(fx) and np.isfinite(gx).all()):
        raise ValueError("non-finite cost or gradient at the start point")
    memory = _no_pairs(x.size)
    cost_history = [fx]
    reason = "budget"
    nit = 0
    for nit in range(1, cfg.max_iterations + 1):
        gnorm = np.abs(gx).max() if gx.size else 0.0
        if gnorm < cfg.gradient_tolerance:
            reason = "grad_tol"
            nit -= 1
            break
        p = _lbfgs_direction(gx, memory)
        dphi = np.dot(gx, p)
        if dphi >= 0:
            p = -gx
            dphi = np.dot(gx, p)
        # parabola through f(x), dphi, f(x+p): its minimizer is exact on
        # quadratic costs, giving finite termination there up to dimension
        # LBFGS_MEMORY; above it an Armijo unit step is taken without the trial
        xn = x + p
        f1, gradient_at = yield from cost(xn)
        t, ft = 1.0, f1
        b = f1 - fx - dphi
        if b > 1e-300 and (x.size <= LBFGS_MEMORY or not f1 <= fx + ARMIJO * dphi):
            tstar = -dphi / (2.0 * b)
            if 1e-10 < tstar < 1e10 and tstar != 1.0:
                xstar = x + tstar * p
                fstar, gradient_star = yield from cost(xstar)
                if fstar < ft:
                    t, ft, xn, gradient_at = tstar, fstar, xstar, gradient_star
        n_bt = 0
        while not (math.isfinite(ft) and ft <= fx + ARMIJO * t * dphi) and n_bt < 60:
            t *= 0.5
            xn = x + t * p
            ft, gradient_at = yield from cost(xn)
            n_bt += 1
        # a step that rounds away leaves x where it is: no progress, not convergence
        if not math.isfinite(ft) or ft > fx or (xn == x).all():
            reason = "line_search"
            break
        gn = gradient(gradient_at)
        if not np.isfinite(gn).all():
            raise ValueError("non-finite gradient during descent")
        memory = _remember(memory, xn - x, gn - gx)
        df = fx - ft
        x, fx, gx = xn, ft, gn
        cost_history.append(fx)
        if df < cfg.cost_tolerance:
            reason = "cost_tol"
            break
    else:
        nit = cfg.max_iterations
    diagnostics = {
        "iterations": nit,
        "converged": reason in ("grad_tol", "cost_tol"),
        "reason": reason,
        "nfev": nfev,
        "ngev": ngev,
        "cost_history": cost_history,
    }
    return x, fx, diagnostics


def least_evaluations(n):
    """The fewest evaluations COBYLA takes over n variables: its start
    simplex of n + 1 points and one step. scipy would raise a smaller
    budget to it with a warning; minimize_derivative_free rejects it."""
    return n + 2


def cobyla_start_radius(lower, upper):
    """COBYLA's start radius in the box of sides [lower, upper] (numbers or
    arrays); a ValueError if it is below COBYLA_FINAL_RADIUS, where scipy
    would lower the final radius or fail."""
    width = float(np.min(np.subtract(upper, lower)))
    radius = min(COBYLA_MAX_START_RADIUS, 0.25 * width)
    if not radius >= COBYLA_FINAL_RADIUS:
        raise ValueError(f"a side {width:.3g} wide is narrower than {4 * COBYLA_FINAL_RADIUS:g}: "
                         f"COBYLA would start below its final radius {COBYLA_FINAL_RADIUS:g}")
    return radius


class _TargetReached(Exception):
    """Raised by minimize_derivative_free's objective wrapper to end the
    COBYLA run once a value falls under stop_below."""


def minimize_derivative_free(f, x0, bounds, max_evaluations, stop_below=None):
    """Bounded derivative-free minimization (COBYLA) from x0, with at most
    max_evaluations evaluations of f; returns the best point seen across
    all evaluations, so the reported value is a monotone best-so-far.
    bounds is a list of (lower, upper) pairs, and x0 must lie within them;
    a box cobyla_start_radius rejects, or a budget below least_evaluations,
    is a ValueError before any evaluation.

    If stop_below is set, the search ends at the first evaluation whose
    value is under it and returns that point with converged=True; with
    stop_below None, COBYLA runs to its own termination.
    """
    import scipy.optimize  # here, not at import: most callers never search

    x0 = np.asarray(x0, dtype=float)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("bounds must be finite")
    if not (np.all(lo <= x0) and np.all(x0 <= hi)):
        raise ValueError(f"start point {x0} lies outside the bounds {bounds}")
    if max_evaluations < least_evaluations(x0.size):
        raise ValueError(f"max_evaluations {max_evaluations} is below {least_evaluations(x0.size)}, "
                         f"the fewest COBYLA takes over {x0.size} variable(s)")
    rhobeg = cobyla_start_radius(lo, hi)
    best = {"x": None, "f": np.inf, "nfev": 0}

    def wrapped(x):
        xc = np.clip(x, lo, hi)
        val = float(f(xc))
        if not np.isfinite(val):
            raise ValueError(f"non-finite cost at {xc}")
        best["nfev"] += 1
        if val < best["f"]:
            best["f"] = val
            best["x"] = xc.copy()
        if stop_below is not None and val < stop_below:
            raise _TargetReached
        return val

    try:
        res = scipy.optimize.minimize(
            wrapped,
            x0,
            method="COBYLA",
            bounds=list(zip(lo, hi)),
            options={"maxiter": max_evaluations, "rhobeg": rhobeg, "tol": COBYLA_FINAL_RADIUS},
        )
        converged = bool(res.success)
    except _TargetReached:
        converged = True
    diagnostics = {"iterations": best["nfev"], "converged": converged}
    return best["x"], best["f"], diagnostics


INTERVAL_GRID_POINTS = 41


def minimize_on_interval(f, lower, upper):
    """Deterministic bounded 1-D minimization; returns (x*, f*, diagnostics).

    f is a batch objective: it maps a 1-D array of points to as many finite
    values. One call evaluates INTERVAL_GRID_POINTS evenly spaced points
    over [lower, upper], including both ends; bounded Brent (scipy's
    minimize_scalar) then refines the bracket between the best grid
    point's neighbours, one point a call. The result is the better of
    Brent's point and that grid point, so it lies in the bounds, is never
    worse than the best grid value, and does not depend on any start point.
    diagnostics = {nfev, bracket}: the total number of points evaluated and
    the bracket Brent refined.
    Raises ValueError on bad bounds, a non-finite value, or a call that
    returns another number of values than it was given points.
    """
    import scipy.optimize

    bounds = {"lower": lower, "upper": upper}
    lower = read(bounds, "lower")
    upper = read(bounds, "upper", above=lower)
    nfev = 0

    def values(xs):
        nonlocal nfev
        nfev += xs.size
        vs = np.asarray(f(xs), dtype=float)
        if vs.shape != xs.shape:
            raise ValueError(f"the objective gave {vs.size} value(s) for {xs.size} point(s)")
        if not np.isfinite(vs).all():
            raise ValueError(f"non-finite value at {xs[~np.isfinite(vs)][0]}")
        return vs

    grid = np.linspace(lower, upper, INTERVAL_GRID_POINTS)
    on_grid = values(grid)
    k = int(np.argmin(on_grid))
    bracket = (float(grid[max(k - 1, 0)]), float(grid[min(k + 1, grid.size - 1)]))
    res = scipy.optimize.minimize_scalar(lambda x: float(values(np.array([float(x)]))[0]),
                                         bounds=bracket, method="bounded")
    x, fx = float(grid[k]), float(on_grid[k])
    if res.fun < fx:
        x, fx = float(res.x), float(res.fun)
    return x, fx, {"nfev": nfev, "bracket": bracket}


def _vqgo_steps(n, d, cfg):
    """One vqgo design as a generator of points (see _quasi_newton_steps)
    that returns its OptimizationResult."""
    best = None
    total_iterations = 0
    runs = []
    for r in range(cfg.restarts):
        x0 = random_params(n, d, derive_rng(cfg.seed, r)).ravel()
        try:
            x, fx, diag = yield from _quasi_newton_steps(x0, cfg)
        except ValueError as exc:
            raise ValueError(f"restart {r}: {exc}") from exc
        total_iterations += diag["iterations"]
        runs.append({key: diag[key] for key in ("iterations", "reason", "nfev", "ngev")})
        if best is None or fx < best[1]:
            best = (x, fx, diag, r)
        if cfg.stop_below is not None and best[1] < cfg.stop_below:
            break
    x, fx, diag, r = best
    theta = wrap_angles(x.reshape(d + 1, n, 3))
    final_cost = float((yield theta.ravel())[0])
    return OptimizationResult(
        best_params=theta,
        best_cost=final_cost,
        iterations_used=total_iterations,
        converged=diag["converged"],
        restart_index=r,
        cost_history=diag["cost_history"],
        restart_diagnostics=runs,
    )


def vqgo(target, sources, cfg=None):
    """Multistart synthesis of `target` from the fixed `sources`:
    cfg.restarts independent quasi-Newton descents of the infidelity cost,
    each from a fresh uniform-random angle tensor, keeping the best.

    Restart r draws its start point from a child RNG derived from
    (cfg.seed, r), so results are reproducible and independent of
    evaluation order. If cfg.stop_below is set, remaining restarts are
    skipped once the best cost drops under it. Returned angles are
    wrapped into [0, 2*pi); iterations_used sums the restarts actually
    run while cost_history and the converged flag belong to the winner,
    and restart_diagnostics holds the iterations, reason, nfev and ngev of
    each restart run. This is vqgo_batch with one design.
    """
    return vqgo_batch(target, [sources], [cfg or OptimizerConfig()])[0]


def vqgo_batch(target, sources, cfgs):
    """vqgo of B designs of one target in lockstep: design b synthesizes
    `target` from the source list sources[b] (all of one depth) under
    cfgs[b]. Returns the B results, each bitwise the one vqgo gives for its
    design alone, and [] for no designs.

    Each round is one circuit_pass over the points of every active design,
    from which pass_costs and pass_gradients give each point its cost and
    its gradient; the pass is dropped before the next round. A point's
    gradient is computed with its cost, and the descent uses it only if it
    accepts the point, so ngev counts the gradients used. A design that
    finishes drops out.
    """
    target = np.asarray(target)
    dim = target.shape[0]
    n = qubit_count(dim)
    if target.shape != (dim, dim):
        raise ValueError(f"target shape {target.shape} != ({dim}, {dim})")
    if len(cfgs) != len(sources) or len({len(s) for s in sources}) > 1:
        raise ValueError("a batch needs one config and one source list of a common depth per design")
    if not cfgs:
        return []
    stacked = np.array([stack_sources(s, dim) for s in sources])
    d = stacked.shape[1]
    steps = [_vqgo_steps(n, d, cfg) for cfg in cfgs]
    points = [next(design) for design in steps]
    results = [None] * len(steps)
    active = list(range(len(steps)))
    rows = stacked  # the sources of the active designs
    while active:
        theta = np.concatenate([points[b] for b in active]).reshape(len(active), d + 1, n, 3)
        cpass = circuit_pass(theta, rows)
        costs = pass_costs(cpass, target)
        gradients = pass_gradients(cpass, rows, target).reshape(len(active), -1)
        del cpass  # it holds every row of the round
        running = []
        for b, cost, gradient in zip(active, costs, gradients):
            try:
                points[b] = steps[b].send((cost, lambda g=gradient: g))
                running.append(b)
            except StopIteration as done:
                results[b] = done.value
        if len(running) < len(active):
            rows = stacked[running]
        active = running
    return results


def concatenated_optimize(
    target, source_factory, omega0, bounds=None, cfg=None, *, outer_maxiter, max_sweeps
):
    """Two-level synthesis: an outer bounded derivative-free search over
    the drive-amplitude vector whose cost is the inner vqgo best
    infidelity at that amplitude. Each outer sweep has a budget of
    outer_maxiter evaluations. Outer sweeps restart from the incumbent
    until the sweep-to-sweep improvement falls below cfg.cost_tolerance
    or max_sweeps is hit. If cfg.stop_below is set, the search ends at the
    first amplitude whose inner cost is under it: that sweep stops there
    and no further sweep runs (the same meaning stop_below has for vqgo's
    restarts). Inner runs reuse the same cfg.seed, so the outer landscape
    is deterministic and results are cached per amplitude.

    Returns (omega*, inner OptimizationResult at omega*, diagnostics) with
    diagnostics = {outer_evaluations, sweeps, outer_history, inner_runs,
    cache_hits}: inner_runs counts vqgo calls, cache_hits the outer
    evaluations answered from the per-amplitude cache. Raises ValueError
    for outer_maxiter below least_evaluations(amplitudes) or max_sweeps < 1.
    """
    cfg = cfg or OptimizerConfig()
    bounds = bounds or AmplitudeBounds()
    omega0 = np.atleast_1d(np.asarray(omega0, dtype=float))
    k = omega0.size
    if outer_maxiter < least_evaluations(k):
        raise ValueError(f"outer_maxiter {outer_maxiter} is below {least_evaluations(k)}, "
                         f"the minimum for {k} amplitude(s)")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    cache = {}
    hits = 0

    def outer_cost(w):
        nonlocal hits
        key = tuple(np.round(w, 10))
        if key in cache:
            hits += 1
        else:
            sources = source_factory(np.asarray(w, dtype=float))
            cache[key] = vqgo(target, sources, cfg=cfg)
        return cache[key].best_cost

    x = omega0
    prev = None
    history = []
    evals = 0
    sweeps = 0
    box = bounds.pairs(k)
    for sweeps in range(1, max_sweeps + 1):
        xs, fs, diag = minimize_derivative_free(
            outer_cost, x, box, outer_maxiter, stop_below=cfg.stop_below
        )
        evals += diag["iterations"]
        history.append(fs)
        x = xs
        if cfg.stop_below is not None and fs < cfg.stop_below:
            break
        if prev is not None and abs(prev - fs) < cfg.cost_tolerance:
            break
        prev = fs
    result = cache[tuple(np.round(x, 10))]
    diagnostics = {
        "outer_evaluations": evals,
        "sweeps": sweeps,
        "outer_history": history,
        "inner_runs": len(cache),
        "cache_hits": hits,
    }
    return x, result, diagnostics
