"""Optimizers and the two synthesis driver loops.

minimize_quasi_newton is a self-contained limited-memory BFGS with a
parabola-first line search: the first trial step is the minimizer of the
quadratic interpolant through (f(x), directional derivative, f(x+p)),
which makes the method terminate on quadratic costs in at most
`dimension` iterations when the memory covers the full history. A
standard Armijo backtracking loop guards the non-quadratic case.

minimize_derivative_free is a bounded COBYLA search from a start point;
minimize_on_interval is a start-free 1-D search (a fixed grid, then
bounded Brent around its best point).

vqgo runs multistart gradient descent on the circuit-infidelity cost;
concatenated_optimize wraps it in an outer derivative-free search over
source-drive amplitudes.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .ansatz import (
    agi_cost,
    make_emulated_cost,
    parameter_shift_gradient,
    random_params,
    wrap_angles,
)
from .numkit import derive_rng


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-9
    cost_tolerance: float = 1e-12
    restarts: int = 8
    memory_depth: int = 10
    seed: int = 0
    stop_below: float = None

    def __post_init__(self):
        if self.max_iterations <= 0 or self.memory_depth <= 0:
            raise ValueError("iteration and memory budgets must be positive")
        if self.gradient_tolerance <= 0 or self.cost_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.stop_below is not None and self.stop_below <= 0:
            raise ValueError("stop_below must be positive when set")


@dataclass
class OptimizationResult:
    best_params: np.ndarray
    best_cost: float
    iterations_used: int
    converged: bool
    restart_index: int
    cost_history: list

    def to_dict(self):
        return {
            "best_params": np.asarray(self.best_params).tolist(),
            "best_cost": self.best_cost,
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "restart_index": self.restart_index,
            "cost_history": list(self.cost_history),
        }


@dataclass(frozen=True)
class AmplitudeBounds:
    """Box bounds (MHz) applied to every drive amplitude."""

    lower: float = 0.0
    upper: float = 200.0

    def __post_init__(self):
        if not (0 <= self.lower < self.upper):
            raise ValueError(f"need 0 <= lower < upper, got [{self.lower}, {self.upper}]")

    def pairs(self, k):
        return [(self.lower, self.upper)] * k


def minimize_quasi_newton(f, grad, x0, cfg=None):
    """Limited-memory BFGS descent; returns (x*, f*, diagnostics).

    Terminates when the max-abs gradient drops below gradient_tolerance,
    an accepted step improves the cost by less than cost_tolerance, the
    line search finds no step that lowers the cost, or the iteration
    budget runs out. Raises ValueError on non-finite cost or gradient
    values. diagnostics carries iterations, converged, reason (grad_tol,
    cost_tol, line_search or budget), nfev and ngev (cost and gradient
    evaluations) and the cost_history of accepted iterates
    (non-increasing).
    """
    cfg = cfg or OptimizerConfig()
    nfev = ngev = 0

    def cost(z):
        nonlocal nfev
        nfev += 1
        return float(f(z))

    def gradient(z):
        nonlocal ngev
        ngev += 1
        return np.asarray(grad(z), dtype=float)

    x = np.asarray(x0, dtype=float).copy()
    fx = cost(x)
    gx = gradient(x)
    if not (np.isfinite(fx) and np.isfinite(gx).all()):
        raise ValueError("non-finite cost or gradient at the start point")
    pairs = deque(maxlen=cfg.memory_depth)
    cost_history = [fx]
    reason = "budget"
    nit = 0
    for nit in range(1, cfg.max_iterations + 1):
        gnorm = np.abs(gx).max() if gx.size else 0.0
        if gnorm < cfg.gradient_tolerance:
            reason = "grad_tol"
            nit -= 1
            break
        # two-loop recursion for the L-BFGS direction
        q = gx.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        p = -q
        dphi = gx @ p
        if dphi >= 0:
            p = -gx
            dphi = gx @ p
        # parabola through f(x), dphi, f(x+p); its minimizer is exact on
        # quadratic costs, giving finite termination there
        f1 = cost(x + p)
        t, ft = 1.0, f1
        b = f1 - fx - dphi
        if b > 1e-300:
            tstar = -dphi / (2.0 * b)
            if 1e-10 < tstar < 1e10 and tstar != 1.0:
                fstar = cost(x + tstar * p)
                if fstar < ft:
                    t, ft = tstar, fstar
        n_bt = 0
        while not (np.isfinite(ft) and ft <= fx + 1e-4 * t * dphi) and n_bt < 60:
            t *= 0.5
            ft = cost(x + t * p)
            n_bt += 1
        if not np.isfinite(ft) or ft > fx:
            reason = "line_search"
            break
        xn = x + t * p
        gn = gradient(xn)
        if not np.isfinite(gn).all():
            raise ValueError("non-finite gradient during descent")
        s = xn - x
        y = gn - gx
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
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


class _TargetReached(Exception):
    """Raised by minimize_derivative_free's objective wrapper to end the
    COBYLA run once a value falls under stop_below."""


def minimize_derivative_free(f, x0, bounds, cfg=None, rhobeg=None, stop_below=None):
    """Bounded derivative-free minimization (COBYLA); returns the best
    point seen across all evaluations, so the reported value is a
    monotone best-so-far. bounds is a list of (lower, upper) pairs.

    If stop_below is set, the search ends at the first evaluation whose
    value is under it and returns that point with converged=True; with
    stop_below None, COBYLA runs to its own termination.
    """
    cfg = cfg or OptimizerConfig()
    x0 = np.asarray(x0, dtype=float)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("bounds must be finite")
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

    span = float(np.min(hi - lo))
    if rhobeg is None:
        rhobeg = min(10.0, 0.25 * span)
    try:
        res = scipy.optimize.minimize(
            wrapped,
            np.clip(x0, lo, hi),
            method="COBYLA",
            bounds=list(zip(lo, hi)),
            options={"maxiter": cfg.max_iterations, "rhobeg": rhobeg, "tol": 1e-8},
        )
        converged = bool(res.success)
    except _TargetReached:
        converged = True
    diagnostics = {"iterations": best["nfev"], "converged": converged}
    return best["x"], best["f"], diagnostics


INTERVAL_GRID_POINTS = 41


def minimize_on_interval(f, lower, upper):
    """Deterministic bounded 1-D minimization; returns (x*, f*, diagnostics).

    f (a function of one float) is evaluated on INTERVAL_GRID_POINTS
    evenly spaced points over [lower, upper], including both ends; bounded
    Brent (scipy's minimize_scalar) then refines the bracket between the
    best grid point's neighbours. The result is the better of Brent's
    point and that grid point, so it lies in the bounds, is never worse
    than the best grid value, and does not depend on any start point.
    diagnostics = {nfev, bracket}: the total number of evaluations and
    the bracket Brent refined.
    Raises ValueError on bad bounds or a non-finite value.
    """
    lower, upper = float(lower), float(upper)
    if not (np.isfinite(lower) and np.isfinite(upper) and lower < upper):
        raise ValueError(f"need finite lower < upper, got [{lower}, {upper}]")
    nfev = 0

    def value(x):
        nonlocal nfev
        nfev += 1
        v = float(f(float(x)))
        if not np.isfinite(v):
            raise ValueError(f"non-finite value at {x}")
        return v

    grid = np.linspace(lower, upper, INTERVAL_GRID_POINTS)
    values = [value(x) for x in grid]
    k = int(np.argmin(values))
    bracket = (float(grid[max(k - 1, 0)]), float(grid[min(k + 1, grid.size - 1)]))
    res = scipy.optimize.minimize_scalar(value, bounds=bracket, method="bounded")
    x, fx = float(grid[k]), values[k]
    if res.fun < fx:
        x, fx = float(res.x), float(res.fun)
    return x, fx, {"nfev": nfev, "bracket": bracket}


def _flat_cost_and_grad(target, sources, shape, backend, shots, rng):
    n, d = shape
    if backend == "exact":
        cost_tensor = None
    elif backend == "emulated":
        cost_tensor = make_emulated_cost(sources, target, shots=shots, rng=rng)
    else:
        raise ValueError(f"backend must be 'exact' or 'emulated', got {backend!r}")

    def f(x):
        theta = x.reshape(d + 1, n, 3)
        if cost_tensor is None:
            return agi_cost(theta, sources, target)
        return cost_tensor(theta)

    def g(x):
        theta = x.reshape(d + 1, n, 3)
        return parameter_shift_gradient(theta, sources, target, cost=cost_tensor).ravel()

    return f, g


def vqgo(target, sources, shape=None, cfg=None, backend="exact", shots=None):
    """Multistart synthesis of `target` from the fixed `sources`:
    cfg.restarts independent quasi-Newton descents of the infidelity cost,
    each from a fresh uniform-random angle tensor, keeping the best.

    Restart r draws its start point from a child RNG derived from
    (cfg.seed, r), so results are reproducible and independent of
    evaluation order. If cfg.stop_below is set, remaining restarts are
    skipped once the best cost drops under it. Returned angles are
    wrapped into [0, 2*pi); iterations_used sums the restarts actually
    run while cost_history and the converged flag belong to the winner.
    """
    cfg = cfg or OptimizerConfig()
    target = np.asarray(target)
    n = int(round(np.log2(target.shape[0])))
    d = len(sources)
    if shape is not None and tuple(shape) != (n, d):
        raise ValueError(f"shape {tuple(shape)} inconsistent with target/sources ({n}, {d})")
    best = None
    total_iterations = 0
    for r in range(cfg.restarts):
        rng = derive_rng(cfg.seed, r)
        f, g = _flat_cost_and_grad(target, sources, (n, d), backend, shots, rng)
        x0 = random_params(n, d, rng).ravel()
        try:
            x, fx, diag = minimize_quasi_newton(f, g, x0, cfg)
        except ValueError as exc:
            raise ValueError(f"restart {r}: {exc}") from exc
        total_iterations += diag["iterations"]
        if best is None or fx < best[1]:
            best = (x, fx, diag, r)
        if cfg.stop_below is not None and best[1] < cfg.stop_below:
            break
    x, fx, diag, r = best
    theta = wrap_angles(x.reshape(d + 1, n, 3))
    f, _ = _flat_cost_and_grad(target, sources, (n, d), backend, shots, derive_rng(cfg.seed, r))
    final_cost = float(f(theta.ravel()))
    return OptimizationResult(
        best_params=theta,
        best_cost=final_cost,
        iterations_used=total_iterations,
        converged=diag["converged"],
        restart_index=r,
        cost_history=diag["cost_history"],
    )


def check_outer_maxiter(outer_maxiter, amplitudes):
    """Reject an outer budget below amplitudes + 2, the least COBYLA
    starts with (scipy would raise it without saying so)."""
    if outer_maxiter < amplitudes + 2:
        raise ValueError(
            f"outer_maxiter {outer_maxiter} is below {amplitudes + 2}, "
            f"the minimum for {amplitudes} amplitude(s)"
        )
    return outer_maxiter


def concatenated_optimize(
    target,
    source_factory,
    omega0,
    bounds=None,
    t=None,
    cfg=None,
    outer_maxiter=40,
    max_sweeps=6,
    rhobeg=None,
):
    """Two-level synthesis: an outer bounded derivative-free search over
    the drive-amplitude vector whose cost is the inner vqgo best
    infidelity at that amplitude. Outer sweeps restart from the incumbent
    until the sweep-to-sweep improvement falls below cfg.cost_tolerance
    or max_sweeps is hit. If cfg.stop_below is set, the search ends at the
    first amplitude whose inner cost is under it: that sweep stops there
    and no further sweep runs (the same meaning stop_below has for vqgo's
    restarts). Inner runs reuse the same cfg.seed, so the outer landscape
    is deterministic and results are cached per amplitude.

    Returns (omega*, inner OptimizationResult at omega*, diagnostics) with
    diagnostics = {outer_evaluations, sweeps, outer_history, t_ns,
    inner_runs, cache_hits}: inner_runs counts vqgo calls, cache_hits the
    outer evaluations answered from the per-amplitude cache.
    """
    cfg = cfg or OptimizerConfig()
    bounds = bounds or AmplitudeBounds()
    omega0 = np.atleast_1d(np.asarray(omega0, dtype=float))
    k = omega0.size
    check_outer_maxiter(outer_maxiter, k)
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

    outer_cfg = OptimizerConfig(
        max_iterations=outer_maxiter,
        gradient_tolerance=cfg.gradient_tolerance,
        cost_tolerance=cfg.cost_tolerance,
        restarts=1,
        memory_depth=cfg.memory_depth,
        seed=cfg.seed,
    )
    x = omega0
    prev = None
    history = []
    evals = 0
    sweeps = 0
    box = bounds.pairs(k)
    for sweeps in range(1, max_sweeps + 1):
        xs, fs, diag = minimize_derivative_free(
            outer_cost, x, box, outer_cfg, rhobeg=rhobeg, stop_below=cfg.stop_below
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
        "t_ns": t,
        "inner_runs": len(cache),
        "cache_hits": hits,
    }
    return x, result, diagnostics
