"""Exact gradients and depth-3 universality.

The infidelity depends on the circuit only through Tr(T^dag U), which is
linear in every single-qubit gate, so the gradient takes each angle's
derivative as a 2x2 trace against its layer's environment. A
measurement-driven cost gets the same gradient from the parameter-shift
rule: it is trigonometric in every angle, so two shifted evaluations per
parameter give the exact derivative -- no finite differencing. With that
gradient, three ideal CNOT sources plus single-qubit layers reach any
two-qubit target.
"""

import numpy as np

from gatesynth import (
    CNOT,
    OptimizerConfig,
    agi_cost,
    derive_rng,
    derive_seed,
    haar_unitary,
    parameter_shift_gradient,
    random_params,
    vqgo,
)


def main():
    rng = derive_rng(1)
    sources = [haar_unitary(4, rng), haar_unitary(4, rng)]
    target = haar_unitary(4, rng)
    theta = random_params(2, 2, rng)

    grad = parameter_shift_gradient(theta, sources, target)
    shifted = parameter_shift_gradient(
        theta, sources, target, cost=lambda t: agi_cost(t, sources, target))
    step = 1e-6
    fd = np.zeros_like(grad)
    for idx in np.ndindex(theta.shape):
        tp, tm = theta.copy(), theta.copy()
        tp[idx] += step
        tm[idx] -= step
        fd[idx] = (agi_cost(tp, sources, target)
                   - agi_cost(tm, sources, target)) / (2 * step)
    print(f"environment gradient ({theta.size} parameters), "
          "max component difference:")
    print(f"  vs the parameter-shift rule:      {np.abs(grad - shifted).max():.2e}")
    print(f"  vs central finite differences:    {np.abs(grad - fd).max():.2e}")
    print()

    print("synthesizing Haar-random SU(4) targets from three ideal CNOTs:")
    for k in range(5):
        u = haar_unitary(4, derive_rng(2, k))
        u = u / np.linalg.det(u) ** 0.25
        cfg = OptimizerConfig(restarts=8, max_iterations=2000,
                              seed=derive_seed(2, k), stop_below=1e-10)
        res = vqgo(u, [CNOT, CNOT, CNOT], cfg=cfg)
        print(f"  target {k}: AGI {res.best_cost:.2e} after "
              f"{res.iterations_used} iterations "
              f"(winning restart {res.restart_index})")


if __name__ == "__main__":
    main()
