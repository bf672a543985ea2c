"""CNOT from imperfect cross-resonance pulses, with and without crosstalk.

Two fixed-time CR evolutions sandwiched between tunable single-qubit
layers are optimized against CNOT. The echoed two-pulse construction
(tpcx) is the non-variational baseline: it degrades sharply once drive
leakage onto the target qubit (eps) turns on, while the variational
circuit absorbs the crosstalk and stays near zero infidelity.
"""

import numpy as np

from gatesynth import (
    CNOT,
    AmplitudeBounds,
    CrossResonancePair,
    DriveSpec,
    OptimizerConfig,
    agi,
    concatenated_optimize,
    cr_gate,
    derive_seed,
    minimize_on_interval,
    tpcx,
)

T_GATE_NS = 75.0


def main():
    print(f"{'eps':>5} {'tpcx omega':>10} {'tpcx AGI':>10} "
          f"{'vqgo omega':>10} {'vqgo AGI':>10}")
    for case_idx, eps in enumerate([0.0, 0.1, 1.0]):
        pair = CrossResonancePair(200.0, 5.0, eps, np.pi / 4)

        # the interval search evaluates an array of amplitudes a call, and
        # agi scores the whole stack of echoed gates at once
        w_t, agi_tpcx, _ = minimize_on_interval(
            lambda w, p=pair: agi(CNOT, tpcx(p, w, T_GATE_NS)), 0.0, 200.0,
        )

        factory = lambda w, p=pair: [cr_gate(p, DriveSpec(float(w[0]),
                                                          T_GATE_NS))] * 2
        cfg = OptimizerConfig(restarts=2, max_iterations=600,
                              gradient_tolerance=1e-8,
                              seed=derive_seed(6, case_idx), stop_below=1e-6)
        w_v, res, _ = concatenated_optimize(
            CNOT, factory, [50.0], AmplitudeBounds(), cfg,
            outer_maxiter=20, max_sweeps=2,
        )
        print(f"{eps:>5.1f} {w_t:>10.1f} {agi_tpcx:>10.4f} "
              f"{float(w_v[0]):>10.1f} {res.best_cost:>10.2e}")

    print()
    print("the variational route holds AGI near zero at every crosstalk "
          "level; the echoed baseline only works without crosstalk.")


if __name__ == "__main__":
    main()
