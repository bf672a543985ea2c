"""Four-qubit parity extraction from two simultaneous-drive evolutions.

The target maps the Z-parity of four data qubits onto a shared
measurement qubit (the four-CNOT syndrome circuit). Sources are two
75 ns evolutions of the five-qubit device Hamiltonian with all four CR
drives on at once; the outer search tunes the four drive amplitudes,
the inner one the single-qubit layers, and the search ends at the first
amplitudes whose design meets the 3e-3 target. Total source time: 150 ns,
versus 4 x 75 ns if the CNOTs ran one at a time.
"""

from importlib import resources

import numpy as np

from gatesynth import (
    AmplitudeBounds,
    OptimizerConfig,
    concatenated_optimize,
    derive_seed,
    four_cr_gate,
    load_device,
    syndrome_target,
)

T_GATE_NS = 75.0
DEPTH = 2


def main():
    dev_base, extra = load_device(
        resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    )
    target = syndrome_target()
    print(f"device: deltas {[p.delta for p in dev_base.pairs]} MHz, "
          f"couplings {[p.g for p in dev_base.pairs]} MHz")
    print(f"source time budget: {DEPTH} x {T_GATE_NS:g} ns "
          f"= {DEPTH * T_GATE_NS:g} ns")
    print()

    for case_idx, scale in enumerate([0.0, 1.0]):
        dev = dev_base.with_crosstalk(scale)
        factory = lambda w, d=dev: [
            four_cr_gate(d, np.asarray(w, dtype=float), T_GATE_NS)
        ] * DEPTH
        cfg = OptimizerConfig(restarts=2, max_iterations=600,
                              gradient_tolerance=1e-7,
                              seed=derive_seed(8, case_idx), stop_below=3e-3)
        omega, res, diag = concatenated_optimize(
            target, factory, [80.0] * 4, AmplitudeBounds(), cfg,
            outer_maxiter=10, max_sweeps=1,
        )
        label = "crosstalk on " if scale else "crosstalk off"
        amps = ", ".join(f"{w:.1f}" for w in omega)
        print(f"{label}: AGI {res.best_cost:.2e} at amplitudes [{amps}] MHz "
              f"({diag['outer_evaluations']} outer evaluations)")


if __name__ == "__main__":
    main()
