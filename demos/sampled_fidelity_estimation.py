"""Estimating gate fidelity from single-shot Pauli measurements.

Full process tomography of the channel is never run: measurement
settings (input Pauli eigenstate, output Pauli observable) are drawn
with probability proportional to the squared target-PTM entry, each
measured with one shot. ceil(1/(eps_fail^2 * delta_acc)) settings give
accuracy eps_fail with failure probability delta_acc.
"""

import numpy as np

from gatesynth import (
    CNOT,
    DfeSamplingConfig,
    agf_unitary,
    derive_rng,
    dfe_estimate,
    dfe_plan,
    expm_hermitian,
    ptm,
)


def main():
    # a noisy CNOT: small random Hermitian kick in front of the ideal gate
    rng = derive_rng(9)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    channel = expm_hermitian(h, 0.05) @ CNOT

    r_target = ptm(CNOT)
    plan = dfe_plan(r_target)
    exact = agf_unitary(CNOT, channel)
    print(f"exact AGF of the noisy channel: {exact:.5f}")
    print(f"measurement plan: {len(plan.targets)} Pauli settings with "
          f"nonzero target weight")
    print()

    print(f"{'eps_fail':>8} {'settings':>9} {'mean est':>9} "
          f"{'spread':>8} {'|bias|':>8}")
    for eps_fail in [0.2, 0.1, 0.05]:
        cfg = DfeSamplingConfig(eps_fail=eps_fail, delta_acc=0.05)
        ests = np.array([
            dfe_estimate(channel, r_target, plan, cfg=cfg,
                         rng=derive_rng(10, k))
            for k in range(40)
        ])
        print(f"{eps_fail:>8.2f} {cfg.num_settings():>9d} "
              f"{ests.mean():>9.5f} {ests.std():>8.5f} "
              f"{abs(ests.mean() - exact):>8.5f}")
    print()
    print("halving eps_fail quadruples the budget and halves the spread; "
          "the estimator is unbiased at every budget.")


if __name__ == "__main__":
    main()
