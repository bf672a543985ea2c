"""Direct fidelity estimation: eigenbases, measured PTM entries, sampling
plans, and the fidelity estimator in exact and sampled modes."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesynth import ansatz, dfe
from gatesynth.channels import (
    CNOT,
    HADAMARD,
    agf_unitary,
    pauli_labels,
    pauli_matrix,
    ptm,
)
from gatesynth.devices import four_cr_gate, load_device, syndrome_target
from gatesynth.numkit import derive_rng, haar_unitary


def test_eigenbasis_z_and_x():
    (s0, v0), (s1, v1) = dfe.pauli_eigenbasis("Z")
    assert np.allclose(s0, [1, 0]) and v0 == 1
    assert np.allclose(s1, [0, 1]) and v1 == -1
    (s0, v0), (s1, v1) = dfe.pauli_eigenbasis("X")
    assert np.allclose(s0, np.array([1, 1]) / np.sqrt(2))
    assert (v0, v1) == (1, -1)


def test_eigenbasis_identity_letter_measures_in_z():
    (s0, v0), (s1, v1) = dfe.pauli_eigenbasis("I")
    assert np.allclose(s0, [1, 0]) and np.allclose(s1, [0, 1])
    assert (v0, v1) == (1, 1)


def test_eigenbasis_orthonormal():
    for label in ["ZX", "XY", "IZ", "YI", "XXZ"]:
        basis = dfe.pauli_eigenbasis(label)
        d = 2 ** len(label)
        assert len(basis) == d
        states = np.array([s for s, _ in basis])
        gram = states.conj() @ states.T
        assert np.abs(gram - np.eye(d)).max() < 1e-12


def test_eigenbasis_values_match_observable():
    # for labels without identity letters the recorded eigenvalue is the
    # actual eigenvalue of the Pauli observable
    for label in ["Z", "X", "ZX", "YY"]:
        obs = pauli_matrix(label)
        for state, lam in dfe.pauli_eigenbasis(label):
            assert np.abs(obs @ state - lam * state).max() < 1e-12


def test_simulate_expectation_exact():
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    z = pauli_matrix("Z")
    assert abs(dfe.simulate_expectation(np.eye(2), rho, z) - 1.0) < 1e-14
    assert abs(dfe.simulate_expectation(pauli_matrix("X"), rho, z) + 1.0) < 1e-14
    assert abs(dfe.simulate_expectation(HADAMARD, rho, z)) < 1e-14


def test_ptm_entry_measured_matches_ptm():
    rng = derive_rng(42)
    u = haar_unitary(4, rng)
    r = ptm(u)
    labels = pauli_labels(2)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            est = dfe.ptm_entry_measured(u, li, lj)
            assert abs(est - r[i, j]) < 1e-10


def test_dfe_plan_cnot():
    r = ptm(CNOT)
    plan = dfe.dfe_plan(r)
    # CNOT PTM has 16 nonzero entries, all +-1, each with weight 1/16
    assert len(plan.entries) == 16
    for (li, lj, target, weight) in plan.entries:
        assert abs(abs(target) - 1.0) < 1e-12
        assert abs(weight - 1.0 / 16.0) < 1e-15
    assert plan.dim == 4


def test_dfe_plan_weights_sum_to_one():
    rng = derive_rng(44)
    for k in range(5):
        u = haar_unitary(4, rng)
        plan = dfe.dfe_plan(ptm(u))
        total = sum(w for (_, _, _, w) in plan.entries)
        assert abs(total - 1.0) < 1e-12


def test_dfe_plan_rejects_zero_ptm():
    with pytest.raises(ValueError):
        dfe.dfe_plan(np.zeros((16, 16)))
    with pytest.raises(ValueError, match="not a power of 4"):
        dfe.dfe_plan(np.eye(8))


def test_sampling_config_setting_count():
    cfg = dfe.DfeSamplingConfig(eps_fail=0.05, delta_acc=0.05)
    assert cfg.num_settings() == 8000
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    assert cfg.num_settings() == 125
    with pytest.raises(ValueError):
        dfe.DfeSamplingConfig(eps_fail=0.0, delta_acc=0.1)
    for eps_fail, delta_acc, field in ((0.05, np.nan, "delta_acc"), (0.05, np.inf, "delta_acc"),
                                       (0.05, 10**400, "delta_acc"), (1.0, 0.1, "eps_fail"),
                                       (np.nan, 0.1, "eps_fail"), (10**400, 0.1, "eps_fail")):
        with pytest.raises(ValueError, match=field):
            dfe.DfeSamplingConfig(eps_fail=eps_fail, delta_acc=delta_acc)


def test_dfe_estimate_exact_matches_agf():
    r_cnot = ptm(CNOT)
    plan = dfe.dfe_plan(r_cnot)
    assert abs(dfe.dfe_estimate(CNOT, r_cnot, plan) - 1.0) < 1e-12
    assert abs(dfe.dfe_estimate(np.eye(4), r_cnot, plan) - 0.4) < 1e-12
    rng = derive_rng(45)
    for k in range(10):
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        plan = dfe.dfe_plan(ptm(u))
        est = dfe.dfe_estimate(v, ptm(u), plan)
        assert abs(est - agf_unitary(u, v)) < 1e-10


def test_dfe_estimate_checks_r_target_against_plan():
    r_cnot = ptm(CNOT)
    plan = dfe.dfe_plan(r_cnot)
    # the matched target, also as a copy of the PTM, is accepted
    assert abs(dfe.dfe_estimate(CNOT, r_cnot.copy(), plan) - 1.0) < 1e-12
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    assert np.isfinite(dfe.dfe_estimate(CNOT, r_cnot, plan, cfg=cfg, rng=derive_rng(53)))
    u = haar_unitary(8, derive_rng(53))  # a PTM that is not symmetric
    assert abs(dfe.dfe_estimate(u, ptm(u), dfe.dfe_plan(ptm(u))) - 1.0) < 1e-12
    # another target's PTM of the same size differs at the plan's entries
    r_other = ptm(np.kron(HADAMARD, np.eye(2)))
    with pytest.raises(ValueError, match="differs from the target"):
        dfe.dfe_estimate(CNOT, r_other, plan)
    with pytest.raises(ValueError, match="differs from the target"):
        dfe.dfe_estimate(CNOT, r_other, plan, cfg=cfg, rng=derive_rng(53))
    # one changed value on the plan's support is caught
    r_moved = r_cnot.copy()
    i, j = np.argwhere(np.abs(r_cnot) > 0.5)[-1]
    r_moved[i, j] = -r_moved[i, j]
    with pytest.raises(ValueError, match="differs from the target"):
        dfe.dfe_estimate(CNOT, r_moved, plan)
    # a PTM of another qubit count
    with pytest.raises(ValueError, match="shape"):
        dfe.dfe_estimate(HADAMARD, ptm(HADAMARD), plan)


def test_dfe_estimate_sampled_unbiased():
    rng = derive_rng(46)
    u = haar_unitary(4, rng)
    v = haar_unitary(4, rng)
    r = ptm(u)
    plan = dfe.dfe_plan(r)
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    ests = np.array([
        dfe.dfe_estimate(v, r, plan, cfg=cfg, rng=derive_rng(46, trial))
        for trial in range(300)
    ])
    truth = agf_unitary(u, v)
    se = ests.std(ddof=1) / np.sqrt(len(ests))
    assert abs(ests.mean() - truth) < 3 * se + 1e-12


def test_dfe_estimate_sampled_requires_rng():
    r = ptm(CNOT)
    plan = dfe.dfe_plan(r)
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    with pytest.raises(ValueError):
        dfe.dfe_estimate(CNOT, r, plan, cfg=cfg)


def test_identity_letter_sampling_uses_z_basis():
    # a plan entry with identity letters must still be measurable: the
    # estimator runs and stays finite with single shots
    u = np.kron(HADAMARD, np.eye(2))
    r = ptm(u)
    plan = dfe.dfe_plan(r)
    assert any("I" in li or "I" in lj for (li, lj, _, _) in plan.entries)
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    est = dfe.dfe_estimate(u, r, plan, cfg=cfg, rng=derive_rng(47))
    assert np.isfinite(est)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_expectation_table_matches_per_setting_reference(n, seed):
    rng = derive_rng(seed)
    target = haar_unitary(2**n, rng)
    channel = haar_unitary(2**n, rng)
    plan = dfe.dfe_plan(ptm(target))
    dim = 2**n
    table = dfe._expectation_table(channel, plan)
    assert table.shape == plan.eigenvalues.shape == (len(plan.entries), dim)
    # per input label: the D eigenstate projectors rho_k, evolved as U rho_k U^dag
    prepared = {}
    for e, (i_label, j_label, target_value, weight) in enumerate(plan.entries):
        assert plan.targets[e] == target_value
        assert abs(plan.probs[e] - weight) < 1e-12
        if j_label not in prepared:
            basis = dfe.pauli_eigenbasis(j_label)
            states = np.array([state for state, _ in basis])
            rhos = np.einsum("ka,kb->kab", states, states.conj())
            evolved = np.einsum("ab,kbc,dc->kad", channel, rhos, channel.conj())
            prepared[j_label] = rhos, evolved, [lam for _, lam in basis]
        rhos, evolved, lams = prepared[j_label]
        obs = pauli_matrix(i_label)
        ref = np.einsum("ab,kba->k", obs, evolved).real
        assert np.abs(table[e] - ref).max() < 1e-12
        assert np.array_equal(plan.eigenvalues[e], lams)
        # one per-setting anchor per entry, cycling through the eigenstates
        k = e % dim
        assert abs(table[e, k] - dfe.simulate_expectation(channel, rhos[k], obs)) < 1e-12


def test_exact_estimate_on_syndrome_circuit():
    dev, raw = load_device(
        resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    )
    omegas = raw["reference_omega_mhz"]["crosstalk"]
    sources = [four_cr_gate(dev, omegas, 75.0)] * 2
    target = syndrome_target()
    u = ansatz.build_circuit(ansatz.random_params(5, 2, derive_rng(48)), sources)
    r = ptm(target)
    est = dfe.dfe_estimate(u, r, dfe.dfe_plan(r))
    assert type(est) is float
    assert abs(est - agf_unitary(target, u)) < 1e-12


def test_sampled_estimate_follows_drawn_settings():
    # one draw of entries, one of eigenstates, one of single shots, read
    # against the per-setting expectations of the drawn preparations
    rng = derive_rng(51)
    u = haar_unitary(8, rng)
    v = haar_unitary(8, rng)
    r = ptm(u)
    plan = dfe.dfe_plan(r)
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    est = dfe.dfe_estimate(v, r, plan, cfg=cfg, rng=derive_rng(51, 1))
    assert type(est) is float
    ref_rng = derive_rng(51, 1)
    draws = ref_rng.choice(len(plan.entries), size=cfg.num_settings(), p=plan.probs)
    ks = ref_rng.integers(8, size=cfg.num_settings())
    acc = 0.0
    for idx, k in zip(draws, ks):
        i_label, j_label, target_value, _ = plan.entries[idx]
        state, lam = dfe.pauli_eigenbasis(j_label)[k]
        exact = dfe.simulate_expectation(v, np.outer(state, state.conj()),
                                         pauli_matrix(i_label))
        ups = ref_rng.binomial(1, min(1.0, max(0.0, 0.5 * (1.0 + exact))))
        acc += lam * (2.0 * ups - 1) / target_value
    assert abs(est - (8 * acc / len(draws) + 1) / 9) < 1e-12


def test_plan_arrays_and_vanishing_target_rejected():
    plan = dfe.dfe_plan(ptm(CNOT))
    assert plan.out_codes.shape == plan.in_codes.shape == (16, 2)
    for e, (li, lj, _, _) in enumerate(plan.entries):
        assert "".join("IXYZ"[c] for c in plan.out_codes[e]) == li
        assert "".join("IXYZ"[c] for c in plan.in_codes[e]) == lj
    assert abs(plan.probs.sum() - 1.0) < 1e-15
    targets = plan.targets.copy()
    targets[3] = 0.0
    with pytest.raises(ValueError, match="vanishing"):
        dfe.DfePlan(plan.entries, plan.dim, plan.out_codes, plan.in_codes, targets,
                    plan.probs, plan.eigenvalues)
