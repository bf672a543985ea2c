"""Direct fidelity estimation: eigenbases, measured PTM entries, sampling
plans, and the fidelity estimator in exact and sampled modes."""

import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesynth import ansatz, dfe, numkit
from gatesynth.channels import CNOT, agf_unitary, pauli_matrix, ptm
from gatesynth.devices import four_cr_gate, load_device, syndrome_target
from gatesynth.numkit import derive_rng, haar_unitary
from reference import (
    HADAMARD,
    LETTER_EIGENSYSTEM,
    dfe_estimate_from_table,
    expectation_table,
    pauli_eigenbasis,
    pauli_label,
    pauli_labels,
    plan_entries,
    ptm_entry_measured,
)


def _table(u, plan):
    """The whole expectation table E[e, k], shape (m, D), from the kernel
    asked for every cell, as the full-support estimate asks for it."""
    entries, states = np.divmod(np.arange(plan.eigenvalues.size), plan.dim)
    return dfe._expectations(u, plan, entries, states).reshape(plan.eigenvalues.shape)


def test_eigenbasis_z_and_x():
    (s0, v0), (s1, v1) = pauli_eigenbasis("Z")
    assert np.allclose(s0, [1, 0]) and v0 == 1
    assert np.allclose(s1, [0, 1]) and v1 == -1
    (s0, v0), (s1, v1) = pauli_eigenbasis("X")
    assert np.allclose(s0, np.array([1, 1]) / np.sqrt(2))
    assert (v0, v1) == (1, -1)


def test_eigenbasis_identity_letter_measures_in_z():
    (s0, v0), (s1, v1) = pauli_eigenbasis("I")
    assert np.allclose(s0, [1, 0]) and np.allclose(s1, [0, 1])
    assert (v0, v1) == (1, 1)


def test_eigenbasis_orthonormal():
    for label in ["ZX", "XY", "IZ", "YI", "XXZ"]:
        basis = pauli_eigenbasis(label)
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
        for state, lam in pauli_eigenbasis(label):
            assert np.abs(obs @ state - lam * state).max() < 1e-12


def test_plan_eigensystem_is_the_letter_table_bitwise():
    # dfe keeps the letter table as two arrays, by letter code I, X, Y, Z = 0..3
    vectors = np.stack([np.column_stack([s for s, _ in LETTER_EIGENSYSTEM[c]]) for c in "IXYZ"])
    values = np.array([[lam for _, lam in LETTER_EIGENSYSTEM[c]] for c in "IXYZ"])
    for kept, table in ((dfe._EIGENVECTORS, vectors), (dfe._EIGENVALUES, values)):
        assert (kept.dtype, kept.shape) == (table.dtype, table.shape)
        assert kept.tobytes() == table.tobytes()


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
            est = ptm_entry_measured(u, li, lj)
            assert abs(est - r[i, j]) < 1e-10


def test_dfe_plan_cnot():
    r = ptm(CNOT)
    plan = dfe.dfe_plan(r)
    # CNOT PTM has 16 nonzero entries, all +-1, each with weight 1/16
    assert len(plan_entries(plan)) == 16
    for (li, lj, target, weight) in plan_entries(plan):
        assert abs(abs(target) - 1.0) < 1e-12
        assert abs(weight - 1.0 / 16.0) < 1e-15
    assert plan.dim == 4


def test_dfe_plan_weights_sum_to_one():
    rng = derive_rng(44)
    for k in range(5):
        u = haar_unitary(4, rng)
        plan = dfe.dfe_plan(ptm(u))
        total = sum(w for (_, _, _, w) in plan_entries(plan))
        assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("target", ["cnot", "syndrome", "haar3"])
def test_dfe_plan_entries_follow_the_per_entry_formula(target):
    u = {"cnot": CNOT, "syndrome": syndrome_target(),
         "haar3": haar_unitary(8, derive_rng(45))}[target]
    r = ptm(u)
    n = u.shape[0].bit_length() - 1
    rows, cols = np.nonzero(np.abs(r) > dfe.PLAN_SUPPORT_ATOL)
    plan = dfe.dfe_plan(r)
    # labels, values and weights exactly as one entry at a time computes them
    assert plan_entries(plan) == tuple(
        (pauli_label(i, n), pauli_label(j, n), float(r[i, j]), float(r[i, j] ** 2 / 4**n))
        for i, j in zip(rows, cols))
    assert plan.targets.tobytes() == np.array([e[2] for e in plan_entries(plan)]).tobytes()
    weights = np.array([e[3] for e in plan_entries(plan)])
    assert plan.probs.tobytes() == (weights / weights.sum()).tobytes()


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
                                       (np.nan, 0.1, "eps_fail"), (10**400, 0.1, "eps_fail"),
                                       (0.05, 1e-300, "delta_acc"), (0.05, 5e-324, "delta_acc")):
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
    assert any("I" in li or "I" in lj for (li, lj, _, _) in plan_entries(plan))
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
    table = _table(channel, plan)
    assert table.shape == plan.eigenvalues.shape == (len(plan_entries(plan)), dim)
    # per input label: the D eigenstate projectors rho_k, evolved as U rho_k U^dag
    prepared = {}
    for e, (i_label, j_label, target_value, weight) in enumerate(plan_entries(plan)):
        assert plan.targets[e] == target_value
        assert abs(plan.probs[e] - weight) < 1e-12
        if j_label not in prepared:
            basis = pauli_eigenbasis(j_label)
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


def test_estimates_are_pinned_bitwise():
    # exact values on this suite's numpy 2.4 / OpenBLAS x86-64 build; the
    # channels come from eigh and QR, so another LAPACK may move last bits
    dev, raw = load_device(
        resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    )
    sources = [four_cr_gate(dev, raw["reference_omega_mhz"]["crosstalk"], 75.0)] * 2
    u = ansatz.build_circuit(ansatz.random_params(5, 2, derive_rng(48)), sources)
    r = ptm(syndrome_target())
    plan = dfe.dfe_plan(r)
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    assert float.hex(dfe.dfe_estimate(u, r, plan)) == "0x1.f0a7e8d951e8ap-6"
    sampled = dfe.dfe_estimate(u, r, plan, cfg=cfg, rng=derive_rng(49))
    assert float.hex(sampled) == "0x1.71627d7c8e3e3p-6"
    r_cnot = ptm(CNOT)
    v = haar_unitary(4, derive_rng(50))
    sampled = dfe.dfe_estimate(v, r_cnot, dfe.dfe_plan(r_cnot), cfg=cfg, rng=derive_rng(50, 1))
    assert float.hex(sampled) == "0x1.3c36113404ea5p-2"


def test_sampled_estimate_evolves_one_block_of_bases_at_a_time():
    # the syndrome plan has 243 bases, a 4 MB stack at D = 32; an estimate takes
    # its drawn cells in plan.order, one block of entries at a time, and evolves
    # only the bases of that block's drawn entries
    r = ptm(syndrome_target())
    plan = dfe.dfe_plan(r)
    assert plan.bases.nbytes > 3_900_000 and not plan.order.flags.writeable
    assert (plan.order == np.argsort(plan.basis_index, kind="stable")).all()
    v = haar_unitary(32, derive_rng(53))
    cfg = dfe.DfeSamplingConfig(eps_fail=0.1, delta_acc=0.1)
    tracemalloc.start()
    try:
        dfe.dfe_estimate(v, r, plan, cfg=cfg, rng=derive_rng(53, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_sampled_estimate_at_the_syndrome_budget_keeps_no_table():
    # 8,000 settings draw about 7,100 of the syndrome plan's 32,768 cells; the
    # estimate evaluates only those, with no (m, D) table and no (block, D, D)
    # column stacks
    r = ptm(syndrome_target())
    plan = dfe.dfe_plan(r)
    v = haar_unitary(32, derive_rng(54))
    cfg = dfe.DfeSamplingConfig(eps_fail=0.05, delta_acc=0.05)
    assert cfg.num_settings() == 8000
    tracemalloc.start()
    try:
        dfe.dfe_estimate(v, r, plan, cfg=cfg, rng=derive_rng(54, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_250_000


_BITWISE_TARGETS = {1: lambda: haar_unitary(2, derive_rng(55, 1)),
                    2: lambda: haar_unitary(4, derive_rng(55, 2)),
                    3: lambda: haar_unitary(8, derive_rng(55, 3)),
                    5: syndrome_target}


@pytest.mark.parametrize("budget", [(0.2, 0.2), (0.05, 0.05)])
@pytest.mark.parametrize("n", sorted(_BITWISE_TARGETS))
def test_drawn_cells_and_estimates_are_the_whole_tables_bitwise(n, budget):
    # Haar targets and the syndrome plan: each drawn cell, the sampled estimate
    # and the full-support estimate equal those read from the whole table
    r = ptm(_BITWISE_TARGETS[n]())
    plan = dfe.dfe_plan(r)
    cfg = dfe.DfeSamplingConfig(*budget)
    for seed in range(3):
        v = haar_unitary(2**n, derive_rng(56, n, seed))
        table = expectation_table(v, plan)
        rng = derive_rng(57, n, seed)
        draws = rng.choice(len(plan.targets), size=cfg.num_settings(), p=plan.probs)
        ks = rng.integers(plan.dim, size=cfg.num_settings())
        assert dfe._expectations(v, plan, draws, ks).tobytes() == table[draws, ks].tobytes()
        sampled = dfe.dfe_estimate(v, r, plan, cfg=cfg, rng=derive_rng(57, n, seed))
        assert sampled.hex() == dfe_estimate_from_table(v, plan, cfg, derive_rng(57, n, seed)).hex()
        assert dfe.dfe_estimate(v, r, plan).hex() == dfe_estimate_from_table(v, plan).hex()


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
    entries = plan_entries(plan)
    draws = ref_rng.choice(len(entries), size=cfg.num_settings(), p=plan.probs)
    ks = ref_rng.integers(8, size=cfg.num_settings())
    acc = 0.0
    for idx, k in zip(draws, ks):
        i_label, j_label, target_value, _ = entries[idx]
        state, lam = pauli_eigenbasis(j_label)[k]
        exact = dfe.simulate_expectation(v, np.outer(state, state.conj()),
                                         pauli_matrix(i_label))
        ups = ref_rng.binomial(1, min(1.0, max(0.0, 0.5 * (1.0 + exact))))
        acc += lam * (2.0 * ups - 1) / target_value
    assert abs(est - (8 * acc / len(draws) + 1) / 9) < 1e-12


def test_plan_arrays_and_vanishing_target_rejected():
    plan = dfe.dfe_plan(ptm(CNOT))
    assert plan.out_codes.shape == plan.in_codes.shape == (16, 2)
    for e, (li, lj, _, _) in enumerate(plan_entries(plan)):
        assert "".join("IXYZ"[c] for c in plan.out_codes[e]) == li
        assert "".join("IXYZ"[c] for c in plan.in_codes[e]) == lj
    assert abs(plan.probs.sum() - 1.0) < 1e-15
    targets = plan.targets.copy()
    targets[3] = 0.0
    with pytest.raises(ValueError, match="vanishing"):
        dfe.DfePlan(plan.dim, plan.out_codes, plan.in_codes, targets,
                    plan.probs, plan.eigenvalues)


@pytest.mark.parametrize("target", ["cnot", "syndrome", "haar3"])
def test_blocked_kernels_do_not_depend_on_block_length(monkeypatch, target):
    # one matrix a block, the default budget, and the whole stack as one block
    u = {"cnot": CNOT, "syndrome": syndrome_target(),
         "haar3": haar_unitary(8, derive_rng(52))}[target]
    v = haar_unitary(u.shape[0], derive_rng(52, 1))
    cfg = dfe.DfeSamplingConfig(eps_fail=0.2, delta_acc=0.2)
    outputs = []
    for budget in (1, numkit.BLOCK_BYTES, 2**62):
        monkeypatch.setattr(numkit, "BLOCK_BYTES", budget)
        r = ptm(u)
        plan = dfe.dfe_plan(r)
        outputs.append((r.tobytes(), _table(v, plan).tobytes(),
                        float.hex(dfe.dfe_estimate(v, r, plan)),
                        float.hex(dfe.dfe_estimate(v, r, plan, cfg=cfg, rng=derive_rng(52, 2)))))
    assert outputs[0] == outputs[1] == outputs[2]
