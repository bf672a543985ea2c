"""Tests of the benchmark's oracles against known identities, and against the
program on the same inputs.

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import oracles


def close_up_to_phase(a, b, atol=1e-12):
    return abs(oracles.agf(a, b) - 1.0) < atol


def test_euler_gate_closed_forms():
    assert np.allclose(oracles.euler_gate(np.pi / 2, 0, 0), -1j * oracles.X)
    assert np.allclose(oracles.euler_gate(0, np.pi / 2, 0), -1j * oracles.Y)
    assert np.allclose(oracles.euler_gate(0, 0, 0), np.eye(2))


def test_identity_circuit_has_agf_one():
    theta = np.zeros((3, 2, 3))
    u = oracles.circuit(theta, [np.eye(4)] * 2)
    assert np.allclose(u, np.eye(4))
    assert oracles.agf(np.eye(4), u) == pytest.approx(1.0, abs=1e-15)


def test_agf_of_orthogonal_unitaries():
    # Tr(I^dag (X (x) I)) = 0, so AGF = (0/4 + 1)/5
    assert oracles.agf(np.eye(4), np.kron(oracles.X, oracles.I2)) == pytest.approx(0.2)


def test_layer_acts_per_qubit_like_the_tensor_product():
    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * np.pi, size=(3, 3))
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    layer = np.kron(np.kron(*[oracles.euler_gate(*a) for a in angles[:2]]),
                    oracles.euler_gate(*angles[2]))
    assert np.allclose(oracles.apply_layer(angles, m), layer @ m)


def test_ideal_limit_tpcx_segments_give_cnot():
    zx = np.kron(oracles.Z, oracles.X)
    seg_minus = oracles.evolve(zx, np.pi / 8)  # exp(-i pi/8 ZX), the -omega slot
    seg_plus = oracles.evolve(zx, -np.pi / 8)
    assert close_up_to_phase(oracles.cnot(), oracles.tpcx_from_segments(seg_minus, seg_plus))


def test_parity_target_is_four_cnots_onto_q0():
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    u = np.eye(32)
    for i in range(4):
        u = (oracles.embed(p0, i, 5) + oracles.embed(p1, i, 5) @ oracles.embed(oracles.X, 4, 5)) @ u
    assert np.allclose(oracles.parity_target(), u)
    assert np.allclose(oracles.parity_target() @ oracles.parity_target(), np.eye(32))


def test_four_cr_with_one_driven_pair_is_that_pair_on_q4_q0():
    pair = (211.0, 5.0, 0.3, 0.7)
    idle = (0.0, 0.0, 0.0, 0.0)
    h = oracles.four_cr_hamiltonian([idle, idle, idle, pair], [0.0, 0.0, 0.0, 80.0])
    assert np.allclose(h, np.kron(np.eye(8), oracles.cr_hamiltonian(*pair, 80.0)))
    assert np.allclose(h, h.conj().T)


# ------------------------------------------------- agreement with the program

def test_cr_and_tpcx_match_the_program():
    from gatesynth import CrossResonancePair, DriveSpec, cr_gate, tpcx

    pair = CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    mine = oracles.evolve(oracles.cr_hamiltonian(200.0, 5.0, 0.1, np.pi / 4, 120.0), 75.0)
    assert np.allclose(mine, cr_gate(pair, DriveSpec(120.0, 75.0)), atol=1e-12)
    assert np.allclose(oracles.tpcx(200.0, 5.0, 0.1, np.pi / 4, 120.0, 75.0),
                       tpcx(pair, 120.0, 75.0), atol=1e-12)


def test_four_cr_and_parity_target_match_the_program():
    from gatesynth import CrossResonancePair, FourQubitDevice, four_cr_gate, syndrome_target

    pairs = [(211.0, 5.0, 0.1, 0.6), (223.0, 5.7, 0.3, 4.4), (236.0, 5.3, 0.7, 3.1),
             (248.0, 5.4, 0.2, 1.9)]
    omegas = [95.9, 85.6, 106.0, 105.0]
    dev = FourQubitDevice(tuple(CrossResonancePair(*p) for p in pairs))
    mine = oracles.evolve(oracles.four_cr_hamiltonian(pairs, omegas), 75.0)
    assert np.allclose(mine, four_cr_gate(dev, omegas, 75.0), atol=1e-11)
    assert np.allclose(oracles.parity_target(), syndrome_target())


def test_circuit_and_agi_match_the_program():
    from gatesynth import CNOT, agi_cost, build_circuit

    rng = np.random.default_rng(7)
    theta = rng.uniform(0, 2 * np.pi, size=(3, 2, 3))
    sources = [oracles.evolve(oracles.cr_hamiltonian(200.0, 5.0, 0.0, 0.0, 90.0), 75.0)] * 2
    assert np.allclose(oracles.circuit(theta, sources), build_circuit(theta, sources))
    assert oracles.agi(oracles.cnot(), oracles.circuit(theta, sources)) == pytest.approx(
        agi_cost(theta, sources, CNOT), abs=1e-13)
