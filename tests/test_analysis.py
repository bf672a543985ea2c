"""Canonical coordinates, operator Schmidt spectra, and entangling power."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gatesynth import analysis
from gatesynth.channels import CNOT, SWAP, agf_unitary
from gatesynth.numkit import derive_rng, expm_hermitian, haar_unitary
from reference import cartan_coordinates as cartan_by_diagonalization, local_invariants

PI4 = np.pi / 4


def _random_chamber_point(rng, margin=0.02):
    """Interior chamber point pi/4 > c_x > c_y > |c_z| > 0 with gaps."""
    while True:
        cx, cy, cz = np.sort(rng.uniform(margin, PI4 - margin, 3))[::-1]
        if cx - cy > margin and cy - cz > margin and cz > margin:
            sign = 1 if rng.uniform() < 0.5 else -1
            return np.array([cx, cy, sign * cz])


def _random_local(rng):
    return np.kron(haar_unitary(2, rng), haar_unitary(2, rng))


def test_canonical_gate_corners():
    assert np.allclose(analysis.canonical_gate([0, 0, 0]), np.eye(4))
    swap_like = analysis.canonical_gate([PI4, PI4, PI4])
    assert abs(agf_unitary(SWAP, swap_like) - 1.0) < 1e-12
    cnot_like = analysis.canonical_gate([PI4, 0, 0])
    assert np.abs(analysis.cartan_coordinates(cnot_like) - [PI4, 0, 0]).max() < 1e-9


def test_cartan_corners():
    assert np.abs(analysis.cartan_coordinates(np.eye(4))).max() < 1e-9
    assert np.abs(analysis.cartan_coordinates(CNOT) - [PI4, 0, 0]).max() < 1e-9
    assert np.abs(analysis.cartan_coordinates(SWAP) - [PI4, PI4, PI4]).max() < 1e-9


def test_cartan_rejects_bad_input():
    with pytest.raises(ValueError):
        analysis.cartan_coordinates(np.eye(4) * 2.0)
    with pytest.raises(ValueError):
        analysis.cartan_coordinates(np.eye(8))


def test_cartan_roundtrip_interior():
    rng = derive_rng(60)
    for k in range(25):
        c = _random_chamber_point(rng)
        got = analysis.cartan_coordinates(analysis.canonical_gate(c))
        assert np.abs(got - c).max() < 1e-8, (c, got)


@settings(max_examples=100, deadline=None)
@given(coords=st.lists(st.floats(0.02, PI4 - 0.02), min_size=3, max_size=3),
       sign=st.sampled_from((1, -1)))
def test_cartan_roundtrip_interior_property(coords, sign):
    # the interior _random_chamber_point samples: pi/4 > c_x > c_y > |c_z| > 0 with gaps
    margin = 0.02
    cx, cy, cz = sorted(coords, reverse=True)
    assume(cx - cy > margin and cy - cz > margin and cz > margin)
    c = np.array([cx, cy, sign * cz])
    got = analysis.cartan_coordinates(analysis.canonical_gate(c))
    assert np.abs(got - c).max() < 1e-8, (c, got)


def test_cartan_local_invariance():
    rng = derive_rng(61)
    for k in range(25):
        c = _random_chamber_point(rng)
        u = analysis.canonical_gate(c)
        v = _random_local(rng) @ u @ _random_local(rng)
        got = analysis.cartan_coordinates(v)
        assert np.abs(got - c).max() < 1e-8, (c, got)


def test_cartan_agrees_with_local_invariants():
    # independent oracle: two gates share canonical coordinates iff their
    # Makhlin-style invariants agree
    rng = derive_rng(62)
    for k in range(15):
        u = haar_unitary(4, rng)
        c = analysis.cartan_coordinates(u)
        g_u = local_invariants(u)
        g_c = local_invariants(analysis.canonical_gate(c))
        assert abs(g_u[0] - g_c[0]) < 1e-8
        assert abs(g_u[1] - g_c[1]) < 1e-8


def test_local_invariants_are_locally_invariant():
    rng = derive_rng(63)
    u = haar_unitary(4, rng)
    g = local_invariants(u)
    for k in range(5):
        h = local_invariants(_random_local(rng) @ u @ _random_local(rng))
        assert abs(g[0] - h[0]) < 1e-10 and abs(g[1] - h[1]) < 1e-10


def test_operator_schmidt_examples():
    lam = analysis.operator_schmidt(np.eye(4))
    assert np.abs(lam - [4, 0, 0, 0]).max() < 1e-12
    lam = analysis.operator_schmidt(CNOT)
    assert np.abs(lam - [2, 2, 0, 0]).max() < 1e-12
    lam = analysis.operator_schmidt(SWAP)
    assert np.abs(lam - [1, 1, 1, 1]).max() < 1e-12


def test_operator_schmidt_sums_to_four():
    rng = derive_rng(64)
    for k in range(10):
        lam = analysis.operator_schmidt(haar_unitary(4, rng))
        assert abs(lam.sum() - 4.0) < 1e-10
        assert lam.min() > -1e-12


def test_operator_entanglement_values():
    assert abs(analysis.operator_entanglement(np.eye(4))) < 1e-12
    assert abs(analysis.operator_entanglement(CNOT) - 0.5) < 1e-12
    assert abs(analysis.operator_entanglement(SWAP) - 0.75) < 1e-12


def test_entangling_power_examples():
    assert abs(analysis.entangling_power(CNOT) - 2.0 / 9.0) < 1e-12
    assert abs(analysis.entangling_power(SWAP)) < 1e-12
    assert abs(analysis.entangling_power(np.eye(4))) < 1e-12


def test_entangling_power_range_and_locals():
    rng = derive_rng(65)
    for k in range(10):
        u = haar_unitary(4, rng)
        ep = analysis.entangling_power(u)
        assert -1e-12 <= ep <= 2.0 / 9.0 + 1e-12
        v = _random_local(rng) @ u @ _random_local(rng)
        assert abs(analysis.entangling_power(v) - ep) < 1e-10


def test_entangling_power_mc():
    rng = derive_rng(66)
    assert abs(analysis.entangling_power_mc(SWAP, 500, rng)) < 1e-12
    est = analysis.entangling_power_mc(CNOT, 40000, derive_rng(66, 1))
    assert abs(est - 2.0 / 9.0) < 0.003
    u = haar_unitary(4, derive_rng(66, 2))
    est = analysis.entangling_power_mc(u, 40000, derive_rng(66, 3))
    assert abs(est - analysis.entangling_power(u)) < 0.004
    with pytest.raises(ValueError):
        analysis.entangling_power_mc(CNOT, 0, rng)


def test_best_local_approximation_of_cnot():
    # Cauchy-Schwarz on the operator-Schmidt decomposition bounds the overlap
    # of any product A (x) B with CNOT by |Tr|^2 <= 4 * lambda_max = 8, so
    # the fidelity ceiling is (lambda_max + 1) / 5 = 0.6; the witness
    # attains it and random products never exceed it
    ceiling = (max(analysis.operator_schmidt(CNOT)) + 1.0) / 5.0
    assert abs(ceiling - 0.6) < 1e-12
    witness = np.kron(np.diag([1.0, -1.0j]), expm_hermitian(np.array([[0, 1], [1, 0]]), -PI4))
    assert abs(agf_unitary(CNOT, witness) - 0.6) < 1e-12
    rng = derive_rng(67)
    best = max(agf_unitary(CNOT, _random_local(rng)) for _ in range(300))
    assert best <= 0.6 + 1e-9


def test_cartan_from_eigenvalues_matches_simultaneous_diagonalization():
    # Haar gates, locally scrambled canonical gates and the degenerate corners,
    # whose M^T M has repeated eigenvalues
    rng = derive_rng(61)
    corners = [np.eye(4), CNOT, SWAP, analysis.canonical_gate([PI4, PI4, 0.0]),
               analysis.canonical_gate([PI4 / 2, 0.0, 0.0])]
    gates = [haar_unitary(4, rng) for _ in range(40)] + [
        _random_local(rng) @ g @ _random_local(rng)
        for g in corners + [analysis.canonical_gate(_random_chamber_point(rng))
                            for _ in range(20)]]
    for u in gates:
        got, ref = analysis.cartan_coordinates(u), cartan_by_diagonalization(u)
        assert np.abs(got - ref).max() < 1e-12, (got, ref)
