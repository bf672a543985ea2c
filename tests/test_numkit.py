"""Linear-algebra and RNG primitives."""

import numpy as np
import pytest

from gatesynth import numkit


def test_kron_all_folds_left():
    mats = [np.diag([1, 2]), np.diag([1, 3]), np.diag([1, 5])]
    out = numkit.kron_all(mats)
    assert out.shape == (8, 8)
    assert out[7, 7] == 2 * 3 * 5
    with pytest.raises(ValueError):
        numkit.kron_all([])


def test_kron_qubits_matches_kron_all_fold():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        gates = rng.standard_normal((3, n, 2, 2)) + 1j * rng.standard_normal((3, n, 2, 2))
        out = numkit.kron_qubits(gates)
        assert out.shape == (3, 2**n, 2**n)
        for b in range(3):
            assert np.array_equal(out[b], numkit.kron_all(gates[b]))


def test_qubit_count():
    assert [numkit.qubit_count(d) for d in (1, 2, 32)] == [0, 1, 5]
    for dim in (0, 3, 6):
        with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two"):
            numkit.qubit_count(dim)


def test_dagger():
    m = np.array([[1, 2j], [3, 4]])
    assert np.array_equal(numkit.dagger(m), m.conj().T)


def test_hermitian_and_unitary_predicates():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = z + z.conj().T
    assert numkit.is_hermitian(h)
    assert not numkit.is_hermitian(h + 1e-6 * 1j * np.eye(5))
    u = numkit.haar_unitary(5, rng)
    assert numkit.is_unitary(u)
    assert not numkit.is_unitary(1.001 * u)


def test_expm_hermitian_diagonal_phases():
    z = np.diag([1.0, -1.0]).astype(complex)
    u = numkit.expm_hermitian(z, np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-12)


def test_expm_hermitian_matches_taylor_series():
    rng = np.random.default_rng(1)
    for k in range(5):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (z + z.conj().T) / 2
        t = rng.uniform(0.1, 2.0)
        series = np.zeros((4, 4), dtype=complex)
        term = np.eye(4, dtype=complex)
        for order in range(40):
            series += term
            term = term @ (-1j * t * h) / (order + 1)
        assert np.abs(numkit.expm_hermitian(h, t) - series).max() < 1e-8


def test_expm_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        numkit.expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_hermitian_unitary_output():
    rng = np.random.default_rng(2)
    for k in range(10):
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (z + z.conj().T) / 2
        assert numkit.is_unitary(numkit.expm_hermitian(h, rng.uniform(0, 5)))


def test_derive_rng_reproducible_and_keyed():
    a = numkit.derive_rng(5, 1).standard_normal(4)
    b = numkit.derive_rng(5, 1).standard_normal(4)
    c = numkit.derive_rng(5, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable():
    assert numkit.derive_seed(7, 1, 2) == numkit.derive_seed(7, 1, 2)
    assert numkit.derive_seed(7, 1, 2) != numkit.derive_seed(7, 2, 1)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(4)
    for dim in (2, 4, 8):
        assert numkit.is_unitary(numkit.haar_unitary(dim, rng))
