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


def test_block_length_fills_the_budget_with_at_least_one_matrix(monkeypatch):
    # a (block, D, D) complex stack takes block * D^2 * 16 bytes
    assert numkit.block_length(32) * 32**2 * 16 <= numkit.BLOCK_BYTES
    assert (numkit.block_length(32) + 1) * 32**2 * 16 > numkit.BLOCK_BYTES
    monkeypatch.setattr(numkit, "BLOCK_BYTES", 1)
    assert numkit.block_length(2) == numkit.block_length(32) == 1


def test_qubit_count():
    assert [numkit.qubit_count(d) for d in (1, 2, 32)] == [0, 1, 5]
    for dim in (0, 3, 6):
        with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two"):
            numkit.qubit_count(dim)


def test_dagger():
    m = np.array([[1, 2j], [3, 4]])
    assert np.array_equal(numkit.dagger(m), m.conj().T)


def test_dagger_and_predicates_act_per_matrix_of_a_stack():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert np.array_equal(numkit.dagger(z), np.array([m.conj().T for m in z]))
    h = z + numkit.dagger(z)
    u = np.array([numkit.haar_unitary(4, rng) for _ in range(3)])
    assert numkit.is_hermitian(h) and numkit.is_unitary(u)
    # one bad member of the stack is enough
    assert not numkit.is_hermitian(h + 1e-6j * (np.arange(3) == 1)[:, None, None] * np.eye(4))
    assert not numkit.is_unitary(u * np.array([1.0, 1.0, 1.001])[:, None, None])


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


def test_expm_hermitian_rejects_phases_beyond_float_resolution():
    h = np.diag([1.0, -2.0])
    assert numkit.is_unitary(numkit.expm_hermitian(h, 2.0**51))
    for t in (2.0**52, -(2.0**52)):
        with pytest.raises(ValueError, match="above 2\\*\\*52 rad"):
            numkit.expm_hermitian(h, t)
    with np.errstate(all="ignore"):  # a phase that overflows is NaN, not an error
        assert np.isnan(numkit.expm_hermitian(h, 1e308)).any()


def test_expm_hermitian_on_a_stack_is_bitwise_each_call_alone():
    rng = np.random.default_rng(9)
    for dim, count in ((2, 1), (4, 82), (32, 3)):
        z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        h = z + numkit.dagger(z)
        for t in (0.0, 75.0, -1.3):
            stacked = numkit.expm_hermitian(h, t)
            assert stacked.shape == (count, dim, dim)
            for k in range(count):
                assert stacked[k].tobytes() == numkit.expm_hermitian(h[k], t).tobytes()
    # a (2, 3) stack of stacks too
    h4 = h[:1].repeat(6, axis=0).reshape(2, 3, 32, 32)
    last = numkit.expm_hermitian(h4, 2.0)[1, 2]
    assert last.tobytes() == numkit.expm_hermitian(h[0], 2.0).tobytes()


def test_expm_hermitian_phase_check_covers_every_member_of_a_stack():
    h = np.array([np.diag([1.0, -1.0]), np.diag([2.0**40, 0.0]), np.diag([0.5, 0.0])])
    assert numkit.is_unitary(numkit.expm_hermitian(h[[0, 2]], 2.0**51))
    with pytest.raises(numkit.PhaseError, match="above 2\\*\\*52 rad"):
        numkit.expm_hermitian(h, 2.0**13)
    with pytest.raises(ValueError, match="not Hermitian"):
        numkit.expm_hermitian(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


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
