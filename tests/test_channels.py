"""Pauli algebra, fidelities, and Pauli transfer matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesynth import channels
from gatesynth.devices import syndrome_target
from gatesynth.numkit import dagger, derive_rng, expm_hermitian, haar_unitary, kron_all, qubit_count
from reference import pauli_basis, pauli_label, pauli_labels


def test_pauli_label_index_roundtrip():
    for n in (1, 2, 3):
        labels = pauli_labels(n)
        assert len(labels) == 4**n
        assert labels[0] == "I" * n
        for idx, label in enumerate(labels):
            assert [channels.PAULI_LETTERS.index(ch) for ch in label] == list(
                channels.pauli_codes(idx, n))
            assert pauli_label(idx, n) == label


def test_pauli_matrix_values():
    assert np.array_equal(channels.pauli_matrix("Z"), np.diag([1, -1]))
    zx = channels.pauli_matrix("ZX")
    assert np.allclose(zx, np.kron(np.diag([1, -1]), [[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        channels.pauli_matrix("Q")
    with pytest.raises(ValueError):
        channels.pauli_matrix("")


# the single-qubit Paulis written out here, so the batched tensor product
# behind pauli_matrix and pauli_basis is checked against an independent fold
_LETTERS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def test_pauli_matrix_and_basis_match_kron_fold():
    for n in (1, 2, 3):
        basis = pauli_basis(n)
        assert basis.shape == (4**n, 2**n, 2**n) and not basis.flags.writeable
        for idx, label in enumerate(pauli_labels(n)):
            fold = kron_all([_LETTERS[ch] for ch in label])
            mat = channels.pauli_matrix(label)
            assert not mat.flags.writeable
            assert np.array_equal(mat, fold) and np.array_equal(basis[idx], fold)
    with pytest.raises(ValueError):
        channels.pauli_matrix("XZ")[0, 0] = 2.0
    with pytest.raises(ValueError):
        pauli_basis(0)


def test_pauli_action_is_the_pauli_matrix():
    for n in (1, 2, 3):
        labels = pauli_labels(n)
        perm, phase = channels.pauli_action(channels.pauli_codes(np.arange(4**n), n))
        assert perm.shape == phase.shape == (4**n, 2**n)
        rows = np.arange(2**n)
        for idx, label in enumerate(labels):
            mat = np.zeros((2**n, 2**n), dtype=complex)
            mat[rows, perm[idx]] = phase[idx]
            assert np.array_equal(mat, channels.pauli_matrix(label))


def test_pauli_basis_orthogonality():
    basis = pauli_basis(2)
    gram = np.einsum("iab,jba->ij", basis, basis).real
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-12)


def test_agf_closed_form_against_haar_average():
    # oracle: mean state fidelity |<psi|u^dag v|psi>|^2 over Haar states
    rng = derive_rng(11)
    u = haar_unitary(4, rng)
    v = haar_unitary(4, rng)
    closed = channels.agf_unitary(u, v)
    samples = 200_000
    states = rng.standard_normal((samples, 4)) + 1j * rng.standard_normal((samples, 4))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    overlaps = np.einsum("sa,ab,sb->s", states.conj(), u.conj().T @ v, states)
    mc = float(np.mean(np.abs(overlaps) ** 2))
    assert abs(mc - closed) < 0.005


def test_agf_phase_invariance_and_bounds():
    rng = derive_rng(12)
    for k in range(20):
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        f = channels.agf_unitary(u, v)
        assert 0.0 < f <= 1.0
        assert abs(channels.agf_unitary(u, np.exp(1j * 0.7) * v) - f) < 1e-12
    assert abs(channels.agf_unitary(u, u) - 1.0) < 1e-12
    assert channels.agf_unitary(u, u) <= 1.0
    assert abs(channels.agi(u, u)) < 1e-12
    assert channels.agi(u, u) >= 0.0


def test_agf_dimension_mismatch():
    with pytest.raises(ValueError):
        channels.agf_unitary(np.eye(2), np.eye(4))


def test_agf_identity_vs_cnot():
    assert abs(channels.agf_unitary(channels.CNOT, np.eye(4)) - 0.4) < 1e-12


def _near_and_far(u, count, rng):
    """`count` unitaries: u itself, u up to a phase, u nudged by ever smaller
    rotations (AGIs near the clamp at 0, where rounding shows) and Haar draws."""
    d = u.shape[0]
    out = [u, np.exp(0.3j) * u]
    for k in range(count - 2):
        if k % 2:
            out.append(haar_unitary(d, rng))
        else:
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            out.append(u @ expm_hermitian((h + h.conj().T) * 10.0 ** -(k + 2)))
    return np.array(out[:count])


@pytest.mark.parametrize("d", [2, 4, 32])
@pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
def test_agi_of_a_stack_is_each_one_unitary_call_bitwise(d, batch):
    rng = derive_rng(31, d, len(batch))
    u = haar_unitary(d, rng)
    stack = _near_and_far(u, int(np.prod(batch)), rng).reshape(batch + (d, d))
    got = channels.agi(u, stack)
    if not batch:
        assert isinstance(got, float)  # a Python or numpy scalar, not a 0-d array
        got = np.array(got)
    assert got.shape == batch
    for idx in np.ndindex(batch):
        alone = channels.agi(u, stack[idx])
        assert isinstance(alone, float)
        assert got[idx].hex() == alone.hex()
        # the closed form on Python scalars: abs() of one complex trace at a time
        overlap = abs(complex(np.trace(dagger(u) @ stack[idx]))) ** 2
        assert alone == 1.0 - min(1.0, (overlap / d + 1.0) / (d + 1.0))
        assert 0.0 <= alone <= 1.0
        assert channels.agf_unitary(u, stack[idx]) == 1.0 - alone


@pytest.mark.parametrize("u, v", [
    (np.eye(4)[0], np.eye(4)),                      # u is not 2-D
    (np.eye(4)[None], np.eye(4)[None]),             # nor is a stack of one
    (np.ones((2, 4)), np.ones((2, 4))),             # u is not square
    (np.eye(4), np.eye(2)),                         # v of another D
    (np.eye(4), np.stack([np.eye(2)] * 3)),         # a stack of another D
    (np.eye(4), np.eye(4)[0]),                      # v is not a matrix
])
def test_agi_rejects_a_u_that_is_not_a_matrix_or_a_v_of_another_dimension(u, v):
    with pytest.raises(ValueError):
        channels.agi(u, v)


def test_ptm_identity_channel():
    assert np.allclose(channels.ptm(np.eye(2)), np.eye(4), atol=1e-12)
    assert np.allclose(channels.ptm(np.eye(4)), np.eye(16), atol=1e-12)


def test_ptm_bit_flip():
    r = channels.ptm(channels.SIGMA_X)
    assert np.allclose(r, np.diag([1, 1, -1, -1]), atol=1e-12)


def test_ptm_is_real_orthogonal_for_unitaries():
    rng = derive_rng(13)
    for k in range(10):
        r = channels.ptm(haar_unitary(4, rng))
        assert r.dtype.kind == "f"
        assert np.abs(r @ r.T - np.eye(16)).max() < 1e-10
        assert abs(r[0, 0] - 1.0) < 1e-12
        assert np.abs(r[0, 1:]).max() < 1e-12


@st.composite
def _unitaries(draw):
    """exp(-iH) for a Hermitian H = A + A^dag on 1 or 2 qubits, with A's real
    and imaginary parts drawn entry by entry (zero included: the identity)."""
    dim = 2 ** draw(st.integers(1, 2))
    parts = draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * dim * dim, max_size=2 * dim * dim))
    a = np.array(parts[::2]).reshape(dim, dim) + 1j * np.array(parts[1::2]).reshape(dim, dim)
    return expm_hermitian(a + a.conj().T)


@settings(max_examples=50, deadline=None)
@given(u=_unitaries())
def test_ptm_is_real_orthogonal_for_unitaries_property(u):
    r = channels.ptm(u)
    assert r.dtype.kind == "f"
    assert np.abs(r @ r.T - np.eye(len(r))).max() < 1e-10
    assert abs(r[0, 0] - 1.0) < 1e-12
    assert np.abs(r[0, 1:]).max() < 1e-12


def _ptm_by_einsum(u):
    """The transfer matrix from the dense Pauli basis, two einsums."""
    basis = pauli_basis(qubit_count(u.shape[0]))
    conj = np.einsum("ab,jbc,dc->jad", u, basis, u.conj(), optimize=True)
    return np.einsum("iab,jba->ij", basis, conj, optimize=True).real / u.shape[0]


def test_ptm_of_cliffords_equals_the_dense_formula_exactly():
    for u in (channels.CNOT, syndrome_target()):
        assert np.array_equal(channels.ptm(u), _ptm_by_einsum(u))
    u = haar_unitary(8, derive_rng(16))
    assert np.abs(channels.ptm(u) - _ptm_by_einsum(u)).max() < 1e-15


def test_ptm_entry_definition():
    # R_ij = Tr[s_i u s_j u^dag]/D, spot-checked directly
    rng = derive_rng(14)
    u = haar_unitary(4, rng)
    r = channels.ptm(u)
    basis = pauli_basis(2)
    for i, j in [(1, 2), (5, 11), (0, 0), (15, 7)]:
        direct = np.trace(basis[i] @ u @ basis[j] @ u.conj().T).real / 4
        assert abs(r[i, j] - direct) < 1e-12


def test_agf_from_ptms_matches_unitary_formula():
    rng = derive_rng(15)
    for k in range(20):
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        f0 = channels.agf_unitary(u, v)
        f1 = channels.agf_from_ptms(channels.ptm(u), channels.ptm(v))
        assert abs(f0 - f1) < 1e-10
    with pytest.raises(ValueError):
        channels.agf_from_ptms(np.eye(16), np.eye(4))


@pytest.mark.parametrize("side", [8, 3])
def test_agf_from_ptms_rejects_a_side_that_is_not_a_power_of_four(side):
    # such a side used to be rounded to a dimension: 8 gave 0.9167, 3 gave 0.8333
    with pytest.raises(ValueError, match=rf"\({side}, {side}\)"):
        channels.agf_from_ptms(np.eye(side), np.eye(side))
