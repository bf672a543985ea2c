"""Pauli algebra, average gate fidelity, and Pauli transfer matrices.

A Pauli string is a row of letter codes I=0, X=1, Y=2, Z=3 (the rows of the
read-only PAULI_STACK), qubit 1 first, or for pauli_matrix a label over {I, X,
Y, Z}; its index is the base-4 reading of the codes, so index 0 is I...I.
"""

import math
from functools import lru_cache

import numpy as np

from .numkit import block_length, dagger, kron_qubits, qubit_count

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_LETTERS = "IXYZ"
PAULI_STACK = np.stack([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_STACK.flags.writeable = False
# each letter as a signed permutation, P[r, perm[r]] = phase[r]
_LETTER_PERM = np.abs(PAULI_STACK).argmax(axis=2)
_LETTER_PHASE = np.take_along_axis(PAULI_STACK, _LETTER_PERM[:, :, None], axis=2)[:, :, 0]

S_GATE = np.diag([1, 1j]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def pauli_codes(indices, n):
    """Base-4 digits of Pauli indices, first qubit first: shape (..., n)."""
    return (np.asarray(indices)[..., None] // 4 ** np.arange(n - 1, -1, -1)) % 4


@lru_cache(maxsize=4096)
def pauli_matrix(label):
    """Tensor product of single-qubit Paulis for a label string. Cached;
    treat the returned array as read-only."""
    bad = set(label) - set(PAULI_LETTERS)
    if bad or not label:
        raise ValueError(f"invalid Pauli label {label!r}")
    mat = kron_qubits(PAULI_STACK[[PAULI_LETTERS.index(ch) for ch in label]])
    mat.flags.writeable = False
    return mat


def pauli_action(codes):
    """Pauli strings as signed permutations: letter codes of shape (..., n)
    give perm and phase of shape (..., 2^n), with P[r, perm[r]] = phase[r]
    the one nonzero entry of row r of the string's matrix."""
    codes = np.asarray(codes)
    perm = _LETTER_PERM[codes[..., 0]]
    phase = _LETTER_PHASE[codes[..., 0]]
    for j in range(1, codes.shape[-1]):
        perm = 2 * perm[..., :, None] + _LETTER_PERM[codes[..., j], None, :]
        phase = phase[..., :, None] * _LETTER_PHASE[codes[..., j], None, :]
        perm = perm.reshape(perm.shape[:-2] + (-1,))
        phase = phase.reshape(phase.shape[:-2] + (-1,))
    return perm, phase


def agf_unitary(u, v):
    """Average gate fidelity between two unitaries of equal dimension."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch {u.shape} vs {v.shape}")
    return agf_from_trace(np.trace(dagger(u) @ v), u.shape[0])


def agf_from_trace(tau, d):
    """Average gate fidelity from tau = Tr(U^dag V) of two d x d unitaries."""
    overlap = abs(tau) ** 2
    # rounding can push the overlap a few ulp past its exact ceiling D^2
    return min(1.0, (overlap / d + 1.0) / (d + 1.0))


def agis_from_traces(tau, d):
    """[1 - agf_from_trace(t, d) for each t of the array tau, in C order]: abs() per
    element, as numpy's vectorized complex abs can differ from the scalar one in the last bit."""
    return [1.0 - agf_from_trace(t, d) for t in np.ravel(tau)]


def agi(u, v):
    """Average gate infidelity, 1 - AGF."""
    return 1.0 - agf_unitary(u, v)


def ptm(u):
    """Pauli transfer matrix R_ij = Tr[s_i u s_j u†]/D of a unitary channel.

    For a block of columns j (numkit.block_length of them, so that each
    (block, D, D) transient stays in cache), M_j = u s_j u† comes from one
    batched matmul, s_j u† being the rows of u† gathered and signed. With
    s_i = i^(x.z) X^x Z^z for bit masks x and z, Tr[s_i M] = (-i)^(x.z)
    sum_r (-1)^(z.r) M[r ^ x, r]: a Walsh-Hadamard transform of the
    x-diagonals of M, one matmul for every row i at once."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    n = qubit_count(d)
    codes = pauli_codes(np.arange(d * d), n)
    perm, phase = pauli_action(codes)
    rows = np.arange(d)
    x_masks = perm[:, 0]  # perm[r] = r ^ x
    z_masks = (codes >= 2) @ 2 ** np.arange(n - 1, -1, -1)  # Y and Z letters
    signs = np.array([1, -1j, -1, 1j])[(codes == 2).sum(axis=1) % 4]  # (-i)^(x.z), x.z = #Y
    walsh = kron_qubits(np.broadcast_to([[1.0, 1.0], [1.0, -1.0]], (n, 2, 2)))  # (-1)^(z.r)
    u_dag = dagger(u)
    r = np.empty((d * d, d * d))
    step = block_length(d)
    for start in range(0, d * d, step):
        block = slice(start, start + step)
        m = u @ (u_dag[perm[block]] * phase[block, :, None])
        diagonals = m[:, rows ^ rows[:, None], rows]  # [j, x, r] = M_j[r ^ x, r]
        traces = (diagonals @ walsh)[:, x_masks, z_masks]  # [j, i]
        r[:, block] = (signs * traces).real.T / d
    return r


def agf_from_ptms(r_target, r_channel):
    """AGF from two Pauli transfer matrices of the same size."""
    r_target = np.asarray(r_target)
    r_channel = np.asarray(r_channel)
    if r_target.shape != r_channel.shape:
        raise ValueError(f"size mismatch {r_target.shape} vs {r_channel.shape}")
    side = r_target.shape[0] if r_target.ndim else 0
    d = math.isqrt(side)
    if r_target.shape != (side, side) or side < 4 or d * d != side or d & (d - 1):
        raise ValueError(f"PTM shape {r_target.shape} is not square with a side of 4^n")
    return min(1.0, (np.sum(r_target * r_channel) / d + 1.0) / (d + 1.0))
