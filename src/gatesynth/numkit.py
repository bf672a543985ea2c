"""Dense complex linear algebra and seeded randomness shared by all modules.

Conventions used throughout the package:
  * qubit 1 is the leftmost (most significant) Kronecker factor;
  * Hamiltonians are Hermitian matrices in angular units (rad/ns);
  * time evolution is exp(-i*H*t), computed by eigendecomposition so the
    result is unitary to rounding error.
"""

import numpy as np

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
# working-set budget of the blocked kernels (channels.ptm, the DFE expectation
# table): bytes of one (block, D, D) complex transient, so that the few a
# block holds stay in a core's 2 MB L2 cache; 16 matrices at D = 32
BLOCK_BYTES = 2**18


class PhaseError(ValueError):
    """A finite phase w*t of expm_hermitian that floats cannot resolve."""


def kron_all(mats):
    """Left-fold Kronecker product of a sequence of matrices."""
    mats = list(mats)
    if not mats:
        raise ValueError("kron_all needs at least one matrix")
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def kron_qubits(gates):
    """Tensor product over the qubit axis, first qubit most significant:
    gates of shape (..., n, 2, 2) give operators of shape (..., 2^n, 2^n)."""
    out = gates[..., 0, :, :]
    for j in range(1, gates.shape[-3]):
        size = 2 * out.shape[-1]
        out = out[..., :, None, :, None] * gates[..., j, None, :, None, :]
        out = out.reshape(out.shape[:-4] + (size, size))
    return out


def qubit_count(dim):
    """The n of a register dimension dim = 2**n; ValueError for any other."""
    n = int(dim).bit_length() - 1
    if dim < 1 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def block_length(dim):
    """Matrices per block of a kernel over stacks of dim x dim complex
    matrices: as many as BLOCK_BYTES holds, and at least one."""
    return max(1, BLOCK_BYTES // (16 * dim * dim))


def dagger(a):
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., D, D)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def is_hermitian(h):
    h = np.asarray(h)
    return np.abs(h - dagger(h)).max() < HERMITIAN_ATOL


def is_unitary(u):
    u = np.asarray(u)
    return np.abs(u @ dagger(u) - np.eye(u.shape[-1])).max() < UNITARY_ATOL


def expm_hermitian(h, t=1.0):
    """exp(-i*h*t) for Hermitian h (rad/ns) over duration t (ns), or for each
    matrix of a stack (..., D, D) by one batched eigh, each bitwise the call on
    that matrix alone; PhaseError if a finite phase w*t of any of them is above
    2**52 rad, where exp(-i*w*t) is noise."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("generator is not Hermitian")
    w, v = np.linalg.eigh(h)
    phase = np.maximum(-w[..., 0], w[..., -1]) * abs(t)  # eigh sorts w ascending
    phase = np.where(phase < np.inf, phase, 0.0).max()  # the largest finite one
    if phase > 2.0**52:
        raise PhaseError(f"phase {phase:.3g} rad is above 2**52 rad, where floats are 1 rad apart")
    return (v * np.exp(-1j * w[..., None, :] * t)) @ dagger(v)


def derive_rng(seed, *key):
    """Deterministic child generator keyed by integers, safe for parallel use."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(seed, *key):
    """Deterministic 64-bit child seed keyed by integers (for configs that
    carry a plain integer seed rather than a generator)."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def haar_unitary(dim, rng):
    """Haar-distributed random unitary via QR of a complex Gaussian matrix
    with the standard phase correction."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
