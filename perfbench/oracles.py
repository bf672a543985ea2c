"""Reference computations for the benchmark's correctness checks.

Each circuit is rebuilt from its stored angles with the formulas written in
the gatesynth docstrings, using numpy and scipy.linalg.expm only. Nothing is
imported from gatesynth, so a fault in one of its helpers cannot also hide in
the check of its output.
"""

import numpy as np
from scipy.linalg import expm

MHZ_TO_RAD_PER_NS = 2.0e-3 * np.pi

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
LOWER = RAISE.conj().T  # |0><1|
S = np.diag([1.0, 1.0j])


def permutation_gate(n, image):
    """Unitary sending basis state b to image(b) on n qubits (qubit 1 is the
    most significant bit of the index)."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        u[image(b), b] = 1.0
    return u


def cnot():
    """Control qubit 1, target qubit 2."""
    return permutation_gate(2, lambda b: b ^ 1 if b & 2 else b)


def parity_target():
    """Register (Q1, Q2, Q3, Q4, Q0): Q0 picks up the parity of Q1..Q4."""
    return permutation_gate(5, lambda b: b ^ (bin(b >> 1).count("1") & 1))


def euler_gate(t0, t1, t2):
    """exp(-i*t0*X) exp(-i*t1*Y) exp(-i*t2*X)."""
    return expm(-1j * t0 * X) @ expm(-1j * t1 * Y) @ expm(-1j * t2 * X)


def embed(op, slot, n):
    """op on tensor slot `slot` (0 = leftmost) of an n-qubit register."""
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == slot else I2)
    return out


def cr_hamiltonian(delta, g, eps, phi, omega):
    """2*pi*1e-3 * [delta*n_1 + g*(sp_1 sm_2 + sm_1 sp_2)
    + (omega/2)*((sp_1 + sm_1) + eps*(e^{-i phi} sm_2 + e^{i phi} sp_2))]."""
    n1 = RAISE @ LOWER
    h = (
        delta * np.kron(n1, I2)
        + g * (np.kron(RAISE, LOWER) + np.kron(LOWER, RAISE))
        + 0.5 * omega * (
            np.kron(RAISE + LOWER, I2)
            + eps * np.kron(I2, np.exp(-1j * phi) * LOWER + np.exp(1j * phi) * RAISE)
        )
    )
    return MHZ_TO_RAD_PER_NS * h


def four_cr_hamiltonian(pairs, omegas):
    """Sum over data qubits i of the CR Hamiltonian of pair i on slots
    (Q_{i+1}, Q0); register (Q1, Q2, Q3, Q4, Q0). pairs holds
    (delta, g, eps, phi) tuples."""
    h = np.zeros((32, 32), dtype=complex)
    sp0, sm0 = embed(RAISE, 4, 5), embed(LOWER, 4, 5)
    for i, ((delta, g, eps, phi), omega) in enumerate(zip(pairs, omegas)):
        sp, sm = embed(RAISE, i, 5), embed(LOWER, i, 5)
        h += (
            delta * embed(RAISE @ LOWER, i, 5)
            + g * (sp @ sm0 + sm @ sp0)
            + 0.5 * omega * ((sp + sm) + eps * (np.exp(-1j * phi) * sm0 + np.exp(1j * phi) * sp0))
        )
    return MHZ_TO_RAD_PER_NS * h


def evolve(h, t):
    return expm(-1j * t * h)


def tpcx_from_segments(seg_minus, seg_plus):
    """A @ seg(-omega) @ B @ seg(+omega) @ C with A = (S X) (x) I,
    B = X (x) I and C = I (x) exp(-i*(pi/4)*X)."""
    a = np.kron(S @ X, I2)
    b = np.kron(X, I2)
    c = np.kron(I2, expm(-1j * (np.pi / 4) * X))
    return a @ seg_minus @ b @ seg_plus @ c


def tpcx(delta, g, eps, phi, omega, t):
    return tpcx_from_segments(
        evolve(cr_hamiltonian(delta, g, eps, phi, -omega), t),
        evolve(cr_hamiltonian(delta, g, eps, phi, omega), t),
    )


def apply_layer(angles, m):
    """(euler_gate(angles[0]) (x) ... (x) euler_gate(angles[n-1])) @ m, one
    qubit at a time on the row index of m."""
    n = len(angles)
    dim = m.shape[0]
    t = m.reshape((2,) * n + (m.shape[1],))
    for j, row in enumerate(angles):
        t = np.moveaxis(np.tensordot(euler_gate(*row), t, axes=([1], [j])), 0, j)
    return t.reshape(dim, m.shape[1])


def circuit(theta, sources):
    """L_0 @ S_1 @ L_1 @ ... @ S_d @ L_d for theta of shape (d+1, n, 3)."""
    theta = np.asarray(theta, dtype=float)
    d, n = theta.shape[0] - 1, theta.shape[1]
    u = apply_layer(theta[d], np.eye(2**n, dtype=complex))
    for i in range(d, 0, -1):
        u = apply_layer(theta[i - 1], sources[i - 1] @ u)
    return u


def agf(target, u):
    """(|Tr(T^dag U)|^2 / D + 1) / (D + 1)."""
    dim = target.shape[0]
    return (abs(np.trace(target.conj().T @ u)) ** 2 / dim + 1.0) / (dim + 1.0)


def agi(target, u):
    return 1.0 - agf(target, u)
