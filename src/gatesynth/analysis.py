"""Representation-power analysis of two-qubit gates: canonical (Cartan)
coordinates of the local-equivalence class, operator Schmidt spectrum,
operator entanglement, and entangling power (analytic and Monte-Carlo).
"""

import numpy as np

from .channels import PAULI_STACK, SWAP, pauli_matrix
from .numkit import dagger, expm_hermitian, is_unitary

# Magic basis: transforms local gates to real orthogonal matrices, so the
# symmetric product M^T M below carries the nonlocal content only.
MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)


def canonical_gate(c):
    """exp(i*(c_x XX + c_y YY + c_z ZZ)) for any real triple c."""
    cx, cy, cz = c
    h = cx * pauli_matrix("XX") + cy * pauli_matrix("YY") + cz * pauli_matrix("ZZ")
    return expm_hermitian(h, -1.0)


def cartan_coordinates(u):
    """Canonical coordinates (c_x, c_y, c_z) of a two-qubit gate's
    local-equivalence class, with pi/4 >= c_x >= c_y >= |c_z| and c_z in
    (-pi/4, pi/4] (the sign of c_z distinguishes a class from its mirror
    when c_x < pi/4). canonical_gate of the result is locally equivalent
    to u.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u) or u.shape != (4, 4):
        raise ValueError("input must be a 4x4 unitary")
    pi2, pi4 = np.pi / 2, np.pi / 4
    u = u / np.linalg.det(u) ** 0.25
    m = dagger(MAGIC) @ u @ MAGIC
    m2 = m.T @ m
    # m2 is symmetric unitary: diagonalize a deterministic random real
    # combination of its real and imaginary parts until the eigenbasis
    # also diagonalizes m2 itself (handles degenerate spectra)
    for attempt in range(16):
        rng = np.random.default_rng(attempt + 7)
        a, b = rng.standard_normal(2)
        _, p = np.linalg.eigh(a * m2.real + b * m2.imag)
        d = p.T @ m2 @ p
        if np.allclose(p @ np.diag(np.diagonal(d)) @ p.T, m2, atol=1e-12):
            eigs = np.diagonal(d)
            break
    else:
        raise RuntimeError("simultaneous diagonalization failed")
    d = -np.angle(eigs) / 2
    d[3] = -d[0] - d[1] - d[2]
    cs = np.mod((d[:3] + d[3]) / 2, 2 * np.pi)
    # fold into the canonical chamber
    cstemp = np.mod(cs, pi2)
    np.minimum(cstemp, pi2 - cstemp, out=cstemp)
    order = np.argsort(cstemp)[[1, 2, 0]]
    cs = cs[order]
    d[:3] = d[order]
    if cs[0] > pi2:
        cs[0] -= 3 * pi2
    if cs[1] > pi2:
        cs[1] -= 3 * pi2
    conjs = 0
    if cs[0] > pi4:
        cs[0] = pi2 - cs[0]
        conjs += 1
    if cs[1] > pi4:
        cs[1] = pi2 - cs[1]
        conjs += 1
    if cs[2] > pi2:
        cs[2] -= 3 * pi2
    if conjs == 1:
        cs[2] = pi2 - cs[2]
    if cs[2] > pi4:
        cs[2] -= pi2
    return cs[[1, 0, 2]]


def operator_schmidt(u):
    """Operator Schmidt spectrum of a 4x4 unitary: squared singular
    values of its realignment in the normalized Pauli product basis,
    descending; the spectrum sums to 4."""
    u = np.asarray(u, dtype=complex)
    ur = u.reshape(2, 2, 2, 2)
    coeffs = np.einsum("iab,jcd,bdac->ij", PAULI_STACK, PAULI_STACK, ur) / 2.0
    s = np.linalg.svd(coeffs, compute_uv=False)
    return s**2


def operator_entanglement(u):
    """1 - (1/16) * sum of squared Schmidt spectrum entries; 0 for
    product operators, 0.75 for SWAP."""
    lam = operator_schmidt(u)
    return 1.0 - float(np.sum(lam**2)) / 16.0


def entangling_power(u):
    """Average output entanglement over product inputs, in closed form:
    (4/9) * [E(u) + E(u SWAP) - E(SWAP)], in [0, 2/9]."""
    e_swap = operator_entanglement(SWAP)
    return (4.0 / 9.0) * (
        operator_entanglement(u) + operator_entanglement(u @ SWAP) - e_swap
    )


def entangling_power_mc(u, samples, rng):
    """Monte-Carlo estimate of entangling power: mean linear entropy of
    the reduced output state over independent Haar product inputs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    za = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    zb = rng.standard_normal((samples, 2)) + 1j * rng.standard_normal((samples, 2))
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zb /= np.linalg.norm(zb, axis=1, keepdims=True)
    prod = np.einsum("sa,sb->sab", za, zb).reshape(samples, 4)
    out = prod @ np.asarray(u).T
    m = out.reshape(samples, 2, 2)
    rho_a = np.einsum("sab,scb->sac", m, m.conj())
    purity = np.einsum("sab,sba->s", rho_a, rho_a).real
    return float(np.mean(1.0 - purity))
