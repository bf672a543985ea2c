"""The parametrized circuit: Euler single-qubit layers interleaved with
fixed source gates, the infidelity cost, and its exact gradient.

Parameters live in a real tensor theta[i, j, k] with layer index
0 <= i <= d, qubit index 0 <= j < n, and Euler axis k in {0, 1, 2}.
The circuit is

    U(theta) = L_0 @ S_1 @ L_1 @ ... @ S_d @ L_d,

where L_i is the tensor product over qubits of euler_gate(theta[i, j, :])
and the leftmost factor acts last in time. Single-qubit gates use the
full-angle convention exp(-i*t*sigma).

The cost depends on U only through tau = Tr(T^dag U), which is linear in
each single-qubit gate. The exact backend therefore differentiates tau
against each layer's environment (post_i @ T^dag @ pre_i), the adjoint
method of GRAPE (Khaneja et al., J. Magn. Reson. 172, 296 (2005)). A
measurement-driven cost has no tau to differentiate; for it the cost is
trigonometric in each angle with period pi, so the parameter-shift rule
gives the exact derivative as the difference of two cost evaluations
shifted by +/- pi/4 (no finite differencing).
"""

import numpy as np

from .channels import agf_unitary, ptm
from .dfe import dfe_estimate, dfe_plan
from .numkit import kron_qubits

PARAMETER_SHIFT = np.pi / 4
_MINUS_I_SX = np.array([[0, -1j], [-1j, 0]])
_MINUS_I_SY = np.array([[0, -1], [1, 0]], dtype=complex)


def _euler_factors(angles):
    """exp(-i*t0*sx), exp(-i*t1*sy) and exp(-i*t2*sx) for angles of shape
    (..., 3), each of shape (..., 2, 2)."""
    c, s = np.cos(angles), np.sin(angles)
    rx = np.empty(angles.shape + (2, 2), dtype=complex)
    rx[..., 0, 0] = rx[..., 1, 1] = c
    rx[..., 0, 1] = rx[..., 1, 0] = -1j * s
    ry = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    ry[..., 0, 0] = ry[..., 1, 1] = c[..., 1]
    ry[..., 0, 1] = -s[..., 1]
    ry[..., 1, 0] = s[..., 1]
    return rx[..., 0, :, :], ry, rx[..., 2, :, :]


def _euler_gates(angles):
    """euler_gate over angles of shape (..., 3), stacked to (..., 2, 2)."""
    rx0, ry1, rx2 = _euler_factors(angles)
    return rx0 @ ry1 @ rx2


def euler_gate(t0, t1, t2):
    """exp(-i*t0*sx) @ exp(-i*t1*sy) @ exp(-i*t2*sx)."""
    return _euler_gates(np.array([t0, t1, t2], dtype=float))


def wrap_angles(theta):
    """Canonical angle representative in [0, 2*pi)."""
    return np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)


def random_params(n, d, rng):
    """Fresh parameter tensor, each angle uniform on [0, 2*pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, size=(d + 1, n, 3))


def _check_shapes(theta, sources, target=None):
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 3 or theta.shape[2] != 3:
        raise ValueError(f"theta must have shape (d+1, n, 3), got {theta.shape}")
    d = theta.shape[0] - 1
    n = theta.shape[1]
    if len(sources) != d:
        raise ValueError(f"{len(sources)} source gates for depth {d}")
    dim = 2**n
    for s in sources:
        if np.asarray(s).shape != (dim, dim):
            raise ValueError(f"source gate shape {np.asarray(s).shape} != ({dim}, {dim})")
    if target is not None and np.asarray(target).shape != (dim, dim):
        raise ValueError(f"target shape {np.asarray(target).shape} != ({dim}, {dim})")
    return theta, d, n, dim


def build_layer(theta_i):
    """Tensor product of per-qubit Euler gates for one layer."""
    return kron_qubits(_euler_gates(np.asarray(theta_i, dtype=float)))


def build_circuit(theta, sources):
    """Full circuit unitary for a parameter tensor and source gate list."""
    theta, d, _, _ = _check_shapes(theta, sources)
    layers = kron_qubits(_euler_gates(theta))
    u = layers[0]
    for i in range(d):
        u = u @ np.asarray(sources[i]) @ layers[i + 1]
    return u


def agi_cost(theta, sources, target):
    """Average gate infidelity between the target and the built circuit."""
    return 1.0 - agf_unitary(target, build_circuit(theta, sources))


def parameter_shift_gradient(theta, sources, target, cost=None):
    """Exact gradient of the infidelity cost, one entry per angle.

    With `cost` given (a callable of the full theta tensor), each component
    is cost(theta_ijk + PARAMETER_SHIFT) - cost(theta_ijk - PARAMETER_SHIFT),
    which equals the derivative exactly for the shift of pi/4;
    measurement-driven cost backends get their matching gradient this way.

    Without `cost` (the exact backend) the derivative comes from the layer
    environments. Write U = pre_i @ L_i @ post_i and
    W_i = post_i @ T^dag @ pre_i @ L_i, so tau = Tr(T^dag U) = Tr(W_i).
    Replacing qubit j's gate g in L_i by its derivative dg in angle k
    multiplies L_i on the right by h = g^dag @ dg on qubit j, which turns
    tau into Tr(R_ij @ h), with R_ij the 2x2 reduction of W_i to qubit j.
    The derivatives of g are -i*sx @ g, Rx @ (-i*sy) @ Ry @ Rx and
    g @ (-i*sx). The cost 1 - (|tau|^2/D + 1)/(D + 1) then has derivative
    -2 Re(conj(tau) d(tau)) / (D (D + 1)).
    """
    theta, d, n, dim = _check_shapes(theta, sources, target)
    if cost is not None:
        grad = np.zeros_like(theta)
        for idx in np.ndindex(theta.shape):
            tp = theta.copy()
            tp[idx] += PARAMETER_SHIFT
            tm = theta.copy()
            tm[idx] -= PARAMETER_SHIFT
            grad[idx] = cost(tp) - cost(tm)
        return grad

    rx0, ry1, rx2 = _euler_factors(theta)
    gates = rx0 @ ry1 @ rx2
    layers = kron_qubits(gates)
    sources = [np.asarray(s) for s in sources]
    ahead = [layers[0]]  # ahead[i] = pre_i @ L_i
    for i in range(d):
        ahead.append(ahead[-1] @ sources[i] @ layers[i + 1])
    behind = [np.asarray(target).conj().T]  # behind[-1 - i] = post_i @ T^dag
    for i in range(d - 1, -1, -1):
        behind.append(sources[i] @ layers[i + 1] @ behind[-1])
    envs = np.stack([b @ a for b, a in zip(reversed(behind), ahead)])
    tau = np.trace(envs[0])

    reduced = np.empty((d + 1, n, 2, 2), dtype=complex)
    for j in range(n):
        rest = 2 ** (n - 1 - j)
        reduced[:, j] = np.einsum("ipaqpbq->iab", envs.reshape(d + 1, 2**j, 2, rest, 2**j, 2, rest))
    dgates = np.stack(
        [_MINUS_I_SX @ gates, rx0 @ _MINUS_I_SY @ ry1 @ rx2, gates @ _MINUS_I_SX], axis=2
    )
    h = gates.conj().swapaxes(-1, -2)[:, :, None] @ dgates
    dtau = np.einsum("ijab,ijkba->ijk", reduced, h)
    return -2.0 * (np.conj(tau) * dtau).real / (dim * (dim + 1))


def make_emulated_cost(sources, target, shots=None, rng=None):
    """Measurement-driven cost backend: infidelity from a full-support
    fidelity-estimation plan over the target's Pauli transfer matrix,
    optionally with single-shot sampling noise.

    Returns a callable mapping a theta tensor to an infidelity estimate.
    """
    r_target = ptm(target)
    plan = dfe_plan(r_target)

    def cost(theta):
        u = build_circuit(theta, sources)
        return 1.0 - dfe_estimate(u, r_target, plan, shots=shots, rng=rng)

    return cost
