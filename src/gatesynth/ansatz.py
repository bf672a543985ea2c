"""The parametrized circuit: Euler single-qubit layers interleaved with
fixed source gates, the infidelity cost, and its exact gradient.

Parameters live in a real tensor theta[i, j, k] with layer index
0 <= i <= d, qubit index 0 <= j < n, and Euler axis k in {0, 1, 2}.
The circuit is

    U(theta) = L_0 @ S_1 @ L_1 @ ... @ S_d @ L_d,

where L_i is the tensor product over qubits of the Euler gates
exp(-i*t0*sx) @ exp(-i*t1*sy) @ exp(-i*t2*sx) of (t0, t1, t2) = theta[i, j, :],
and the leftmost factor acts last in time. Single-qubit gates use the
full-angle convention exp(-i*t*sigma).

The cost depends on U only through tau = Tr(T^dag U), which is linear in
each single-qubit gate. Its gradient therefore differentiates tau against
each layer's environment (post_i @ T^dag @ pre_i), the adjoint method of
GRAPE (Khaneja et al., J. Magn. Reson. 172, 296 (2005)). A measured cost,
such as 1 - dfe_estimate(build_circuit(theta, sources), ...), has no tau;
it is trigonometric in each angle with period pi, so the parameter-shift
rule gives its exact derivative as the difference of two costs shifted by
+/- pi/4 (no finite differencing).
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import agi
from .numkit import dagger, kron_qubits

PARAMETER_SHIFT = np.pi / 4


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


def wrap_angles(theta):
    """Canonical angle representative in [0, 2*pi)."""
    return np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)


def random_params(n, d, rng):
    """Fresh parameter tensor, each angle uniform on [0, 2*pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, size=(d + 1, n, 3))


def stack_sources(sources, dim):
    """The source gates as one (d, dim, dim) complex array; ValueError if a
    gate is not dim x dim."""
    for s in sources:
        if np.shape(s) != (dim, dim):
            raise ValueError(f"source gate shape {np.shape(s)} != ({dim}, {dim})")
    return np.array(sources, dtype=complex).reshape(len(sources), dim, dim)


def _one_problem(theta, sources, target=None):
    """Checked theta (d+1, n, 3) and its stacked sources (d, D, D)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 3 or theta.shape[2] != 3:
        raise ValueError(f"theta must have shape (d+1, n, 3), got {theta.shape}")
    if len(sources) != theta.shape[0] - 1:
        raise ValueError(f"{len(sources)} source gates for depth {theta.shape[0] - 1}")
    dim = 2 ** theta.shape[1]
    if target is not None and np.shape(target) != (dim, dim):
        raise ValueError(f"target shape {np.shape(target)} != ({dim}, {dim})")
    return theta, stack_sources(sources, dim)


class CircuitPass(NamedTuple):
    """The forward pass over B stacked problems: the Euler factors rx0, ry1,
    rx2 and the gates, each (B, d+1, n, 2, 2), the layers L_i and the prefix
    products ahead[:, i] = L_0 @ S_1 @ L_1 @ ... @ S_i @ L_i, each
    (B, d+1, D, D). ahead[:, -1] holds the circuits."""

    rx0: np.ndarray
    ry1: np.ndarray
    rx2: np.ndarray
    gates: np.ndarray
    layers: np.ndarray
    ahead: np.ndarray


def circuit_pass(theta, sources):
    """Build B circuits at once from theta (B, d+1, n, 3) and stacked
    sources (B, d, D, D). Each problem's arrays are bit-for-bit those of
    building it alone: every step is elementwise or one product per matrix."""
    rx0, ry1, rx2 = _euler_factors(theta)
    gates = rx0 @ ry1 @ rx2
    layers = kron_qubits(gates)
    ahead = np.empty_like(layers)
    ahead[:, 0] = layers[:, 0]
    for i in range(sources.shape[1]):
        np.matmul(ahead[:, i] @ sources[:, i], layers[:, i + 1], out=ahead[:, i + 1])
    return CircuitPass(rx0, ry1, rx2, gates, layers, ahead)


def pass_costs(cpass, target):
    """Array of the infidelity of each circuit of a CircuitPass against the
    (D, D) target; row b equals agi_cost of problem b alone."""
    return agi(target, cpass.ahead[:, -1])


@lru_cache(maxsize=8)
def _trace_index(n):
    """Flat indices into a (2^n, 2^n) matrix W, shape (2^(n-1), n, 2, 2):
    entry [t, j, a, b] is W[(p, a, q), (p, b, q)] for qubit j, with p the
    j qubits before it, q the n - 1 - j after it and t = p * 2^(n-1-j) + q.
    Summing over t gives each qubit's 2x2 partial trace. Read-only."""
    dim = 2**n
    terms = np.arange(dim // 2)
    index = np.empty((dim // 2, n, 2, 2), dtype=np.intp)
    for j in range(n):
        rest = 2 ** (n - 1 - j)
        p, q = np.divmod(terms, rest)
        rows = (2 * rest * p + q)[:, None] + rest * np.arange(2)
        index[:, j] = rows[:, :, None] * dim + rows[:, None, :]
    index.flags.writeable = False
    return index


def pass_gradients(cpass, sources, target):
    """Exact gradients (B, d+1, n, 3) of the infidelity of each circuit of
    a CircuitPass, with its stacked sources (B, d, D, D), against the
    (D, D) target; row b equals parameter_shift_gradient of problem b alone.

    Write U = pre_i @ L_i @ post_i and W_i = post_i @ T^dag @ pre_i @ L_i,
    so tau = Tr(T^dag U) = Tr(W_i). Replacing qubit j's gate g in L_i by its
    derivative dg in angle k multiplies L_i on the right by h = g^dag @ dg
    on qubit j, which turns tau into Tr(R_ij @ h), with R_ij the 2x2
    reduction of W_i to qubit j. The derivatives of g are -i*sx @ g,
    Rx @ (-i*sy) @ Ry @ Rx and g @ (-i*sx). The cost
    1 - (|tau|^2/D + 1)/(D + 1) then has derivative
    -2 Re(conj(tau) d(tau)) / (D (D + 1)).

    All n partial traces are one gather of W's entries through
    _trace_index and one sum over its term axis. That axis is not the
    innermost, so np.add.reduce adds the terms one after another in
    (p, q) order, the order of einsum("xipaqpbq->xiab") per qubit, and
    the traces are bitwise the einsum's. Multiplying by -i*sx or -i*sy
    only moves and signs entries, so those factors are row or column
    swaps, times -1j or negated: exact, and bitwise the 2x2 products.
    """
    rx0, ry1, rx2, gates, layers, ahead = cpass
    count, depth1, n = gates.shape[:3]
    dim = 2**n
    behind = [dagger(target)]  # behind[-1 - i] = post_i @ T^dag
    for i in range(depth1 - 2, -1, -1):
        behind.append(sources[:, i] @ layers[:, i + 1] @ behind[-1])
    envs = np.empty_like(ahead)
    for i, b in enumerate(reversed(behind)):
        np.matmul(b, ahead[:, i], out=envs[:, i])
    tau = envs[:, 0].trace(axis1=-2, axis2=-1)

    entries = envs.reshape(count * depth1, dim * dim)[:, _trace_index(n)]
    reduced = np.add.reduce(entries, axis=1).reshape(count, depth1, n, 2, 2)
    dgates = np.empty(gates.shape[:3] + (3, 2, 2), dtype=complex)
    np.multiply(gates[..., ::-1, :], -1j, out=dgates[:, :, :, 0])  # -i*sx @ g
    rx0_sy = np.stack((rx0[..., 1], -rx0[..., 0]), axis=-1)  # rx0 @ (-i*sy)
    dgates[:, :, :, 1] = rx0_sy @ ry1 @ rx2
    np.multiply(gates[..., ::-1], -1j, out=dgates[:, :, :, 2])  # g @ (-i*sx)
    h = gates.conj().swapaxes(-1, -2)[..., None, :, :] @ dgates
    if depth1 * n > 1:
        dtau = np.einsum("xijab,xijkba->xijk", reduced, h)
    else:  # one gate a problem: einsum would sum in an order that depends on the batch size
        dtau = np.stack([np.einsum("ijab,ijkba->ijk", r, g) for r, g in zip(reduced, h)])
    return -2.0 * (np.conj(tau)[:, None, None, None] * dtau).real / (dim * (dim + 1))


def build_circuit(theta, sources):
    """Full circuit unitary for a parameter tensor and source gate list."""
    theta, sources = _one_problem(theta, sources)
    return circuit_pass(theta[None], sources[None]).ahead[0, -1]


def agi_cost(theta, sources, target):
    """Average gate infidelity between the target and the built circuit."""
    return agi(target, build_circuit(theta, sources))


def parameter_shift_gradient(theta, sources, target, cost=None):
    """Exact gradient of the infidelity cost, one entry per angle.

    With `cost` given (a callable of the full theta tensor), each component
    is cost(theta_ijk + PARAMETER_SHIFT) - cost(theta_ijk - PARAMETER_SHIFT),
    which equals the derivative exactly for the shift of pi/4; a measured
    cost gets its matching gradient this way. Without `cost` it is
    pass_gradients for a batch of one.
    """
    theta, stacked = _one_problem(theta, sources, target)
    if cost is None:
        stacked = stacked[None]
        return pass_gradients(circuit_pass(theta[None], stacked), stacked, target)[0]
    grad = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        tp = theta.copy()
        tp[idx] += PARAMETER_SHIFT
        tm = theta.copy()
        tm[idx] -= PARAMETER_SHIFT
        grad[idx] = cost(tp) - cost(tm)
    return grad

