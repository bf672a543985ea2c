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
each single-qubit gate. Its gradient differentiates tau against each
layer's environment post_i @ T^dag @ pre_i, in closed form in each Euler
angle: the adjoint method of GRAPE (Khaneja et al., J. Magn. Reson. 172,
296 (2005)). As there, each step propagator S_{i+1} @ L_{i+1} is formed
once for both sweeps, and the last environment is T^dag U itself, so a
circuit's cost and gradient take 4d + 1 products of D x D matrices.

A measured cost, such as 1 - dfe_estimate(build_circuit(theta, sources),
...), has no tau; it is trigonometric in each angle with period pi, so the
parameter-shift rule gives its exact derivative as the difference of two
costs shifted by +/- pi/4 (no finite differencing).
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channels import agi, agi_from_traces
from .numkit import dagger, kron_qubits

PARAMETER_SHIFT = np.pi / 4


def _euler_factors(angles):
    """exp(-i*t0*sx), exp(-i*t1*sy) and exp(-i*t2*sx) for angles of shape
    (..., 3), each of shape (..., 2, 2)."""
    c, s = np.cos(angles), np.sin(angles)
    rx = np.empty(angles.shape[:-1] + (2, 2, 2), dtype=complex)  # t0 and t2
    rx[..., 0, 0] = rx[..., 1, 1] = c[..., ::2]
    rx[..., 0, 1] = rx[..., 1, 0] = -1j * s[..., ::2]
    ry = np.empty(angles.shape[:-1] + (2, 2), dtype=complex)
    ry[..., 0, 0] = ry[..., 1, 1] = c[..., 1]
    ry[..., 0, 1] = -s[..., 1]
    ry[..., 1, 0] = s[..., 1]
    return rx[..., 0, :, :], ry, rx[..., 1, :, :]


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
    """The forward pass over B stacked problems: the angles (B, d+1, n, 3),
    the step products steps[:, i] = S_{i+1} @ L_{i+1}, (B, d, D, D), and the
    prefix products ahead[:, 0] = L_0 and ahead[:, i+1] = ahead[:, i] @
    steps[:, i], (B, d+1, D, D). ahead[:, -1] holds the circuits."""

    angles: np.ndarray
    steps: np.ndarray
    ahead: np.ndarray


def circuit_pass(theta, sources):
    """Build B circuits at once from theta (B, d+1, n, 3) and stacked
    sources (B, d, D, D). Each problem's arrays are bit-for-bit those of
    building it alone: every step is elementwise or one product per matrix."""
    rx0, ry1, rx2 = _euler_factors(theta)
    ahead = kron_qubits(rx0 @ ry1 @ rx2)  # the layers, until each prefix overwrites one
    steps = sources @ ahead[:, 1:]
    for i in range(steps.shape[1]):
        np.matmul(ahead[:, i], steps[:, i], out=ahead[:, i + 1])
    return CircuitPass(theta, steps, ahead)


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


# (R00, R01, R10, R11) @ _PAULI_PARTS = (Tr R sx, -i Tr R sy, Tr R sz)
_PAULI_PARTS = np.array([[0, 0, 1], [1, 1, 0], [1, -1, 0], [0, 0, -1]], dtype=complex)


def pass_costs_and_gradients(cpass, sources, target):
    """The infidelities (B,) and their exact gradients (B, d+1, n, 3) of the
    circuits of a CircuitPass against the (D, D) target: row b of each equals
    agi_cost and parameter_shift_gradient of problem b alone. The pass's steps
    hold its stacked sources (B, d, D, D), so `sources` is not read.

    The last layer environment is T^dag U, so the costs are the closed form
    of channels.agi on its traces, with no second product T^dag U.

    Write U = pre_i @ L_i @ post_i and W_i = post_i @ T^dag @ pre_i @ L_i,
    so tau = Tr(T^dag U) = Tr(W_i). Replacing qubit j's gate g in L_i by its
    derivative dg in angle k multiplies L_i on the right by h = g^dag @ dg
    on qubit j, which turns tau into Tr(R_ij @ h), with R_ij the 2x2
    reduction of W_i to qubit j. For g = Rx(a) @ Ry(b) @ Rx(c), h is
    -i(ux sx + uy sy + uz sz) with u = (cos 2b, sin 2b sin 2c, sin 2b cos 2c)
    in a, (0, cos 2c, -sin 2c) in b and (1, 0, 0) in c. The cost
    1 - (|tau|^2/D + 1)/(D + 1) has derivative -2 Re(conj(tau) dtau) /
    (D (D + 1)), and Re(conj(tau) dtau) = u.Im(conj(tau) t) for R's Pauli
    components t = (Tr R sx, Tr R sy, Tr R sz) = (R01 + R10, i(R01 - R10), R00 - R11).

    All n partial traces are one gather of W's entries through _trace_index
    and one sum over its term axis, which np.add.reduce adds term by term in
    (p, q) order, as it is not the innermost axis. Every later step is
    elementwise, a sum of two entries or one product per matrix, so no row's
    bits depend on B.
    """
    angles, steps, ahead = cpass
    count, depth1, n = angles.shape[:3]
    dim = 2**n
    behind = np.empty_like(ahead)  # behind[:, i] = post_i @ T^dag, post_d = 1
    behind[:, -1] = dagger(target)
    for i in range(depth1 - 2, -1, -1):
        np.matmul(steps[:, i], behind[:, i + 1], out=behind[:, i])
    envs = behind @ ahead
    costs = agi_from_traces(envs[:, -1].trace(axis1=-2, axis2=-1), dim)
    tau = envs[:, 0].trace(axis1=-2, axis2=-1)

    entries = envs.reshape(count * depth1, dim * dim)[:, _trace_index(n)]
    reduced = np.add.reduce(entries, axis=1).reshape(-1, 4)  # rows (R00, R01, R10, R11)
    # transposed to (3, n, d+1, B), so the Pauli and Euler axes unpack
    paulis = ((reduced @ _PAULI_PARTS).reshape(angles.shape) * np.conj(tau)[:, None, None, None]).T
    vx, vy, vz = paulis[0].imag, paulis[1].real, paulis[2].imag
    twice = 2.0 * angles.T[1:]
    (cb, cc), (sb, sc) = np.cos(twice), np.sin(twice)
    grad = np.array((cb * vx + sb * (sc * vy + cc * vz), cc * vy - sc * vz, vx)).T
    return costs, -2.0 * grad / (dim * (dim + 1))


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
    cost gets its matching gradient this way. Without `cost` it is the
    gradient of pass_costs_and_gradients for a batch of one.
    """
    theta, stacked = _one_problem(theta, sources, target)
    if cost is None:
        stacked = stacked[None]
        return pass_costs_and_gradients(circuit_pass(theta[None], stacked), stacked, target)[1][0]
    grad = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        tp = theta.copy()
        tp[idx] += PARAMETER_SHIFT
        tm = theta.copy()
        tm[idx] -= PARAMETER_SHIFT
        grad[idx] = cost(tp) - cost(tm)
    return grad

