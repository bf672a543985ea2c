"""Exact references the tests compare the package against. Each restates,
one item at a time, what gatesynth computes in array form: Pauli labels
and the dense Pauli basis, per-label eigenbases and measured transfer-matrix
entries, a plan's entries as labelled tuples, the whole DFE expectation
table and the estimates read from it, single Euler gates and
layers, the exact gradient with one einsum partial trace per qubit and
matmul derivative factors, the L-BFGS direction by the two-loop
recursion, the Makhlin local invariants, canonical
coordinates by simultaneous diagonalization, the ideal echoed-CR
segments, and the README's measured-cost descent, held against vqgo.
Nothing in the package needs them."""

import itertools
import math
from functools import lru_cache

import numpy as np

from gatesynth import ansatz, channels, dfe, optimkit
from gatesynth.analysis import MAGIC
from gatesynth.ansatz import _euler_factors
from gatesynth.channels import PAULI_LETTERS, PAULI_STACK, pauli_codes, pauli_matrix
from gatesynth.dfe import simulate_expectation
from gatesynth.numkit import (block_length, dagger, derive_rng, expm_hermitian, is_unitary,
                              kron_qubits, qubit_count)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def pauli_labels(n):
    """All 4**n labels in index order."""
    return ["".join(p) for p in itertools.product(PAULI_LETTERS, repeat=n)]


def pauli_label(index, n):
    return "".join(PAULI_LETTERS[c] for c in pauli_codes(index, n))


@lru_cache(maxsize=8)
def pauli_basis(n):
    """Stacked array of all 4**n Pauli matrices, shape (4**n, 2**n, 2**n).
    Cached; treat the returned array as read-only."""
    if n < 1:
        raise ValueError(f"a Pauli basis needs at least one qubit, got {n}")
    basis = kron_qubits(PAULI_STACK[pauli_codes(np.arange(4**n), n)])
    basis.flags.writeable = False
    return basis


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_SQ2 = 1.0 / np.sqrt(2.0)

# (state, eigenvalue) lists per single-qubit letter. Identity letters use
# the sigma_z eigenstates with eigenvalue +1 for both, so every labelled
# preparation stays inside the six-state set {|0>,|1>,|+>,|->,|i+>,|i->}.
LETTER_EIGENSYSTEM = {
    "I": [(_KET0, 1.0), (_KET1, 1.0)],
    "X": [(_SQ2 * (_KET0 + _KET1), 1.0), (_SQ2 * (_KET0 - _KET1), -1.0)],
    "Y": [(_SQ2 * (_KET0 + 1j * _KET1), 1.0), (_SQ2 * (_KET0 - 1j * _KET1), -1.0)],
    "Z": [(_KET0, 1.0), (_KET1, -1.0)],
}


@lru_cache(maxsize=4096)
def pauli_eigenbasis(label):
    """Orthonormal product eigenstates of the labelled Pauli with their
    eigenvalues, as a list of (state vector, +-1) in tensor order. Cached;
    treat the returned arrays as read-only."""
    out = []
    for parts in itertools.product(*(LETTER_EIGENSYSTEM[c] for c in label)):
        state = parts[0][0]
        value = parts[0][1]
        for vec, lam in parts[1:]:
            state = np.kron(state, vec)
            value *= lam
        state.setflags(write=False)
        out.append((state, value))
    return out


def ptm_entry_measured(u, i_label, j_label):
    """PTM entry R_ij of the unitary channel u from eigenstate
    preparations: (1/D) * sum_k lambda_jk * <sigma_i> on u|psi_jk>,
    which reproduces channels.ptm(u)[i, j]."""
    dim = u.shape[0]
    obs = pauli_matrix(i_label)
    total = 0.0
    for state, lam in pauli_eigenbasis(j_label):
        rho = np.outer(state, state.conj())
        total += lam * simulate_expectation(u, rho, obs)
    return total / dim


def plan_entries(plan):
    """The plan's entries as tuples (i_label, j_label, target_value, weight),
    output Pauli first, rebuilt from its arrays: weight is target_value**2 / D**2
    as the plan computes it before normalising to probs."""
    labels = [["".join(PAULI_LETTERS[c] for c in row) for row in codes]
              for codes in (plan.out_codes, plan.in_codes)]
    weights = np.float_power(plan.targets, 2) / plan.dim**2
    return tuple(zip(*labels, plan.targets.tolist(), weights.tolist()))


def expectation_table(u, plan):
    """Exact expectations E[e, k] of entry e's output Pauli on u applied to
    the k-th eigenstate of its input Pauli, shape (m, D), in blocks of
    numkit.block_length entries taken in plan.order, so that each block
    evolves only its own contiguous range of bases and its (block, D, D)
    transients stay in cache."""
    u = np.asarray(u, dtype=complex)
    table = np.empty(plan.eigenvalues.shape)
    step = block_length(plan.dim)
    for start in range(0, len(plan.targets), step):
        rows = plan.order[start:start + step]
        index = plan.basis_index[rows]
        evolved = u @ plan.bases[index[0]:index[-1] + 1]
        index = index - index[0]
        phi = evolved[index]
        # sigma_i phi: the rows of phi gathered and signed
        sigma_phi = plan.out_phase[rows, :, None] * evolved[index[:, None], plan.out_perm[rows]]
        table[rows] = np.einsum("eak,eak->ek", phi.conj(), sigma_phi).real
    return table


def dfe_estimate_from_table(u, plan, cfg=None, rng=None):
    """dfe.dfe_estimate with every expectation read from expectation_table:
    the full-support estimate, or with cfg the sampled one, which draws its
    entries, eigenstates and single shots from rng in that order."""
    dim = plan.dim
    table = expectation_table(u, plan)
    if cfg is None:
        measured = (plan.eigenvalues * table).sum(axis=1) / dim
        ratio = np.sum(plan.targets * measured) / dim**2
        return float((dim * ratio + 1.0) / (dim + 1.0))
    settings = cfg.num_settings()
    draws = rng.choice(len(plan.targets), size=settings, p=plan.probs)
    ks = rng.integers(dim, size=settings)
    born = np.clip(0.5 * (1.0 + table[draws, ks]), 0.0, 1.0)
    outcomes = 2.0 * rng.binomial(1, born) - 1.0
    mean_ratio = np.mean(plan.eigenvalues[draws, ks] * outcomes / plan.targets[draws])
    return float((dim * mean_ratio + 1.0) / (dim + 1.0))


def euler_gate(t0, t1, t2):
    """exp(-i*t0*sx) @ exp(-i*t1*sy) @ exp(-i*t2*sx)."""
    rx0, ry1, rx2 = _euler_factors(np.array([t0, t1, t2], dtype=float))
    return rx0 @ ry1 @ rx2


def build_layer(theta_i):
    """Tensor product of per-qubit Euler gates for one layer."""
    rx0, ry1, rx2 = _euler_factors(np.asarray(theta_i, dtype=float))
    return kron_qubits(rx0 @ ry1 @ rx2)


_MINUS_I_SX = np.array([[0, -1j], [-1j, 0]])
_MINUS_I_SY = np.array([[0, -1], [1, 0]], dtype=complex)


def pass_gradients(cpass, sources, target):
    """The gradients of ansatz.pass_costs_and_gradients with one einsum
    partial trace per qubit and the derivative factors h = g^dag @ dg as 2x2
    products of the Euler factors of the pass's angles with -i*sx and -i*sy.
    It rebuilds the layers from the angles and forms its own backward chain
    post_i @ T^dag, one environment at a time, without the pass's steps."""
    angles, _, ahead = cpass
    rx0, ry1, rx2 = _euler_factors(angles)
    gates = rx0 @ ry1 @ rx2
    layers = kron_qubits(gates)
    count, depth1, n = gates.shape[:3]
    dim = 2**n
    behind = [dagger(target)]  # behind[-1 - i] = post_i @ T^dag
    for i in range(depth1 - 2, -1, -1):
        behind.append(sources[:, i] @ layers[:, i + 1] @ behind[-1])
    envs = np.empty_like(ahead)
    for i, b in enumerate(reversed(behind)):
        envs[:, i] = b @ ahead[:, i]
    tau = envs[:, 0].trace(axis1=-2, axis2=-1)

    reduced = np.empty((count, depth1, n, 2, 2), dtype=complex)
    for j in range(n):
        rest = 2 ** (n - 1 - j)
        reduced[:, :, j] = np.einsum(
            "xipaqpbq->xiab", envs.reshape(count, depth1, 2**j, 2, rest, 2**j, 2, rest))
    dgates = np.empty(gates.shape[:3] + (3, 2, 2), dtype=complex)
    dgates[:, :, :, 0] = _MINUS_I_SX @ gates
    dgates[:, :, :, 1] = rx0 @ _MINUS_I_SY @ ry1 @ rx2
    dgates[:, :, :, 2] = gates @ _MINUS_I_SX
    h = gates.conj().swapaxes(-1, -2)[..., None, :, :] @ dgates
    dtau = np.einsum("xijab,xijkba->xijk", reduced, h)
    return -2.0 * (np.conj(tau)[:, None, None, None] * dtau).real / (dim * (dim + 1))


def remember_pair(pairs, s, y):
    """Append (s, y, 1/(s.y), s.y, y.y) to pairs, a deque of at most
    optimkit.LBFGS_MEMORY pairs, unless s.y fails the curvature test."""
    sy, yy = np.dot(s, y), np.dot(y, y)
    if sy > 1e-10 * math.sqrt(np.dot(s, s)) * math.sqrt(yy):  # np.linalg.norm computes these
        pairs.append((s, y, 1.0 / sy, sy, yy))


def two_loop_direction(gx, pairs):
    """The L-BFGS direction at gradient gx by the two-loop recursion over
    the pairs remember_pair keeps, oldest first."""
    q = gx.copy()
    alphas = []
    for s, y, rho, _, _ in reversed(pairs):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if pairs:
        _, _, _, sy, yy = pairs[-1]
        q *= sy / yy
    for (s, y, rho, _, _), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.dot(y, q)) * s
    return -q


def local_invariants(u):
    """The pair of local-equivalence invariants (g1, g2) of a two-qubit
    gate; equal iff two gates differ only by single-qubit factors."""
    m = dagger(MAGIC) @ u @ MAGIC
    det = np.linalg.det(u)
    mtm = m.T @ m
    tr = np.trace(mtm)
    g1 = tr**2 / (16 * det)
    g2 = (tr**2 - np.trace(mtm @ mtm)) / (4 * det)
    return complex(g1), complex(g2)


def cartan_coordinates(u):
    """analysis.cartan_coordinates by its first method: read the eigenvalues
    of M^T M off an eigenbasis of a seeded random real combination of its
    real and imaginary parts that also diagonalizes M^T M itself."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u) or u.shape != (4, 4):
        raise ValueError("input must be a 4x4 unitary")
    pi2, pi4 = np.pi / 2, np.pi / 4
    u = u / np.linalg.det(u) ** 0.25
    m = dagger(MAGIC) @ u @ MAGIC
    m2 = m.T @ m
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
    cstemp = np.mod(cs, pi2)
    np.minimum(cstemp, pi2 - cstemp, out=cstemp)
    order = np.argsort(cstemp)[[1, 2, 0]]
    cs = cs[order]
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


def tpcx_ideal_limit_segments():
    """The two-qubit rotations the CR segments approach when detuning,
    coupling, and crosstalk idealize away: exp(-+i*(pi/8)*Z(x)X) for the
    (-omega, +omega) slots respectively."""
    zx = pauli_matrix("ZX")
    return expm_hermitian(zx, np.pi / 8), expm_hermitian(zx, -np.pi / 8)


def dfe_descent(target, sources, cfg):
    """The measured-cost path: minimize_quasi_newton of the full-support DFE
    infidelity, with its parameter-shift gradient, from the start point of
    vqgo's restart 0 under cfg; returns (x*, f*, diagnostics). The package
    functions are looked up at each call, so a tracer that wraps them sees them."""
    shape = (len(sources) + 1, qubit_count(len(target)), 3)
    r = channels.ptm(target)
    plan = dfe.dfe_plan(r)

    def cost(x):
        return 1.0 - dfe.dfe_estimate(ansatz.build_circuit(x.reshape(shape), sources), r, plan)

    def grad(x):
        return ansatz.parameter_shift_gradient(x.reshape(shape), sources, target, cost=cost).ravel()

    x0 = ansatz.random_params(shape[1], shape[0] - 1, derive_rng(cfg.seed, 0)).ravel()
    return optimkit.minimize_quasi_newton(cost, grad, x0, cfg)
