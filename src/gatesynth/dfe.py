"""Direct fidelity estimation: measurement plans built from the target
gate's Pauli transfer matrix and two estimators, an exact full-support
estimate that reproduces the closed-form average gate fidelity and a
sampled estimate over single-shot measurement settings.

A plan entry pairs an input Pauli sigma_j with an output Pauli sigma_i
where the target's transfer matrix R_ij does not vanish. Every estimate
starts from one exact expectation table of the channel U,

    E[e, k] = <psi_jk| U^dag sigma_i U |psi_jk>,

over the plan entries e = (i, j) and the D product eigenstates psi_jk of
sigma_j. The table is built in blocks of entries as U @ S_j, with S_j the
tensor product of per-letter eigenvector matrices, followed by one
Pauli product and one column-wise inner product. The full-support mode
sums its eigenvalue-weighted rows; the sampled mode draws the settings'
entries, eigenstates and single-shot outcomes as arrays and reads the
Born probabilities (1 + E) / 2 from the table. `simulate_expectation`
and `ptm_entry_measured` remain as exact per-entry references.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import PAULI_LETTERS, PAULI_STACK, pauli_codes, pauli_label, pauli_matrix
from .inputs import ConfigError, read
from .numkit import kron_qubits, qubit_count

PLAN_SUPPORT_ATOL = 1e-12
# entries per block of the expectation table: the block's eigenstate and
# Pauli stacks take 128 * D^2 complex values each (2 MB at five qubits)
_TABLE_BLOCK = 128

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_SQ2 = 1.0 / np.sqrt(2.0)

# (state, eigenvalue) lists per single-qubit letter. Identity letters use
# the sigma_z eigenstates with eigenvalue +1 for both, so every labelled
# preparation stays inside the six-state set {|0>,|1>,|+>,|->,|i+>,|i->}.
_LETTER_EIGENSYSTEM = {
    "I": [(_KET0, 1.0), (_KET1, 1.0)],
    "X": [(_SQ2 * (_KET0 + _KET1), 1.0), (_SQ2 * (_KET0 - _KET1), -1.0)],
    "Y": [(_SQ2 * (_KET0 + 1j * _KET1), 1.0), (_SQ2 * (_KET0 - 1j * _KET1), -1.0)],
    "Z": [(_KET0, 1.0), (_KET1, -1.0)],
}
# the same systems indexed by letter code (I, X, Y, Z = 0..3): eigenvector
# matrices with the states as columns and their eigenvalues
_EIGENVECTORS = np.stack([
    np.column_stack([state for state, _ in _LETTER_EIGENSYSTEM[c]]) for c in PAULI_LETTERS
])
_EIGENVALUES = np.array([[lam for _, lam in _LETTER_EIGENSYSTEM[c]] for c in PAULI_LETTERS])


@lru_cache(maxsize=4096)
def pauli_eigenbasis(label):
    """Orthonormal product eigenstates of the labelled Pauli with their
    eigenvalues, as a list of (state vector, +-1) in tensor order. Cached;
    treat the returned arrays as read-only."""
    out = []
    for parts in itertools.product(*(_LETTER_EIGENSYSTEM[c] for c in label)):
        state = parts[0][0]
        value = parts[0][1]
        for vec, lam in parts[1:]:
            state = np.kron(state, vec)
            value *= lam
        state.setflags(write=False)
        out.append((state, value))
    return out


def simulate_expectation(u, rho, obs):
    """Exact expectation Tr[obs u rho u^dag]."""
    return float(np.real(np.trace(np.asarray(obs) @ u @ rho @ u.conj().T)))


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


@dataclass(frozen=True, eq=False)
class DfePlan:
    """Measurement plan over the PTM entries of a target gate.

    entries: tuples (i_label, j_label, target_value, weight), output Pauli
    first, with weight the importance probability target_value**2 / D**2.
    The arrays hold the same entries, row e for entries[e]:
    out_codes and in_codes, shape (m, n), are the letters of i_label and
    j_label as codes I, X, Y, Z = 0..3; targets, shape (m,), the target
    values; probs, shape (m,), the weights normalised to sum to one, by
    which the sampled mode draws entries; eigenvalues, shape (m, D), the
    +-1 eigenvalue of each product eigenstate of the input Pauli, in the
    order of pauli_eigenbasis(j_label). A plan whose targets include a
    value at or below PLAN_SUPPORT_ATOL in magnitude is rejected.
    """

    entries: tuple
    dim: int
    out_codes: np.ndarray
    in_codes: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        if np.any(np.abs(self.targets) <= PLAN_SUPPORT_ATOL):
            raise ValueError("plan contains an entry with vanishing target value")


@dataclass(frozen=True)
class DfeSamplingConfig:
    """Sampling budget: the number of single-shot measurement settings
    is ceil(1 / (eps_fail**2 * delta_acc)), eps_fail in (0, 1)."""

    eps_fail: float
    delta_acc: float

    def __post_init__(self):
        if read(vars(self), "eps_fail", above=0) >= 1:
            raise ConfigError(f"eps_fail must be < 1, got {self.eps_fail!r}")
        read(vars(self), "delta_acc", above=0)

    def num_settings(self):
        return math.ceil(1.0 / (self.eps_fail**2 * self.delta_acc))


def dfe_plan(r_target):
    """Build the measurement plan for a target PTM: all entries with
    |R_ij| above support tolerance, weighted by R_ij^2 / D^2."""
    r_target = np.asarray(r_target)
    n = qubit_count(r_target.shape[0]) // 2
    if 4**n != r_target.shape[0]:
        raise ValueError(f"PTM side {r_target.shape[0]} is not a power of 4")
    dim = 2**n
    rows, cols = np.nonzero(np.abs(r_target) > PLAN_SUPPORT_ATOL)
    if rows.size == 0:
        raise ValueError("target PTM has no support")
    entries = tuple(
        (pauli_label(i, n), pauli_label(j, n), float(r_target[i, j]),
         float(r_target[i, j] ** 2 / dim**2))
        for i, j in zip(rows, cols)
    )
    targets = np.array([e[2] for e in entries])
    weights = np.array([e[3] for e in entries])
    in_codes = pauli_codes(cols, n)
    eigenvalues = np.ones((rows.size, 1))
    for q in range(n):
        eigenvalues = eigenvalues[:, :, None] * _EIGENVALUES[in_codes[:, q], None, :]
        eigenvalues = eigenvalues.reshape(rows.size, -1)
    return DfePlan(
        entries=entries, dim=dim, out_codes=pauli_codes(rows, n), in_codes=in_codes,
        targets=targets, probs=weights / weights.sum(), eigenvalues=eigenvalues,
    )


def _expectation_table(u, plan):
    """Exact expectations E[e, k] of entry e's output Pauli on u applied to
    the k-th eigenstate of its input Pauli, shape (m, D)."""
    u = np.asarray(u, dtype=complex)
    table = np.empty(plan.eigenvalues.shape)
    for start in range(0, len(plan.targets), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        phi = u @ kron_qubits(_EIGENVECTORS[plan.in_codes[block]])
        sigma_phi = kron_qubits(PAULI_STACK[plan.out_codes[block]]) @ phi
        table[block] = np.einsum("eak,eak->ek", phi.conj(), sigma_phi).real
    return table


def _check_target(r_target, plan):
    """Reject a target PTM that is not the one the plan was built from:
    its shape, or its values at the plan's (row, col) indices."""
    r_target = np.asarray(r_target)
    side = plan.dim**2
    if r_target.shape != (side, side):
        raise ValueError(
            f"r_target has shape {r_target.shape}, the plan needs ({side}, {side})"
        )
    weights = 4 ** np.arange(plan.out_codes.shape[1] - 1, -1, -1)
    values = r_target[plan.out_codes @ weights, plan.in_codes @ weights]
    if not np.all(np.abs(values - plan.targets) <= PLAN_SUPPORT_ATOL):
        raise ValueError("r_target differs from the target the plan was built from")


def dfe_estimate(u_actual, r_target, plan, cfg=None, rng=None):
    """Average gate fidelity estimate of the channel u_actual against the
    target whose PTM is r_target (the plan carries its entries; r_target
    must match them, else ValueError).

    Full-support mode (cfg None) evaluates every plan entry exactly and
    returns (D * sum_ij w_ij * R^actual_ij / R^target_ij + 1) / (D + 1),
    which equals the closed-form fidelity. With cfg given, draws
    cfg.num_settings() entries by weight from rng; each setting prepares
    one uniformly chosen eigenstate of the input Pauli and measures the
    output Pauli once.
    """
    dim = plan.dim
    if cfg is not None and rng is None:
        raise ValueError("sampled mode needs an rng")
    _check_target(r_target, plan)
    table = _expectation_table(u_actual, plan)

    if cfg is None:
        measured = (plan.eigenvalues * table).sum(axis=1) / dim
        ratio = np.sum(plan.targets * measured) / dim**2
        return float((dim * ratio + 1.0) / (dim + 1.0))

    settings = cfg.num_settings()
    draws = rng.choice(len(plan.targets), size=settings, p=plan.probs)
    ks = rng.integers(dim, size=settings)
    # one +-1 outcome per setting at the Born probability (1 + E) / 2
    born = np.clip(0.5 * (1.0 + table[draws, ks]), 0.0, 1.0)
    outcomes = 2.0 * rng.binomial(1, born) - 1.0
    mean_ratio = np.mean(plan.eigenvalues[draws, ks] * outcomes / plan.targets[draws])
    return float((dim * mean_ratio + 1.0) / (dim + 1.0))
