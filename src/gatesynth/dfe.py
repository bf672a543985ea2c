"""Direct fidelity estimation: measurement plans built from the target
gate's Pauli transfer matrix and two estimators, an exact full-support
estimate that reproduces the closed-form average gate fidelity and a
sampled estimate over single-shot measurement settings.

A plan entry pairs an input Pauli sigma_j with an output Pauli sigma_i
where the target's transfer matrix R_ij does not vanish. Every estimate
reads exact expectations of the channel U,

    E[e, k] = <psi_jk| U^dag sigma_i U |psi_jk>,

at cells (e, k) of plan entries e = (i, j) and the D product eigenstates
psi_jk of sigma_j. The sampled mode first draws the settings' entries and
eigenstates as arrays, then evaluates only the distinct cells they name
and draws the single-shot outcomes at the Born probabilities (1 + E) / 2;
the full-support mode asks for every cell and sums the eigenvalue-weighted
rows. The plan keeps the distinct eigenbases S_b of its input Paulis,
tensor products of per-letter eigenvector matrices: I and Z letters share
theirs, so there are at most 3^n. The cells are visited with their entries
grouped by basis, in blocks, and U @ S_b is taken for the bases of each
block only. A Pauli string is a signed permutation, so sigma_i U S_b is
U S_b with its rows gathered and signed; one inner product of two gathered
columns per cell then gives E[e, k]. `simulate_expectation` remains as the
exact per-setting reference.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import pauli_action, pauli_codes
from .inputs import ADDRESSABLE_BYTES, ConfigError, read
from .numkit import block_length, kron_qubits, qubit_count

PLAN_SUPPORT_ATOL = 1e-12

_SQ2 = 1.0 / np.sqrt(2.0)
# per letter code (I, X, Y, Z = 0..3) its eigenvectors as the columns of a
# matrix and their eigenvalues. Identity letters use the sigma_z eigenstates
# with eigenvalue +1 for both, so every preparation stays inside the
# six-state set {|0>,|1>,|+>,|->,|i+>,|i->}.
_EIGENVECTORS = np.array([[[1, 0], [0, 1]], [[_SQ2, _SQ2], [_SQ2, -_SQ2]],
                          [[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], [[1, 0], [0, 1]]], dtype=complex)
_EIGENVALUES = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])


def simulate_expectation(u, rho, obs):
    """Exact expectation Tr[obs u rho u^dag]."""
    return float(np.real(np.trace(np.asarray(obs) @ u @ rho @ u.conj().T)))


@dataclass(frozen=True, eq=False)
class DfePlan:
    """Measurement plan over the PTM entries of a target gate.

    Row e of each array is entry e = (i, j), output Pauli first:
    out_codes and in_codes, shape (m, n), are the letter codes of sigma_i
    and sigma_j; targets, shape (m,), the target values R_ij; probs, shape
    (m,), the importance weights R_ij**2 / D**2 normalised to sum to one, by
    which the sampled mode draws entries; eigenvalues, shape (m, D), the
    +-1 eigenvalue of each product eigenstate of the input Pauli, in
    tensor order. A plan whose targets include a value at or below
    PLAN_SUPPORT_ATOL in magnitude is rejected.

    Derived from these, read-only: out_perm and out_phase, shape (m, D),
    the output Paulis as signed permutations (channels.pauli_action);
    bases, shape (b, D, D), the distinct eigenvector matrices of the input
    Paulis, states as columns; basis_index, shape (m,), each entry's
    row of bases; and order, shape (m,), the entries sorted stably by
    basis_index, the order in which an estimate visits their cells.
    """

    dim: int
    out_codes: np.ndarray
    in_codes: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    eigenvalues: np.ndarray

    out_perm: np.ndarray = field(init=False, repr=False)
    out_phase: np.ndarray = field(init=False, repr=False)
    bases: np.ndarray = field(init=False, repr=False)
    basis_index: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(np.abs(self.targets) <= PLAN_SUPPORT_ATOL):
            raise ValueError("plan contains an entry with vanishing target value")
        perm, phase = pauli_action(self.out_codes)
        # I and Z letters share their eigenvectors, so the input Paulis
        # have at most 3^n distinct product eigenbases
        codes, index = np.unique(np.where(self.in_codes == 0, 3, self.in_codes), axis=0,
                                 return_inverse=True)
        bases = kron_qubits(_EIGENVECTORS[codes])
        index = index.reshape(-1)
        for name, value in (("out_perm", perm), ("out_phase", phase), ("bases", bases),
                            ("basis_index", index), ("order", np.argsort(index, kind="stable"))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DfeSamplingConfig:
    """Sampling budget: the number of single-shot measurement settings
    is ceil(1 / (eps_fail**2 * delta_acc)), eps_fail in (0, 1). A budget
    that cannot run is a ConfigError: eps_fail**2 * delta_acc underflows to
    0, or one array of 8 bytes per setting passes ADDRESSABLE_BYTES."""

    eps_fail: float
    delta_acc: float

    def __post_init__(self):
        eps = read(vars(self), "eps_fail", above=0)
        if eps >= 1:
            raise ConfigError(f"eps_fail must be < 1, got {self.eps_fail!r}")
        delta = read(vars(self), "delta_acc", above=0)
        if eps**2 * delta == 0:
            raise ConfigError(f"delta_acc {delta!r} with eps_fail {eps!r}: "
                              f"eps_fail**2 * delta_acc underflows to 0")
        if 8 / (eps**2 * delta) > ADDRESSABLE_BYTES:
            raise ConfigError(f"delta_acc {delta!r} with eps_fail {eps!r} asks for more than "
                              f"{ADDRESSABLE_BYTES // 8:.3g} settings, whose arrays of 8 bytes per "
                              f"setting pass the 2**47 bytes a 64-bit process can address")

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
    # two comparisons, not np.abs(r_target) > tol: no copy of a dense PTM
    rows, cols = np.nonzero((r_target > PLAN_SUPPORT_ATOL) | (r_target < -PLAN_SUPPORT_ATOL))
    if rows.size == 0:
        raise ValueError("target PTM has no support")
    out_codes, in_codes = pauli_codes(rows, n), pauli_codes(cols, n)
    targets = r_target[rows, cols].astype(float)
    # pow(R, 2), not the R * R that ** 2 on an array computes: they differ in the last bit
    weights = np.float_power(targets, 2) / dim**2
    eigenvalues = np.ones((rows.size, 1))
    for q in range(n):
        eigenvalues = eigenvalues[:, :, None] * _EIGENVALUES[in_codes[:, q], None, :]
        eigenvalues = eigenvalues.reshape(rows.size, -1)
    return DfePlan(
        dim=dim, out_codes=out_codes, in_codes=in_codes,
        targets=targets, probs=weights / weights.sum(), eigenvalues=eigenvalues,
    )


def _expectations(u, plan, entries, states):
    """Exact expectations E[e, k] of entry e's output Pauli on u applied to
    the k-th eigenstate of its input Pauli, for the cells (e, k) =
    (entries[c], states[c]), in an array shaped like entries. Each distinct
    cell is evaluated once. The cells are visited in plan.order,
    numkit.block_length entries a block: a block evolves only the bases of
    its own cells' entries, u @ S_b, and reads each cell's column of u S_b
    and of sigma_i u S_b, the column's entries gathered and signed. A block
    that holds every cell of its entries gathers each entry's rows once."""
    u = np.asarray(u, dtype=complex)
    dim, count = plan.dim, len(plan.targets)
    rank = np.empty(count, dtype=np.intp)  # each entry's position in plan.order
    rank[plan.order] = np.arange(count)
    cells, inverse = np.unique(rank[entries] * dim + states, return_inverse=True)
    values = np.empty(len(cells))
    step = block_length(dim)
    bounds = np.searchsorted(cells, np.arange(0, count + step, step) * dim)
    row_offsets = dim * np.arange(dim)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        position, ks = np.divmod(cells[lo:hi], dim)
        whole = (hi - lo) % dim == 0 and np.array_equal(position[::dim], position[dim - 1::dim])
        rows = plan.order[position[::dim] if whole else position]
        index = plan.basis_index[rows]
        evolved = u @ plan.bases[index[0]:index[-1] + 1]
        index = index - index[0]
        if whole:
            sigma_phi = plan.out_phase[rows, :, None] * evolved[index[:, None], plan.out_perm[rows]]
            values[lo:hi] = np.einsum("eak,eak->ek", evolved[index].conj(), sigma_phi).real.ravel()
            continue
        evolved = evolved.reshape(-1)
        column = (index * dim * dim + ks)[:, None]  # flat offset of each cell's column k
        phi = evolved[column + row_offsets]
        sigma_phi = plan.out_phase[rows] * evolved[column + dim * plan.out_perm[rows]]
        values[lo:hi] = np.einsum("ea,ea->e", phi.conj(), sigma_phi).real
    return values[inverse]


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

    if cfg is None:
        cells = np.divmod(np.arange(plan.eigenvalues.size), dim)
        table = _expectations(u_actual, plan, *cells).reshape(plan.eigenvalues.shape)
        measured = (plan.eigenvalues * table).sum(axis=1) / dim
        ratio = np.sum(plan.targets * measured) / dim**2
        return float((dim * ratio + 1.0) / (dim + 1.0))

    settings = cfg.num_settings()
    draws = rng.choice(len(plan.targets), size=settings, p=plan.probs)
    ks = rng.integers(dim, size=settings)
    # one +-1 outcome per setting at the Born probability (1 + E) / 2
    born = np.clip(0.5 * (1.0 + _expectations(u_actual, plan, draws, ks)), 0.0, 1.0)
    outcomes = 2.0 * rng.binomial(1, born) - 1.0
    mean_ratio = np.mean(plan.eigenvalues[draws, ks] * outcomes / plan.targets[draws])
    return float((dim * mean_ratio + 1.0) / (dim + 1.0))
