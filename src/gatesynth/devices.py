"""Physical device models: cross-resonance (CR) drive Hamiltonians with
crosstalk for a 2-qubit pair and a 5-qubit star-coupled register, source
gates by time evolution, the fixed echoed-CR CNOT baseline (TPCX), and the
four-CNOT syndrome-extraction target.

Units: device parameters are ordinary frequencies in MHz and times in ns;
Hamiltonians are produced in angular units (rad/ns) via the conversion
factor 2*pi*1e-3. Register ordering for the 5-qubit system is
(Q1, Q2, Q3, Q4, Q0) with the measurement qubit Q0 as the last (least
significant) tensor factor.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channels import CNOT, I2, S_GATE, SIGMA_X, pauli_matrix
from .inputs import ConfigError, canonical_json, read, read_json
from .numkit import expm_hermitian

MHZ_TO_RAD_PER_NS = 2.0e-3 * np.pi

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


@dataclass(frozen=True)
class CrossResonancePair:
    """One driven qubit pair: detuning delta (MHz), exchange coupling g
    (MHz), crosstalk amplitude attenuation eps (>= 0, dimensionless), and
    crosstalk phase delay phi (rad)."""

    delta: float
    g: float
    eps: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("delta", "g", "eps", "phi"):
            read(vars(self), name, low=0 if name == "eps" else None)


@dataclass(frozen=True)
class DriveSpec:
    """A drive setting: amplitude omega (MHz, sign encodes drive phase)
    and gate time t (ns, >= 0)."""

    omega: float
    t: float

    def __post_init__(self):
        read(vars(self), "omega")
        read(vars(self), "t", low=0)


@dataclass(frozen=True)
class FourQubitDevice:
    """Four data qubits, each CR-coupled to the shared measurement qubit
    Q0; entry i holds (delta_i, g_i, eps_i, phi_i) for data qubit Q_{i+1}."""

    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) != 4:
            raise ValueError(f"need exactly 4 pairs, got {len(self.pairs)}")
        for p in self.pairs:
            if not isinstance(p, CrossResonancePair):
                raise ValueError("pairs must be CrossResonancePair instances")

    def with_crosstalk(self, scale):
        """Copy of the device with each pair's eps multiplied by scale
        (True and False keep and zero the crosstalk)."""
        return FourQubitDevice(tuple(replace(p, eps=p.eps * scale) for p in self.pairs))


# Two-qubit operators of the CR Hamiltonian, built once: the driven
# qubit's number operator, the exchange (hopping) term, the direct drive,
# and the target qubit's lowering and raising operators.
_CR_N1 = np.kron(SIGMA_PLUS @ SIGMA_MINUS, I2)
_CR_HOP = np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS)
_CR_DRIVE1 = np.kron(SIGMA_PLUS + SIGMA_MINUS, I2)
_CR_SM2 = np.kron(I2, SIGMA_MINUS)
_CR_SP2 = np.kron(I2, SIGMA_PLUS)


def _cr_term(pair, omega):
    """The CR Hamiltonian of cr_hamiltonian in MHz (not yet scaled)."""
    drive2 = np.exp(-1j * pair.phi) * _CR_SM2 + np.exp(1j * pair.phi) * _CR_SP2
    return (
        pair.delta * _CR_N1
        + pair.g * _CR_HOP
        + 0.5 * omega * (_CR_DRIVE1 + pair.eps * drive2)
    )


def cr_hamiltonian(pair, omega):
    """CR drive Hamiltonian (rad/ns) on (driven qubit, target qubit):

        2*pi*1e-3 * [ delta*n_1 + g*(sp_1 sm_2 + sm_1 sp_2)
                      + (omega/2)*((sp_1 + sm_1)
                                   + eps*(e^{-i phi} sm_2 + e^{i phi} sp_2)) ]
    """
    return MHZ_TO_RAD_PER_NS * _cr_term(pair, omega)


def cr_gate(pair, drive):
    """Time evolution exp(-i*H*t) under the CR Hamiltonian."""
    return expm_hermitian(cr_hamiltonian(pair, drive.omega), drive.t)


def _on_slots(op, i):
    """A two-qubit operator on tensor slots (Q_{i+1}, Q0) of the 5-qubit
    register: its first qubit on slot i, its second on Q0 (slot 4)."""
    axes = [2, 3, 4]  # the other three slots, in register order
    axes.insert(i, 0)
    axes.append(1)
    t = np.kron(op, np.eye(8)).reshape((2,) * 10)
    return t.transpose(axes + [a + 5 for a in axes]).reshape(32, 32)


def four_cr_hamiltonian(dev, omegas):
    """Simultaneous CR drives from each data qubit onto the shared
    measurement qubit Q0 (32x32, rad/ns). Register order (Q1..Q4, Q0);
    term i is the 2-qubit CR Hamiltonian of pair i on slots (Q_{i+1}, Q0)."""
    omegas = read({"omegas": list(omegas)}, "omegas", size=4)
    h = np.zeros((32, 32), dtype=complex)
    for i, (pair, omega) in enumerate(zip(dev.pairs, omegas)):
        h += _on_slots(_cr_term(pair, omega), i)
    return MHZ_TO_RAD_PER_NS * h


def four_cr_gate(dev, omegas, t):
    """Time evolution exp(-i*H*t) of the 5-qubit register, for a finite t >= 0."""
    return expm_hermitian(four_cr_hamiltonian(dev, omegas), read({"t": t}, "t", low=0))


# Fixed single-qubit frames of the echoed-CR CNOT. In the ideal limit the
# two CR segments approach exp(+-i*(pi/8)*Z(x)X); the frames below turn
# that echoed pair into CNOT exactly (see tpcx docstring).
TPCX_A = np.kron(S_GATE @ SIGMA_X, I2)
TPCX_B = np.kron(SIGMA_X, I2)
TPCX_C = np.kron(I2, expm_hermitian(SIGMA_X, np.pi / 4))


def tpcx_ideal_limit_segments():
    """The two-qubit rotations the CR segments approach when detuning,
    coupling, and crosstalk idealize away: exp(-+i*(pi/8)*Z(x)X) for the
    (-omega, +omega) slots respectively."""
    zx = pauli_matrix("ZX")
    return expm_hermitian(zx, np.pi / 8), expm_hermitian(zx, -np.pi / 8)


def tpcx(pair, omega, t):
    """Two-pulse echoed-CR CNOT baseline:

        A @ cr_gate(pair, -omega, t) @ B @ cr_gate(pair, +omega, t) @ C

    with fixed frames A = (S X)(x)I, B = X(x)I (the echo pi-pulse on the
    driven qubit), C = I(x)exp(-i*(pi/4)*X). Substituting the ideal-limit
    segments exp(-+i*(pi/8)*Z(x)X) makes the product equal CNOT up to
    global phase.
    """
    seg_minus = cr_gate(pair, DriveSpec(-omega, t))
    seg_plus = cr_gate(pair, DriveSpec(omega, t))
    return TPCX_A @ seg_minus @ TPCX_B @ seg_plus @ TPCX_C


def syndrome_target():
    """Parity-accumulation target: four CNOTs, each controlled on a data
    qubit Q1..Q4 and targeting the measurement qubit Q0. The factors
    commute, so ordering is irrelevant; the product is its own inverse."""
    u = np.eye(32, dtype=complex)
    for i in range(4):
        u = _on_slots(CNOT, i) @ u
    return u


def pair_from_dict(raw, where=""):
    """A CrossResonancePair from a pair object: numbers delta_mhz, g_mhz and
    the optional eps (>= 0) and phi_rad (default 0); else a ConfigError at
    the key prefix `where`, the object itself being `where` less its dot."""
    keys = ("delta_mhz", "g_mhz", "eps", "phi_rad")  # the fields, in order
    if not isinstance(raw, dict) or not raw.keys() <= set(keys):
        raise ConfigError(f"{where.removesuffix('.') or 'pair'} must be an object with keys from "
                          f"{', '.join(keys)}, got {canonical_json(raw)}")
    raw = {"eps": 0.0, "phi_rad": 0.0, **raw}
    return CrossResonancePair(*(read(raw, key, low=0 if key == "eps" else None, where=where)
                                for key in keys))


def device_from_dict(raw, where=""):
    """A FourQubitDevice from an object whose `pairs` list holds four pair
    objects (other keys are the caller's); pair i is read with the key
    prefix where + "pairs[i].", so its errors name it."""
    pairs = raw.get("pairs") if isinstance(raw, dict) else None
    if not isinstance(pairs, list):
        raise ConfigError(f"{where.removesuffix('.') or 'device'} must be an object with a pairs "
                          f"list, got {canonical_json(raw)}")
    pairs = tuple(pair_from_dict(p, f"{where}pairs[{i}].") for i, p in enumerate(pairs))
    if len(pairs) != 4:
        raise ConfigError(f"{where}pairs must hold 4 pair objects, got {len(pairs)}")
    return FourQubitDevice(pairs)


def load_device(path):
    """(FourQubitDevice, full dict) from a JSON device file, so callers can pick
    up extra keys such as reference amplitudes; a bad file is a ConfigError."""
    raw = read_json(path)
    try:
        return device_from_dict(raw), raw
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
