"""gatesynth: a simulator-backed workbench for synthesizing target
multi-qubit gates from imperfect source gates sandwiched between tunable
single-qubit rotations, with exact gradients, direct fidelity estimation,
cross-resonance device models, and two-qubit representation-power
analysis.
"""

__version__ = "0.1.0"

from .analysis import (
    canonical_gate,
    cartan_coordinates,
    entangling_power,
    entangling_power_mc,
    operator_entanglement,
    operator_schmidt,
)
from .ansatz import (
    agi_cost,
    build_circuit,
    parameter_shift_gradient,
    random_params,
    wrap_angles,
)
from .channels import (
    CNOT,
    SWAP,
    agf_from_ptms,
    agf_unitary,
    agi,
    pauli_matrix,
    ptm,
)
from .devices import (
    CrossResonancePair,
    DriveSpec,
    FourQubitDevice,
    cr_gate,
    cr_hamiltonian,
    four_cr_gate,
    four_cr_hamiltonian,
    load_device,
    syndrome_target,
    tpcx,
)
from .dfe import (
    DfePlan,
    DfeSamplingConfig,
    dfe_estimate,
    dfe_plan,
    simulate_expectation,
)
from .numkit import (
    dagger,
    derive_rng,
    derive_seed,
    expm_hermitian,
    haar_unitary,
    is_hermitian,
    is_unitary,
    kron_all,
)
from .optimkit import (
    AmplitudeBounds,
    OptimizationResult,
    OptimizerConfig,
    concatenated_optimize,
    minimize_derivative_free,
    minimize_on_interval,
    minimize_quasi_newton,
    vqgo,
    vqgo_batch,
)
