"""Parametrized circuit, infidelity cost, and its exact gradient."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesynth import ansatz
from gatesynth.channels import CNOT, agf_unitary, agi
from gatesynth.devices import four_cr_gate, load_device, syndrome_target
from gatesynth.numkit import derive_rng, haar_unitary, is_unitary
from reference import build_layer, euler_gate, pass_gradients


def test_euler_gate_identity_and_unitarity():
    assert np.allclose(euler_gate(0, 0, 0), np.eye(2), atol=1e-15)
    rng = derive_rng(20)
    for k in range(20):
        g = euler_gate(*rng.uniform(0, 2 * np.pi, 3))
        assert is_unitary(g)


def test_euler_gate_matches_exponentials():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    rng = derive_rng(21)
    for k in range(10):
        t0, t1, t2 = rng.uniform(-3, 3, 3)
        def expi(s, t):
            return np.cos(t) * np.eye(2) - 1j * np.sin(t) * s
        ref = expi(sx, t0) @ expi(sy, t1) @ expi(sx, t2)
        assert np.abs(euler_gate(t0, t1, t2) - ref).max() < 1e-12


def test_wrap_angles():
    t = np.array([-0.1, 2 * np.pi + 0.3, 7 * np.pi])
    w = ansatz.wrap_angles(t)
    assert np.all((0 <= w) & (w < 2 * np.pi))
    assert np.allclose(np.cos(w), np.cos(t))
    assert np.allclose(np.sin(w), np.sin(t))


def test_random_params_shape_and_range():
    th = ansatz.random_params(3, 2, derive_rng(22))
    assert th.shape == (3, 3, 3)
    assert np.all((0 <= th) & (th < 2 * np.pi))


def test_build_circuit_identity_params():
    th = np.zeros((2, 2, 3))
    u = ansatz.build_circuit(th, [CNOT])
    assert np.allclose(u, CNOT, atol=1e-15)
    assert ansatz.agi_cost(th, [CNOT], CNOT) == 0.0


def test_build_circuit_depth_zero():
    th = ansatz.random_params(2, 0, derive_rng(23))
    u = ansatz.build_circuit(th, [])
    layer = build_layer(th[0])
    assert np.allclose(u, layer, atol=1e-14)


def test_shape_validation():
    th = np.zeros((2, 2, 3))
    with pytest.raises(ValueError):
        ansatz.build_circuit(th, [])  # depth mismatch
    with pytest.raises(ValueError):
        ansatz.build_circuit(th, [np.eye(8)])  # source size mismatch
    with pytest.raises(ValueError):
        ansatz.agi_cost(th, [CNOT], np.eye(8))  # target size mismatch
    with pytest.raises(ValueError):
        ansatz.build_circuit(np.zeros((2, 2)), [CNOT])  # not a 3-tensor


def test_parameter_shift_matches_finite_differences():
    rng = derive_rng(24)
    for trial in range(6):
        n = 1 + trial % 2
        d = 1 + trial % 3
        dim = 2**n
        sources = [haar_unitary(dim, rng) for _ in range(d)]
        target = haar_unitary(dim, rng)
        th = ansatz.random_params(n, d, rng)
        grad = ansatz.parameter_shift_gradient(th, sources, target)
        eps = 1e-6
        for idx in np.ndindex(th.shape):
            tp = th.copy()
            tp[idx] += eps
            tm = th.copy()
            tm[idx] -= eps
            fd = (ansatz.agi_cost(tp, sources, target)
                  - ansatz.agi_cost(tm, sources, target)) / (2 * eps)
            assert abs(grad[idx] - fd) < 1e-5


def test_parameter_shift_cost_callable_route():
    rng = derive_rng(25)
    sources = [haar_unitary(4, rng)]
    target = haar_unitary(4, rng)
    th = ansatz.random_params(2, 1, rng)
    fast = ansatz.parameter_shift_gradient(th, sources, target)
    slow = ansatz.parameter_shift_gradient(
        th, sources, target, cost=lambda t: ansatz.agi_cost(t, sources, target)
    )
    assert np.abs(fast - slow).max() < 1e-12


def _shift_rule_gradient(theta, sources, target):
    return ansatz.parameter_shift_gradient(
        theta, sources, target, cost=lambda t: ansatz.agi_cost(t, sources, target)
    )


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_environment_gradient_matches_shift_rule_and_finite_differences(n, d, seed):
    rng = derive_rng(seed)
    dim = 2**n
    sources = [haar_unitary(dim, rng) for _ in range(d)]
    target = haar_unitary(dim, rng)
    th = ansatz.random_params(n, d, rng)
    grad = ansatz.parameter_shift_gradient(th, sources, target)
    assert grad.shape == th.shape
    assert np.abs(grad - _shift_rule_gradient(th, sources, target)).max() < 1e-12
    eps = 1e-6
    for idx in np.ndindex(th.shape):
        tp = th.copy()
        tp[idx] += eps
        tm = th.copy()
        tm[idx] -= eps
        fd = (ansatz.agi_cost(tp, sources, target)
              - ansatz.agi_cost(tm, sources, target)) / (2 * eps)
        assert abs(grad[idx] - fd) < 1e-5


def test_environment_gradient_on_syndrome_sources():
    dev, raw = load_device(
        resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    )
    omegas = raw["reference_omega_mhz"]["crosstalk"]
    sources = [four_cr_gate(dev, omegas, 75.0)] * 2
    target = syndrome_target()
    th = ansatz.random_params(5, 2, derive_rng(28))
    grad = ansatz.parameter_shift_gradient(th, sources, target)
    assert grad.shape == (3, 5, 3)
    assert np.abs(grad - _shift_rule_gradient(th, sources, target)).max() < 1e-12


def test_cost_is_agi_of_built_circuit():
    rng = derive_rng(27)
    sources = [haar_unitary(4, rng), haar_unitary(4, rng)]
    target = haar_unitary(4, rng)
    th = ansatz.random_params(2, 2, rng)
    u = ansatz.build_circuit(th, sources)
    assert abs(ansatz.agi_cost(th, sources, target) - (1 - agf_unitary(target, u))) < 1e-15


@pytest.mark.parametrize("n, d, batch", [
    (2, 2, 1), (2, 2, 3), (2, 2, 4), (2, 2, 8), (5, 2, 1), (5, 2, 3), (1, 0, 5),
])
def test_batched_pass_rows_equal_single_problems_bitwise(n, d, batch):
    # B = 4 is listed on purpose: numpy's vectorized complex abs differs from
    # the scalar one by an ulp at some batch sizes. (1, 0) is the one-gate
    # problem.
    rng = derive_rng(29, n, batch)
    dim = 2**n
    target = haar_unitary(dim, rng)
    theta = rng.uniform(0.0, 2 * np.pi, size=(batch, d + 1, n, 3))
    sources = [[haar_unitary(dim, rng) for _ in range(d)] for _ in range(batch)]
    stacked = np.array(sources, dtype=complex).reshape(batch, d, dim, dim)
    ahead = ansatz.circuit_pass(theta, stacked)[1]
    costs, grads = ansatz.pass_costs_and_gradients(theta, stacked, target)
    assert grads.shape == theta.shape
    for b in range(batch):
        alone = ansatz.parameter_shift_gradient(theta[b], sources[b], target)
        assert costs[b] == ansatz.agi_cost(theta[b], sources[b], target)
        assert grads[b].tobytes() == alone.tobytes()
        assert ahead[b, -1].tobytes() == ansatz.build_circuit(theta[b], sources[b]).tobytes()


# |tau| <= D and a Pauli component of a reduction sums D entries of a unitary,
# so each kernel's rounding in -2 Re(conj(tau) dtau) / (D (D + 1)) is a few
# ulps of 1; the closed form's coefficients also differ from the 2x2 products
# g^dag @ dg by rounding (gaps of up to 1.5 ulps of 1 were seen)
GRADIENT_ROUNDING = 8 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gathered_gradient_kernel_is_the_einsum_kernel_bitwise(n):
    # the one-reduction partial traces and the closed-form Euler derivatives
    # against per-qubit einsum traces and 2x2 products, on dense and
    # permutation targets and sources, at random angles and at exactly 0 and
    # pi/2: the prefix products bitwise, the gradients to rounding
    rng = derive_rng(31, n)
    dim = 2**n
    perm = np.eye(dim, dtype=complex)[rng.permutation(dim)]
    for d in range(4):
        for batch in (1, 3, 4, 16):
            shape = (batch, d + 1, n, 3)
            angles = [rng.uniform(0.0, 2 * np.pi, size=shape), np.zeros(shape),
                      np.full(shape, np.pi / 2), rng.choice([0.0, np.pi / 2, 1.0], size=shape)]
            sources = np.array([[haar_unitary(dim, rng) if i % 2 else perm for i in range(d)]
                                for _ in range(batch)], dtype=complex).reshape(batch, d, dim, dim)
            for theta in angles:
                steps, ahead = ansatz.circuit_pass(theta, sources)
                for i in range(d):
                    prefix = ahead[:, i] @ steps[:, i]
                    assert ahead[:, i + 1].tobytes() == prefix.tobytes()
                for target in (haar_unitary(dim, rng), perm):
                    gap = ansatz.pass_costs_and_gradients(theta, sources, target)[1] - (
                        pass_gradients(theta, sources, target))
                    assert np.abs(gap).max() <= GRADIENT_ROUNDING, (d, batch)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stacked_environments_are_the_per_environment_products_bitwise(n):
    # the round kernel takes all d + 1 environments post_i @ T^dag @ pre_i @ L_i
    # in one stacked product; each is bitwise the product of its own two matrices
    rng = derive_rng(34, n)
    dim = 2**n
    target = haar_unitary(dim, rng)
    for d in range(4):
        for batch in (1, 3, 16):
            theta = rng.uniform(0.0, 2 * np.pi, size=(batch, d + 1, n, 3))
            sources = np.array([[haar_unitary(dim, rng) for _ in range(d)] for _ in range(batch)],
                               dtype=complex).reshape(batch, d, dim, dim)
            steps, ahead = ansatz.circuit_pass(theta, sources)
            behind = np.empty_like(ahead)
            behind[:, -1] = target.conj().T
            for i in range(d - 1, -1, -1):
                behind[:, i] = steps[:, i] @ behind[:, i + 1]
            envs = behind @ ahead
            for b in range(batch):
                for i in range(d + 1):
                    assert envs[b, i].tobytes() == (behind[b, i] @ ahead[b, i]).tobytes(), (d, b, i)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pass_gradients_rows_are_bitwise_batch_invariant(n):
    # one gate layer (d = 0) and wider problems, at random angles and at
    # exactly 0 and pi/2: every row of a batch is bitwise the row computed alone
    rng = derive_rng(32, n)
    dim = 2**n
    target = haar_unitary(dim, rng)
    for d in (0, 2):
        for batch in (1, 3, 4, 16, 37):
            shape = (batch, d + 1, n, 3)
            sources = np.array([[haar_unitary(dim, rng) for _ in range(d)] for _ in range(batch)],
                               dtype=complex).reshape(batch, d, dim, dim)
            for theta in (rng.uniform(0.0, 2 * np.pi, size=shape),
                          rng.choice([0.0, np.pi / 2], size=shape)):
                grads = ansatz.pass_costs_and_gradients(theta, sources, target)[1]
                for b in range(batch):
                    alone = ansatz.pass_costs_and_gradients(theta[b:b + 1], sources[b:b + 1],
                                                            target)[1]
                    assert grads[b].tobytes() == alone[0].tobytes(), (d, batch, b)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_round_costs_are_agi_of_the_circuits_bitwise(n):
    # the round kernel reads each cost from the trace of its own T^dag U, the
    # product channels.agi forms from the pass's circuits
    rng = derive_rng(33, n)
    dim = 2**n
    target = haar_unitary(dim, rng)
    for d in range(3):
        for batch in (1, 3, 16):
            theta = rng.uniform(0.0, 2 * np.pi, size=(batch, d + 1, n, 3))
            sources = np.array([[haar_unitary(dim, rng) for _ in range(d)] for _ in range(batch)],
                               dtype=complex).reshape(batch, d, dim, dim)
            costs = ansatz.pass_costs_and_gradients(theta, sources, target)[0]
            circuits = ansatz.circuit_pass(theta, sources)[1][:, -1]
            assert costs.shape == (batch,)
            assert costs.tobytes() == agi(target, circuits).tobytes(), (d, batch)
