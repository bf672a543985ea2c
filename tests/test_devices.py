"""Device Hamiltonians, source gates, the echoed-CR baseline, and the
syndrome-extraction target."""

import numpy as np
import pytest

from gatesynth import devices
from gatesynth.channels import CNOT, agf_unitary, agi, ptm
from gatesynth.numkit import derive_rng, is_hermitian, is_unitary, kron_all
from reference import tpcx_ideal_limit_segments

RADS = devices.MHZ_TO_RAD_PER_NS


def test_cr_hamiltonian_zero():
    pair = devices.CrossResonancePair(0.0, 0.0)
    assert np.abs(devices.cr_hamiltonian(pair, 0.0)).max() == 0.0


def test_cr_hamiltonian_detuning_projector():
    pair = devices.CrossResonancePair(200.0, 0.0)
    h = devices.cr_hamiltonian(pair, 0.0)
    assert np.allclose(h, RADS * 200.0 * np.diag([0, 0, 1, 1]), atol=1e-12)


def test_cr_hamiltonian_phase_inert_without_crosstalk():
    pair_a = devices.CrossResonancePair(200.0, 5.0, 0.0, 0.3)
    pair_b = devices.CrossResonancePair(200.0, 5.0, 0.0, 1.3)
    ha = devices.cr_hamiltonian(pair_a, 60.0)
    hb = devices.cr_hamiltonian(pair_b, 60.0)
    assert np.array_equal(ha, hb)


def test_cr_hamiltonian_hermitian():
    rng = derive_rng(30)
    for k in range(20):
        pair = devices.CrossResonancePair(
            rng.uniform(-300, 300), rng.uniform(-10, 10),
            rng.uniform(0, 2), rng.uniform(0, 2 * np.pi),
        )
        assert is_hermitian(devices.cr_hamiltonian(pair, rng.uniform(-150, 150)))


def test_cr_hamiltonian_matches_kron_formula():
    # the docstring formula with every operator built by kron on each call
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    rng = derive_rng(31)
    for k in range(200):
        delta, g, eps, phi, omega = (
            rng.uniform(-300, 300), rng.uniform(-10, 10), rng.uniform(0, 2),
            rng.uniform(-2 * np.pi, 2 * np.pi), rng.uniform(-200, 200),
        )
        drive2 = np.exp(-1j * phi) * sm + np.exp(1j * phi) * sp
        h = RADS * (
            delta * np.kron(sp @ sm, i2)
            + g * (np.kron(sp, sm) + np.kron(sm, sp))
            + 0.5 * omega * (np.kron(sp + sm, i2) + eps * np.kron(i2, drive2))
        )
        pair = devices.CrossResonancePair(delta, g, eps, phi)
        assert np.array_equal(devices.cr_hamiltonian(pair, omega), h)


def test_four_cr_hamiltonian_matches_kron_formula():
    # each pair's CR term written out on 5-qubit operators, every one built
    # by kron on each call; register order (Q1..Q4, Q0)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    i2 = np.eye(2, dtype=complex)

    def embed(op, pos):
        mats = [i2] * 5
        mats[pos] = op
        return kron_all(mats)

    sp0, sm0 = embed(sp, 4), embed(sm, 4)
    rng = derive_rng(32)
    for k in range(200):
        pairs = tuple(
            devices.CrossResonancePair(
                rng.uniform(-300, 300), rng.uniform(-10, 10), rng.uniform(0, 2),
                rng.uniform(-2 * np.pi, 2 * np.pi),
            )
            for _ in range(4)
        )
        omegas = rng.uniform(-200, 200, size=4)
        h = np.zeros((32, 32), dtype=complex)
        for i, (pair, omega) in enumerate(zip(pairs, omegas)):
            sp_i, sm_i = embed(sp, i), embed(sm, i)
            drive0 = np.exp(-1j * pair.phi) * sm0 + np.exp(1j * pair.phi) * sp0
            h += (
                pair.delta * embed(sp @ sm, i)
                + pair.g * (sp_i @ sm0 + sm_i @ sp0)
                + 0.5 * omega * ((sp_i + sm_i) + pair.eps * drive0)
            )
        dev = devices.FourQubitDevice(pairs)
        assert np.array_equal(devices.four_cr_hamiltonian(dev, omegas), RADS * h)
    # the target from projectors: CNOT_i = P0_i + P1_i X_0
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    u = np.eye(32, dtype=complex)
    for i in range(4):
        u = (embed(p0, i) + embed(p1, i) @ embed(sp + sm, 4)) @ u
    assert np.array_equal(devices.syndrome_target(), u)


def test_cr_gate_time_zero_and_detuning_phase():
    pair = devices.CrossResonancePair(200.0, 0.0)
    assert np.allclose(devices.cr_gate(pair, devices.DriveSpec(40.0, 0.0)), np.eye(4))
    u = devices.cr_gate(pair, devices.DriveSpec(0.0, 2.5))
    assert np.allclose(u, np.diag([1, 1, -1, -1]), atol=1e-10)


def test_cr_gate_unitary_and_series_oracle():
    pair = devices.CrossResonancePair(200.0, 5.0)
    assert is_unitary(devices.cr_gate(pair, devices.DriveSpec(63.5, 75.0)))
    # Taylor oracle at short time where the series converges in float64
    t = 0.4
    h = devices.cr_hamiltonian(pair, 63.5)
    u = devices.cr_gate(pair, devices.DriveSpec(63.5, t))
    series = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for order in range(40):
        series += term
        term = term @ (-1j * t * h) / (order + 1)
    assert np.abs(u - series).max() < 1e-12


def test_cr_gate_composition():
    pair = devices.CrossResonancePair(200.0, 5.0, 0.4, 0.9)
    rng = derive_rng(31)
    for k in range(5):
        t1, t2 = rng.uniform(0, 100, 2)
        omega = rng.uniform(-120, 120)
        u12 = devices.cr_gate(pair, devices.DriveSpec(omega, t1 + t2))
        u2u1 = devices.cr_gate(pair, devices.DriveSpec(omega, t2)) @ devices.cr_gate(
            pair, devices.DriveSpec(omega, t1)
        )
        assert np.abs(u12 - u2u1).max() < 1e-10


def test_drive_spec_rejects_negative_time():
    with pytest.raises(ValueError):
        devices.DriveSpec(40.0, -1.0)
    for value in (np.inf, np.nan, 10**400):
        with pytest.raises(ValueError, match="omega"):
            devices.DriveSpec(value, 1.0)
        with pytest.raises(ValueError, match="t must"):
            devices.DriveSpec(40.0, value)
    assert devices.DriveSpec(np.float32(40.0), np.int64(75)).t == 75


def test_four_cr_hamiltonian_zero_and_diagonal():
    dev = devices.FourQubitDevice(
        tuple(devices.CrossResonancePair(0.0, 0.0) for _ in range(4))
    )
    assert np.abs(devices.four_cr_hamiltonian(dev, [0, 0, 0, 0])).max() == 0.0
    deltas = [211.0, 223.0, 236.0, 248.0]
    dev = devices.FourQubitDevice(
        tuple(devices.CrossResonancePair(d, 0.0) for d in deltas)
    )
    h = devices.four_cr_hamiltonian(dev, [0, 0, 0, 0])
    # diagonal entry = sum of delta_i over excited data qubits
    for idx in range(32):
        bits = [(idx >> (4 - q)) & 1 for q in range(5)]  # (Q1..Q4, Q0)
        expect = RADS * sum(d * b for d, b in zip(deltas, bits[:4]))
        assert abs(h[idx, idx] - expect) < 1e-12
    assert np.abs(h - np.diag(np.diagonal(h))).max() == 0.0


def test_four_cr_single_pair_reduction():
    # oracle: 2-qubit Hamiltonian on (Q1, Q0) embedded by kron + index
    # permutation of the register (Q1, Q0, Q2, Q3, Q4) -> (Q1..Q4, Q0)
    pair = devices.CrossResonancePair(211.0, 5.0, 0.1, 0.2 * np.pi)
    zero = devices.CrossResonancePair(0.0, 0.0)
    dev = devices.FourQubitDevice((pair, zero, zero, zero))
    h = devices.four_cr_hamiltonian(dev, [74.5, 0, 0, 0])
    h2 = devices.cr_hamiltonian(pair, 74.5)
    big = kron_all([h2, np.eye(2), np.eye(2), np.eye(2)])
    perm = np.zeros(32, dtype=int)
    for idx in range(32):
        q1, q0, q2, q3, q4 = (
            (idx >> 4) & 1, (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1,
        )
        perm[idx] = (q1 << 4) | (q2 << 3) | (q3 << 2) | (q4 << 1) | q0
    oracle = np.zeros((32, 32), dtype=complex)
    oracle[np.ix_(perm, perm)] = big
    assert np.abs(h - oracle).max() < 1e-12


def test_four_cr_hamiltonian_hermitian_and_gate_unitary():
    from importlib import resources

    dev, _ = devices.load_device(
        resources.files("gatesynth").joinpath("fixtures", "syndrome_device.json")
    )
    h = devices.four_cr_hamiltonian(dev, [74.5, 79.1, 114.0, 115.0])
    assert is_hermitian(h)
    u = devices.four_cr_gate(dev, [74.5, 79.1, 114.0, 115.0], 75.0)
    assert is_unitary(u)
    assert np.allclose(devices.four_cr_gate(dev, [74.5, 79.1, 114.0, 115.0], 0.0),
                       np.eye(32), atol=1e-14)


def test_four_cr_pure_detuning_is_diagonal_evolution():
    deltas = [211.0, 223.0, 236.0, 248.0]
    dev = devices.FourQubitDevice(
        tuple(devices.CrossResonancePair(d, 0.0) for d in deltas)
    )
    t = 7.0
    u = devices.four_cr_gate(dev, [0, 0, 0, 0], t)
    h = devices.four_cr_hamiltonian(dev, [0, 0, 0, 0])
    assert np.abs(u - np.diag(np.exp(-1j * np.diagonal(h) * t))).max() < 1e-12


def test_four_qubit_device_validation():
    with pytest.raises(ValueError):
        devices.FourQubitDevice((devices.CrossResonancePair(1.0, 1.0),))
    for field in ("delta", "g", "eps", "phi"):
        for value in (np.nan, np.inf, 10**400):
            with pytest.raises(ValueError, match=field):
                devices.CrossResonancePair(**{"delta": 1.0, "g": 1.0, field: value})
    with pytest.raises(ValueError, match="eps"):
        devices.CrossResonancePair(1.0, 1.0, eps=-1.0)
    dev = devices.FourQubitDevice((devices.CrossResonancePair(1.0, 1.0),) * 4)
    for omegas, t, field in (([1.0] * 4, np.nan, "t must"), ([1.0] * 4, -1.0, "t must"),
                             ([1.0] * 3, 1.0, "omegas"), ([1.0, 1.0, 1.0, np.nan], 1.0, "omegas")):
        with pytest.raises(ValueError, match=field):
            devices.four_cr_gate(dev, omegas, t)


def test_tpcx_ideal_limit_is_cnot():
    seg_minus, seg_plus = tpcx_ideal_limit_segments()
    ideal = devices.TPCX_A @ seg_minus @ devices.TPCX_B @ seg_plus @ devices.TPCX_C
    assert abs(agf_unitary(CNOT, ideal) - 1.0) < 1e-10


def test_tpcx_crosstalk_free_phase_independence():
    pair_a = devices.CrossResonancePair(200.0, 5.0, 0.0, 0.1)
    pair_b = devices.CrossResonancePair(200.0, 5.0, 0.0, 2.1)
    ua = devices.tpcx(pair_a, 63.5, 75.0)
    ub = devices.tpcx(pair_b, 63.5, 75.0)
    assert np.array_equal(ua, ub)


def test_tpcx_working_point():
    pair = devices.CrossResonancePair(200.0, 5.0, 0.0, np.pi / 4)
    val = agi(CNOT, devices.tpcx(pair, 63.5, 75.0))
    assert 0.01 <= val <= 0.07
    pair_x = devices.CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    val_x = agi(CNOT, devices.tpcx(pair_x, 36.4, 75.0))
    assert val_x >= 3 * val


def test_tpcx_of_an_amplitude_array_is_bitwise_each_call_alone():
    rng = derive_rng(31)
    pairs = [devices.CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)]
    pairs += [devices.CrossResonancePair(rng.uniform(-300, 300), rng.uniform(0, 20),
                                         abs(rng.normal()), rng.uniform(-4, 4)) for _ in range(4)]
    omegas = np.concatenate([np.linspace(0.0, 200.0, 41), rng.uniform(-300.0, 0.0, 8)])
    for pair in pairs:
        for t in (0.0, 75.0, rng.uniform(0, 500)):
            stacked = devices.tpcx(pair, omegas, t)
            assert stacked.shape == (omegas.size, 4, 4)
            for k, omega in enumerate(omegas):
                assert stacked[k].tobytes() == devices.tpcx(pair, float(omega), t).tobytes()
    # the scalar call is the product of the two cr_gate segments
    pair, omega = pairs[0], 63.4
    segments = [devices.cr_gate(pair, devices.DriveSpec(w, 75.0)) for w in (-omega, omega)]
    assert devices.tpcx(pair, omega, 75.0).tobytes() == (
        devices.TPCX_A @ segments[0] @ devices.TPCX_B @ segments[1] @ devices.TPCX_C).tobytes()


def test_tpcx_rejects_a_gate_time_no_evolution_has():
    # as cr_gate and four_cr_gate do: a negative time ran the segments backwards
    pair = devices.CrossResonancePair(200.0, 5.0, 0.1, np.pi / 4)
    for t, shown in ((-75.0, "-75.0"), (np.nan, "NaN"), (np.inf, "Infinity")):
        message = f"^t must be a finite number >= 0, got {shown}$"
        with pytest.raises(devices.ConfigError, match=message):
            devices.tpcx(pair, 50.0, t)


def test_syndrome_target_parity_and_involution():
    u = devices.syndrome_target()
    assert is_unitary(u)

    def basis_state(bits):  # bits = (q1, q2, q3, q4, q0)
        idx = 0
        for b in bits:
            idx = 2 * idx + b
        v = np.zeros(32, dtype=complex)
        v[idx] = 1.0
        return v

    # even parity of excited data qubits leaves Q0 at |0>
    out = u @ basis_state((1, 0, 1, 0, 0))
    assert abs(out[int("10100", 2)] - 1.0) < 1e-12
    # odd parity flips Q0
    out = u @ basis_state((1, 0, 0, 0, 0))
    assert abs(out[int("10001", 2)] - 1.0) < 1e-12
    assert np.abs(u @ u - np.eye(32)).max() < 1e-12


def test_syndrome_target_is_clifford():
    # PTM of a Clifford is a signed permutation: entries in {0, +-1}
    r = ptm(devices.syndrome_target())
    assert np.all(np.isin(np.round(r, 9), [-1.0, 0.0, 1.0]))
    assert np.allclose(np.abs(r).sum(axis=1), 1.0)


def test_fixture_loaders(tmp_path):
    pair = devices.pair_from_dict({"delta_mhz": 200.0, "g_mhz": 5.0, "eps": 0.1, "phi_rad": 0.5})
    assert pair.delta == 200.0 and pair.eps == 0.1 and pair.phi == 0.5
    with pytest.raises(ValueError):
        devices.pair_from_dict({"delta_mhz": 200.0})
    good = {"delta_mhz": 200.0, "g_mhz": 5.0}
    for key, value in (("delta_mhz", True), ("g_mhz", "5"), ("eps", None), ("esp", 0.3),
                       ("g_mhz", 10**400)):
        with pytest.raises(ValueError, match=key):
            devices.pair_from_dict({**good, key: value})
    with pytest.raises(ValueError, match="object"):
        devices.pair_from_dict(5)
    for raw in ('{"pairs": 5}', "[1]", "{}"):
        (tmp_path / "dev.json").write_text(raw)
        with pytest.raises(ValueError, match="pairs list"):
            devices.load_device(tmp_path / "dev.json")


def test_with_crosstalk_toggle():
    pair = devices.CrossResonancePair(200.0, 5.0, 0.3, 1.0)
    dev = devices.FourQubitDevice((pair,) * 4)
    off = dev.with_crosstalk(False)
    assert all(p.eps == 0.0 for p in off.pairs)
    assert all(p.phi == 1.0 for p in off.pairs)
    assert dev.with_crosstalk(True) == dev


def test_device_from_dict_locates_each_pair():
    pairs = [{"delta_mhz": 200.0, "g_mhz": 5.0}] * 4
    dev = devices.device_from_dict({"pairs": pairs, "note": "kept for the caller"})
    assert dev.pairs == (devices.CrossResonancePair(200.0, 5.0),) * 4
    bad = pairs[:2] + [{"delta_mhz": 200.0, "g_mhz": "5"}] + pairs[3:]
    with pytest.raises(devices.ConfigError, match=r"^dev\.pairs\[2\]\.g_mhz must be a finite"):
        devices.device_from_dict({"pairs": bad}, "dev.")
    with pytest.raises(ValueError, match=r"^dev\.pairs must hold 4 pair objects, got 3$"):
        devices.device_from_dict({"pairs": pairs[:3]}, "dev.")
