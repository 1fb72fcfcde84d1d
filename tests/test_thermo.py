import numpy as np
import pytest

import rotshock as rs
from rotshock.thermo import entropy_bernoulli, rho_P
from tests.thermo_oracle import mach_and_sound

# (S, B) are the characteristic variables: entropy_bernoulli maps a primitive
# state to them and rho_P maps them back.


def test_to_char_rest_state(gas_classic):
    S, B = entropy_bernoulli(1.0, 0.0, 0.0, 1.0, gas_classic)
    assert S == pytest.approx(0.0, abs=1e-15)
    assert B == pytest.approx(3.5, rel=1e-14)


def test_to_char_moving_state(gas_classic):
    S, B = entropy_bernoulli(1.0, 1.0, 0.0, 1.0, gas_classic)
    assert S == pytest.approx(0.0, abs=1e-15)
    assert B == pytest.approx(4.0, rel=1e-14)


def test_to_char_rejects_nonpositive_density(gas_classic):
    with pytest.raises(rs.InvalidStateError):
        entropy_bernoulli(0.0, 0.0, 0.0, 1.0, gas_classic)


def test_from_char_unit_state(gas_classic):
    rho, P = rho_P(0.0, 3.5, 0.0, 0.0, gas_classic)
    assert rho == pytest.approx(1.0, rel=1e-14)
    assert P == pytest.approx(1.0, rel=1e-14)


def test_from_char_vacuum(gas_classic):
    with pytest.raises(rs.VacuumError):
        rho_P(0.0, 2.0, 2.0, 0.0, gas_classic)


def test_round_trip_randomized(gas_classic):
    rng = np.random.default_rng(42)
    n = 500
    rho = rng.uniform(0.1, 5.0, n)
    P = rng.uniform(0.1, 5.0, n)
    u1 = rng.uniform(-3.0, 3.0, n)
    u2 = rng.uniform(-3.0, 3.0, n)
    S, B = entropy_bernoulli(rho, u1, u2, P, gas_classic)
    rho2, P2 = rho_P(S, B, u1, u2, gas_classic)
    assert np.abs(rho2 / rho - 1.0).max() <= 1e-12
    assert np.abs(P2 / P - 1.0).max() <= 1e-12


def test_monotone_in_bernoulli(gas_rot):
    # at fixed (u, S) both density and pressure increase with B
    B = np.linspace(3.0, 8.0, 40)
    rho, P = rho_P(0.3, B, 1.0, 0.5, gas_rot)
    assert np.all(np.diff(rho) > 0)
    assert np.all(np.diff(P) > 0)


def test_mach_and_sound_supersonic(gas_classic):
    c, M, M1, M2 = mach_and_sound(rs.GasState(1.4, 2.0, 0.0, 1.0), gas_classic)
    assert c == pytest.approx(1.0, rel=1e-14)
    assert M == pytest.approx(2.0, rel=1e-14)
    assert (M1, M2) == (pytest.approx(2.0), pytest.approx(0.0))


def test_mach_zero_velocity(gas_classic):
    _, M, _, _ = mach_and_sound(rs.GasState(1.0, 0.0, 0.0, 1.0), gas_classic)
    assert M == 0.0


def test_mach_diagonal(gas_classic):
    _, M, _, _ = mach_and_sound(rs.GasState(1.0, 1.0, 1.0, 1.0), gas_classic)
    assert M**2 == pytest.approx(2.0 / 1.4, rel=1e-14)


def test_supersonic_criterion_consistency(gas_classic):
    rng = np.random.default_rng(7)
    for _ in range(100):
        st = rs.GasState(rng.uniform(0.2, 3), rng.uniform(-3, 3),
                         rng.uniform(-3, 3), rng.uniform(0.2, 3))
        _, M, _, _ = mach_and_sound(st, gas_classic)
        speed_sq = st.u1**2 + st.u2**2
        assert (M > 1.0) == (speed_sq > 1.4 * st.P / st.rho)


def test_gas_model_validation():
    with pytest.raises(rs.InvalidStateError):
        rs.GasModel(1.0, 0.0)
    with pytest.raises(rs.InvalidStateError):
        rs.GasModel(1.4, -0.1)
