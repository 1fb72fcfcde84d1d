"""Sound speed and Mach numbers of a primitive state, used only by tests."""

import numpy as np

from rotshock.thermo import GasModel, GasState, _check_positive


def sound_speed_sq(rho, P, m: GasModel):
    """c^2 = gamma P / rho."""
    rho, P = _check_positive(rho, P)
    return m.gamma * P / rho


def mach_and_sound(s: GasState, m: GasModel):
    """Return (c, M, M1, M2): sound speed, Mach number, directional Machs."""
    c = np.sqrt(sound_speed_sq(s.rho, s.P, m))
    M1 = s.u1 / c
    M2 = s.u2 / c
    M = np.hypot(s.u1, s.u2) / c
    return c, M, M1, M2
