"""Ideal-gas thermodynamics for a polytropic rotating flow.

Primitive variables (rho, u1, u2, P) and the characteristic pair

    S = ln(P / rho^gamma)                (entropy, constant on streamlines)
    B = |u|^2/2 + gamma P / ((gamma-1) rho)   (Bernoulli, constant on streamlines)

are exchanged here.  Density and pressure recover from (S, B, |u|^2) as

    rho = ((gamma-1)/(gamma e^S) (B - |u|^2/2))^(1/(gamma-1))
    P   = ((gamma-1)/(gamma e^(S/gamma)) (B - |u|^2/2))^(gamma/(gamma-1))

All functions are pure and vectorised over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, VacuumError

__all__ = ["GasModel", "GasState", "entropy_bernoulli", "rho_P"]

# relative guard band below which B - |u|^2/2 counts as vacuum
_VACUUM_GUARD = 1e-14


@dataclass(frozen=True)
class GasModel:
    """Adiabatic exponent gamma > 1 and Coriolis parameter beta >= 0.

    beta = 0 is the classical non-rotating limit; every beta-dependent
    formula reduces continuously to it.
    """

    gamma: float = 1.4
    beta: float = 0.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise InvalidStateError(f"gamma must exceed 1, got {self.gamma}")
        if self.beta < 0.0:
            raise InvalidStateError(f"beta must be non-negative, got {self.beta}")


@dataclass(frozen=True)
class GasState:
    """Primitive variables; rho and P must be positive."""

    rho: float
    u1: float
    u2: float
    P: float


def _check_positive(rho, P):
    rho = np.asarray(rho, dtype=float)
    P = np.asarray(P, dtype=float)
    if np.any(rho <= 0.0):
        raise InvalidStateError(f"non-positive density (min {np.min(rho)})")
    if np.any(P <= 0.0):
        raise InvalidStateError(f"non-positive pressure (min {np.min(P)})")
    return rho, P


def entropy_bernoulli(rho, u1, u2, P, m: GasModel):
    """Primitive -> characteristic variables (S, B); vectorised."""
    rho, P = _check_positive(rho, P)
    g = m.gamma
    S = np.log(P) - g * np.log(rho)
    B = 0.5 * (np.asarray(u1) ** 2 + np.asarray(u2) ** 2) + g * P / ((g - 1.0) * rho)
    return S, B


def rho_P(S, B, u1, u2, m: GasModel):
    """(rho, P) from (S, B, |u|^2); inverse of ``entropy_bernoulli``."""
    S = np.asarray(S, dtype=float)
    B = np.asarray(B, dtype=float)
    g = m.gamma
    ke = 0.5 * (np.asarray(u1, dtype=float) ** 2 + np.asarray(u2, dtype=float) ** 2)
    head = B - ke
    if np.any(head <= _VACUUM_GUARD * np.abs(B)):
        raise VacuumError(
            f"B - |u|^2/2 too small for a gas state (min {np.min(head):.3e})"
        )
    # powers via exp/log of positive arguments
    lnarg = np.log((g - 1.0) / g) + np.log(head)
    rho = np.exp((lnarg - S) / (g - 1.0))
    P = np.exp(g * (lnarg - S / g) / (g - 1.0))
    return rho, P

