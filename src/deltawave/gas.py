"""Ideal-gas states, conversions, characteristic speeds and the point-source value.

A :class:`GasState` stores the primitive variables (rho, u, p) together with
the ratio of specific heats, so states with different gamma can coexist.
Vacuum is not representable: every downstream formula divides by rho or p,
so the constructor rejects non-positive density or pressure outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class GasState:
    """One fluid state in primitive variables (density, velocity, pressure)."""

    rho: float
    u: float
    p: float
    gamma: float = 1.4

    def __post_init__(self):
        if not (self.rho > 0.0 and self.p > 0.0):
            raise ValueError(f"non-physical state: rho={self.rho}, p={self.p}")
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")

    @property
    def sound_speed(self) -> float:
        return math.sqrt(self.gamma * self.p / self.rho)

    @property
    def mach(self) -> float:
        """Signed Mach number u/a."""
        return self.u / self.sound_speed

    @property
    def energy(self) -> float:
        """Total energy per unit volume."""
        return self.p / (self.gamma - 1.0) + 0.5 * self.rho * self.u * self.u

    def mirrored(self) -> "GasState":
        """The state seen in the x -> -x, u -> -u reflected frame."""
        return GasState(self.rho, -self.u, self.p, self.gamma)


@dataclass(frozen=True)
class SourceCoefficients:
    """Dimensionless strengths of the point source, one per conserved equation.

    Each coefficient must exceed -1; the derived combination ``k`` controls
    which stationary-wave branches exist and which solution structures are
    reachable.
    """

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            if not getattr(self, name) > -1.0:
                raise ValueError(f"{name} must exceed -1, got {getattr(self, name)}")

    @property
    def k(self) -> float:
        """(1+k1)(1+k3)/(1+k2)^2 - 1, exactly 0.0 within 4 eps so its sign is read one way."""
        k = (1.0 + self.k1) * (1.0 + self.k3) / (1.0 + self.k2) ** 2 - 1.0
        return 0.0 if abs(k) <= 4.0 * _EPS else k

    @property
    def diag(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3])

    def is_zero(self) -> bool:
        return self.k1 == 0.0 and self.k2 == 0.0 and self.k3 == 0.0


def to_conserved(state: GasState) -> np.ndarray:
    """Conserved vector (rho, rho*u, E)."""
    return np.array([state.rho, state.rho * state.u, state.energy])


def from_conserved(rho: float, mom: float, energy: float, gamma: float = 1.4) -> GasState:
    """State of the conserved vector (rho, rho*u, E)."""
    u = mom / rho
    # The 0.5*rho*u*u form of the origin traces; the array form of
    # ``primitives`` rounds differently and would move the origin bits.
    p = (gamma - 1.0) * (energy - 0.5 * rho * u * u)
    return GasState(rho, u, p, gamma)


def primitives(u: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, velocity, p) of conserved states stacked along the last axis."""
    rho = u[..., 0]
    vel = u[..., 1] / rho
    p = (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] * vel)
    return rho, vel, p


def euler_flux(u: np.ndarray, vel, p) -> np.ndarray:
    """Euler flux (rho*u, rho*u^2 + p, (E + p)*u) of conserved states ``u`` (..., 3)."""
    out = np.empty_like(u)
    out[..., 0] = u[..., 1]
    out[..., 1] = u[..., 1] * vel + p
    out[..., 2] = (u[..., 2] + p) * vel
    return out


def signal_speed(rho, vel, p, gamma: float):
    """Fastest characteristic speed |u| + a."""
    return np.abs(vel) + np.sqrt(gamma * p / rho)


def physical_flux(state: GasState) -> np.ndarray:
    """Euler flux of one state."""
    return euler_flux(to_conserved(state), state.u, state.p)


def eigenvalues(state: GasState) -> tuple[float, float, float]:
    """Characteristic speeds (u - a, u, u + a), strictly increasing."""
    a = state.sound_speed
    return (state.u - a, state.u, state.u + a)


def evaluate_source(left: GasState, right: GasState, coeffs: SourceCoefficients) -> np.ndarray:
    """Source vector carried by the origin, given the two adjacent traces.

    Active only when the flow passes through the origin without changing
    sign; the strength is the coefficient-scaled flux of the upstream trace.
    The sign of the leftward-flow case is fixed by mirror covariance: the
    reflected frame must reproduce the rightward-flow value with the momentum
    component flipped.
    """
    if left.u > 0.0 and right.u > 0.0:
        return coeffs.diag * physical_flux(left)
    if left.u < 0.0 and right.u < 0.0:
        return -coeffs.diag * physical_flux(right)
    return np.zeros(3)
