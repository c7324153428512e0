"""Ideal-gas states, conversions, characteristic speeds and the point-source value.

A :class:`GasState` stores the primitive variables (rho, u, p) together with
the ratio of specific heats, so states with different gamma can coexist.
Vacuum is not representable: every downstream formula divides by rho or p,
so the constructor rejects non-positive density or pressure outright, and
any field that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class GasState:
    """One fluid state in primitive variables (density, velocity, pressure)."""

    rho: float
    u: float
    p: float
    gamma: float = 1.4

    def __post_init__(self):
        # Chained comparisons only: every solver step builds states. NaN fails each.
        if not (0.0 < self.rho < math.inf and 0.0 < self.p < math.inf
                and -math.inf < self.u < math.inf):
            raise ConfigError(f"non-physical state: rho={self.rho}, u={self.u}, p={self.p}")
        if not self.gamma > 1.0:
            raise ConfigError(f"gamma must exceed 1, got {self.gamma}")

    @property
    def sound_speed(self) -> float:
        return math.sqrt(self.gamma * self.p / self.rho)

    @property
    def mach(self) -> float:
        """Signed Mach number u/a."""
        # ``sound_speed`` inline: the wave-curve root finders read this in their loops.
        return self.u / math.sqrt(self.gamma * self.p / self.rho)

    @property
    def energy(self) -> float:
        """Total energy per unit volume."""
        return total_energy(self.rho, self.u, self.p, self.gamma)

    def mirrored(self) -> "GasState":
        """The state seen in the x -> -x, u -> -u reflected frame."""
        return GasState(self.rho, -self.u, self.p, self.gamma)


@dataclass(frozen=True)
class SourceCoefficients:
    """Dimensionless strengths of the point source, one per conserved equation.

    Each coefficient must be finite and exceed -1, and so must the derived
    combination ``k``, which controls which stationary-wave branches exist and
    which solution structures are reachable; else ``ConfigError``.
    """

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            if not -1.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and exceed -1, got {getattr(self, name)}")
        try:
            k = self.k
        except OverflowError as exc:
            raise ConfigError(f"k of {self} overflows") from exc
        if not -1.0 < k < math.inf:
            raise ConfigError(f"k of {self} must be finite and exceed -1, got {k}")

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


def total_energy(rho, u, p, gamma: float):
    """Total energy per unit volume of primitive values, scalars or arrays."""
    return p / (gamma - 1.0) + 0.5 * rho * u * u


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


def rightward_frame(left: GasState, right: GasState) -> tuple[GasState, GasState, bool] | None:
    """The pair in the frame where it flows rightward, and whether that frame is mirrored.

    None when the flow does not pass through the origin (velocities of mixed
    sign, or zero on either side): such a pair carries no source. This is
    the one place that reads the flow direction of a pair of traces.
    """
    if left.u > 0.0 and right.u > 0.0:
        return left, right, False
    if left.u < 0.0 and right.u < 0.0:
        return right.mirrored(), left.mirrored(), True
    return None


def evaluate_source(left: GasState, right: GasState, coeffs: SourceCoefficients) -> np.ndarray:
    """Source vector carried by the origin, given the two adjacent traces.

    Active only when the flow passes through the origin without changing
    sign; the strength is the coefficient-scaled flux of the upstream trace,
    taken in the rightward frame. Mirror covariance fixes the leftward case:
    the reflected frame reproduces the rightward value with the momentum
    component flipped.
    """
    frame = rightward_frame(left, right)
    if frame is None:
        return np.zeros(3)
    source = coeffs.diag * physical_flux(frame[0])
    if frame[2]:
        source[1] = -source[1]
    return source
