"""Exact Riemann solver and self-similar sampler for the homogeneous Euler equations.

The star pressure solves a velocity-matching equation between the family-1
curve through the left state and the family-3 curve through the right state.
The root is bracketed, then polished with safeguarded Newton steps using the
analytic derivative of each curve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, VacuumError
from .gas import GasState
from .waves import WaveFamily, _acoustic_sign, shock_speed, wave_state


class WaveKind(enum.Enum):
    SHOCK = "shock"
    RAREFACTION = "rarefaction"


@dataclass(frozen=True)
class ClassicalFan:
    """Solved Riemann fan: two acoustic waves around a contact."""

    left: GasState
    right: GasState
    p_star: float
    u_star: float
    rho_star_left: float
    rho_star_right: float
    left_kind: WaveKind
    right_kind: WaveKind
    left_speeds: tuple[float, float]   # (head, tail); equal for a shock
    right_speeds: tuple[float, float]
    gamma: float

    @property
    def star_left(self) -> GasState:
        return GasState(self.rho_star_left, self.u_star, self.p_star, self.gamma)

    @property
    def star_right(self) -> GasState:
        return GasState(self.rho_star_right, self.u_star, self.p_star, self.gamma)

    def wave_strength(self, side: str) -> float:
        anchor = self.left if side == "left" else self.right
        return abs(self.p_star - anchor.p) / max(self.p_star, anchor.p)


def _velocity_curve(anchor: GasState, sign: float):
    """p -> (velocity on the wave curve through ``anchor``, its derivative in p).

    ``sign`` is -1 for family 1 and +1 for family 3. The anchor's constants
    are computed once here, as the left prefixes of the per-point
    expressions, so every value is the same to the bit.
    """
    g, rho0, u0, p0 = anchor.gamma, anchor.rho, anchor.u, anchor.p
    a0 = anchor.sound_speed
    a_coef = 2.0 / ((g + 1.0) * rho0)
    b_coef = (g - 1.0) / (g + 1.0) * p0
    z = (g - 1.0) / (2.0 * g)
    fan_coef = sign * 2.0 * a0 / (g - 1.0)
    fan_slope = sign / (rho0 * a0)
    fan_exp = -(g + 1.0) / (2.0 * g)

    def velocity(p: float) -> tuple[float, float]:
        if p >= p0:
            q = math.sqrt(a_coef / (p + b_coef))
            return u0 + sign * (p - p0) * q, sign * q * (1.0 - 0.5 * (p - p0) / (p + b_coef))
        return u0 + fan_coef * ((p / p0) ** z - 1.0), fan_slope * (p / p0) ** fan_exp
    return velocity


def _defect_curve(ul_of, ur_of):
    """p -> (ul - ur, its derivative) of the family-1 and family-3 ``_velocity_curve``s.

    Its root is the star pressure.
    """
    def defect(p: float) -> tuple[float, float]:
        ul, dul = ul_of(p)
        ur, dur = ur_of(p)
        return ul - ur, dul - dur
    return defect


def solve_classical(left: GasState, right: GasState, tol: float = 1e-12) -> ClassicalFan:
    """Exact solution of the Riemann problem between two states of equal gamma."""
    if left.gamma != right.gamma:
        raise ConfigError("states must share gamma")
    g = left.gamma
    gap = 2.0 * left.sound_speed / (g - 1.0) + 2.0 * right.sound_speed / (g - 1.0) \
        - (right.u - left.u)
    if gap <= 0.0:
        raise VacuumError(
            f"initial velocity divergence {right.u - left.u:.6g} opens vacuum"
        )

    ul_of, ur_of = _velocity_curve(left, -1.0), _velocity_curve(right, 1.0)
    defect = _defect_curve(ul_of, ur_of)
    scale_u = abs(left.u) + left.sound_speed + abs(right.u) + right.sound_speed
    tiny = 1e-13 * scale_u
    # Degenerate inputs where one anchor pressure is already the root: keeps
    # zero-strength waves exactly zero-strength.
    if abs(defect(left.p)[0]) <= tiny:
        p_star = left.p
    elif abs(defect(right.p)[0]) <= tiny:
        p_star = right.p
    else:
        lo = 1e-12 * min(left.p, right.p)
        hi = max(left.p, right.p)
        while defect(hi)[0] > 0.0:
            hi *= 4.0
            if hi > 1e40:
                raise VacuumError("pressure equation has no root")
        p_star = _solve_pressure(defect, lo, hi, tol, scale_u)

    u_star = 0.5 * (ul_of(p_star)[0] + ur_of(p_star)[0])

    sl = wave_state(WaveFamily.ONE, left, p_star)
    sr = wave_state(WaveFamily.THREE, right, p_star)

    lk, lsp = _acoustic_wave(WaveFamily.ONE, left, sl, u_star)
    rk, rsp = _acoustic_wave(WaveFamily.THREE, right, sr, u_star)

    return ClassicalFan(left, right, p_star, u_star, sl.rho, sr.rho, lk, rk, lsp, rsp, g)


def _acoustic_wave(family: WaveFamily, anchor: GasState, star: GasState,
                   u_star: float) -> tuple[WaveKind, tuple[float, float]]:
    """Kind and edge speeds, in increasing order, of the wave between ``anchor`` and ``star``."""
    if star.p >= anchor.p:
        sigma = shock_speed(family, anchor, star.p)
        return WaveKind.SHOCK, (sigma, sigma)
    s = _acoustic_sign(family)
    # The anchor's edge is the outer one: head of a family-1 fan, tail of a family-3 one.
    edges = (anchor.u + s * anchor.sound_speed, u_star + s * star.sound_speed)
    return WaveKind.RAREFACTION, edges if s < 0.0 else edges[::-1]


def _solve_pressure(defect, lo: float, hi: float, tol: float, scale_u: float) -> float:
    """Bisection bracket narrowed, then safeguarded Newton to convergence.

    ``defect`` is the map of ``_defect_curve``. Converges on the velocity
    residual itself, so the returned root is accurate even where the
    pressure function is steep.
    """
    flo, _ = defect(lo)
    fhi, _ = defect(hi)
    if flo < 0.0 or fhi > 0.0:
        raise VacuumError("failed to bracket the star pressure")
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        fm, _ = defect(mid)
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    for _ in range(100):
        f, df = defect(p)
        if abs(f) <= 1e-13 * scale_u:
            return p
        if f > 0.0:
            lo = p
        else:
            hi = p
        step = f / df if df != 0.0 else 0.0
        p_new = p - step
        if not (lo < p_new < hi):
            p_new = 0.5 * (lo + hi)
        if abs(p_new - p) <= 0.01 * tol * max(1.0, p_new):
            return p_new
        p = p_new
    return p


def _fan_interior(anchor: GasState, xi: float, s: float) -> GasState:
    """State at xi inside the rarefaction fan on ``anchor``; s = -1 (family 1) or +1 (family 3)."""
    g = anchor.gamma
    a = 2.0 / (g + 1.0) * (anchor.sound_speed - s * (0.5 * (g - 1.0) * (anchor.u - xi)))
    rho = anchor.rho * (a / anchor.sound_speed) ** (2.0 / (g - 1.0))
    p = anchor.p * (a / anchor.sound_speed) ** (2.0 * g / (g - 1.0))
    return GasState(rho, xi - s * a, p, g)


def sample_classical(fan: ClassicalFan, xi: float) -> GasState:
    """State of the self-similar fan at similarity coordinate xi = x/t.

    A coordinate landing exactly on a discontinuity resolves to the state on
    its right (any consistent rule works for flux evaluation).
    """
    if xi < fan.u_star:
        anchor = fan.left
        if fan.left_kind is WaveKind.SHOCK:
            return anchor if xi < fan.left_speeds[0] else fan.star_left
        head, tail = fan.left_speeds
        if xi < head:
            return anchor
        if xi > tail:
            return fan.star_left
        return _fan_interior(anchor, xi, -1.0)
    anchor = fan.right
    if fan.right_kind is WaveKind.SHOCK:
        return anchor if xi >= fan.right_speeds[0] else fan.star_right
    tail, head = fan.right_speeds
    if xi >= head:
        return anchor
    if xi < tail:
        return fan.star_right
    return _fan_interior(anchor, xi, 1.0)


def sample_classical_primitives(fan: ClassicalFan, xi: np.ndarray) -> np.ndarray:
    """(rho, u, p) rows of the fan at the similarity coordinates ``xi``, shape (n, 3).

    Row for row the state ``sample_classical`` returns, to the bit: every
    point is classified by the same comparisons in the same order (a
    searchsorted on the wave speeds would move the edge rules, e.g. the tail
    of a left rarefaction counts as interior). Rarefaction interiors go
    through the scalar ``_fan_interior``, because numpy's array ``power``
    may round differently from ``**``.
    """
    xi = np.asarray(xi, dtype=float)
    # Constant regions: 0 left, 1 star left, 2 star right, 3 right.
    table = np.array([[fan.left.rho, fan.left.u, fan.left.p],
                      [fan.rho_star_left, fan.u_star, fan.p_star],
                      [fan.rho_star_right, fan.u_star, fan.p_star],
                      [fan.right.rho, fan.right.u, fan.right.p]])
    on_left = xi < fan.u_star
    region = np.where(on_left, 1, 2)
    interiors = []
    if fan.left_kind is WaveKind.SHOCK:
        region[on_left & (xi < fan.left_speeds[0])] = 0
    else:
        head, tail = fan.left_speeds
        outside = xi < head
        region[on_left & outside] = 0
        interiors.append((fan.left, -1.0, on_left & ~outside & ~(xi > tail)))
    on_right = ~on_left
    if fan.right_kind is WaveKind.SHOCK:
        region[on_right & (xi >= fan.right_speeds[0])] = 3
    else:
        tail, head = fan.right_speeds
        outside = xi >= head
        region[on_right & outside] = 3
        interiors.append((fan.right, 1.0, on_right & ~outside & ~(xi < tail)))
    out = table[region]
    for anchor, s, inside in interiors:
        for i in np.flatnonzero(inside):
            state = _fan_interior(anchor, float(xi[i]), s)
            out[i] = (state.rho, state.u, state.p)
    return out
