"""Wave-curve functions for the homogeneous Euler equations.

The acoustic families (1 and 3) admit shocks and rarefactions; family 2 is
the linearly degenerate contact. Family-1 curves are anchored on the left
state of the wave and return the right state at a prescribed pressure;
family-3 curves are anchored on the right state and return the left state.
The shock branch applies for pressures at or above the anchor pressure, the
rarefaction branch below; the two branches join continuously at the anchor.
"""

from __future__ import annotations

import enum
import math

from .gas import GasState

# Relative slack for branch-domain checks, forgiving pure roundoff.
_BRANCH_SLACK = 1e-12


class WaveFamily(enum.Enum):
    ONE = 1
    TWO = 2
    THREE = 3


def _acoustic_sign(family: WaveFamily) -> float:
    if family is WaveFamily.ONE:
        return -1.0
    if family is WaveFamily.THREE:
        return 1.0
    raise ValueError("contact discontinuities carry no shock/rarefaction curve")


def shock_state(family: WaveFamily, anchor: GasState, p: float) -> tuple[GasState, float]:
    """State across a shock of the given family at pressure ``p`` >= anchor pressure.

    Returns the state and its signed Mach number.
    """
    state = _shock(family, anchor, p)
    return state, state.mach


def _shock(family: WaveFamily, anchor: GasState, p: float) -> GasState:
    """The state of ``shock_state``, without the Mach number ``wave_state`` does not read."""
    g = anchor.gamma
    if p < anchor.p * (1.0 - _BRANCH_SLACK):
        raise ValueError(f"shock branch needs p >= {anchor.p}, got {p}")
    rho = anchor.rho * ((g - 1.0) * anchor.p + (g + 1.0) * p) / ((g - 1.0) * p + (g + 1.0) * anchor.p)
    step = math.sqrt(2.0) * (p - anchor.p) / math.sqrt(
        anchor.rho * ((g + 1.0) * p + (g - 1.0) * anchor.p)
    )
    u = anchor.u + _acoustic_sign(family) * step
    return GasState(rho, u, p, g)


def rarefaction_state_by_pressure(family: WaveFamily, anchor: GasState, p: float) -> GasState:
    """State across a rarefaction of the given family at pressure ``p`` <= anchor pressure."""
    g = anchor.gamma
    if p > anchor.p * (1.0 + _BRANCH_SLACK):
        raise ValueError(f"rarefaction branch needs p <= {anchor.p}, got {p}")
    rho = anchor.rho * (p / anchor.p) ** (1.0 / g)
    du = 2.0 * anchor.sound_speed / (g - 1.0) * ((p / anchor.p) ** ((g - 1.0) / (2.0 * g)) - 1.0)
    u = anchor.u + _acoustic_sign(family) * du
    return GasState(rho, u, p, g)


def rarefaction_ratios(m0: float, m: float, gamma: float) -> tuple[float, float, float]:
    """Density, velocity and pressure ratios along a rarefaction, Mach-parametrized.

    Identical for families 1 and 3. Requires ``m >= m0`` (the flow accelerates
    through an expansion).
    """
    if m < m0 * (1.0 - _BRANCH_SLACK):
        raise ValueError(f"Mach must not decrease along a rarefaction: {m0} -> {m}")
    r = ((gamma - 1.0) * m0 + 2.0) / ((gamma - 1.0) * m + 2.0)
    gd = r ** (2.0 / (gamma - 1.0))
    gu = (m / m0) * r
    gp = r ** (2.0 * gamma / (gamma - 1.0))
    return gd, gu, gp


def rarefaction_state_by_mach(family: WaveFamily, anchor: GasState, m: float) -> GasState:
    """State on the rarefaction through ``anchor`` at target Mach number ``m``."""
    _acoustic_sign(family)  # reject contacts
    m0 = abs(anchor.mach)
    gd, gu, gp = rarefaction_ratios(m0, m, anchor.gamma)
    return GasState(anchor.rho * gd, anchor.u * gu, anchor.p * gp, anchor.gamma)


def wave_state(family: WaveFamily, anchor: GasState, p: float) -> GasState:
    """Combined shock/rarefaction curve; shock for p >= anchor pressure."""
    if p >= anchor.p:
        return _shock(family, anchor, p)
    return rarefaction_state_by_pressure(family, anchor, p)


def mach_along_1wave(anchor: GasState, p: float) -> float:
    """Signed Mach number of the family-1 curve state at pressure ``p``.

    Strictly decreasing in p whenever the anchor moves rightward; used to
    bracket upstream pressures for the stationary-wave construction.
    """
    return wave_state(WaveFamily.ONE, anchor, p).mach


def bisect(f, a: float, b: float, fa: float, tol: float, tiny: float) -> float:
    """Root of ``f`` in the bracket [a, b], where ``fa = f(a)`` and f(b) has the other sign.

    Halves the bracket, keeping the half where f changes sign (a zero at the
    midpoint keeps the lower half), until its width is at most
    ``tol * max(1, mid)`` or 200 halvings, and returns the final midpoint. A
    midpoint with ``abs(f) <= tiny`` is returned at once; a negative
    ``tiny`` never stops early.
    """
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) <= tiny:
            return mid
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= tol * max(1.0, mid):
            break
    return 0.5 * (a + b)


def rest_pressure(anchor: GasState) -> float:
    """Pressure at which the family-1 curve through ``anchor`` brings the flow to rest.

    Closed form: squaring the shock velocity relation gives a quadratic in p.
    Valid for anchors with u > 0 (compression to stagnation).
    """
    g = anchor.gamma
    if anchor.u <= 0.0:
        raise ValueError("rest pressure on the shock branch needs u > 0")
    q = anchor.rho * anchor.u * anchor.u
    b = 4.0 * anchor.p + (g + 1.0) * q
    c = 2.0 * anchor.p * anchor.p - (g - 1.0) * q * anchor.p
    return (b + math.sqrt(b * b - 8.0 * c)) / 4.0


def pressure_for_mach(anchor: GasState, target: float) -> float:
    """Invert the family-1 Mach map: pressure with ``mach_along_1wave == target``.

    The rarefaction side (target above the anchor Mach) has a closed form;
    the shock side is solved by bisection on the monotone Mach map, to a
    relative width of 1e-12.
    """
    m0 = anchor.mach
    if target < 0.0:
        raise ValueError("target Mach must be non-negative")
    if abs(target - m0) <= 1e-14 * max(1.0, m0):
        return anchor.p
    if target > m0:
        _, _, gp = rarefaction_ratios(m0, target, anchor.gamma)
        return anchor.p * gp
    # shock side: Mach falls from m0 at the anchor to 0 at the rest pressure
    return bisect(lambda p: mach_along_1wave(anchor, p) - target, anchor.p, rest_pressure(anchor),
                  m0 - target, 1e-12, -1.0)


def shock_speed(family: WaveFamily, anchor: GasState, p: float) -> float:
    """Propagation speed of a shock of the given family at pressure ``p >= p_anchor``."""
    g = anchor.gamma
    root = math.sqrt((g + 1.0) / (2.0 * g) * p / anchor.p + (g - 1.0) / (2.0 * g))
    return anchor.u + _acoustic_sign(family) * anchor.sound_speed * root
