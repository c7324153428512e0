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

from .errors import ConfigError
from .gas import GasState

# Relative slack for branch-domain checks, forgiving pure roundoff.
_BRANCH_SLACK = 1e-12
_SQRT2 = math.sqrt(2.0)


class WaveFamily(enum.Enum):
    """An acoustic family, valued by the sign of its characteristic speed relative to u."""

    ONE = -1.0
    THREE = 1.0


def _check_pressure(p: float) -> None:
    if not 0.0 < p < math.inf:
        raise ConfigError(f"pressure must be finite and positive, got {p}")


def _shock_rho_u(sign: float, rho0: float, u0: float, p0: float, g: float,
                 p: float) -> tuple[float, float]:
    """(rho, u) across a shock at pressure ``p`` from the anchor (rho0, u0, p0); ``sign`` is
    -1 for family 1 and +1 for family 3. Unchecked: ``p`` must be finite and positive."""
    rho = rho0 * ((g - 1.0) * p0 + (g + 1.0) * p) / ((g - 1.0) * p + (g + 1.0) * p0)
    step = _SQRT2 * (p - p0) / math.sqrt(rho0 * ((g + 1.0) * p + (g - 1.0) * p0))
    return rho, u0 + sign * step


def _rarefaction_rho_u(sign: float, rho0: float, u0: float, p0: float, g: float, a0: float,
                       p: float) -> tuple[float, float]:
    """(rho, u) across a rarefaction, as ``_shock_rho_u``; ``a0`` is the anchor sound speed."""
    rho = rho0 * (p / p0) ** (1.0 / g)
    du = 2.0 * a0 / (g - 1.0) * ((p / p0) ** ((g - 1.0) / (2.0 * g)) - 1.0)
    return rho, u0 + sign * du


def _wave_rho_u(sign: float, anchor: GasState, p: float) -> tuple[float, float]:
    """(rho, u) on the combined curve of ``wave_state``, unchecked as the two kernels."""
    if p >= anchor.p:
        return _shock_rho_u(sign, anchor.rho, anchor.u, anchor.p, anchor.gamma, p)
    return _rarefaction_rho_u(sign, anchor.rho, anchor.u, anchor.p, anchor.gamma,
                              anchor.sound_speed, p)


def rarefaction_ratios(m0: float, m: float, gamma: float) -> tuple[float, float, float]:
    """Density, velocity and pressure ratios along a rarefaction, Mach-parametrized.

    Identical for families 1 and 3. Requires a finite ``m0 > 0`` and a finite
    ``m >= m0`` (the flow accelerates through an expansion), else raises
    ``ConfigError``.
    """
    if not 0.0 < m0 < math.inf:
        raise ConfigError(f"rarefaction anchor Mach must be finite and positive, got {m0}")
    if not m0 * (1.0 - _BRANCH_SLACK) <= m < math.inf:
        raise ConfigError(f"Mach must be finite and not decrease along a rarefaction: "
                          f"{m0} -> {m}")
    r = ((gamma - 1.0) * m0 + 2.0) / ((gamma - 1.0) * m + 2.0)
    gd = r ** (2.0 / (gamma - 1.0))
    gu = (m / m0) * r
    gp = r ** (2.0 * gamma / (gamma - 1.0))
    return gd, gu, gp


def wave_state(family: WaveFamily, anchor: GasState, p: float) -> GasState:
    """Combined shock/rarefaction curve; shock for p >= anchor pressure.

    A pressure that is not finite and positive raises ``ConfigError``.
    """
    _check_pressure(p)
    return GasState(*_wave_rho_u(family.value, anchor, p), p, anchor.gamma)


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
        raise ConfigError("rest pressure on the shock branch needs u > 0")
    q = anchor.rho * anchor.u * anchor.u
    b = 4.0 * anchor.p + (g + 1.0) * q
    c = 2.0 * anchor.p * anchor.p - (g - 1.0) * q * anchor.p
    return (b + math.sqrt(b * b - 8.0 * c)) / 4.0


def pressure_for_mach(anchor: GasState, target: float) -> float:
    """Invert the family-1 Mach map: the pressure ``p`` at which the Mach number of
    ``wave_state(WaveFamily.ONE, anchor, p)`` is ``target``.

    The rarefaction side (target above the anchor Mach) has a closed form;
    the shock side is solved by bisection on the monotone Mach map, to a
    relative width of 1e-12. A target that is negative or not finite, or an
    anchor at rest or moving leftward, raises ``ConfigError``.
    """
    m0 = anchor.mach
    if not 0.0 <= target < math.inf:
        raise ConfigError(f"target Mach must be finite and non-negative, got {target}")
    if not m0 > 0.0:
        raise ConfigError(f"the Mach map is inverted for rightward flow only, got Mach {m0:.6g}")
    if abs(target - m0) <= 1e-14 * max(1.0, m0):
        return anchor.p
    if target > m0:
        _, _, gp = rarefaction_ratios(m0, target, anchor.gamma)
        return anchor.p * gp
    # shock side: Mach falls from m0 at the anchor to 0 at the rest pressure
    p_rest = rest_pressure(anchor)
    if not p_rest < math.inf:
        raise ConfigError(f"rest pressure of {anchor} overflows")
    return bisect(_shock_mach_map(anchor, target), anchor.p, p_rest, m0 - target, 1e-12, -1.0)


def _shock_mach_map(anchor: GasState, target: float):
    """p -> (Mach of the family-1 curve state at p) - target, for p in [anchor.p, rest pressure].

    Every such p is on the shock branch, finite and positive, so the map
    evaluates the shock kernel unchecked and builds no state.
    """
    rho0, u0, p0, g = anchor.rho, anchor.u, anchor.p, anchor.gamma

    def defect(p: float) -> float:
        rho, u = _shock_rho_u(-1.0, rho0, u0, p0, g, p)
        return u / math.sqrt(g * p / rho) - target
    return defect


def shock_speed(family: WaveFamily, anchor: GasState, p: float) -> float:
    """Propagation speed of a shock of the given family at pressure ``p >= p_anchor``."""
    g = anchor.gamma
    root = math.sqrt((g + 1.0) / (2.0 * g) * p / anchor.p + (g - 1.0) / (2.0 * g))
    return anchor.u + family.value * anchor.sound_speed * root
