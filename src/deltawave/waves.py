"""Wave-curve functions for the homogeneous Euler equations.

The acoustic families (1 and 3) admit shocks and rarefactions; family 2 is
the linearly degenerate contact. Family-1 curves are anchored on the left
state of the wave and return the right state at a prescribed pressure;
family-3 curves are anchored on the right state and return the left state.
The shock branch applies for pressures at or above the anchor pressure, the
rarefaction branch below; the two branches join continuously at the anchor.
``wave_curve`` is the one implementation of both families and both branches.
The module also holds the two root finders of the origin solver: the
safeguarded Newton routine ``newton`` and the bracketed ``illinois``.
"""

from __future__ import annotations

import enum
import math

from .errors import ConfigError, RootBracketError
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


def wave_curve(sign: float, anchor: GasState, p: float) -> tuple[float, float, float]:
    """(rho, u, du/dp) on the wave curve through ``anchor`` at pressure ``p``.

    ``sign`` is -1 for family 1 and +1 for family 3; the shock branch applies
    for ``p >= anchor.p``. The one implementation of the acoustic curves:
    ``wave_state`` wraps it in a ``GasState``, and the root finders read it
    on plain floats. Unchecked: ``p`` must be finite and positive. Data of a
    tiny scale (rho and p near 1e-165), whose shock-branch product
    rho0 ((gamma + 1) p + (gamma - 1) p0) underflows to 0, raise
    ``ConfigError``, as a state whose squared sound speed underflows does.
    """
    rho0, u0, p0, g = anchor.rho, anchor.u, anchor.p, anchor.gamma
    gp, gm = g + 1.0, g - 1.0
    if p >= p0:
        dp = p - p0
        # d1 is also the numerator of the density ratio: IEEE addition commutes exactly.
        d1 = gp * p + gm * p0
        m = rho0 * d1
        root = math.sqrt(m)
        try:  # costs nothing unless it raises
            du = sign * _SQRT2 / root * (1.0 - 0.5 * gp * dp / d1)
        except ZeroDivisionError:
            raise ConfigError(f"shock curve through {anchor} underflows at p = {p!r}") from None
        return m / (gm * p + gp * p0), u0 + sign * (_SQRT2 * dp / root), du
    a0 = math.sqrt(g * p0 / rho0)  # anchor.sound_speed, without the property call
    ratio = p / p0
    step = 2.0 * a0 / gm * (ratio ** (gm / (2.0 * g)) - 1.0)
    du = sign / (rho0 * a0) * ratio ** (-gp / (2.0 * g))
    return rho0 * ratio ** (1.0 / g), u0 + sign * step, du


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
    rho, u, _ = wave_curve(family.value, anchor, p)
    return GasState(rho, u, p, anchor.gamma)


def newton(f, lo: float, hi: float, x: float, tiny: float, xtol: float) -> float:
    """Root of ``f`` in [lo, hi] by safeguarded Newton steps from ``x``, a point of the bracket.

    ``f(x)`` returns the value and its derivative, and the value is positive
    below the root and negative above it. Each evaluation narrows the
    bracket to the side of its sign; a Newton step that leaves the bracket,
    or that a zero or NaN derivative leaves undefined, is replaced by its
    midpoint, and a step that rounds to nothing keeps its point. Returns a point with
    ``abs(value) <= tiny``, or the next iterate once a step is at most
    ``xtol`` times that iterate. The test is relative, so it reads the same
    in any unit of the argument, which must be positive: the callers' roots
    are pressures. Raises ``RootBracketError`` after 100 evaluations without
    either.
    """
    for _ in range(100):
        fx, dfx = f(x)
        if abs(fx) <= tiny:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - fx / dfx if dfx != 0.0 else math.nan
        if not lo <= x_new <= hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= xtol * x_new:
            return x_new
        x = x_new
    raise RootBracketError(f"safeguarded Newton did not converge in [{lo!r}, {hi!r}]")


def illinois(f, a: float, b: float, fa: float, fb: float, tol: float, tiny: float) -> float:
    """Root of ``f`` in the bracket [a, b], a < b, where ``fa = f(a)`` and ``fb = f(b)``.

    Regula falsi with the Anderson-Bjorck form of the Illinois rule (BIT 13,
    1973): when a new point has the sign of the one before it, the value at
    the far end of the bracket is scaled down, so both ends converge
    superlinearly on smooth ``f``. A point that would not lie strictly inside
    the bracket, or that follows three evaluations which did not halve it,
    is replaced by the midpoint, so the bracket halves at least every four
    evaluations. An end with ``abs(f) <= tiny`` (``tiny >= 0``) is returned
    exactly, then ends of equal sign raise ``RootBracketError``. Returns an
    evaluated point with ``abs(f) <= tiny``, or the midpoint of the bracket
    once its width is at most ``tol * x`` for the last point x. The test is
    relative, so it reads the same in any unit of the argument, which must
    be positive: the callers' roots are pressures. Raises
    ``RootBracketError`` after 200 evaluations without either.
    """
    if abs(fa) <= tiny:
        return a
    if abs(fb) <= tiny:
        return b
    if fa * fb > 0.0:
        raise RootBracketError(f"f has the same sign at both ends of [{a!r}, {b!r}]")
    # From here on (b, fb) is the latest point and (a, fa) the far end of the bracket.
    widths = (math.inf,) * 3  # bracket widths before the last three evaluations
    for _ in range(200):
        x = b - fb * (b - a) / (fb - fa)
        lo, hi = min(a, b), max(a, b)
        if not lo < x < hi or hi - lo > 0.5 * widths[0]:
            x = 0.5 * (a + b)
        widths = (*widths[1:], hi - lo)
        fx = f(x)
        if abs(fx) <= tiny:
            return x
        if fx * fb < 0.0:
            a, fa = b, fb
        else:
            m = 1.0 - fx / fb
            fa *= m if m > 0.0 else 0.5
        b, fb = x, fx
        if abs(b - a) <= tol * x:
            return 0.5 * (a + b)
    raise RootBracketError(f"bracket [{a!r}, {b!r}] did not narrow to tol = {tol!r}")


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

    The rarefaction side (target above the anchor Mach) has a closed form.
    The shock side runs ``newton`` on the monotone Mach map inside
    [anchor pressure, rest pressure], with its analytic derivative, from the
    linear interpolation of the map between those two ends, until a step is
    at most 1e-12 relative. A target that is negative or not finite, or an
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
    guess = anchor.p + (p_rest - anchor.p) * (1.0 - target / m0)
    return newton(_shock_mach_map(anchor, target), anchor.p, p_rest, guess, 0.0, 1e-12)


def _shock_mach_map(anchor: GasState, target: float):
    """p -> ((Mach of the family-1 curve state at p) - target, its derivative in p),
    for p in [anchor.p, rest pressure].

    Every such p is on the shock branch, finite and positive, so the map
    reads ``wave_curve`` unchecked and builds no state. With
    Q = rho / (gamma p), M = u sqrt(Q) and M' = sqrt(Q) (u' + u Q' / (2 Q)).
    """
    p0, g = anchor.p, anchor.gamma

    def defect(p: float) -> tuple[float, float]:
        rho, u, du = wave_curve(-1.0, anchor, p)
        a = math.sqrt(g * p / rho)
        d1 = (g + 1.0) * p + (g - 1.0) * p0
        dlog_q = (g + 1.0) / d1 - 1.0 / p - (g - 1.0) / ((g - 1.0) * p + (g + 1.0) * p0)
        return u / a - target, (du + 0.5 * u * dlog_q) / a
    return defect


def shock_speed(family: WaveFamily, anchor: GasState, p: float, a: float) -> float:
    """Propagation speed of a shock of the given family at pressure ``p >= p_anchor``.

    ``a`` is the anchor's sound speed. A pressure that is not finite and
    positive raises ``ConfigError``.
    """
    _check_pressure(p)
    g = anchor.gamma
    root = math.sqrt((g + 1.0) / (2.0 * g) * p / anchor.p + (g - 1.0) / (2.0 * g))
    return anchor.u + family.value * a * root
