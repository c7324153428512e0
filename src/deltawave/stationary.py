"""The zero-speed discontinuity carried by the point source.

Its two sides satisfy the flux jump (1 + k_i) F_i(upstream) = F_i(downstream)
for rightward flow. For a given upstream state, the downstream Mach number
solves G(M+^2) = (1 + k) G(M-^2) with the unimodal nozzle-style function
G(x) = x((gamma-1)x + 2)/(gamma x + 1)^2, which peaks at the sonic point.
Hence two branches (both-subsonic / both-supersonic), existence limits at
critical Mach numbers, and choking when a side hits Mach one exactly.

All curve evaluations assume rightward flow (u > 0); callers mirror
leftward configurations into this frame and back (``gas.rightward_frame``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotSolvableError
from .gas import _EPS, GasState, SourceCoefficients, physical_flux, rightward_frame

# Relative slack allowed on admissible-interval endpoints inside the curve
# evaluators (pure-roundoff overshoot must not reject a boundary state).
_GAMMA_SLACK = 1e-9


class Branch(enum.Enum):
    SUBSONIC = "subsonic"
    SUPERSONIC = "supersonic"


class Side(enum.Enum):
    LEFT = "left"    # upstream of the origin for rightward flow
    RIGHT = "right"  # downstream


@dataclass(frozen=True)
class CriticalMachNumbers:
    """Endpoints of the admissible Mach intervals on each side of the jump.

    For either sign of the derived coefficient the admissible sets share one
    shape: upstream subsonic (0, upstream_subsonic_max], upstream supersonic
    [upstream_supersonic_min, upstream_supersonic_sup), downstream subsonic
    (0, downstream_subsonic_max], downstream supersonic
    [downstream_supersonic_min, downstream_supersonic_sup). Nonexistent
    branches degenerate to empty intervals via infinite endpoints.
    """

    upstream_subsonic_max: float
    upstream_supersonic_min: float
    upstream_supersonic_sup: float
    downstream_subsonic_max: float
    downstream_supersonic_min: float
    downstream_supersonic_sup: float

    def interval(self, side: Side, branch: Branch) -> tuple[float, float]:
        """Endpoints of the admissible Mach set on ``side`` and ``branch``."""
        if side is Side.LEFT:
            if branch is Branch.SUBSONIC:
                return 0.0, self.upstream_subsonic_max
            return self.upstream_supersonic_min, self.upstream_supersonic_sup
        if branch is Branch.SUBSONIC:
            return 0.0, self.downstream_subsonic_max
        return self.downstream_supersonic_min, self.downstream_supersonic_sup


def critical_mach_numbers(coeffs: SourceCoefficients, gamma: float) -> CriticalMachNumbers:
    k = coeffs.k
    g = gamma
    if k > 0.0:
        kc = 1.0 / (g * g - 1.0)
        if abs(k - kc) <= 4.0 * _EPS * kc:
            m1 = math.sqrt((g - 1.0) / (2.0 * g))
        else:
            m1 = math.sqrt(
                (k * g + k + 1.0 - (g + 1.0) * math.sqrt(k * (k + 1.0)))
                / (k + 1.0 - k * g * g)
            )
        if k >= kc:
            m2 = math.inf
            m3 = math.inf
        else:
            m2 = math.sqrt(
                (k * g + k + 1.0 + (g + 1.0) * math.sqrt(k * (k + 1.0)))
                / (k + 1.0 - k * g * g)
            )
            root = math.sqrt(1.0 - k * (g * g - 1.0))
            m3 = math.sqrt((g + root) / (g - g * root))
        return CriticalMachNumbers(m1, m2, math.inf, 1.0, 1.0, m3)
    if k < 0.0:
        m1b = math.sqrt((1.0 - math.sqrt(-k)) / (1.0 + g * math.sqrt(-k)))
        if k <= -1.0 / (g * g):
            m2b = math.inf
            m3b = 1.0
        else:
            m2b = math.sqrt((1.0 + math.sqrt(-k)) / (1.0 - g * math.sqrt(-k)))
            num = g * math.sqrt(1.0 + k) + math.sqrt(1.0 + k * g * g)
            den = g * math.sqrt(1.0 + k) - g * math.sqrt(1.0 + k * g * g)
            m3b = math.sqrt(num / den)
        return CriticalMachNumbers(1.0, 1.0, m3b, m1b, m2b, math.inf)
    return CriticalMachNumbers(1.0, 1.0, math.inf, 1.0, 1.0, math.inf)


def admissible(mach: float, side: Side, branch: Branch, coeffs: SourceCoefficients, gamma: float) -> bool:
    """Exact membership in the admissible Mach set for the given side and branch."""
    lo, hi = critical_mach_numbers(coeffs, gamma).interval(side, branch)
    if branch is Branch.SUBSONIC:
        return lo < mach <= hi
    return lo <= mach < hi


def _branch_mach_sq(m2: float, one_plus_k: float, gamma: float, branch: Branch,
                    corrections: bool) -> float:
    """Solve G(x) = one_plus_k * G(m2) for the requested branch, stably.

    The radicand of the discriminant vanishes at the choking boundary; tiny
    negative values from roundoff are clamped to zero. With ``corrections``
    any negative radicand is clamped and an unusable supersonic branch falls
    back to the subsonic one.
    """
    g = gamma
    c = g * m2 + 1.0
    b = (g + 1.0) * one_plus_k * m2 * ((g - 1.0) * m2 + 2.0)
    rad = c * c - b
    scale = max(c * c, abs(b))
    # Snap roundoff-level radicands to the choking value so boundary states
    # land exactly sonic; negative values further out are tolerated up to the
    # slop of pressure root finders (~1e-12 relative), far below any
    # genuinely unsolvable interior point.
    if abs(rad) <= 64.0 * _EPS * scale:
        rad = 0.0
    if rad < 0.0:
        if rad >= -1e-11 * scale or corrections:
            rad = 0.0
        else:
            raise NotSolvableError(
                f"no stationary jump from Mach^2={m2:.6g}: discriminant {rad:.3e} < 0"
            )
    s = math.sqrt(rad)
    if branch is Branch.SUBSONIC:
        return b / ((c + s) * (c + g * s))
    den = g * g * b - (g * g - 1.0) * c * c  # equals c^2 - g^2 s^2
    if den <= 0.0:
        if corrections:
            return b / ((c + s) * (c + g * s))
        raise NotSolvableError(
            f"supersonic branch blows up from Mach^2={m2:.6g}"
        )
    return (c + s) * (c + g * s) / den


def _ratios(m2: float, mp2: float, coeffs: SourceCoefficients, gamma: float) -> tuple[float, float, float]:
    """(rho, u, p) multipliers taking the upstream state to the downstream one."""
    if m2 == 0.0 or mp2 == 0.0:
        raise NotSolvableError(f"Mach number underflows: Mach^2 {m2:.3g} up, {mp2:.3g} down")
    cm = gamma * m2 + 1.0
    cp = gamma * mp2 + 1.0
    gd = (m2 / mp2) * (cp / cm) * (1.0 + coeffs.k1) ** 2 / (1.0 + coeffs.k2)
    gu = (mp2 / m2) * (cm / cp) * (1.0 + coeffs.k2) / (1.0 + coeffs.k1)
    gp = (cm / cp) * (1.0 + coeffs.k2)
    return gd, gu, gp


def stationary_ratios(mach_minus: float, coeffs: SourceCoefficients, gamma: float,
                      branch: Branch, corrections: bool = False) -> tuple[float, float, float]:
    """(rho, u, p) multipliers across the jump as functions of the upstream Mach."""
    if mach_minus <= 0.0:
        raise ConfigError("upstream Mach must be positive")
    mp2 = _branch_mach_sq(mach_minus * mach_minus, 1.0 + coeffs.k, gamma, branch, corrections)
    return _ratios(mach_minus * mach_minus, mp2, coeffs, gamma)


def _crossing_mach(state: GasState, coeffs: SourceCoefficients, side: Side, branch: Branch,
                   corrections: bool) -> float | None:
    """Mach number of ``state`` as the ``side`` of a jump on ``branch``, checked.

    Requires rightward flow. Returns None for the zero-coefficient source,
    which carries no jump (both branches coincide there). Without
    ``corrections`` a Mach number outside the admissible interval, beyond
    roundoff slack, or at the supersonic existence limit raises.
    """
    if state.u <= 0.0:
        caller = "downstream_state" if side is Side.LEFT else "upstream_state"
        raise ConfigError(f"{caller} requires rightward flow (u > 0)")
    if coeffs.is_zero():
        return None
    m = state.mach
    if not corrections:
        lo, hi = critical_mach_numbers(coeffs, state.gamma).interval(side, branch)
        supersonic = branch is Branch.SUPERSONIC
        lo_ok = m >= lo * (1.0 - _GAMMA_SLACK) if supersonic else m > 0.0
        hi_ok = m <= hi * (1.0 + _GAMMA_SLACK) if math.isfinite(hi) else True
        if not (lo_ok and hi_ok):
            where = "upstream" if side is Side.LEFT else "downstream"
            raise NotSolvableError(f"Mach {m:.6g} outside admissible {where} {branch.value} "
                                   f"range [{lo:.6g}, {hi:.6g}]")
        if supersonic and m >= hi:
            raise NotSolvableError(f"Mach {m:.6g} at or beyond the supersonic existence limit")
    return m


def downstream_state(state: GasState, coeffs: SourceCoefficients, branch: Branch,
                     corrections: bool = False) -> GasState:
    """Downstream side of the stationary jump whose upstream side is ``state``.

    Requires rightward flow. The zero-coefficient source carries no jump, so
    that case returns the input unchanged (both branches coincide there).
    """
    m = _crossing_mach(state, coeffs, Side.LEFT, branch, corrections)
    if m is None:
        return state
    gd, gu, gp = stationary_ratios(m, coeffs, state.gamma, branch, corrections)
    return GasState(state.rho * gd, state.u * gu, state.p * gp, state.gamma)


def choked_downstream(state: GasState, coeffs: SourceCoefficients) -> GasState:
    """Downstream state pinned exactly at Mach one (choking limit of both branches).

    Intended for upstream states at (or within roundoff of) the choking
    boundary, where forcing the sonic root avoids square-root amplification
    of roundoff in the discriminant.
    """
    if state.u <= 0.0:
        raise ConfigError("choked_downstream requires rightward flow (u > 0)")
    m = state.mach
    gd, gu, gp = _ratios(m * m, 1.0, coeffs, state.gamma)
    return GasState(state.rho * gd, state.u * gu, state.p * gp, state.gamma)


def upstream_state(state: GasState, coeffs: SourceCoefficients, branch: Branch,
                   corrections: bool = False) -> GasState:
    """Upstream side of the stationary jump whose downstream side is ``state``.

    Exact inverse of :func:`downstream_state` on its domain.
    """
    m = _crossing_mach(state, coeffs, Side.RIGHT, branch, corrections)
    if m is None:
        return state
    mm2 = _branch_mach_sq(m * m, 1.0 / (1.0 + coeffs.k), state.gamma, branch, corrections)
    gd, gu, gp = _ratios(mm2, m * m, coeffs, state.gamma)
    return GasState(state.rho / gd, state.u / gu, state.p / gp, state.gamma)


@dataclass(frozen=True)
class StationaryPair:
    """The two sides of a stationary jump, with the coefficients that link them."""

    left: GasState
    right: GasState
    coeffs: SourceCoefficients
    branch: Branch


def jump_residual(pair: StationaryPair) -> np.ndarray:
    """Componentwise defect of (1 + k_i) F_i(upstream) - F_i(downstream).

    Orientation follows the flow direction, read in the rightward frame. A
    pair that does not pass through the origin (mixed signs, or a stagnant
    side) is no stationary jump and raises ``ConfigError``.
    """
    frame = rightward_frame(pair.left, pair.right)
    if frame is None:
        raise ConfigError(f"no flow through the origin: u = {pair.left.u:.6g}, {pair.right.u:.6g}")
    up, down, _ = frame
    return (1.0 + pair.coeffs.diag) * physical_flux(up) - physical_flux(down)
