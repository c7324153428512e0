"""Structure-based Riemann solver for the point-source Euler system.

The self-similar solution consists of at most seven discontinuities: a
classical sub-fan on each side of the stationary jump at the origin. The
solver first predicts which of the admissible structures the data produces,
then solves only the algebra that structure requires. Exact reference fans
are composed the same way, storing a full classical sub-fan per side so that
sampling reduces to two classical samplers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalFan, sample_classical, sample_classical_primitives, solve_classical
from .errors import ConfigError, NotSolvableError, RootBracketError, VacuumError
from .gas import GasState, SourceCoefficients, rightward_frame
from .stationary import (
    Branch,
    Side,
    admissible,
    choked_downstream,
    critical_mach_numbers,
    downstream_state,
    stationary_ratios,
)
from .waves import (
    _BRANCH_SLACK,
    WaveFamily,
    _check_pressure,
    _wave_rho_u,
    bisect,
    pressure_for_mach,
    rarefaction_ratios,
    rest_pressure,
    wave_state,
)


class SolutionStructure(enum.Enum):
    TYPE1 = "Type1"
    TYPE2 = "Type2"
    TYPE3 = "Type3"
    TYPE4 = "Type4"
    TYPE5 = "Type5"
    TYPE6 = "Type6"
    TYPE7 = "Type7"
    CLASSICAL = "Classical"


# Root tolerances of the origin solver and of the exactly composed fans.
_SOLVE_TOL = 1e-12
_FAN_TOL = 1e-13
# Relative strength below which a classical wave counts as absent.
_STRENGTH_TOL = 1e-8


@dataclass(frozen=True)
class SolverOutput:
    """Approximate one-sided states at the origin, with the predicted structure."""

    minus: GasState
    plus: GasState
    structure: SolutionStructure

    def mirrored(self) -> "SolverOutput":
        """The same solution seen in the x -> -x reflected frame."""
        return SolverOutput(self.plus.mirrored(), self.minus.mirrored(), self.structure)


def velocity_mismatch(p: float, left: GasState, right: GasState,
                      coeffs: SourceCoefficients) -> float:
    """Defect of the velocity match across contact and family-3 wave.

    Walk the family-1 curve from the left datum to pressure ``p``, jump the
    subsonic stationary wave, and compare the downstream velocity with the
    family-3 curve through the right datum at the downstream pressure. A root
    identifies the upstream pressure of a non-choked subsonic-passage
    solution. A pressure that is not finite and positive, here or downstream
    of the jump, or one where the curve density overflows, raises
    ``ConfigError``.
    """
    _check_pressure(p)
    g = left.gamma
    # The curve states as floats: this runs once per step of the Type1 bisection.
    rho, u = _wave_rho_u(-1.0, left, p)
    if not rho < math.inf:
        raise ConfigError(f"density on the family-1 curve overflows at p = {p}")
    mach = u / math.sqrt(g * p / rho)
    if mach <= 1e-12:
        # Stagnation end of the bracket: downstream velocity vanishes with
        # the upstream one; only the pressure ratio survives.
        p_down = p * (1.0 + coeffs.k2)
        u_down = 0.0
    else:
        _, gu, gp = stationary_ratios(mach, coeffs, g, Branch.SUBSONIC)
        p_down = p * gp
        u_down = u * gu
    _check_pressure(p_down)
    return _wave_rho_u(1.0, right, p_down)[1] - u_down


def subsonic_passage_bracket(left: GasState, coeffs: SourceCoefficients) -> tuple[float, float]:
    """Pressures (p_rest, p_crit) bracketing admissible upstream pressures.

    ``p_rest`` stagnates the family-1 curve; ``p_crit`` puts its Mach number
    at the largest value the subsonic stationary branch admits (the choking
    Mach for amplifying sources, sonic otherwise). The admissible upstream
    pressure lies in [p_crit, p_rest).

    One solve asks for the bracket of its (left, coeffs) up to twice
    (structure prediction, then the Type1 or Type3 branch), so the last
    result is returned again for the very same two objects.
    """
    global _last_bracket
    last_left, last_coeffs, bracket = _last_bracket
    if left is last_left and coeffs is last_coeffs:
        return bracket
    crit = critical_mach_numbers(coeffs, left.gamma)
    target = crit.upstream_subsonic_max
    p_rest = rest_pressure(left)
    p_crit = pressure_for_mach(left, target)
    _last_bracket = (left, coeffs, (p_rest, p_crit))
    return p_rest, p_crit


# (left, coeffs, bracket) of the last ``subsonic_passage_bracket`` call, read
# and replaced as one tuple. It is matched by identity: both arguments are
# frozen, so the same two objects have the same bracket, and holding them
# keeps their ids from being reused by other objects.
_last_bracket: tuple = (None, None, None)


def _type2_wave_clears_origin(left: GasState, right: GasState,
                              coeffs: SourceCoefficients) -> bool:
    """Does the first wave right of a supersonic passage move rightward?"""
    g = left.gamma
    down = downstream_state(left, coeffs, Branch.SUPERSONIC)
    try:
        p_star = solve_classical(down, right).p_star
    except VacuumError:
        return False
    if p_star < down.p:
        return True
    m2 = down.mach ** 2
    return (g + 1.0) * p_star <= (2.0 * g * m2 - g + 1.0) * down.p


def predict_structure(left: GasState, right: GasState,
                      coeffs: SourceCoefficients) -> SolutionStructure:
    """Predict the structure of the Riemann solution for rightward flow on both sides."""
    frame = rightward_frame(left, right)
    if frame is None or frame[2]:
        raise ConfigError("prediction requires rightward flow on both sides")
    if admissible(left.mach, Side.LEFT, Branch.SUPERSONIC, coeffs, left.gamma) \
            and _type2_wave_clears_origin(left, right, coeffs):
        return SolutionStructure.TYPE2
    p_rest, p_crit = subsonic_passage_bracket(left, coeffs)
    t_hi = velocity_mismatch(p_rest, left, right, coeffs)
    t_lo = velocity_mismatch(p_crit, left, right, coeffs)
    if t_hi * t_lo < 0.0:
        return SolutionStructure.TYPE1
    k = coeffs.k
    if k > 0.0:
        return SolutionStructure.TYPE3
    if k == 0.0:
        return SolutionStructure.TYPE7
    return SolutionStructure.TYPE5


def _solve_upstream_pressure(left: GasState, right: GasState, coeffs: SourceCoefficients,
                             tol: float) -> float:
    """Bisection for the root of the velocity mismatch inside the bracket.

    Seeds follow a fixed precedence so that data already in equilibrium is
    returned exactly: when the left datum's own pressure lies in the bracket
    and its mismatch is (numerically) zero, it is the root.
    """
    p_rest, p_crit = subsonic_passage_bracket(left, coeffs)
    scale_u = abs(left.u) + left.sound_speed + abs(right.u) + right.sound_speed
    tiny = 1e-13 * scale_u

    def t(p: float) -> float:
        return velocity_mismatch(p, left, right, coeffs)

    a = b = None
    if p_crit < left.p < p_rest:
        t_l = t(left.p)
        if abs(t_l) <= tiny:
            return left.p
        t_hi = t(p_rest)
        if t_l * t_hi <= 0.0:
            a, b, fa, fb = left.p, p_rest, t_l, t_hi
        else:
            t_lo = t(p_crit)
            if t_l * t_lo <= 0.0:
                a, b, fa, fb = p_crit, left.p, t_lo, t_l
    if a is None:
        a, b = p_crit, p_rest
        fa, fb = t(a), t(b)
    if abs(fa) <= tiny:
        return a
    if abs(fb) <= tiny:
        return b
    if fa * fb > 0.0:
        raise RootBracketError("velocity mismatch does not change sign over the seed interval")
    return bisect(t, a, b, fa, tol, tiny)


def _sonic_expansion_state(left: GasState) -> GasState:
    """Sonic point on the family-1 rarefaction through the left datum."""
    gd, _, gp = rarefaction_ratios(left.mach, 1.0, left.gamma)
    rho, p = left.rho * gd, left.p * gp
    # Pin the Mach number to one exactly; the ratios leave an ulp of slack.
    return GasState(rho, math.sqrt(left.gamma * p / rho), p, left.gamma)


def _check_sonic_expansion(left: GasState, coeffs: SourceCoefficients) -> None:
    """Raise ``NotSolvableError`` where no sonic expansion passes the origin.

    A rarefaction only accelerates the flow, so a supersonic left datum
    (beyond the roundoff slack of ``rarefaction_ratios``) cannot expand to
    Mach one. For k <= -1/gamma^2 the supersonic branch downstream of a sonic
    state is empty. Both regimes lie outside the structures implemented.
    """
    if left.mach * (1.0 - _BRANCH_SLACK) > 1.0:
        raise NotSolvableError(f"supersonic left datum (Mach {left.mach:.6g}) has no sonic "
                               f"expansion to the origin")
    if math.isinf(critical_mach_numbers(coeffs, left.gamma).downstream_supersonic_min):
        raise NotSolvableError(f"k = {coeffs.k:.6g} <= -1/gamma^2: no supersonic branch "
                               f"downstream of the sonic expansion")


def _solve_positive_flow(left: GasState, right: GasState, coeffs: SourceCoefficients,
                         tol: float) -> SolverOutput:
    structure = predict_structure(left, right, coeffs)
    if structure is SolutionStructure.TYPE2:
        minus = left
        plus = downstream_state(left, coeffs, Branch.SUPERSONIC)
    elif structure is SolutionStructure.TYPE1:
        p = _solve_upstream_pressure(left, right, coeffs, tol)
        minus = wave_state(WaveFamily.ONE, left, p)
        plus = downstream_state(minus, coeffs, Branch.SUBSONIC)
    elif structure is SolutionStructure.TYPE3:
        minus = wave_state(WaveFamily.ONE, left, subsonic_passage_bracket(left, coeffs)[1])
        plus = choked_downstream(minus, coeffs)
    else:  # TYPE5 or TYPE7: sonic expansion up to the origin
        _check_sonic_expansion(left, coeffs)
        minus = _sonic_expansion_state(left)
        if structure is SolutionStructure.TYPE5:
            plus = downstream_state(minus, coeffs, Branch.SUPERSONIC)
        else:
            plus = choked_downstream(minus, coeffs)
    return SolverOutput(minus, plus, structure)


def approximate_solve(left: GasState, right: GasState, coeffs: SourceCoefficients) -> SolverOutput:
    """One-sided origin states of the approximate Riemann solver.

    Flow that does not pass through the origin carries no source; the
    homogeneous solution applies and both sides coincide. Leftward flow is
    mirrored through the rightward construction.
    """
    frame = rightward_frame(left, right)
    if frame is None:
        fan = solve_classical(left, right)
        state = sample_classical(fan, 0.0)
        return SolverOutput(state, state, SolutionStructure.CLASSICAL)
    left, right, mirrored = frame
    out = _solve_positive_flow(left, right, coeffs, _SOLVE_TOL)
    return out.mirrored() if mirrored else out


@dataclass(frozen=True)
class SourceFan:
    """Composed self-similar solution: classical sub-fans around the origin jump.

    ``left_fan`` resolves coordinates below zero and ``right_fan`` those above;
    the constant states adjacent to the origin are stored explicitly. For the
    no-source (classical) structure both sub-fans are the same full fan; its
    waves count as left or right of the origin by the sign of their span's
    midpoint, so a wave at rest on the origin, like the stationary jump of
    the other structures, is a feature interval on neither side.
    Mirrored fans represent leftward flow; their sub-fans live in the
    reflected frame.
    """

    structure: SolutionStructure
    coeffs: SourceCoefficients
    minus: GasState
    plus: GasState
    left_fan: ClassicalFan
    right_fan: ClassicalFan
    mirrored: bool = False

    def _spans(self) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """Waves left and right of the origin, in order, in the physical frame."""
        if self.structure is SolutionStructure.CLASSICAL:
            spans = _wave_spans(self.left_fan)
            return ([(lo, hi) for lo, hi in spans if lo + hi < 0.0],
                    [(lo, hi) for lo, hi in spans if lo + hi > 0.0])
        left, right = _wave_spans(self.left_fan), _wave_spans(self.right_fan)
        if not self.mirrored:
            return left, right
        return [(-hi, -lo) for lo, hi in reversed(right)], [(-hi, -lo) for lo, hi in reversed(left)]

    def left_wave_speeds(self) -> list[float]:
        return [s for span in self._spans()[0] for s in span]

    def right_wave_speeds(self) -> list[float]:
        return [s for span in self._spans()[1] for s in span]

    def feature_intervals(self) -> list[tuple[float, float]]:
        """Similarity-coordinate intervals swept by waves (discontinuities and fans)."""
        if self.structure is SolutionStructure.CLASSICAL:
            return _wave_spans(self.left_fan)
        left, right = self._spans()
        return sorted(left + [(0.0, 0.0)] + right)


def _wave_spans(fan: ClassicalFan) -> list[tuple[float, float]]:
    spans = []
    if fan.wave_strength("left") > _STRENGTH_TOL:
        spans.append((fan.left_speeds[0], fan.left_speeds[1]))
    sl, sr = fan.star_left, fan.star_right
    if abs(sl.rho - sr.rho) > _STRENGTH_TOL * max(sl.rho, sr.rho):
        spans.append((fan.u_star, fan.u_star))
    if fan.wave_strength("right") > _STRENGTH_TOL:
        spans.append((fan.right_speeds[0], fan.right_speeds[1]))
    return spans


def compose_reference_fan(left: GasState, right: GasState, coeffs: SourceCoefficients) -> SourceFan:
    """Exact self-similar solution assembled from the predicted structure.

    The right sub-fan is the classical solution between the downstream origin
    state and the right datum; for structures whose first right-going wave is
    the contact this degenerates naturally (zero-strength acoustic wave). The
    left sub-fan likewise connects the left datum to the upstream origin
    state. Leftward flow is composed in the mirrored frame, where its
    sub-fans stay.
    """
    frame = rightward_frame(left, right)
    if frame is None:
        fan = solve_classical(left, right, tol=_FAN_TOL)
        state = sample_classical(fan, 0.0)
        return SourceFan(SolutionStructure.CLASSICAL, coeffs, state, state, fan, fan)
    left, right, mirrored = frame
    out = _solve_positive_flow(left, right, coeffs, _FAN_TOL)
    left_fan = solve_classical(left, out.minus, tol=_FAN_TOL)
    right_fan = solve_classical(out.plus, right, tol=_FAN_TOL)
    seen = out.mirrored() if mirrored else out
    return SourceFan(out.structure, coeffs, seen.minus, seen.plus, left_fan, right_fan, mirrored)


def sample_source_fan(fan: SourceFan, xi: float) -> GasState:
    """State at similarity coordinate xi = x/t; xi = 0 resolves to the flow-downstream side.

    A NaN coordinate lies on no side of any wave: it raises ``ConfigError``.
    """
    if math.isnan(xi):
        raise ConfigError("similarity coordinate is NaN")
    eta = -xi if fan.mirrored else xi
    state = sample_classical(fan.left_fan if eta < 0.0 else fan.right_fan, eta)
    return state.mirrored() if fan.mirrored else state


def sample_source_primitives(fan: SourceFan, xi: np.ndarray) -> np.ndarray:
    """(rho, u, p) rows at the similarity coordinates ``xi``, shape (n, 3).

    The array form of ``sample_source_fan``, equal to it row for row; a NaN
    coordinate raises ``ConfigError`` as there.
    """
    xi = np.asarray(xi, dtype=float)
    if np.isnan(xi).any():
        raise ConfigError("similarity coordinate is NaN")
    eta = -xi if fan.mirrored else xi
    on_left = eta < 0.0
    out = np.empty(eta.shape + (3,))
    out[on_left] = sample_classical_primitives(fan.left_fan, eta[on_left])
    out[~on_left] = sample_classical_primitives(fan.right_fan, eta[~on_left])
    if fan.mirrored:
        out[:, 1] = -out[:, 1]
    return out
