"""Structure-based Riemann solver for the point-source Euler system.

The self-similar solution consists of at most seven discontinuities: a
classical sub-fan on each side of the stationary jump at the origin. The
solver first predicts which of the admissible structures the data produces,
then solves only the algebra that structure requires. Exact reference fans
are composed the same way, storing a full classical sub-fan per side so that
sampling reduces to the classical samplers: one per point, or the sub-fans'
piece tables joined at the origin for arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    _ROOT_TOL,
    ClassicalFan,
    gather,
    locate,
    origin_state,
    piece_table,
    sample_classical,
    solve_classical,
)
from .errors import ConfigError, NotSolvableError
from .gas import GasState, SourceCoefficients, rightward_frame, value_class
from .stationary import (
    Branch,
    CriticalMachNumbers,
    Side,
    choked_downstream,
    critical_mach_numbers,
    downstream_state,
    stationary_ratios,
)
from .waves import (
    _BRANCH_SLACK,
    WaveFamily,
    _check_pressure,
    illinois,
    pressure_for_mach,
    rarefaction_ratios,
    rest_pressure,
    wave_curve,
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


# Relative strength below which a classical wave counts as absent.
_STRENGTH_TOL = 1e-8


@value_class
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
    # The curve states as floats: this runs once per step of the Type1 root finder.
    rho, u, _ = wave_curve(-1.0, left, p)
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
    return wave_curve(1.0, right, p_down)[1] - u_down


def subsonic_passage_bracket(left: GasState, coeffs: SourceCoefficients) -> tuple[float, float]:
    """Pressures (p_rest, p_crit) bracketing admissible upstream pressures.

    ``p_rest`` stagnates the family-1 curve; ``p_crit`` puts its Mach number
    at the largest value the subsonic stationary branch admits (the choking
    Mach for amplifying sources, sonic otherwise). The admissible upstream
    pressure lies in [p_crit, p_rest).
    """
    critical = critical_mach_numbers(coeffs, left.gamma)
    return rest_pressure(left), pressure_for_mach(left, critical.upstream_subsonic_max)


def predict_structure(left: GasState, right: GasState,
                      coeffs: SourceCoefficients) -> SolverOutput:
    """Predict the structure of the Riemann solution for rightward flow on both sides,
    and give that structure's origin pair.

    Type2 passes the origin supersonically; Type1 solves for the upstream
    pressure of a subsonic passage; Type3 chokes at p_crit; Type7 and Type5
    expand sonically to the origin, then choke or pass supersonically.
    """
    frame = rightward_frame(left, right)
    if frame is None or frame[2]:
        raise ConfigError("prediction requires rightward flow on both sides")
    if left.gamma != right.gamma:
        raise ConfigError("states must share gamma")
    critical = critical_mach_numbers(coeffs, left.gamma)
    if critical.admits(left.mach, Side.LEFT, Branch.SUPERSONIC):
        down = downstream_state(left, coeffs, Branch.SUPERSONIC, False, critical)
        # Type2 when the first wave right of the origin, the family-1 wave of
        # the classical fan from ``down`` to ``right``, moves rightward: the
        # fan then holds ``down`` at x/t = 0. Data that opens a vacuum there
        # raises ``VacuumError``.
        if origin_state(down, right) is down:
            return SolverOutput(left, down, SolutionStructure.TYPE2)
    p_rest, p_crit = rest_pressure(left), pressure_for_mach(left, critical.upstream_subsonic_max)
    rest = (p_rest, velocity_mismatch(p_rest, left, right, coeffs))
    crit = (p_crit, velocity_mismatch(p_crit, left, right, coeffs))
    if rest[1] * crit[1] < 0.0:
        p = _solve_upstream_pressure(left, right, coeffs, crit, rest)
        minus = wave_state(WaveFamily.ONE, left, p)
        plus = downstream_state(minus, coeffs, Branch.SUBSONIC, False, critical)
        return SolverOutput(minus, plus, SolutionStructure.TYPE1)
    if coeffs.k > 0.0:
        minus = wave_state(WaveFamily.ONE, left, p_crit)
        return SolverOutput(minus, choked_downstream(minus, coeffs), SolutionStructure.TYPE3)
    minus = _sonic_expansion_state(left, coeffs, critical)
    if coeffs.k == 0.0:
        return SolverOutput(minus, choked_downstream(minus, coeffs), SolutionStructure.TYPE7)
    plus = downstream_state(minus, coeffs, Branch.SUPERSONIC, False, critical)
    return SolverOutput(minus, plus, SolutionStructure.TYPE5)


def _solve_upstream_pressure(left: GasState, right: GasState, coeffs: SourceCoefficients,
                             crit: tuple[float, float], rest: tuple[float, float]) -> float:
    """Root of the velocity mismatch inside the bracket, by ``waves.illinois``.

    ``crit`` and ``rest`` are the bracket ends as (pressure, mismatch), of
    opposite signs. Seeds follow a fixed precedence so that data already in
    equilibrium is returned exactly: when the left datum's own pressure lies
    in the bracket and its mismatch is (numerically) zero, it is the root;
    otherwise it replaces the end of its own sign, p_rest checked first.
    """
    (a, fa), (b, fb) = crit, rest
    scale_u = abs(left.u) + left.sound_speed + abs(right.u) + right.sound_speed
    tiny = 1e-13 * scale_u

    def t(p: float) -> float:
        return velocity_mismatch(p, left, right, coeffs)

    if a < left.p < b:
        t_l = t(left.p)
        if abs(t_l) <= tiny:
            return left.p
        if t_l * fb <= 0.0:
            a, fa = left.p, t_l
        elif t_l * fa <= 0.0:
            b, fb = left.p, t_l
    return illinois(t, a, b, fa, fb, _ROOT_TOL, tiny)


def _sonic_expansion_state(left: GasState, coeffs: SourceCoefficients,
                           critical: CriticalMachNumbers) -> GasState:
    """Sonic point on the family-1 rarefaction through the left datum.

    ``critical`` holds the critical Mach numbers of ``coeffs``.

    Raises ``NotSolvableError`` where no sonic expansion passes the origin.
    A rarefaction only accelerates the flow, so a supersonic left datum
    (beyond the roundoff slack of ``rarefaction_ratios``) cannot expand to
    Mach one. For k <= -1/gamma^2 the supersonic branch downstream of a sonic
    state is empty. Both regimes lie outside the structures implemented.
    """
    # The test on which ``rarefaction_ratios(left.mach, 1.0, gamma)`` refuses:
    # the origin solve has already refused a datum whose Mach number is not
    # positive (``pressure_for_mach``).
    if left.mach * (1.0 - _BRANCH_SLACK) > 1.0:
        raise NotSolvableError(f"supersonic left datum (Mach {left.mach:.6g}) has no sonic "
                               f"expansion to the origin")
    if math.isinf(critical.downstream_supersonic_min):
        raise NotSolvableError(f"k = {coeffs.k:.6g} <= -1/gamma^2: no supersonic branch "
                               f"downstream of the sonic expansion")
    gd, _, gp = rarefaction_ratios(left.mach, 1.0, left.gamma)
    rho, p = left.rho * gd, left.p * gp
    # Pin the Mach number to one exactly; the ratios leave an ulp of slack.
    return GasState(rho, math.sqrt(left.gamma * p / rho), p, left.gamma)


def approximate_solve(left: GasState, right: GasState, coeffs: SourceCoefficients) -> SolverOutput:
    """One-sided origin states of the approximate Riemann solver.

    Flow that does not pass through the origin carries no source; the
    homogeneous solution at x/t = 0 applies (``classical.origin_state``) and
    both sides coincide. Leftward flow is
    mirrored through the rightward construction.
    """
    frame = rightward_frame(left, right)
    if frame is None:
        state = origin_state(left, right)
        return SolverOutput(state, state, SolutionStructure.CLASSICAL)
    left, right, mirrored = frame
    out = predict_structure(left, right, coeffs)
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
    if fan.wave_strength(WaveFamily.ONE) > _STRENGTH_TOL:
        spans.append((fan.left_speeds[0], fan.left_speeds[1]))
    rl, rr = fan.rho_star_left, fan.rho_star_right
    if abs(rl - rr) > _STRENGTH_TOL * max(rl, rr):
        spans.append((fan.u_star, fan.u_star))
    if fan.wave_strength(WaveFamily.THREE) > _STRENGTH_TOL:
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
        fan = solve_classical(left, right)
        state = sample_classical(fan, 0.0)
        return SourceFan(SolutionStructure.CLASSICAL, state, state, fan, fan)
    left, right, mirrored = frame
    out = predict_structure(left, right, coeffs)
    left_fan = solve_classical(left, out.minus)
    right_fan = solve_classical(out.plus, right)
    seen = out.mirrored() if mirrored else out
    return SourceFan(out.structure, seen.minus, seen.plus, left_fan, right_fan, mirrored)


def sample_source_fan(fan: SourceFan, xi: float) -> GasState:
    """State at similarity coordinate xi = x/t; xi = 0 resolves to the flow-downstream side.

    A NaN coordinate raises ``ConfigError`` in ``sample_classical``.
    """
    eta = -xi if fan.mirrored else xi
    state = sample_classical(fan.left_fan if eta < 0.0 else fan.right_fan, eta)
    return state.mirrored() if fan.mirrored else state


def sample_source_primitives(fan: SourceFan, xi: np.ndarray) -> np.ndarray:
    """(rho, u, p) rows at the similarity coordinates ``xi``, shape ``xi.shape + (3,)``.

    The array form of ``sample_source_fan`` for ``xi`` of any shape, equal to
    it row for row: one searchsorted, one gather and one ``_fan_interior``
    call per rarefaction with points inside (see ``locate_source``). A NaN
    coordinate raises ``ConfigError``.
    """
    shape = np.shape(xi)
    piece, rows, found = locate_source(fan, np.asarray(xi, dtype=float).reshape(-1))
    return gather(rows, piece, found).reshape(shape + (3,))


def locate_source(fan: SourceFan, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """``classical.locate`` of the 1-D coordinates ``xi`` in the fan's one piece table,
    with its (rho, u, p) rows: (piece of each point, rows, interior rows).

    A composed fan joins its sub-fans' tables at eta = 0, the left one's
    bounds clipped to at most 0 and the right one's to at least 0, so eta < 0
    reads the left sub-fan and eta >= 0 the right one, as in
    ``sample_source_fan``. A mirrored fan is located at eta = -xi, and its
    rows come back with u negated.
    """
    if fan.structure is SolutionStructure.CLASSICAL:  # one fan on both sides
        bounds, rows, interiors = piece_table(fan.left_fan)
    else:
        lb, lrows, lin = piece_table(fan.left_fan)
        rb, rrows, rin = piece_table(fan.right_fan)
        bounds = [min(b, 0.0) for b in lb] + [0.0] + [max(b, 0.0) for b in rb]
        rows = np.vstack((lrows, rrows))
        interiors = lin + [(k + len(lrows), anchor, s) for k, anchor, s in rin]
    piece, found = locate(bounds, interiors, -xi if fan.mirrored else xi)
    if fan.mirrored:
        for r in [rows] + [r for _, r in found]:
            r[:, 1] = -r[:, 1]
    return piece, rows, found
