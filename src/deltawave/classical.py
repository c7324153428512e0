"""Exact Riemann solver and self-similar sampler for the homogeneous Euler equations.

The star pressure solves a velocity-matching equation between the family-1
curve through the left state and the family-3 curve through the right state,
both read from ``waves.wave_curve`` with their derivatives in p. The root is
bracketed below a pressure cap that scales with the data, then found by
safeguarded Newton steps (``waves.newton``) from Toro's two-rarefaction
guess. Each anchor defect reads one curve, as at its own pressure the
anchor's curve returns the anchor velocity exactly. Data that opens a vacuum
raises ``VacuumError``; colliding data whose star pressure overflows raises
``RootBracketError``. ``origin_state`` gives the state at x/t = 0 that
``sample_classical`` reads from the solved fan, from the one wave on the
origin's side of the contact; where a supersonic datum's own wave moves
away from the origin, it returns that datum without solving for the star
pressure.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ConfigError, RootBracketError, VacuumError
from .gas import GasState, value_class
from .waves import WaveFamily, newton, shock_speed, wave_curve, wave_state


# Relative root tolerance of the star pressure here and of the origin
# solver's upstream pressure in ``structure``.
_ROOT_TOL = 1e-13


class WaveKind(enum.Enum):
    SHOCK = "shock"
    RAREFACTION = "rarefaction"


@value_class
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

    def wave_strength(self, family: WaveFamily) -> float:
        anchor = self.left if family is WaveFamily.ONE else self.right
        return abs(self.p_star - anchor.p) / max(self.p_star, anchor.p)


def _defect_curve(left: GasState, right: GasState, last: list):
    """p -> (ul - ur, its derivative), the velocities of the family-1 ``wave_curve``
    through ``left`` and the family-3 one through ``right``.

    Its root is the star pressure. Each evaluation stores its curve values
    (p, rho_l, ul, rho_r, ur) as the first item of ``last``.
    """
    def defect(p: float) -> tuple[float, float]:
        rl, ul, dul = wave_curve(-1.0, left, p)
        rr, ur, dur = wave_curve(1.0, right, p)
        last[0] = (p, rl, ul, rr, ur)
        return ul - ur, dul - dur
    return defect


def solve_classical(left: GasState, right: GasState) -> ClassicalFan:
    """Exact solution of the Riemann problem between two states of equal gamma."""
    sl, sr, u_star, a_l, a_r = _star_states(left, right)
    lk, lsp = _acoustic_wave(WaveFamily.ONE, left, a_l, sl, u_star)
    rk, rsp = _acoustic_wave(WaveFamily.THREE, right, a_r, sr, u_star)
    return ClassicalFan(left, right, sl.p, u_star, sl.rho, sr.rho, lk, rk, lsp, rsp, left.gamma)


def origin_state(left: GasState, right: GasState) -> GasState:
    """``sample_classical(solve_classical(left, right), 0.0)``, bit for bit.

    Builds no fan. Where the fan holds a datum at x/t = 0, it returns the
    datum object itself, as ``sample_classical`` does; a supersonic datum
    whose own wave moves away from the origin comes back before the star
    pressure is solved for (see ``_star_states``). Otherwise only the wave on
    the side of the contact that holds the origin is built, and the
    decisions of ``sample_classical`` read it.
    """
    sl, sr, u_star, a_l, a_r = _star_states(left, right, origin=True)
    if u_star is None:
        return sl
    if _left_of_contact(u_star, sl.rho, sr.rho, 0.0):
        family, anchor, a, star = WaveFamily.ONE, left, a_l, sl
    else:
        family, anchor, a, star = WaveFamily.THREE, right, a_r, sr
    kind, speeds = _acoustic_wave(family, anchor, a, star, u_star)
    return _sample_wave(family.value, anchor, kind, speeds, (star.rho, u_star, star.p), 0.0)


def _star_states(left: GasState, right: GasState, origin: bool = False
                 ) -> tuple[GasState, GasState, float, float, float]:
    """The states of the family-1 curve through ``left`` and the family-3 curve
    through ``right`` at the star pressure, the star velocity, their mean, and
    the sound speeds of ``left`` and ``right``.

    Where the root finder stops on a pressure it has evaluated, the states
    are that evaluation's curve values. With ``origin``, a datum that the
    fan holds at x/t = 0 because its own wave moves away from the origin
    comes back as (datum, None, None, a_l, a_r), before the star pressure is
    solved for, but after the vacuum tests.
    """
    if left.gamma != right.gamma:
        raise ConfigError("states must share gamma")
    g = left.gamma
    a_l, a_r = left.sound_speed, right.sound_speed
    # Two rarefactions cannot close the velocity gap of the data.
    if 2.0 * a_l / (g - 1.0) + 2.0 * a_r / (g - 1.0) - (right.u - left.u) <= 0.0:
        raise VacuumError(
            f"initial velocity divergence {right.u - left.u:.6g} opens vacuum"
        )
    tiny = 1e-13 * (abs(left.u) + a_l + abs(right.u) + a_r)
    # The velocity defect at each anchor pressure. There the anchor's own
    # curve takes its shock branch with dp = 0 and returns the anchor
    # velocity exactly, so each reads one curve.
    f_left = left.u - wave_curve(1.0, right, left.p)[1]
    f_right = wave_curve(-1.0, left, right.p)[1] - right.u
    last = [None]
    # Degenerate inputs where one anchor pressure is already the root: keeps
    # zero-strength waves exactly zero-strength.
    if abs(f_left) <= tiny:
        p_star = left.p
    elif abs(f_right) <= tiny:
        p_star = right.p
    else:
        defect = _defect_curve(left, right, last)
        lo = 1e-12 * min(left.p, right.p)  # the lowest star pressure searched
        # The defect falls strictly in p, and an anchor defect that is not
        # zero exceeds tiny: if one is positive, so is the defect at lo. So
        # this guard and the bracket's overflow below never both fire. It runs
        # before the origin shortcut, which does not see a datum's rarefaction
        # reach the pressure floor.
        if not (f_left > 0.0 or f_right > 0.0) and defect(lo)[0] < 0.0:
            raise VacuumError("failed to bracket the star pressure")
        if origin:
            # A datum that flows supersonically toward the other one (Mach
            # m > 1 toward it) stays at x/t = 0 where its own wave moves away
            # (Toro, Riemann Solvers and Numerical Methods for Fluid Dynamics,
            # 4.3). Below minus the margin at the datum's pressure, the defect
            # puts the star pressure below it: the wave is a rarefaction, and
            # m > 1 moves its head away. Above the margin there and below
            # minus it at p0 = p (2 g m^2 - g + 1) / (g + 1), where the datum's
            # shock stands still, it puts the star pressure between them: a
            # shock slower than the one at rest. A margin of 1e4 tiny keeps
            # roundoff in the star pressure from flipping the decision.
            margin = 1e4 * tiny
            for m, datum, own in ((left.u / a_l, left, f_left), (-right.u / a_r, right, f_right)):
                if m > 1.0 and (own < -margin or own > margin and defect(
                        (2.0 * g * m * m - g + 1.0) * datum.p / (g + 1.0))[0] < -margin):
                    return datum, None, None, a_l, a_r
        # Above 2 max(p_L, p_R) both waves are shocks and the defect is at most
        # (u_L - u_R) - sqrt(p / ((g + 1) max(rho_L, rho_R))), so the root lies
        # below the larger of those two bounds. Like the star pressure, the cap
        # scales by s^2 under (rho, u, p) -> (rho, s u, s^2 p); only a root that
        # overflows reaches it.
        du = left.u - right.u
        cap = 1e6 * max(2.0 * max(left.p, right.p), (g + 1.0) * max(left.rho, right.rho) * du * du)
        hi, f_hi = max((left.p, f_left), (right.p, f_right))
        while not f_hi <= 0.0:
            hi *= 4.0
            if not hi < cap:
                raise RootBracketError(f"compression: the pressure equation has no root "
                                       f"below {hi / 4.0:.6g}")
            f_hi = defect(hi)[0]
        p_star = _solve_pressure(defect, left, right, a_l, a_r, lo, hi, tiny)

    seen = last[0]
    if seen is not None and seen[0] == p_star:
        sl, sr = GasState(seen[1], seen[2], p_star, g), GasState(seen[3], seen[4], p_star, g)
    else:
        sl = wave_state(WaveFamily.ONE, left, p_star)
        sr = wave_state(WaveFamily.THREE, right, p_star)
    return sl, sr, 0.5 * (sl.u + sr.u), a_l, a_r


def _acoustic_wave(family: WaveFamily, anchor: GasState, a: float, star: GasState,
                   u_star: float) -> tuple[WaveKind, tuple[float, float]]:
    """Kind and edge speeds, in increasing order, of the wave between ``anchor``, whose
    sound speed is ``a``, and ``star``."""
    if star.p >= anchor.p:
        sigma = shock_speed(family, anchor, star.p, a)
        return WaveKind.SHOCK, (sigma, sigma)
    s = family.value
    # The anchor's edge is the outer one: head of a family-1 fan, tail of a family-3 one.
    edges = (anchor.u + s * a, u_star + s * star.sound_speed)
    return WaveKind.RAREFACTION, edges if s < 0.0 else edges[::-1]


def _solve_pressure(defect, left: GasState, right: GasState, a_l: float, a_r: float,
                    lo: float, hi: float, tiny: float) -> float:
    """Star pressure in [lo, hi], where ``defect(lo) >= 0 >= defect(hi)``.

    ``defect`` is the map of ``_defect_curve``, ``a_l`` and ``a_r`` the
    sound speeds of the data. Runs ``waves.newton`` from
    Toro's two-rarefaction guess (Riemann Solvers and Numerical Methods for
    Fluid Dynamics, 4.3), which is exact when both waves are rarefactions,
    clipped into the bracket. It converges on the velocity residual itself
    (``abs(defect) <= tiny``), so the returned root is accurate even where
    the pressure function is steep, or else on a step of at most
    ``0.01 * _ROOT_TOL`` relative.
    """
    g = left.gamma
    z = (g - 1.0) / (2.0 * g)
    base = (a_l + a_r - 0.5 * (g - 1.0) * (right.u - left.u)) \
        / (a_l / left.p ** z + a_r / right.p ** z)
    # Compared in the power z, as a guess above hi may overflow.
    guess = base ** (1.0 / z) if base < hi ** z else hi
    return newton(defect, lo, hi, min(max(guess, lo), hi), tiny, 0.01 * _ROOT_TOL)


def _fan_interior(anchor: GasState, xi, s: float):
    """(rho, u, p) at xi inside the rarefaction fan on ``anchor``; s = -1 (family 1) or +1 (family 3).

    ``xi`` is a float or an array of coordinates, and so are the three values.
    """
    g, c = anchor.gamma, anchor.sound_speed
    a = 2.0 / (g + 1.0) * (c - s * (0.5 * (g - 1.0) * (anchor.u - xi)))
    r = a / c
    return (anchor.rho * _power(r, 2.0 / (g - 1.0)), xi - s * a,
            anchor.p * _power(r, 2.0 * g / (g - 1.0)))


def _power(x, e: float):
    """``x ** e`` for a float, or element by element for an array.

    Each element goes through Python's ``**`` (libm's ``pow``): numpy's
    ``power`` rounds differently in a few per cent of values.
    """
    return np.array([v ** e for v in x.tolist()]) if isinstance(x, np.ndarray) else x ** e


def _left_of_contact(u_star: float, rho_star_left: float, rho_star_right: float, xi):
    """Whether the coordinate xi (a float or an array) samples the left of the contact.

    On a contact at rest, xi = 0 takes the denser star state. That rule reads
    no side, so the sample at the origin mirrors; the flux there is the same
    either way (u = 0, equal p).
    """
    denser_left = u_star == 0.0 and rho_star_left > rho_star_right
    return (xi < u_star) | ((xi == 0.0) & denser_left)


def _side(fan: ClassicalFan, s: float) -> tuple[GasState, WaveKind, tuple[float, float],
                                                 tuple[float, float, float]]:
    """Anchor, wave kind, edge speeds and star (rho, u, p) of one side of the contact.

    s = -1 gives the family-1 wave left of the contact, +1 the family-3 wave
    right of it: the arguments of ``_sample_wave`` after ``s``.
    """
    if s < 0.0:
        return fan.left, fan.left_kind, fan.left_speeds, (fan.rho_star_left, fan.u_star, fan.p_star)
    return (fan.right, fan.right_kind, fan.right_speeds,
            (fan.rho_star_right, fan.u_star, fan.p_star))


def _sample_wave(s: float, anchor: GasState, kind: WaveKind, speeds: tuple[float, float],
                 star: tuple[float, float, float], xi: float) -> GasState:
    """State at xi on one side of the contact: ``anchor``, the star state, or inside the fan.

    ``s`` is -1 for the family-1 wave left of the contact and +1 for the
    family-3 wave right of it, ``speeds`` its edges in increasing order and
    ``star`` the (rho, u, p) between it and the contact. The one copy of the
    decisions of ``sample_classical``.
    """
    lo, hi = speeds
    if (xi < lo) if s < 0.0 else (xi >= hi):
        return anchor
    if kind is WaveKind.SHOCK or ((xi > hi) if s < 0.0 else (xi < lo)):
        return GasState(*star, anchor.gamma)
    return GasState(*_fan_interior(anchor, xi, s), anchor.gamma)


def sample_classical(fan: ClassicalFan, xi: float) -> GasState:
    """State of the self-similar fan at similarity coordinate xi = x/t.

    A coordinate landing exactly on a discontinuity resolves to the state on
    its right (any consistent rule works for flux evaluation), except on a
    contact at rest at xi = 0: see ``_left_of_contact``. A NaN coordinate lies
    on no side of any wave: it raises ``ConfigError``.
    """
    if math.isnan(xi):
        raise ConfigError("similarity coordinate is NaN")
    s = -1.0 if _left_of_contact(fan.u_star, fan.rho_star_left, fan.rho_star_right, xi) else 1.0
    return _sample_wave(s, *_side(fan, s), xi)


def sample_classical_primitives(fan: ClassicalFan, xi: np.ndarray) -> np.ndarray:
    """(rho, u, p) rows of the fan at the similarity coordinates ``xi``, shape ``xi.shape + (3,)``.

    ``xi`` may have any shape. Row for row the state ``sample_classical``
    returns, to the bit: one searchsorted on the bounds of ``piece_table``,
    which encode the scalar sampler's comparisons, one gather of the
    constant rows, and one ``_fan_interior`` call per rarefaction with
    points inside. A row that is not an admissible state raises the error
    ``GasState`` raises for it in ``sample_classical``; so does a NaN
    coordinate.
    """
    shape = np.shape(xi)
    bounds, rows, interiors = piece_table(fan)
    piece, found = locate(bounds, interiors, np.asarray(xi, dtype=float).reshape(-1))
    return gather(rows, piece, found).reshape(shape + (3,))


def piece_table(fan: ClassicalFan) -> tuple[list[float], np.ndarray, list]:
    """Bounds, constant (rho, u, p) rows and rarefaction interiors of the fan.

    Piece k holds the coordinates with ``bounds[k - 1] <= xi < bounds[k]``:
    0 the left datum, 1 the interior of the family-1 wave, 2 and 3 the star
    states left and right of the contact, 4 the interior of the family-3
    wave and 5 the right datum. Each bound is a comparison of
    ``_sample_wave`` or ``_left_of_contact`` in the form ``xi < b``. The
    head of the family-1 wave, both edges of the family-3 wave and a moving
    contact are their own speeds. The tail of a family-1 rarefaction, which
    holds its interior while ``xi <= tail``, is ``nextafter(tail, inf)``,
    and so is a contact at rest that takes x/t = 0 to its denser left
    (``nextafter(0.0, inf)``). A shock's interior is empty. Each side's
    bounds are clipped to the contact and its two edges to each other, so
    that edges that rounding puts out of order classify as the scalar
    sampler does. ``interiors`` holds (piece, anchor, s) of each
    rarefaction, whose placeholder row is its anchor's.
    """
    denser_left = fan.u_star == 0.0 and fan.rho_star_left > fan.rho_star_right
    contact = math.nextafter(0.0, math.inf) if denser_left else fan.u_star
    (head, tail), (lo, hi) = fan.left_speeds, fan.right_speeds
    if fan.left_kind is WaveKind.RAREFACTION:
        tail = max(head, math.nextafter(tail, math.inf))
    bounds = [min(head, contact), min(tail, contact), contact,
              max(min(lo, hi), contact), max(hi, contact)]
    left, right, star = fan.left, fan.right, (fan.u_star, fan.p_star)
    rows = np.array([(left.rho, left.u, left.p)] * 2
                    + [(fan.rho_star_left, *star), (fan.rho_star_right, *star)]
                    + [(right.rho, right.u, right.p)] * 2)
    sides = ((1, left, -1.0, fan.left_kind), (4, right, 1.0, fan.right_kind))
    return bounds, rows, [(k, a, s) for k, a, s, kind in sides if kind is WaveKind.RAREFACTION]


def locate(bounds: list[float], interiors: list, xi: np.ndarray) -> tuple[np.ndarray, list]:
    """Piece of each coordinate of the 1-D array ``xi`` in a table of ``piece_table``'s
    form, and (indices, (rho, u, p) rows) of the points inside each interior that has any.

    A NaN coordinate lies in no piece: it raises ``ConfigError``. An interior
    row that is not an admissible state raises the error ``GasState`` raises
    for it in ``sample_classical``.
    """
    if np.isnan(xi).any():
        raise ConfigError("similarity coordinate is NaN")
    piece = np.searchsorted(bounds, xi, side="right")
    found = []
    for k, anchor, s in interiors:
        at = np.flatnonzero(piece == k)
        if at.size:
            x = xi[at]
            rows = np.column_stack(_fan_interior(anchor, x, s))
            if not _admissible(rows, anchor.gamma):
                for v in x.tolist():  # the scalar path raises the first row's error
                    GasState(*_fan_interior(anchor, v, s), anchor.gamma)
            found.append((at, rows))
    return piece, found


def gather(rows: np.ndarray, piece: np.ndarray, found: list) -> np.ndarray:
    """The row of each point's piece, with the interior rows of ``locate`` written in."""
    out = rows.take(piece, axis=0)  # about a quarter of the time of rows[piece] (numpy 2.4)
    for at, inside in found:
        out[at] = inside
    return out


def _admissible(rows: np.ndarray, gamma: float) -> bool:
    """Whether every (rho, u, p) row passes ``GasState``'s checks."""
    if np.iscomplexobj(rows) or not np.isfinite(rows).all():
        return False
    rho, _, p = rows.T
    with np.errstate(all="ignore"):
        c2 = gamma * p / rho
    return bool(np.all((rho > 0.0) & (p > 0.0) & (c2 > 0.0) & (c2 < math.inf)))
