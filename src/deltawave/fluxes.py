"""Interface flux constructions, including the two-sided fluxes at the origin.

Away from the origin every scheme uses the local Lax-Friedrichs flux. At the
origin interface the source shows up as a deliberate difference between the
flux seen by the left cell and the one seen by the right cell. Two
constructions provide that pair: wrapping each trace through the opposite
stationary curve before a Lax-Friedrichs evaluation (the curve-transform
flux), and evaluating the physical flux on the output of the structure-based
approximate Riemann solver (the solver flux).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotSolvableError, UnavailableFluxError
from .gas import GasState, SourceCoefficients, euler_flux, signal_speed
from .stationary import Branch, downstream_state, upstream_state
from .structure import approximate_solve


class Scheme(enum.Enum):
    """The origin flux of a run, by its command-line name."""

    SPLITTING = "splitting"
    KT = "kt"
    KT_NOCORR = "kt-nocorr"
    SOLVER = "solver"


@dataclass(frozen=True, eq=False)
class FluxPair:
    """One-sided numerical fluxes at an interface (they differ only at the origin).

    A pair holds arrays, so pairs compare and hash by identity.
    """

    minus: np.ndarray
    plus: np.ndarray


def lax_friedrichs(u: np.ndarray, flux: np.ndarray, speed: np.ndarray) -> np.ndarray:
    """Local Lax-Friedrichs flux between the conserved states ``u[0]`` and ``u[1]`` (..., 3).

    ``flux`` holds the Euler fluxes of both sides and ``speed`` their signal
    speeds (2, ...), derived once by the caller.
    """
    return 0.5 * (flux[0] + flux[1] - np.maximum(speed[0], speed[1])[..., None] * (u[1] - u[0]))


def _stacked(states, shape: tuple[int, ...]):
    """Conserved vectors (..., 3), densities, velocities and pressures of ``states`` in ``shape``.

    The values are those of ``to_conserved``, built in one array, so that
    one kernel call covers all the states.
    """
    rows = np.array([(s.rho, s.rho * s.u, s.energy, s.u, s.p) for s in states]).reshape(shape + (5,))
    return rows[..., :3], rows[..., 0], rows[..., 3], rows[..., 4]


def _llf_rows(lefts: tuple[GasState, ...], rights: tuple[GasState, ...]) -> np.ndarray:
    """LLF flux of each pair ``(lefts[i], rights[i])`` of one gamma, one row per pair.

    All pairs go through one ``lax_friedrichs`` call on a (2, pairs, 3) stack.
    """
    u, rho, vel, p = _stacked(lefts + rights, (2, len(lefts)))
    return lax_friedrichs(u, euler_flux(u, vel, p), signal_speed(rho, vel, p, lefts[0].gamma))


def llf_flux(left: GasState, right: GasState) -> np.ndarray:
    """Local Lax-Friedrichs flux between two traces (of one gamma)."""
    return _llf_rows((left,), (right,))[0]


def _regime(state: GasState) -> Branch:
    return Branch.SUPERSONIC if abs(state.mach) > 1.0 else Branch.SUBSONIC


def _connect(state: GasState, coeffs: SourceCoefficients, corrections: bool,
             rightward: bool) -> GasState:
    """State across a stationary jump from ``state``: its right side if ``rightward``, else left.

    Walking with the flow goes downstream along the curve, against it
    upstream; leftward flow walks in the mirrored frame. Stagnant traces
    carry no source and map to themselves.
    """
    if state.u > 0.0:
        walk = downstream_state if rightward else upstream_state
        return walk(state, coeffs, _regime(state), corrections)
    if state.u < 0.0:
        walk = upstream_state if rightward else downstream_state
        return walk(state.mirrored(), coeffs, _regime(state), corrections).mirrored()
    return state


def kt_flux(left_trace: GasState, right_trace: GasState, coeffs: SourceCoefficients,
            corrections: bool = True) -> FluxPair:
    """Curve-transform flux pair at the origin.

    Each one-sided flux pairs a raw trace with the opposite trace pulled
    through the stationary curve; the branch follows the regime of the trace
    being transformed. Without corrections an unsolvable transform aborts the
    evaluation; with them the discriminant is clamped at choking and the
    other branch substitutes for a blown-up one.
    """
    try:
        ghost_left = _connect(right_trace, coeffs, corrections, rightward=False)
        ghost_right = _connect(left_trace, coeffs, corrections, rightward=True)
    except NotSolvableError as exc:
        raise UnavailableFluxError(str(exc)) from exc
    return FluxPair(*_llf_rows((left_trace, ghost_right), (ghost_left, right_trace)))


def solver_flux(left_trace: GasState, right_trace: GasState,
                coeffs: SourceCoefficients) -> FluxPair:
    """Physical fluxes of the approximate Riemann solver's one-sided states."""
    out = approximate_solve(left_trace, right_trace, coeffs)
    u, _, vel, p = _stacked((out.minus, out.plus), (2,))
    return FluxPair(*euler_flux(u, vel, p))


def origin_flux(left_trace: GasState, right_trace: GasState, coeffs: SourceCoefficients,
                scheme: Scheme) -> FluxPair:
    """The origin flux pair of ``scheme``; the splitting scheme's is the plain LLF flux.

    Anything that is not a ``Scheme`` member raises ``ConfigError``.
    """
    if scheme is Scheme.SOLVER:
        return solver_flux(left_trace, right_trace, coeffs)
    if scheme in (Scheme.KT, Scheme.KT_NOCORR):
        return kt_flux(left_trace, right_trace, coeffs, scheme is Scheme.KT)
    if scheme is not Scheme.SPLITTING:
        raise ConfigError(f"unknown scheme {scheme!r}")
    f = llf_flux(left_trace, right_trace)
    return FluxPair(f, f)
