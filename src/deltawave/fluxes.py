"""Interface flux constructions, including the two-sided fluxes at the origin.

Away from the origin every scheme uses the local Lax-Friedrichs flux. At the
origin interface the source shows up as a deliberate difference between the
flux seen by the left cell and the one seen by the right cell. Two
constructions provide that pair: wrapping each trace through the opposite
stationary curve before a Lax-Friedrichs evaluation (the curve-transform
flux), and evaluating the physical flux on the output of the structure-based
approximate Riemann solver (the solver flux).

The origin fluxes work on the traces' Python floats: ``gas.euler_flux`` and
``lax_friedrichs`` are plain expressions, which the DG stage applies to its
component rows and these functions to one flux component at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotSolvableError, UnavailableFluxError
from .gas import GasState, SourceCoefficients, euler_flux, physical_flux
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


def lax_friedrichs(ul, ur, fl, fr, speed):
    """Local Lax-Friedrichs flux between the conserved states ``ul`` and ``ur``.

    ``fl`` and ``fr`` are their Euler fluxes and ``speed`` the larger of
    their signal speeds. A plain expression: the DG stage applies it to
    component-first rows, (3, n) with speeds (n,), and the origin to one
    component of two traces at a time, as floats.
    """
    return 0.5 * (fl + fr - speed * (ur - ul))


def _conserved_flux(state: GasState) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The conserved vector of ``state``, with ``to_conserved``'s values, and its Euler flux.

    Both are tuples of floats.
    """
    mom, energy = state.rho * state.u, state.energy
    return (state.rho, mom, energy), euler_flux(mom, energy, state.u, state.p)


def llf_flux(left: GasState, right: GasState) -> np.ndarray:
    """Local Lax-Friedrichs flux between two traces, on floats, with signal speeds |u| + a."""
    (ul, fl), (ur, fr) = _conserved_flux(left), _conserved_flux(right)
    speed = max(abs(left.u) + left.sound_speed, abs(right.u) + right.sound_speed)
    return np.array([lax_friedrichs(*row, speed) for row in zip(ul, ur, fl, fr)])


def _connect(state: GasState, coeffs: SourceCoefficients, corrections: bool,
             rightward: bool) -> GasState:
    """State across a stationary jump from ``state``: its right side if ``rightward``, else left.

    Walking with the flow goes downstream along the curve, against it
    upstream. Leftward flow is the mirror of a rightward walk to the other
    side. Stagnant traces carry no source and map to themselves.
    """
    if state.u > 0.0:
        walk = downstream_state if rightward else upstream_state
        regime = Branch.SUPERSONIC if state.mach > 1.0 else Branch.SUBSONIC
        return walk(state, coeffs, regime, corrections)
    if state.u < 0.0:
        return _connect(state.mirrored(), coeffs, corrections, not rightward).mirrored()
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
    return FluxPair(llf_flux(left_trace, ghost_left), llf_flux(ghost_right, right_trace))


def solver_flux(left_trace: GasState, right_trace: GasState,
                coeffs: SourceCoefficients) -> FluxPair:
    """Physical fluxes of the approximate Riemann solver's one-sided states."""
    out = approximate_solve(left_trace, right_trace, coeffs)
    return FluxPair(physical_flux(out.minus), physical_flux(out.plus))


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
