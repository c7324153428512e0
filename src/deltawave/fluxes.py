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
from .gas import GasState, SourceCoefficients, euler_flux, physical_flux, signal_speed, to_conserved
from .stationary import Branch, downstream_state, upstream_state
from .structure import approximate_solve


class Scheme(enum.Enum):
    """The origin flux of a run, by its command-line name."""

    SPLITTING = "splitting"
    KT = "kt"
    KT_NOCORR = "kt-nocorr"
    SOLVER = "solver"


@dataclass(frozen=True)
class FluxPair:
    """One-sided numerical fluxes at an interface (they differ only at the origin)."""

    minus: np.ndarray
    plus: np.ndarray


def lax_friedrichs(ul: np.ndarray, ur: np.ndarray, wl, wr, gamma: float) -> np.ndarray:
    """Local Lax-Friedrichs flux between conserved states ``ul`` and ``ur`` (..., 3).

    ``wl`` and ``wr`` are each side's primitives (rho, u, p), derived once by
    the caller.
    """
    alpha = np.maximum(signal_speed(*wl, gamma), signal_speed(*wr, gamma))
    return 0.5 * (euler_flux(ul, *wl[1:]) + euler_flux(ur, *wr[1:])
                  - alpha[..., None] * (ur - ul))


def llf_flux(left: GasState, right: GasState) -> np.ndarray:
    """Local Lax-Friedrichs flux between two traces (of one gamma)."""
    return lax_friedrichs(to_conserved(left), to_conserved(right), (left.rho, left.u, left.p),
                          (right.rho, right.u, right.p), left.gamma)


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
