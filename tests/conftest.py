import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import deltawave
from deltawave import GasState, SourceCoefficients, dg, fluxes, runner
from deltawave.classical import solve_classical
from deltawave.dg import _check_admissible
from deltawave.errors import NotSolvableError, UnavailableFluxError, VacuumError
from deltawave.fluxes import FluxPair, Scheme
from deltawave.gas import from_conserved, primitives, signal_speed, to_conserved
from deltawave.stationary import Branch, critical_mach_numbers
from deltawave.structure import approximate_solve

GAMMA = 1.4
# Distance from every wave, in cells, that a cell needs to count as constant.
MARGIN_CELLS = 5


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def advance_steps(monkeypatch) -> list:
    """(start time, dt) of each ``ssp_rk3_step`` that ``runner.advance`` makes in the test."""
    steps, step = [], dg.ssp_rk3_step

    def counted(field, dt, *args):
        steps.append((field.time, dt))
        return step(field, dt, *args)

    monkeypatch.setattr(runner, "ssp_rk3_step", counted)
    return steps


def state_rel_err(s1: GasState, s2: GasState) -> float:
    return max(
        abs(s1.rho - s2.rho) / abs(s2.rho),
        abs(s1.u - s2.u) / max(abs(s2.u), 1e-8),
        abs(s1.p - s2.p) / abs(s2.p),
    )


def load_module(name: str, path: Path):
    """The module of the source file ``path``, imported as ``name``. It goes into
    ``sys.modules`` first, where the dataclasses of a module under
    ``from __future__ import annotations`` look their module up."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = Path(__file__).resolve().parents[1]
# The solver's fuzz domain, defined once in tools/fuzz_domain.py for the tools and the tests.
fuzz_domain = load_module("fuzz_domain", ROOT / "tools" / "fuzz_domain.py")
riemann_batch_arrays = fuzz_domain.arrays
off_side = fuzz_domain.off_side


def riemann_batch_draws(n: int) -> list:
    """(left, right, coeffs) of each draw of the ``n``-draw set, built from numpy scalars.
    The set depends on ``n``; the 2,000-draw set is the benchmark's seed-0 ``riemann_batch``."""
    return fuzz_domain.draws(n, deltawave)


# The same domain for hypothesis: open intervals for rho, p and each k_i, closed for u.
_positive = st.floats(*fuzz_domain.RHO_P_BOUNDS, exclude_min=True, exclude_max=True)
_k = st.floats(*fuzz_domain.K_BOUNDS, exclude_min=True, exclude_max=True)
states = st.builds(GasState, _positive, st.floats(*fuzz_domain.U_BOUNDS), _positive)
coefficients = st.builds(SourceCoefficients, _k, _k, _k)


def coeffs_with_k(k_target: float) -> SourceCoefficients:
    """Coefficients whose derived combination equals ``k_target`` (k2 = 0)."""
    x = math.sqrt(1.0 + k_target) - 1.0
    return SourceCoefficients(x, 0.0, x)


def random_state(rng, rho_range=(0.1, 5.0), p_range=(0.1, 5.0), u_range=(-3.0, 3.0)):
    rho = rng.uniform(*rho_range)
    p = rng.uniform(*p_range)
    u = rng.uniform(*u_range)
    return GasState(rho, u, p, GAMMA)


def random_admissible_upstream(rng, coeffs: SourceCoefficients, branch: Branch) -> GasState:
    """Random rightward state whose Mach lies strictly inside the admissible
    upstream interval of the requested branch."""
    crit = critical_mach_numbers(coeffs, GAMMA)
    if branch is Branch.SUBSONIC:
        mach = rng.uniform(0.05, 0.97) * crit.upstream_subsonic_max
    else:
        lo = crit.upstream_supersonic_min * 1.02
        hi = crit.upstream_supersonic_sup
        hi = min(hi, 4.0) if math.isfinite(hi) else 4.0
        hi = 0.98 * hi
        if hi <= lo:
            hi = lo * 1.001
        mach = rng.uniform(lo, hi)
    rho = rng.uniform(0.3, 3.0)
    p = rng.uniform(0.3, 3.0)
    u = mach * math.sqrt(GAMMA * p / rho)
    return GasState(rho, u, p, GAMMA)


def traces(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-edge values (left edge, right edge) of the modal expansion.

    ``modes`` is indexed by mode first: ``modes[m]`` holds mode m, in any layout.
    The stage kernels of ``dg`` build the same sums in place; this is their reference.
    """
    lo = modes[0] - 0.5 * modes[1] + modes[2] / 6.0
    hi = modes[0] + 0.5 * modes[1] + modes[2] / 6.0
    return lo, hi


def constant_region_cells(fan, grid, t: float) -> np.ndarray:
    """Indices of cells at least ``MARGIN_CELLS`` widths away from every wave of ``fan`` at time ``t``."""
    spans = [(lo * t, hi * t) for lo, hi in fan.feature_intervals()]
    centers = grid.centers
    margin = MARGIN_CELLS * grid.h
    keep = np.ones(grid.n_cells, dtype=bool)
    for lo, hi in spans:
        keep &= (centers < lo - margin) | (centers > hi + margin)
    return np.where(keep)[0]


def plateau_representatives(fan, grid, t: float) -> list[int]:
    """One cell index per constant region of the exact solution.

    Each constant region between consecutive waves is represented by its most
    interior cell, provided the region is wide enough to hold cells at least
    ``MARGIN_CELLS`` widths from the bounding waves; narrower regions are not
    resolvable at this grid and are skipped. The representative cell is where
    a converged scheme must show the plateau value, clear of the numerically
    smeared wave footprints on either side.
    """
    spans = [(lo * t, hi * t) for lo, hi in fan.feature_intervals()]
    edges = [grid.a] + [e for span in spans for e in span] + [grid.b]
    margin = MARGIN_CELLS * grid.h
    centers = grid.centers
    picks: list[int] = []
    for lo, hi in zip(edges[0::2], edges[1::2]):
        inside = np.where((centers > lo + margin) & (centers < hi - margin))[0]
        if len(inside) == 0:
            continue
        depth = np.minimum(centers[inside] - lo, hi - centers[inside])
        picks.append(int(inside[np.argmax(depth)]))
    return picks


def type2_wave_clears_origin(down: GasState, right: GasState) -> bool:
    """Does the first wave right of a supersonic passage, from its downstream state
    ``down``, move rightward? Decided by a full classical solve.

    The wave is a rarefaction when the star pressure lies below ``down.p``, and
    otherwise a 1-shock, which moves rightward when it is weaker than the
    shock at rest. The shock at rest itself does not pass: the sampler reads
    x/t = 0 on it as the state behind it. Data that opens a vacuum reads
    False here, where ``predict_structure`` raises ``VacuumError``; no fuzz
    candidate does. The reference for the Type2 branch of ``predict_structure``,
    which returns the pair (left, ``down``) when
    ``classical.origin_state(down, right)`` returns ``down`` itself, and
    decides most candidates from defect signs.
    """
    g = down.gamma
    try:
        p_star = solve_classical(down, right).p_star
    except VacuumError:
        return False
    if p_star < down.p:
        return True
    m2 = down.mach ** 2
    return (g + 1.0) * p_star < (2.0 * g * m2 - g + 1.0) * down.p


def euler_flux(u: np.ndarray, vel, p) -> np.ndarray:
    """Euler flux (rho*u, rho*u^2 + p, (E + p)*u) of conserved states ``u`` (..., 3).

    The reference for ``gas.euler_flux``, which is a plain expression on the
    momentum and energy. This one takes whole conserved vectors as arrays;
    the reference stage, LLF and physical fluxes below build on it, so they
    share no flux code with the package.
    """
    out = np.empty_like(u)
    out[..., 0] = u[..., 1]
    out[..., 1] = u[..., 1] * vel + p
    out[..., 2] = (u[..., 2] + p) * vel
    return out


def physical_flux(state: GasState) -> np.ndarray:
    """``gas.physical_flux``: the array Euler flux above of ``to_conserved(state)``."""
    return euler_flux(to_conserved(state), state.u, state.p)


def evaluate_source(left: GasState, right: GasState, coeffs: SourceCoefficients) -> np.ndarray:
    """``gas.evaluate_source`` without the mirrored frame: the coefficient-scaled flux of
    the upstream trace, negated whole for leftward flow, and zero unless the flow
    passes the origin."""
    if left.u > 0.0 and right.u > 0.0:
        return coeffs.diag * physical_flux(left)
    if left.u < 0.0 and right.u < 0.0:
        return -(coeffs.diag * physical_flux(right))
    return np.zeros(3)


def lax_friedrichs(ul: np.ndarray, ur: np.ndarray, wl, wr, gamma: float) -> np.ndarray:
    """Local Lax-Friedrichs flux between ``ul`` and ``ur`` (..., 3), from each side's
    primitives ``wl`` and ``wr``, with one Euler flux and one signal speed per side.

    The reference for ``fluxes.lax_friedrichs``, which takes both sides' fluxes
    and the larger speed, and for ``fluxes.llf_flux``, which applies it to floats.
    """
    alpha = np.maximum(signal_speed(*wl, gamma), signal_speed(*wr, gamma))
    return 0.5 * (euler_flux(ul, *wl[1:]) + euler_flux(ur, *wr[1:])
                  - alpha[..., None] * (ur - ul))


def llf_flux(left: GasState, right: GasState) -> np.ndarray:
    """The LLF flux of two traces, one ``to_conserved`` per trace."""
    return lax_friedrichs(to_conserved(left), to_conserved(right), (left.rho, left.u, left.p),
                          (right.rho, right.u, right.p), left.gamma)


def kt_flux(left_trace: GasState, right_trace: GasState, coeffs: SourceCoefficients,
            corrections: bool = True) -> FluxPair:
    """``fluxes.kt_flux`` over the reference ``llf_flux`` above."""
    try:
        ghost_left = fluxes._connect(right_trace, coeffs, corrections, rightward=False)
        ghost_right = fluxes._connect(left_trace, coeffs, corrections, rightward=True)
    except NotSolvableError as exc:
        raise UnavailableFluxError(str(exc)) from exc
    return FluxPair(llf_flux(left_trace, ghost_left), llf_flux(ghost_right, right_trace))


def solver_flux(left_trace: GasState, right_trace: GasState,
                coeffs: SourceCoefficients) -> FluxPair:
    """``fluxes.solver_flux`` with the reference ``physical_flux`` above, one call per side."""
    out = approximate_solve(left_trace, right_trace, coeffs)
    return FluxPair(physical_flux(out.minus), physical_flux(out.plus))


def origin_flux(left_trace: GasState, right_trace: GasState, coeffs: SourceCoefficients,
                scheme: Scheme) -> FluxPair:
    """``fluxes.origin_flux`` over the two-call fluxes above."""
    if scheme is Scheme.SOLVER:
        return solver_flux(left_trace, right_trace, coeffs)
    if scheme in (Scheme.KT, Scheme.KT_NOCORR):
        return kt_flux(left_trace, right_trace, coeffs, scheme is Scheme.KT)
    f = llf_flux(left_trace, right_trace)
    return FluxPair(f, f)


def dg_rhs(field, coeffs: SourceCoefficients, scheme: Scheme) -> np.ndarray:
    """``dg.dg_rhs`` with one stack per kind of state: the interface states, the
    node states and the means each get their own primitives and Euler fluxes,
    and the origin pair is patched into four columns of the flux sums.

    The reference for the one-stack kernel; the origin pair comes from the
    two-call fluxes above.
    """
    grid, g, h = field.grid, field.gamma, field.grid.h
    n, j0 = grid.n_cells, grid.j0
    c = dg._component_major(field.coeffs)
    means = c[0]
    iface = np.empty((2, 3, n + 1))
    iface[0, :, 0], iface[1, :, -1] = means[:, 0], means[:, -1]
    hi = np.multiply(c[1], 0.5, out=iface[0, :, 1:])
    lo = np.divide(c[2], 6.0, out=iface[1, :, :-1])
    lo_half = np.subtract(means, hi)
    hi += means
    hi += lo
    lo += lo_half
    uq = np.multiply(c[1], dg._QNODES[:, None, None])
    uq += means
    uq += np.multiply(c[2], dg._QMODE2[:, None, None])
    iface_s, uq_s = iface.swapaxes(-2, -1), uq.swapaxes(-2, -1)
    w_iface, w_quad = primitives(iface_s, g), primitives(uq_s, g)
    _check_admissible((("interfaces", iface, w_iface[0], w_iface[2]),
                       ("quadrature cells", uq, w_quad[0], w_quad[2])), field.time)
    w_left, w_right = zip(*w_iface)
    fhat = lax_friedrichs(iface_s[0], iface_s[1], w_left, w_right, g).T

    flux_l, flux_r = fhat[:, :-1], fhat[:, 1:]
    jump, total = flux_r - flux_l, flux_r + flux_l
    if scheme is not Scheme.SPLITTING:
        pair = origin_flux(from_conserved(*iface[0, :, j0].tolist(), g),
                           from_conserved(*iface[1, :, j0].tolist(), g), coeffs, scheme)
        jump[:, j0 - 1] = pair.minus - flux_l[:, j0 - 1]
        total[:, j0 - 1] = pair.minus + flux_l[:, j0 - 1]
        jump[:, j0] = flux_r[:, j0] - pair.plus
        total[:, j0] = flux_r[:, j0] + pair.plus

    fbar = euler_flux(means.T, *primitives(means.T, g)[1:]).T
    devs = euler_flux(uq_s, *w_quad[1:]).swapaxes(-2, -1)
    devs -= fbar
    acc = np.zeros((2, 3, n))
    term = np.empty_like(acc)
    for weights, dev in zip(dg._QSUMS, devs):
        acc += np.multiply(weights, dev, out=term)
    acc1, acc2 = acc

    out = np.empty((n, 3, 3))
    rhs = out.transpose(1, 2, 0)
    np.divide(jump, -h, out=rhs[0])
    acc1 += fbar
    acc1 -= np.multiply(total, 0.5, out=total)
    np.divide(acc1, h * dg._MASS[1], out=rhs[1])
    acc2 -= np.divide(jump, 6.0, out=jump)
    np.divide(acc2, h * dg._MASS[2], out=rhs[2])
    return out


def eig_matrices(means: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right eigenvector matrices of the flux Jacobian at each cell mean.

    ``means`` is component-first, (3, n); entry (i, j) of either matrix is
    the row ``[i, j]`` of the returned (3, 3, n) arrays. The reference for
    the closed-form kernels ``dg._characteristic`` and ``dg._conserved``.
    """
    rho, u, p = primitives(means.T, gamma)
    a = np.sqrt(gamma * p / rho)
    h_tot = (means[2] + p) / rho
    one = np.ones_like(u)
    right = np.array([[one, one, one],
                      [u - a, u, u + a],
                      [h_tot - u * a, 0.5 * u * u, h_tot + u * a]])
    b1 = (gamma - 1.0) / (a * a)
    b2 = 0.5 * b1 * u * u
    left = np.array([[0.5 * (b2 + u / a), -0.5 * (b1 * u + 1.0 / a), 0.5 * b1],
                     [1.0 - b2, b1 * u, -b1],
                     [0.5 * (b2 - u / a), -0.5 * (b1 * u - 1.0 / a), 0.5 * b1]])
    return left, right


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cellwise products of (3, 3, n) matrices with a (3, k, n) stack of k vectors per cell."""
    return np.einsum("ijn,jkn->ikn", m, x)
