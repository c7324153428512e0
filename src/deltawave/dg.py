"""Third-order discontinuous Galerkin discretization with the origin on an interface.

Cells carry modal coefficients on the scaled Legendre basis 1, xi, xi^2-1/12
over the reference element xi in [-1/2, 1/2], so the zeroth mode is the cell
mean. Volume integrals use 3-point Gauss quadrature in the deviation-from-
mean form, which keeps piecewise-constant equilibrium data bit-exact. A
characteristicwise TVD minmod limiter runs after every Runge-Kutta stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SchemeError
from .fluxes import FluxPair, Scheme, SchemeKind, lax_friedrichs, origin_flux
from .gas import (GasState, SourceCoefficients, euler_flux, evaluate_source, from_conserved,
                  primitives, rightward_frame, signal_speed, to_conserved)

# Gauss-Legendre nodes/weights on [-1/2, 1/2] (3 points, degree-5 exact).
_QNODES = np.array([-0.5 * math.sqrt(3.0 / 5.0), 0.0, 0.5 * math.sqrt(3.0 / 5.0)])
_QWEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
# Second basis mode xi^2 - 1/12 at the nodes.
_QMODE2 = _QNODES * _QNODES - 1.0 / 12.0
# Diagonal mass matrix of the basis (integral of each mode squared).
_MASS = np.array([1.0, 1.0 / 12.0, 1.0 / 180.0])


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with a cell interface pinned exactly at x = 0."""

    a: float
    b: float
    n_cells: int
    h: float
    j0: int  # number of cells left of the origin; interface index of x = 0

    @property
    def interfaces(self) -> np.ndarray:
        return (np.arange(self.n_cells + 1) - self.j0) * self.h

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) - self.j0 + 0.5) * self.h

    @property
    def left_cell(self) -> int:
        """Index of the cell whose right interface is the origin."""
        return self.j0 - 1

    @property
    def right_cell(self) -> int:
        return self.j0


def make_grid(a: float, b: float, h: float) -> Grid:
    """Build a grid of width ``h`` on [a, b]; the origin must fall on an interface."""
    if not (a < 0.0 < b):
        raise ConfigError(f"domain [{a}, {b}] must contain the origin strictly")
    n = round((b - a) / h)
    j0 = round(-a / h)
    if abs(n * h - (b - a)) > 1e-9 * h or n < 2:
        raise ConfigError(f"cell width {h} does not tile [{a}, {b}]")
    if abs(j0 * h + a) > 1e-9 * h or not 0 < j0 < n:
        raise ConfigError(f"cell width {h} does not place the origin on an interface of [{a}, {b}]")
    return Grid(a, b, n, h, j0)


@dataclass(frozen=True)
class DgField:
    """Per-cell modal coefficients of the conserved variables.

    ``coeffs`` has shape (n_cells, 3 modes, 3 variables); mode 0 is the cell
    mean of (rho, rho*u, E).
    """

    grid: Grid
    gamma: float
    coeffs: np.ndarray
    time: float = 0.0

    @property
    def means(self) -> np.ndarray:
        return self.coeffs[:, 0, :]

    def with_coeffs(self, coeffs: np.ndarray, time: float | None = None) -> "DgField":
        return replace(self, coeffs=coeffs, time=self.time if time is None else time)


def field_from_states(grid: Grid, left: GasState, right: GasState) -> DgField:
    """Piecewise-constant field: ``left`` on cells left of the origin, ``right`` beyond."""
    coeffs = np.zeros((grid.n_cells, 3, 3))
    coeffs[: grid.j0, 0, :] = to_conserved(left)
    coeffs[grid.j0 :, 0, :] = to_conserved(right)
    return DgField(grid, left.gamma, coeffs)


def _traces(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-edge values (left edge, right edge) of the modal expansion.

    ``modes`` is indexed by mode first: ``modes[m]`` holds mode m, in any layout.
    """
    lo = modes[0] - 0.5 * modes[1] + modes[2] / 6.0
    hi = modes[0] + 0.5 * modes[1] + modes[2] / 6.0
    return lo, hi


def _check_admissible(stacks, time: float) -> None:
    """Abort on a non-finite or non-positive state at an interface or a quadrature node.

    ``stacks`` holds (name, states, primitives) triples: the states on each
    side of every interface, shape (2, n_cells + 1, 3), and the states at the
    nodes, (3, n_cells, 3). The two are checked apart: joined, they would
    make one more large temporary per stage.
    """
    where = []
    for name, u, (rho, _, p) in stacks:
        if not (np.all(np.isfinite(u)) and np.all(rho > 0.0) and np.all(p > 0.0)):
            ok = (rho > 0.0) & (p > 0.0) & np.all(np.isfinite(u), axis=-1)
            where.append(f"{name} {np.flatnonzero(~ok.all(axis=0))[:5]}")
    if where:
        raise SchemeError(f"inadmissible state at {', '.join(where)} (t={time:.6g})")


def _component_major(coeffs: np.ndarray) -> np.ndarray:
    """(mode, variable, cell) copy of (cell, mode, variable) coefficients.

    The stage kernels work on this layout, where every row is a contiguous
    run over the cells; its ``.T`` views are the (..., 3) arrays the gas
    kernels take.
    """
    return np.ascontiguousarray(coeffs.transpose(1, 2, 0))


def _cell_major(cm: np.ndarray) -> np.ndarray:
    """Back to the (cell, mode, variable) layout of ``DgField.coeffs``."""
    return np.ascontiguousarray(cm.transpose(2, 0, 1))


def dg_rhs(field: DgField, coeffs: SourceCoefficients, scheme: Scheme) -> np.ndarray:
    """Time derivative of the modal coefficients under the given scheme.

    The splitting scheme treats the origin like any interior interface; the
    unsplit schemes replace the origin flux by the scheme's two-sided pair,
    so the cells adjacent to the origin see different fluxes there.
    """
    grid, g = field.grid, field.gamma
    c, h = _component_major(field.coeffs), grid.h
    tr_lo, tr_hi = _traces(c)
    means = c[0]

    # States left and right of every interface, with transmissive
    # (zero-order extrapolated) ghosts, and the states at the three
    # quadrature nodes; primitives are derived once per stack.
    iface = np.empty((2, 3, grid.n_cells + 1))
    iface[0, :, 0], iface[0, :, 1:] = means[:, 0], tr_hi
    iface[1, :, :-1], iface[1, :, -1] = tr_lo, means[:, -1]
    uq = c[0] + c[1] * _QNODES[:, None, None] + c[2] * _QMODE2[:, None, None]
    iface_s, uq_s = iface.transpose(0, 2, 1), uq.transpose(0, 2, 1)
    w_iface, w_quad = primitives(iface_s, g), primitives(uq_s, g)
    _check_admissible((("interfaces", iface_s, w_iface), ("quadrature cells", uq_s, w_quad)),
                      field.time)
    w_left, w_right = zip(*w_iface)
    fhat = lax_friedrichs(iface_s[0], iface_s[1], w_left, w_right, g).T

    # Per-cell boundary fluxes; the origin interface may carry two values.
    flux_r = fhat[:, 1:].copy()
    flux_l = fhat[:, :-1].copy()
    if scheme.kind is not SchemeKind.SPLITTING:
        pair: FluxPair = origin_flux(from_conserved(*iface[0, :, grid.j0].tolist(), g),
                                     from_conserved(*iface[1, :, grid.j0].tolist(), g),
                                     coeffs, scheme)
        flux_r[:, grid.left_cell] = pair.minus
        flux_l[:, grid.right_cell] = pair.plus

    # Volume terms in deviation form: exact for piecewise-constant data.
    fbar = euler_flux(means.T, *primitives(means.T, g)[1:]).T
    devs = euler_flux(uq_s, *w_quad[1:]).transpose(0, 2, 1) - fbar
    acc1 = np.zeros_like(means)
    acc2 = np.zeros_like(means)
    for xq, wq, dev in zip(_QNODES, _QWEIGHTS, devs):
        acc1 += wq * dev
        acc2 += (wq * 2.0 * xq) * dev

    jump = flux_r - flux_l
    rhs = np.empty_like(c)
    rhs[0] = -jump / h
    rhs[1] = (acc1 + fbar - 0.5 * (flux_r + flux_l)) / (h * _MASS[1])
    rhs[2] = (acc2 - jump / 6.0) / (h * _MASS[2])
    return _cell_major(rhs)


def _eig_matrices(means: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right eigenvector matrices of the flux Jacobian at each cell mean.

    ``means`` is component-first, (3, n); entry (i, j) of either matrix is
    the row ``[i, j]`` of the returned (3, 3, n) arrays. A mean with
    rho <= 0 or p <= 0 has no real eigenvectors: it raises ``SchemeError``.
    """
    rho, u, p = primitives(means.T, gamma)
    _check_means(rho, p)
    a = np.sqrt(gamma * p / rho)
    h_tot = (means[2] + p) / rho
    right = np.empty((3, 3) + u.shape)
    right[0] = 1.0
    right[1, 0] = u - a
    right[1, 1] = u
    right[1, 2] = u + a
    right[2, 0] = h_tot - u * a
    right[2, 1] = 0.5 * u * u
    right[2, 2] = h_tot + u * a

    b1 = (gamma - 1.0) / (a * a)
    b2 = 0.5 * b1 * u * u
    left = np.empty_like(right)
    left[0, 0] = 0.5 * (b2 + u / a)
    left[0, 1] = -0.5 * (b1 * u + 1.0 / a)
    left[0, 2] = 0.5 * b1
    left[1, 0] = 1.0 - b2
    left[1, 1] = b1 * u
    left[1, 2] = -b1
    left[2, 0] = 0.5 * (b2 - u / a)
    left[2, 1] = -0.5 * (b1 * u - 1.0 / a)
    left[2, 2] = 0.5 * b1
    return left, right


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cellwise products of (3, 3, n) matrices with a (3, k, n) stack of k vectors per cell.

    The terms are summed as (0 + 2) + 1, the order in which numpy's einsum
    sums a length-3 product, so every nonzero result is the einsum's to the
    bit. A zero may come out as -0.0, where einsum, whose sums start at
    +0.0, gives +0.0.
    """
    out = m[:, 0, None] * x[0]
    term = m[:, 2, None] * x[2]
    out += term
    out += np.multiply(m[:, 1, None], x[1], out=term)
    return out


def _minmod3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The argument of least magnitude if all three share a strict sign, else 0.

    A NaN argument gives 0 (``fmax``/``fmin``); the sign of a zero result is
    unspecified.
    """
    lo = np.minimum(a, np.minimum(b, c))
    hi = np.maximum(a, np.maximum(b, c))
    np.fmax(lo, 0.0, out=lo)
    lo += np.fmin(hi, 0.0, out=hi)
    return lo


def tvd_limit(field: DgField) -> DgField:
    """Characteristicwise TVD minmod limiter; means are untouched.

    Interface deviations of each cell are compared, in the characteristic
    variables of the cell's own mean, against the forward/backward mean
    differences. A cell whose deviations the minmod alters is rebuilt as a
    linear polynomial with the minmod-limited slope. Cells whose limited
    traces still leave the admissible set fall back to their means.
    """
    c = _component_major(field.coeffs)
    means = c[0]
    left, right = _eig_matrices(means, field.gamma)

    # One stack per cell and variable, mapped to characteristic variables
    # at once: the right and left interface deviations, the slope, and the
    # forward and backward mean differences (zero at the domain ends).
    x = np.empty((3, 5, means.shape[1]))
    x[:, 0] = 0.5 * c[1] + c[2] / 6.0
    x[:, 1] = 0.5 * c[1] - c[2] / 6.0
    x[:, 2] = c[1]
    np.subtract(means[:, 1:], means[:, :-1], out=x[:, 3, :-1])
    x[:, 3, -1] = 0.0
    x[:, 4, 1:] = x[:, 3, :-1]
    x[:, 4, 0] = 0.0
    ch = _matvec(left, x)
    mod = _minmod3(ch[:, :3], ch[:, 3:4], ch[:, 4:])

    troubled = np.any(mod[:, :2] != ch[:, :2], axis=(0, 1))
    # The + 0.0 turns the -0.0 of a zero slope's product into +0.0.
    np.copyto(c[1], _matvec(right, mod[:, 2:])[:, 0] + 0.0, where=troubled)
    np.copyto(c[2], 0.0, where=troubled)

    # Positivity guard: any cell whose traces leave the admissible set is
    # flattened to its mean.
    bad = np.zeros_like(troubled)
    for tr in _traces(c):
        rho, _, p = primitives(tr.T, field.gamma)
        bad |= (rho <= 0.0) | (p <= 0.0)
    np.copyto(c[1:], 0.0, where=bad)
    return field.with_coeffs(_cell_major(c))


def cfl_dt(field: DgField, cfl: float) -> float:
    """Time step from the fastest characteristic speed on cell means."""
    if not 0.0 < cfl <= 0.5:
        raise ConfigError(f"cfl must lie in (0, 0.5], got {cfl}")
    rho, u, p = primitives(field.means, field.gamma)
    if not np.all(np.isfinite(u)):
        raise SchemeError(f"non-finite field at t={field.time:.6g}")
    _check_means(rho, p, field.time)
    return cfl * field.grid.h / float(np.max(signal_speed(rho, u, p, field.gamma)))


def _check_means(rho: np.ndarray, p: np.ndarray, time: float | None = None) -> None:
    """Abort, naming the cells, when a cell mean has rho <= 0 or p <= 0."""
    bad = ~((rho > 0.0) & (p > 0.0))
    if np.any(bad):
        at = "" if time is None else f" (t={time:.6g})"
        raise SchemeError(f"non-positive density or pressure in the means of cells "
                          f"{np.flatnonzero(bad)[:5]}{at}")


def _apply_split_source(field: DgField, coeffs: SourceCoefficients, dt: float) -> DgField:
    """Upwind point-source update of the two origin-adjacent cell means."""
    grid = field.grid
    c = field.coeffs.copy()
    left = from_conserved(*c[grid.left_cell, 0, :].tolist(), field.gamma)
    right = from_conserved(*c[grid.right_cell, 0, :].tolist(), field.gamma)
    frame = rightward_frame(left, right)
    if frame is not None:
        downstream = grid.left_cell if frame[2] else grid.right_cell
        c[downstream, 0, :] += dt / grid.h * evaluate_source(left, right, coeffs)
    return field.with_coeffs(c)


def ssp_rk3_combine(y0: np.ndarray, dt: float, rhs, post=None) -> np.ndarray:
    """Three-stage strong-stability-preserving Runge-Kutta combination.

    The convex combinations are written in increment form so that a zero
    right-hand side reproduces ``y0`` bit-exactly. ``post`` (e.g. a limiter)
    is applied to every stage value.
    """
    if post is None:
        post = lambda y: y  # noqa: E731
    y1 = post(y0 + dt * rhs(y0))
    y2 = post(y0 + 0.25 * ((y1 - y0) + dt * rhs(y1)))
    return post(y0 + (2.0 / 3.0) * ((y2 - y0) + dt * rhs(y2)))


def ssp_rk3_step(field: DgField, dt: float, coeffs: SourceCoefficients,
                 scheme: Scheme) -> DgField:
    """One limited three-stage step of the semi-discrete scheme.

    The splitting scheme appends its source substep, acting on cell means
    only, after the full convection step.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and positive, got {dt}")

    def rhs(c: np.ndarray) -> np.ndarray:
        return dg_rhs(field.with_coeffs(c), coeffs, scheme)

    def post(c: np.ndarray) -> np.ndarray:
        return tvd_limit(field.with_coeffs(c)).coeffs

    out = field.with_coeffs(ssp_rk3_combine(field.coeffs, dt, rhs, post),
                            time=field.time + dt)
    if scheme.kind is SchemeKind.SPLITTING:
        out = _apply_split_source(out, coeffs, dt)
    return out
