"""Third-order discontinuous Galerkin discretization with the origin on an interface.

Cells carry modal coefficients on the scaled Legendre basis 1, xi, xi^2-1/12
over the reference element xi in [-1/2, 1/2], so the zeroth mode is the cell
mean. Volume integrals use 3-point Gauss quadrature in the deviation-from-
mean form, which keeps piecewise-constant equilibrium data bit-exact. A
characteristicwise TVD minmod limiter runs after every Runge-Kutta stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemeError
from .fluxes import FluxPair, Scheme, lax_friedrichs, origin_flux
from .gas import (GasState, SourceCoefficients, euler_flux, evaluate_source, from_conserved,
                  primitives, rightward_frame, signal_speed, to_conserved)

# Gauss-Legendre nodes/weights on [-1/2, 1/2] (3 points, degree-5 exact).
_QNODES = np.array([-0.5 * math.sqrt(3.0 / 5.0), 0.0, 0.5 * math.sqrt(3.0 / 5.0)])
_QWEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
# Second basis mode xi^2 - 1/12 at the nodes.
_QMODE2 = _QNODES * _QNODES - 1.0 / 12.0
# Diagonal mass matrix of the basis (integral of each mode squared).
_MASS = np.array([1.0, 1.0 / 12.0, 1.0 / 180.0])
# Per node, the weights of the two volume sums: the mean (w) and the first moment (2 w x).
_QSUMS = np.column_stack([_QWEIGHTS, _QWEIGHTS * 2.0 * _QNODES])[:, :, None, None]
# Most cells a grid may have: 10^7 cells already take 720 MB of coefficients.
_MAX_CELLS = 10_000_000


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
    """Build a grid of width ``h`` on [a, b]; the origin must fall on an interface.

    A width that asks for more than ``_MAX_CELLS`` cells raises ``ConfigError``.
    """
    if not 0.0 < h < math.inf:
        raise ConfigError(f"cell width must be finite and positive, got {h}")
    if not (a < 0.0 < b):
        raise ConfigError(f"domain [{a}, {b}] must contain the origin strictly")
    cells = (b - a) / h
    if not cells <= _MAX_CELLS:
        raise ConfigError(f"cell width {h} asks for {cells:.3g} cells on [{a}, {b}], "
                          f"more than {_MAX_CELLS:,}")
    n = round(cells)
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
        return DgField(self.grid, self.gamma, coeffs, self.time if time is None else time)


def field_from_states(grid: Grid, left: GasState, right: GasState) -> DgField:
    """Piecewise-constant field: ``left`` on cells left of the origin, ``right`` beyond."""
    coeffs = np.zeros((grid.n_cells, 3, 3))
    coeffs[: grid.j0, 0, :] = to_conserved(left)
    coeffs[grid.j0 :, 0, :] = to_conserved(right)
    return DgField(grid, left.gamma, coeffs)


def _traces(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-edge values (left edge, right edge) of the modal expansion.

    ``modes`` is indexed by mode first: ``modes[m]`` holds mode m, in any layout.
    The stage kernels build the same sums in place; this is their reference.
    """
    lo = modes[0] - 0.5 * modes[1] + modes[2] / 6.0
    hi = modes[0] + 0.5 * modes[1] + modes[2] / 6.0
    return lo, hi


def _check_admissible(stacks, time: float) -> None:
    """Abort on a non-finite or non-positive state at an interface or a quadrature node.

    ``stacks`` holds (name, states, rho, p) tuples: the states on each side
    of every interface, component-first with shape (2, 3, n_cells + 1), and
    the states at the nodes, (3, 3, n_cells), with their densities and
    pressures. The two are checked apart: joined, they would make one more
    large temporary per stage.
    """
    where = []
    for name, u, rho, p in stacks:
        # The minimum of an array holding a NaN is NaN, which fails too.
        if not (np.isfinite(u).all() and rho.min() > 0.0 and p.min() > 0.0):
            ok = (rho > 0.0) & (p > 0.0) & np.isfinite(u).all(axis=-2)
            where.append(f"{name} {np.flatnonzero(~ok.all(axis=0))[:5]}")
    if where:
        raise SchemeError(f"inadmissible state at {', '.join(where)} (t={time:.6g})")


def _component_major(coeffs: np.ndarray) -> np.ndarray:
    """(mode, variable, cell) copy of (cell, mode, variable) coefficients.

    The stage kernels work on this layout, where every row is a contiguous
    run over the cells; its swapped-axes views are the (..., 3) arrays the
    gas kernels take.
    """
    return np.ascontiguousarray(coeffs.transpose(1, 2, 0))


def dg_rhs(field: DgField, coeffs: SourceCoefficients, scheme: Scheme) -> np.ndarray:
    """Time derivative of the modal coefficients under the given scheme.

    The splitting scheme treats the origin like any interior interface; the
    unsplit schemes replace the origin flux by the scheme's two-sided pair,
    so the cells adjacent to the origin see different fluxes there.
    """
    grid, g, h = field.grid, field.gamma, field.grid.h
    n, j0 = grid.n_cells, grid.j0
    c = _component_major(field.coeffs)
    means = c[0]

    # States left and right of every interface, with transmissive
    # (zero-order extrapolated) ghosts: the traces (c0 -+ c1/2) + c2/6 are
    # built in place over their half and sixth.
    iface = np.empty((2, 3, n + 1))
    iface[0, :, 0], iface[1, :, -1] = means[:, 0], means[:, -1]
    hi = np.multiply(c[1], 0.5, out=iface[0, :, 1:])
    lo = np.divide(c[2], 6.0, out=iface[1, :, :-1])
    lo_half = np.subtract(means, hi)
    hi += means
    hi += lo
    lo += lo_half
    # The states at the three quadrature nodes, (node, variable, cell).
    uq = np.multiply(c[1], _QNODES[:, None, None])
    uq += means
    uq += np.multiply(c[2], _QMODE2[:, None, None])
    # Primitives are derived once per stack, on (..., 3) views.
    iface_s, uq_s = iface.swapaxes(-2, -1), uq.swapaxes(-2, -1)
    w_iface, w_quad = primitives(iface_s, g), primitives(uq_s, g)
    _check_admissible((("interfaces", iface, w_iface[0], w_iface[2]),
                       ("quadrature cells", uq, w_quad[0], w_quad[2])), field.time)
    w_left, w_right = zip(*w_iface)
    fhat = lax_friedrichs(iface_s[0], iface_s[1], w_left, w_right, g).T

    # Jump and sum of each cell's boundary fluxes; at the origin the two
    # adjacent cells see the scheme's one-sided pair.
    flux_l, flux_r = fhat[:, :-1], fhat[:, 1:]
    jump, total = flux_r - flux_l, flux_r + flux_l
    if scheme is not Scheme.SPLITTING:
        pair: FluxPair = origin_flux(from_conserved(*iface[0, :, j0].tolist(), g),
                                     from_conserved(*iface[1, :, j0].tolist(), g),
                                     coeffs, scheme)
        jump[:, j0 - 1] = pair.minus - flux_l[:, j0 - 1]
        total[:, j0 - 1] = pair.minus + flux_l[:, j0 - 1]
        jump[:, j0] = flux_r[:, j0] - pair.plus
        total[:, j0] = flux_r[:, j0] + pair.plus

    # Volume terms in deviation form: exact for piecewise-constant data.
    # The weighted node sums start from +0.0, which fixes the sign of a zero.
    fbar = euler_flux(means.T, *primitives(means.T, g)[1:]).T
    devs = euler_flux(uq_s, *w_quad[1:]).swapaxes(-2, -1)
    devs -= fbar
    acc = np.zeros((2, 3, n))
    term = np.empty_like(acc)
    for weights, dev in zip(_QSUMS, devs):
        acc += np.multiply(weights, dev, out=term)
    acc1, acc2 = acc

    # Written through the (mode, variable, cell) view of the result.
    out = np.empty((n, 3, 3))
    rhs = out.transpose(1, 2, 0)
    np.divide(jump, -h, out=rhs[0])  # -jump / h, to the bit
    acc1 += fbar
    acc1 -= np.multiply(total, 0.5, out=total)
    np.divide(acc1, h * _MASS[1], out=rhs[1])
    acc2 -= np.divide(jump, 6.0, out=jump)
    np.divide(acc2, h * _MASS[2], out=rhs[2])
    return out


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
    ua = u * a
    right = np.empty((3, 3) + u.shape)
    right[0] = 1.0
    np.subtract(u, a, out=right[1, 0])
    right[1, 1] = u
    np.add(u, a, out=right[1, 2])
    np.subtract(h_tot, ua, out=right[2, 0])
    np.multiply(np.multiply(0.5, u, out=right[2, 1]), u, out=right[2, 1])
    np.add(h_tot, ua, out=right[2, 2])

    # u*a above, and u/a, 1/a, b1*u and 0.5*b1 here, are each derived once.
    b1 = (gamma - 1.0) / (a * a)
    u_a, inv_a = u / a, 1.0 / a
    left = np.empty_like(right)
    half_b1 = np.multiply(0.5, b1, out=left[0, 2])
    b1u = np.multiply(b1, u, out=left[1, 1])
    b2 = half_b1 * u  # 0.5*b1*u*u
    b2 *= u
    np.multiply(np.add(b2, u_a, out=left[0, 0]), 0.5, out=left[0, 0])
    np.multiply(np.add(b1u, inv_a, out=left[0, 1]), -0.5, out=left[0, 1])
    np.subtract(1.0, b2, out=left[1, 0])
    np.negative(b1, out=left[1, 2])
    np.multiply(np.subtract(b2, u_a, out=left[2, 0]), 0.5, out=left[2, 0])
    np.multiply(np.subtract(b1u, inv_a, out=left[2, 1]), -0.5, out=left[2, 1])
    left[2, 2] = half_b1
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
    g = field.gamma
    c = _component_major(field.coeffs)
    means = c[0]
    n = means.shape[1]
    left, right = _eig_matrices(means, g)

    # One stack per cell and variable, mapped to characteristic variables
    # at once: the right and left interface deviations c1/2 +- c2/6, the
    # slope, and the forward and backward mean differences (zero at the
    # domain ends).
    x = np.empty((3, 5, n))
    sixth = np.divide(c[2], 6.0)
    half = np.multiply(c[1], 0.5, out=x[:, 0])
    np.subtract(half, sixth, out=x[:, 1])
    half += sixth
    x[:, 2] = c[1]
    np.subtract(means[:, 1:], means[:, :-1], out=x[:, 3, :-1])
    x[:, 3, -1] = x[:, 4, 0] = 0.0
    x[:, 4, 1:] = x[:, 3, :-1]
    ch = _matvec(left, x)
    mod = _minmod3(ch[:, :3], ch[:, 3:4], ch[:, 4:])

    troubled = (mod[:, :2] != ch[:, :2]).any(axis=(0, 1))
    slope = _matvec(right, mod[:, 2:])[:, 0]
    slope += 0.0  # turns the -0.0 of a zero slope's product into +0.0
    np.copyto(c[1], slope, where=troubled)
    np.copyto(c[2], 0.0, where=troubled)

    # Positivity guard: any cell whose traces (c0 -+ c1/2) + c2/6 leave the
    # admissible set is flattened to its mean.
    tr = np.empty((2, 3, n))
    half = np.multiply(c[1], 0.5, out=tr[1])
    np.subtract(means, half, out=tr[0])
    half += means
    tr += np.divide(c[2], 6.0, out=sixth)
    rho, _, p = primitives(tr.swapaxes(-2, -1), g)
    bad = ((rho <= 0.0) | (p <= 0.0)).any(axis=0)
    np.copyto(c[1:], 0.0, where=bad)
    return DgField(field.grid, g, np.ascontiguousarray(c.transpose(2, 0, 1)), field.time)


def cfl_dt(field: DgField, cfl: float) -> float:
    """Time step from the fastest characteristic speed on cell means."""
    if not 0.0 < cfl <= 0.5:
        raise ConfigError(f"cfl must lie in (0, 0.5], got {cfl}")
    rho, u, p = primitives(field.means, field.gamma)
    if not np.isfinite(u).all():
        raise SchemeError(f"non-finite field at t={field.time:.6g}")
    _check_means(rho, p, field.time)
    return cfl * field.grid.h / float(signal_speed(rho, u, p, field.gamma).max())


def _check_means(rho: np.ndarray, p: np.ndarray, time: float | None = None) -> None:
    """Abort, naming the cells, when a cell mean has rho <= 0 or p <= 0."""
    if rho.min() > 0.0 and p.min() > 0.0:  # a NaN minimum fails too
        return
    bad = ~((rho > 0.0) & (p > 0.0))
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
    is applied to every stage value. Each stage writes only into arrays it
    made itself: ``rhs`` and ``post`` may return their own argument.
    """
    if post is None:
        post = lambda y: y  # noqa: E731
    y1 = np.multiply(rhs(y0), dt)  # y0 + dt * rhs(y0)
    y1 += y0
    y1 = post(y1)
    y2 = np.subtract(y1, y0)  # y0 + 0.25 * ((y1 - y0) + dt * rhs(y1))
    y2 += np.multiply(rhs(y1), dt)
    y2 *= 0.25
    y2 += y0
    y2 = post(y2)
    y3 = np.subtract(y2, y0)  # y0 + 2/3 * ((y2 - y0) + dt * rhs(y2))
    y3 += np.multiply(rhs(y2), dt)
    y3 *= 2.0 / 3.0
    y3 += y0
    return post(y3)


def ssp_rk3_step(field: DgField, dt: float, coeffs: SourceCoefficients,
                 scheme: Scheme) -> DgField:
    """One limited three-stage step of the semi-discrete scheme.

    The splitting scheme appends its source substep, acting on cell means
    only, after the full convection step.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and positive, got {dt}")
    grid, g, t = field.grid, field.gamma, field.time

    def rhs(c: np.ndarray) -> np.ndarray:
        return dg_rhs(DgField(grid, g, c, t), coeffs, scheme)

    def post(c: np.ndarray) -> np.ndarray:
        return tvd_limit(DgField(grid, g, c, t)).coeffs

    out = DgField(grid, g, ssp_rk3_combine(field.coeffs, dt, rhs, post), t + dt)
    if scheme is Scheme.SPLITTING:
        out = _apply_split_source(out, coeffs, dt)
    return out
