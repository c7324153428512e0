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
from .fluxes import FluxPair, Scheme, SchemeKind, origin_flux
from .gas import GasState, SourceCoefficients, evaluate_source, from_conserved, to_conserved

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


def _primitives(u: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rho = u[..., 0]
    vel = u[..., 1] / rho
    p = (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] * vel)
    return rho, vel, p


# The scalar flux of ``gas``/``fluxes`` serves the origin and stays apart from
# these array kernels: routing it through them rounds the last bits
# differently, and the limiter amplifies that into profiles that move (14 of
# the 24 density L1 errors of the 400-cell built-in runs, by up to 0.3%).
def _flux_arrays(u: np.ndarray, gamma: float) -> np.ndarray:
    rho, vel, p = _primitives(u, gamma)
    out = np.empty_like(u)
    out[..., 0] = u[..., 1]
    out[..., 1] = u[..., 1] * vel + p
    out[..., 2] = (u[..., 2] + p) * vel
    return out


def _llf_arrays(ul: np.ndarray, ur: np.ndarray, gamma: float) -> np.ndarray:
    rl, vl, pl = _primitives(ul, gamma)
    rr, vr, pr = _primitives(ur, gamma)
    al = np.sqrt(gamma * pl / rl)
    ar = np.sqrt(gamma * pr / rr)
    alpha = np.maximum(np.abs(vl) + al, np.abs(vr) + ar)
    return 0.5 * (_flux_arrays(ul, gamma) + _flux_arrays(ur, gamma)
                  - alpha[:, None] * (ur - ul))


def _traces(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell-edge values (left edge, right edge) of the modal expansion."""
    lo = coeffs[:, 0, :] - 0.5 * coeffs[:, 1, :] + coeffs[:, 2, :] / 6.0
    hi = coeffs[:, 0, :] + 0.5 * coeffs[:, 1, :] + coeffs[:, 2, :] / 6.0
    return lo, hi


def _check_admissible(iface: np.ndarray, quad: np.ndarray, gamma: float, time: float) -> None:
    """Abort on a non-finite or non-positive state at an interface or a quadrature node.

    ``iface`` stacks the states on each side of every interface, shape
    (2, n_cells + 1, 3); ``quad`` the states at the nodes, (3, n_cells, 3).
    The two are checked apart: joined, they would make one more large
    temporary per stage.
    """
    where = []
    for name, u in (("interfaces", iface), ("quadrature cells", quad)):
        rho, _, p = _primitives(u, gamma)
        if not (np.all(np.isfinite(u)) and np.all(rho > 0.0) and np.all(p > 0.0)):
            ok = (rho > 0.0) & (p > 0.0) & np.all(np.isfinite(u), axis=-1)
            where.append(f"{name} {np.flatnonzero(~ok.all(axis=0))[:5]}")
    if where:
        raise SchemeError(f"inadmissible state at {', '.join(where)} (t={time:.6g})")


def dg_rhs(field: DgField, coeffs: SourceCoefficients, scheme: Scheme) -> np.ndarray:
    """Time derivative of the modal coefficients under the given scheme.

    The splitting scheme treats the origin like any interior interface; the
    unsplit schemes replace the origin flux by the scheme's two-sided pair,
    so the cells adjacent to the origin see different fluxes there.
    """
    grid, g = field.grid, field.gamma
    c, h = field.coeffs, grid.h
    tr_lo, tr_hi = _traces(c)
    means = c[:, 0, :]

    # Interface states with transmissive (zero-order extrapolated) ghosts, and
    # the states at the three quadrature nodes.
    u_left = np.vstack([means[:1], tr_hi])
    u_right = np.vstack([tr_lo, means[-1:]])
    uq = c[:, 0, :] + c[:, 1, :] * _QNODES[:, None, None] + c[:, 2, :] * _QMODE2[:, None, None]
    _check_admissible(np.stack([u_left, u_right]), uq, g, field.time)
    fhat = _llf_arrays(u_left, u_right, g)

    # Per-cell boundary fluxes; the origin interface may carry two values.
    flux_r = fhat[1:].copy()
    flux_l = fhat[:-1].copy()
    if scheme.kind is not SchemeKind.SPLITTING:
        pair: FluxPair = origin_flux(from_conserved(*u_left[grid.j0].tolist(), g),
                                     from_conserved(*u_right[grid.j0].tolist(), g), coeffs, scheme)
        flux_r[grid.left_cell] = pair.minus
        flux_l[grid.right_cell] = pair.plus

    # Volume terms in deviation form: exact for piecewise-constant data.
    fbar = _flux_arrays(means, g)
    devs = _flux_arrays(uq, g) - fbar
    acc1 = np.zeros_like(means)
    acc2 = np.zeros_like(means)
    for xq, wq, dev in zip(_QNODES, _QWEIGHTS, devs):
        acc1 += wq * dev
        acc2 += (wq * 2.0 * xq) * dev

    rhs = np.empty_like(c)
    rhs[:, 0, :] = -(flux_r - flux_l) / h
    rhs[:, 1, :] = (acc1 + fbar - 0.5 * (flux_r + flux_l)) / (h * _MASS[1])
    rhs[:, 2, :] = (acc2 - (flux_r - flux_l) / 6.0) / (h * _MASS[2])
    return rhs


def _eig_matrices(means: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right eigenvector matrices of the flux Jacobian at each cell mean."""
    rho, u, p = _primitives(means, gamma)
    a = np.sqrt(gamma * p / rho)
    h_tot = (means[:, 2] + p) / rho
    n = means.shape[0]
    right = np.empty((n, 3, 3))
    right[:, 0, 0] = 1.0
    right[:, 0, 1] = 1.0
    right[:, 0, 2] = 1.0
    right[:, 1, 0] = u - a
    right[:, 1, 1] = u
    right[:, 1, 2] = u + a
    right[:, 2, 0] = h_tot - u * a
    right[:, 2, 1] = 0.5 * u * u
    right[:, 2, 2] = h_tot + u * a

    b1 = (gamma - 1.0) / (a * a)
    b2 = 0.5 * b1 * u * u
    left = np.empty((n, 3, 3))
    left[:, 0, 0] = 0.5 * (b2 + u / a)
    left[:, 0, 1] = -0.5 * (b1 * u + 1.0 / a)
    left[:, 0, 2] = 0.5 * b1
    left[:, 1, 0] = 1.0 - b2
    left[:, 1, 1] = b1 * u
    left[:, 1, 2] = -b1
    left[:, 2, 0] = 0.5 * (b2 - u / a)
    left[:, 2, 1] = -0.5 * (b1 * u - 1.0 / a)
    left[:, 2, 2] = 0.5 * b1
    return left, right


def _minmod3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    same = (np.sign(a) == np.sign(b)) & (np.sign(a) == np.sign(c))
    mag = np.minimum(np.abs(a), np.minimum(np.abs(b), np.abs(c)))
    return np.where(same, np.sign(a) * mag, 0.0)


def tvd_limit(field: DgField) -> DgField:
    """Characteristicwise TVD minmod limiter; means are untouched.

    Interface deviations of each cell are compared, in the characteristic
    variables of the cell's own mean, against the forward/backward mean
    differences. A cell whose deviations the minmod alters is rebuilt as a
    linear polynomial with the minmod-limited slope. Cells whose limited
    traces still leave the admissible set fall back to their means.
    """
    c = field.coeffs.copy()
    means = c[:, 0, :]
    dplus = np.vstack([means[1:] - means[:-1], np.zeros((1, 3))])
    dminus = np.vstack([np.zeros((1, 3)), means[1:] - means[:-1]])
    left, right = _eig_matrices(means, field.gamma)

    dev_hi = 0.5 * c[:, 1, :] + c[:, 2, :] / 6.0
    dev_lo = 0.5 * c[:, 1, :] - c[:, 2, :] / 6.0

    def to_char(x: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nj->ni", left, x)

    ch_hi, ch_lo = to_char(dev_hi), to_char(dev_lo)
    ch_p, ch_m = to_char(dplus), to_char(dminus)

    mod_hi = _minmod3(ch_hi, ch_p, ch_m)
    mod_lo = _minmod3(ch_lo, ch_p, ch_m)

    troubled = np.any((mod_hi != ch_hi) | (mod_lo != ch_lo), axis=1)
    if np.any(troubled):
        slope = _minmod3(to_char(c[:, 1, :]), ch_p, ch_m)
        new_c1 = np.einsum("nij,nj->ni", right, slope)
        c[troubled, 1, :] = new_c1[troubled]
        c[troubled, 2, :] = 0.0

    # Positivity guard: any cell whose traces leave the admissible set is
    # flattened to its mean.
    tr_lo, tr_hi = _traces(c)
    for tr in (tr_lo, tr_hi):
        rho, _, p = _primitives(tr, field.gamma)
        bad = (rho <= 0.0) | (p <= 0.0)
        if np.any(bad):
            c[bad, 1, :] = 0.0
            c[bad, 2, :] = 0.0
    return field.with_coeffs(c)


def cfl_dt(field: DgField, cfl: float) -> float:
    """Time step from the fastest characteristic speed on cell means."""
    if not 0.0 < cfl <= 0.5:
        raise ConfigError(f"cfl must lie in (0, 0.5], got {cfl}")
    rho, u, p = _primitives(field.means, field.gamma)
    if not np.all(np.isfinite(u)):
        raise SchemeError(f"non-finite field at t={field.time:.6g}")
    a = np.sqrt(field.gamma * p / rho)
    return cfl * field.grid.h / float(np.max(np.abs(u) + a))


def _apply_split_source(field: DgField, coeffs: SourceCoefficients, dt: float) -> DgField:
    """Upwind point-source update of the two origin-adjacent cell means."""
    grid = field.grid
    c = field.coeffs.copy()
    left = from_conserved(*c[grid.left_cell, 0, :].tolist(), field.gamma)
    right = from_conserved(*c[grid.right_cell, 0, :].tolist(), field.gamma)
    s = evaluate_source(left, right, coeffs)
    if left.u > 0.0 and right.u > 0.0:
        c[grid.right_cell, 0, :] += dt / grid.h * s
    elif left.u < 0.0 and right.u < 0.0:
        c[grid.left_cell, 0, :] += dt / grid.h * s
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
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    def rhs(c: np.ndarray) -> np.ndarray:
        return dg_rhs(field.with_coeffs(c), coeffs, scheme)

    def post(c: np.ndarray) -> np.ndarray:
        return tvd_limit(field.with_coeffs(c)).coeffs

    out = field.with_coeffs(ssp_rk3_combine(field.coeffs, dt, rhs, post),
                            time=field.time + dt)
    if scheme.kind is SchemeKind.SPLITTING:
        out = _apply_split_source(out, coeffs, dt)
    return out
