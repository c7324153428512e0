"""Third-order discontinuous Galerkin discretization with the origin on an interface.

Cells carry modal coefficients on the scaled Legendre basis 1, xi, xi^2-1/12
over the reference element xi in [-1/2, 1/2], so the zeroth mode is the cell
mean. Volume integrals use 3-point Gauss quadrature in the deviation-from-
mean form, which keeps piecewise-constant equilibrium data bit-exact. A
characteristicwise TVD minmod limiter runs after every Runge-Kutta stage; it
maps to characteristic variables and back through the closed-form
eigenvectors of the Euler flux Jacobian, with no matrix built per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemeError
from .fluxes import Scheme, lax_friedrichs, origin_flux
from .gas import (GasState, SourceCoefficients, euler_flux, evaluate_source, from_conserved,
                  primitives, rightward_frame, signal_speed, to_conserved, value_class)

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
# Cells a step's window reaches past its active cells: 3 stages of radius 1,
# plus one unchanged cell (see ``step_window``).
_REACH = 4


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with a cell interface pinned exactly at x = 0."""

    a: float
    b: float
    n_cells: int
    h: float
    j0: int  # number of cells left of the origin; interface index of x = 0

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) - self.j0 + 0.5) * self.h


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


@value_class(eq=False)
class DgField:
    """Per-cell modal coefficients of the conserved variables.

    ``coeffs`` has shape (n_cells, 3 modes, 3 variables); mode 0 is the cell
    mean of (rho, rho*u, E). A field holds an array, so fields compare and
    hash by identity.
    """

    grid: Grid
    gamma: float
    coeffs: np.ndarray
    time: float = 0.0

    @property
    def means(self) -> np.ndarray:
        return self.coeffs[:, 0, :]

    def with_coeffs(self, coeffs: np.ndarray) -> "DgField":
        return DgField(self.grid, self.gamma, coeffs, self.time)


def field_from_states(grid: Grid, left: GasState, right: GasState) -> DgField:
    """Piecewise-constant field: ``left`` on cells left of the origin, ``right`` beyond."""
    coeffs = np.zeros((grid.n_cells, 3, 3))
    coeffs[: grid.j0, 0, :] = to_conserved(left)
    coeffs[grid.j0 :, 0, :] = to_conserved(right)
    return DgField(grid, left.gamma, coeffs)


def _check_admissible(stacks, time: float | None = None) -> None:
    """Abort, naming the places, on a state that is not finite or has rho <= 0 or p <= 0.

    ``stacks`` holds (name, states, rho, p) tuples, the states component-first
    with shape (..., 3, n) and rho and p with shape (..., n): the states on
    each side of every interface, (2, 3, n_cells + 1), the states at the
    quadrature nodes, (3, 3, n_cells), or the cell means, (3, n_cells). Place
    j of a part fails when any of its states does. Its callers, the stage
    stack of ``dg_rhs``, the limiter and ``cfl_dt``, test their states with
    a few reductions and call this only when that test fails. "(t=...)" is
    appended only when a ``time`` is given.
    """
    where = []
    for name, u, rho, p in stacks:
        ok = np.atleast_2d((rho > 0.0) & (p > 0.0) & np.isfinite(u).all(axis=-2)).all(axis=0)
        if not ok.all():
            where.append(f"{name} {np.flatnonzero(~ok)[:5]}")
    if where:
        at = "" if time is None else f" (t={time:.6g})"
        raise SchemeError(f"inadmissible state at {', '.join(where)}{at}")


def _component_major(coeffs: np.ndarray) -> np.ndarray:
    """(mode, variable, cell) copy of (cell, mode, variable) coefficients.

    The stage kernels work on this layout, where every row is a contiguous
    run over the cells; ``gas.primitives`` takes its swapped-axes views.
    """
    return np.ascontiguousarray(coeffs.transpose(1, 2, 0))


def _traces(c: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Each cell's traces: (c0 - c1/2) + c2/6 into ``left``, (c0 + c1/2) + c2/6 into ``right``.

    ``c`` holds (mode, variable, cell) coefficients and the outputs are
    (variable, cell) views. The stage stack and the limiter's positivity
    guard both build their traces here, so a field the guard passes gives
    the next stage the traces it tested, bit for bit.
    """
    half = np.multiply(c[1], 0.5, out=right)
    sixth = np.divide(c[2], 6.0, out=left)
    lo = np.subtract(c[0], half)
    half += c[0]
    half += sixth
    sixth += lo


def _stage_fluxes(field: DgField) -> tuple[np.ndarray, np.ndarray, list]:
    """Euler fluxes of every state of a stage, LLF fluxes of every interface, and the origin traces.

    Every state of a stage sits in one (6, 3, n_cells + 1) stack: rows 0-1
    hold both sides of every interface, rows 2-4 the three quadrature nodes
    and row 5 the cell means. Column n_cells of rows 2-5 pads them with the
    last mean, which is the right ghost ``stack[1, :, n_cells]``, so the pad
    never adds a failure. Primitives, Euler fluxes and the admissibility test
    then take one pass each over the stack. ``gas.euler_flux`` and
    ``fluxes.lax_friedrichs`` are plain expressions, applied here to the
    stack's component rows as the origin fluxes apply them to floats.

    Returns the Euler fluxes of the stack, (6, 3, n_cells + 1), the LLF flux
    of every interface, (3, n_cells + 1), and the conserved states either
    side of the origin, as lists. The stack and its primitives are freed on
    return, before the volume terms make their temporaries.
    """
    g, n = field.gamma, field.grid.n_cells
    c = _component_major(field.coeffs)
    means = c[0]
    stack = np.empty((6, 3, n + 1))
    stack[5, :, :n] = means

    # States left and right of every interface, with transmissive
    # (zero-order extrapolated) ghosts: cell j's traces are the right side of
    # interface j and the left side of interface j + 1. The right ghost and
    # the pad are one copy of the last mean.
    stack[0, :, 0] = means[:, 0]
    stack[1:, :, n] = means[:, -1]
    _traces(c, stack[1, :, :-1], stack[0, :, 1:])
    # The states at the three quadrature nodes, (node, variable, cell). The
    # middle node is at 0, so only the outer two take the slope: an infinite
    # slope times 0 would be NaN, with a RuntimeWarning, before the test below.
    uq = stack[2:5, :, :n]
    outer = np.multiply(c[1], _QNODES[::2, None, None], out=uq[::2])
    outer += means
    uq[1] = means
    uq += np.multiply(c[2], _QMODE2[:, None, None])

    rho, vel, p = primitives(stack.swapaxes(-2, -1), g)
    # The minimum of an array holding a NaN is NaN, which fails too.
    if not (np.isfinite(stack[:5]).all() and rho[:5].min() > 0.0 and p[:5].min() > 0.0):
        _check_admissible((("interfaces", stack[:2], rho[:2], p[:2]),
                           ("quadrature cells", uq, rho[2:5, :n], p[2:5, :n])), field.time)
    flux = np.empty_like(stack)
    flux[:, 0], flux[:, 1], flux[:, 2] = euler_flux(stack[:, 1], stack[:, 2], vel, p)
    speed = signal_speed(rho[:2], vel[:2], p[:2], g)
    fhat = lax_friedrichs(stack[0], stack[1], flux[0], flux[1], np.maximum(speed[0], speed[1]))
    return flux, fhat, stack[:2, :, field.grid.j0].tolist()


def dg_rhs(field: DgField, coeffs: SourceCoefficients, scheme: Scheme) -> np.ndarray:
    """Time derivative of the modal coefficients under the given scheme.

    The splitting scheme treats the origin like any interior interface; the
    unsplit schemes replace the origin flux by the scheme's two-sided pair,
    so the cells adjacent to the origin see different fluxes there.
    """
    g, h, n, j0 = field.gamma, field.grid.h, field.grid.n_cells, field.grid.j0
    flux, fhat, (left, right) = _stage_fluxes(field)

    # The flux each cell sees on its left and on its right; at the origin the
    # two adjacent cells see the scheme's one-sided pair, patched into one
    # copy of the right-hand fluxes and into the interface fluxes themselves.
    flux_l, flux_r = fhat[:, :-1], fhat[:, 1:]
    if scheme is not Scheme.SPLITTING:
        pair = origin_flux(from_conserved(*left, g), from_conserved(*right, g), coeffs, scheme)
        flux_r = flux_r.copy()
        flux_r[:, j0 - 1], fhat[:, j0] = pair.minus, pair.plus
    jump, total = flux_r - flux_l, flux_r + flux_l

    # Volume terms in deviation form: exact for piecewise-constant data.
    # The weighted node sums start from +0.0, which fixes the sign of a zero.
    fbar = flux[5, :, :n]
    devs = np.subtract(flux[2:5, :, :n], fbar)
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


def _characteristic(x: np.ndarray, u, a, u2, b1) -> np.ndarray:
    """Characteristic variables of a (3, k, n) stack of conserved vectors, k per cell.

    The left eigenvectors of the Euler flux Jacobian at each cell's mean, in
    closed form (Toro, Riemann Solvers and Numerical Methods for Fluid
    Dynamics, section 3.1): with s = b1 ((u^2/2) x0 - u x1 + x2) and
    t = (u x0 - x1) / a, the variables are ((s + t) / 2, x0 - s, (s - t) / 2).
    ``u``, ``a``, ``u2`` = u^2/2 and ``b1`` = (gamma - 1) / a^2 are per cell,
    (n,). Every sum is mirror-symmetric term by term: under u -> -u and
    x1 -> -x1, s keeps its bits and t changes sign exactly, so the first and
    last variables swap bit for bit. A zero stack gives +0.0.
    """
    x0, x1, x2 = x
    s = np.multiply(u2, x0)
    t = np.multiply(u, x1)
    s -= t
    s += x2
    s *= b1
    np.multiply(u, x0, out=t)
    t -= x1
    t /= a
    ch = np.empty_like(x)
    np.subtract(x0, s, out=ch[1])
    np.multiply(np.add(s, t, out=ch[0]), 0.5, out=ch[0])
    np.multiply(np.subtract(s, t, out=ch[2]), 0.5, out=ch[2])
    return ch


def _conserved(m: np.ndarray, u, a, u2, h_tot) -> np.ndarray:
    """The conserved vector m0 r0 + m1 r1 + m2 r2 of (3, n) characteristic variables.

    The right eigenvectors (1, u - a, H - u a), (1, u, u^2/2) and
    (1, u + a, H + u a) in closed form: with S = (m0 + m2) + m1 and
    d = m2 - m0, the vector is (S, u S + a d, (H (m0 + m2) + (u^2/2) m1) +
    u (a d)), where H = (E + p) / rho is ``h_tot``. Under u -> -u with m0
    and m2 swapped, d and the momentum change sign and the rest keeps its
    bits. A zero stack gives +0.0.
    """
    m0, m1, m2 = m
    out = np.empty_like(m)
    outer = np.add(m0, m2)
    np.add(outer, m1, out=out[0])
    ad = np.subtract(m2, m0)
    ad *= a
    np.multiply(u, out[0], out=out[1])
    out[1] += ad
    outer *= h_tot
    outer += np.multiply(u2, m1)
    ad *= u
    np.add(outer, ad, out=out[2])
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
    rho, u, p = primitives(means.T, g)
    # A NaN extremum fails too; an infinite density or energy fails the maximum.
    if not (rho.min() > 0.0 and p.min() > 0.0 and means.max() < math.inf):
        _check_admissible((("cells", means, rho, p),))
    a2 = g * p / rho
    a = np.sqrt(a2)
    u2 = 0.5 * u * u

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
    ch = _characteristic(x, u, a, u2, (g - 1.0) / a2)
    mod = _minmod3(ch[:, :3], ch[:, 3:4], ch[:, 4:])

    troubled = (mod[:, :2] != ch[:, :2]).any(axis=(0, 1))
    slope = _conserved(mod[:, 2], u, a, u2, (means[2] + p) / rho)
    np.copyto(c[1], slope, where=troubled)
    np.copyto(c[2], 0.0, where=troubled)

    # Positivity guard: any cell whose traces leave the admissible set is
    # flattened to its mean.
    tr = np.empty((2, 3, n))
    _traces(c, tr[0], tr[1])
    rho, _, p = primitives(tr.swapaxes(-2, -1), g)
    bad = ((rho <= 0.0) | (p <= 0.0)).any(axis=0)
    np.copyto(c[1:], 0.0, where=bad)
    return DgField(field.grid, g, np.ascontiguousarray(c.transpose(2, 0, 1)), field.time)


def cfl_dt(field: DgField, cfl: float) -> float:
    """Time step from the fastest characteristic speed on cell means."""
    if not 0.0 < cfl <= 0.5:
        raise ConfigError(f"cfl must lie in (0, 0.5], got {cfl}")
    means, speed = field.means, math.inf
    # The density is tested first, as a zero one would divide the momentum by
    # zero. An infinite density gives u = 0 and a sound speed of 0, and an
    # infinite energy p = inf: the first fails the maximum, the second the
    # speed test.
    if 0.0 < means[:, 0].min() and means[:, 0].max() < math.inf:
        rho, u, p = primitives(means, field.gamma)
        if np.isfinite(u).all() and p.min() > 0.0:
            speed = float(signal_speed(rho, u, p, field.gamma).max())
    if not speed < math.inf:
        with np.errstate(all="ignore"):
            rho, _, p = primitives(means, field.gamma)
        _check_admissible((("cells", means.T, rho, p),), field.time)
    return cfl * field.grid.h / speed


def _apply_split_source(field: DgField, coeffs: SourceCoefficients, dt: float) -> DgField:
    """Upwind point-source update of the means of cells j0 - 1 and j0, either side of the origin."""
    grid, j0 = field.grid, field.grid.j0
    c = field.coeffs.copy()
    left = from_conserved(*c[j0 - 1, 0, :].tolist(), field.gamma)
    right = from_conserved(*c[j0, 0, :].tolist(), field.gamma)
    frame = rightward_frame(left, right)
    if frame is not None:
        downstream = j0 - 1 if frame[2] else j0
        c[downstream, 0, :] += dt / grid.h * evaluate_source(left, right, coeffs)
    return field.with_coeffs(c)


def step_window(coeffs: np.ndarray, j0: int) -> tuple[int, int]:
    """The cells [lo, hi) that one ``ssp_rk3_step`` can change, plus one unchanged cell each side.

    A cell is quiet when its modes 1 and 2 are +0.0 and no mean is -0.0, bit
    for bit: right-hand sides of exact zeros then leave it unchanged through
    every stage (0.0 + m is m for any m but -0.0). A cell is active unless it
    is quiet and its mean equals both neighbours' bit for bit; cells j0 - 1
    and j0, which see the origin flux and the split source, always are.

    A quiet cell between quiet neighbours of its own mean gets a right-hand
    side of exact zeros and is not limited, so a stage changes only cells
    within one cell of a cell that differs from the step's start: after
    three stages, none more than 3 cells from an active cell has changed.
    The hull of the active cells widened by 4 therefore ends in cells that
    stay unchanged through all three stages, and on it the transmissive
    ghost equals the true neighbour and the limiter's zero end difference
    the true difference. A step on the window gives its cells, bit for
    bit, what the full step gives them; the full step leaves the rest as
    they are.
    """
    n = len(coeffs)
    rows = coeffs.reshape(n, 9).view(np.int64)  # bit patterns, so -0.0 != 0.0
    changes = (rows[1:] != rows[:-1]).ravel()  # each row against the one before it

    def quiet_run(r: np.ndarray, changes: np.ndarray) -> int:
        """Number of inactive cells before the first active one of ``r``."""
        head = r[0].tolist()
        if any(head[3:]) or -(2 ** 63) in head[:3]:  # the bits of -0.0
            return 0
        first = int(changes.argmax())  # the first coefficient that differs from the row before
        k = first // 9 + 1 if changes[first] else n  # the first row unlike r[0], or n
        return k - 1 if k < n and r[k, :3].tolist() != head[:3] else k

    return (max(min(quiet_run(rows, changes), j0 - 1) - _REACH, 0),
            n - max(min(quiet_run(rows[::-1], changes[::-1]), n - 1 - j0) - _REACH, 0))


def ssp_rk3_combine(y0: np.ndarray, dt: float, rhs, post) -> np.ndarray:
    """Three-stage strong-stability-preserving Runge-Kutta combination.

    The convex combinations are written in increment form so that a zero
    right-hand side reproduces ``y0`` bit-exactly. ``post`` (e.g. a limiter)
    is applied to every stage value. Each stage writes only into arrays it
    made itself: ``rhs`` and ``post`` may return their own argument.
    """
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
