"""Batch orchestration: run a test problem, compare against its exact fan, emit CSV."""

from __future__ import annotations

import math
import time as _time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cases import TestCase, get_case
from .classical import gather
from .dg import DgField, Grid, cfl_dt, field_from_states, make_grid, ssp_rk3_step, step_window
from .errors import ConfigError, DeltawaveError, SchemeError
from .fluxes import Scheme
from .gas import GasState, primitives, total_energy
from .stationary import Branch, downstream_state
from .structure import SourceFan, compose_reference_fan, locate_source, sample_source_primitives

# 5-point Gauss rule on [-1/2, 1/2] for exact-solution cell averages.
_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(5)
_REF_NODES = 0.5 * _REF_NODES
_REF_WEIGHTS = 0.5 * _REF_WEIGHTS

SCHEMES = {s.value: s for s in Scheme}
# Default Courant number of every run.
CFL = 0.5


@dataclass(frozen=True, eq=False)
class RunReport:
    """One run of ``run_test``; it holds its final field, so reports compare and hash by identity."""

    test_id: int
    scheme: Scheme
    h: float
    n_cells: int
    t_end: float
    errors: dict  # var -> (L1, L2, Linf)
    wb_deviation: float | None  # None unless the case is an equilibrium
    oscillation: float
    duration: float
    field: DgField  # final numerical field

    def l1(self, var: str) -> float:
        return self.errors[var][0]


def initial_states(case: TestCase) -> tuple[GasState, GasState]:
    """Initial pair for a run; the equilibrium test recomputes its downstream
    state from the stationary curve so the data is a jump-exact steady
    solution rather than its six-digit rounding."""
    if case.equilibrium:
        return case.left, downstream_state(case.left, case.coeffs, Branch.SUBSONIC)
    return case.left, case.right


def end_time(case: TestCase, t_end: float | None) -> float:
    """The run's end time: ``t_end`` if given, else the case's own."""
    return _positive_time(case.t_end if t_end is None else t_end)


def _positive_time(t: float) -> float:
    """``t`` itself, if it is finite and positive."""
    if not 0.0 < t < math.inf:
        raise ConfigError(f"end time must be finite and positive, got {t}")
    return t


def advance(field: DgField, coeffs, scheme: Scheme, t_end: float, cfl: float) -> DgField:
    """``field`` stepped to ``t_end``; its coefficients must be a float64 (n_cells, 3, 3) array.

    An error of a step, from its time step or from a stage, is raised again
    with its class and message, ending in one "(t=..., h=...)": the time the
    step started from and the cell width.

    A step that returns its input coefficients bit for bit is a fixed point:
    a step reads only the coefficients and dt, so every later step of that
    dt returns them again. ``advance`` then moves the clock on with the
    step's own ``t + dt`` while that dt still fits before ``t_end``, and
    computes only the last, shorter step. The returned coefficients are
    those of the last step, never the input's array. Only the cells of the
    step's window are compared, by their bytes, so -0.0 differs from 0.0:
    the cells outside it are copied unchanged.
    """
    t_end = _positive_time(t_end)
    c, shape = field.coeffs, (field.grid.n_cells, 3, 3)
    if not (isinstance(c, np.ndarray) and c.dtype == np.float64 and c.shape == shape):
        raise ConfigError(f"coefficients must be a float64 array of shape {shape}")
    t = field.time
    while t < t_end * (1.0 - 1e-14):
        try:
            dt = min(cfl_dt(field, cfl), t_end - t)
            step, window = _windowed_step(field, dt, coeffs, scheme)
        except DeltawaveError as exc:
            at = f"t={t:.6g}"
            msg = str(exc).removesuffix(f" ({at})")  # a stage error already ends in it
            raise type(exc)(f"{msg} ({at}, h={field.grid.h})") from exc
        c, new, t = field.coeffs, step.coeffs, step.time
        if new[window].tobytes() == c[window].tobytes():
            while t < t_end * (1.0 - 1e-14) and dt <= t_end - t:  # cfl_dt would give dt again
                t += dt
            step = DgField(step.grid, step.gamma, new, t)
        field = step
    return field


def _windowed_step(field: DgField, dt: float, coeffs, scheme: Scheme) -> tuple[DgField, slice]:
    """``ssp_rk3_step`` of ``field``, run on the cells of ``step_window`` only, and those cells.

    The window is widened to whole blocks of 8 cells, so that its stage
    temporaries come in a few sizes that the allocator reuses: a length
    that changes by a cell or two from step to step makes the heap grow
    with the run. A wider window is as exact, as its ends lie further still
    from the cells that change. The cells outside keep their coefficients,
    as the full step leaves them. A window as wide as the grid is the full
    step. A window whose step fails is stepped again on the full grid, so
    that the error names its cells.
    """
    grid, c = field.grid, field.coeffs
    lo, hi = step_window(c, grid.j0)
    lo, hi = lo - lo % 8, min(hi - hi % -8, grid.n_cells)
    if hi - lo < grid.n_cells:
        sub = Grid(grid.a + lo * grid.h, grid.a + hi * grid.h, hi - lo, grid.h, grid.j0 - lo)
        with suppress(SchemeError):  # a failing window is stepped again below
            step = ssp_rk3_step(DgField(sub, field.gamma, c[lo:hi], field.time), dt, coeffs, scheme)
            c = np.vstack((c[:lo], step.coeffs, c[hi:]))
            return DgField(grid, field.gamma, c, step.time), slice(lo, hi)
    return ssp_rk3_step(field, dt, coeffs, scheme), slice(None)


def reference_cell_averages(fan: SourceFan, grid: Grid, t: float) -> np.ndarray:
    """Exact-solution conserved cell means by 5-point Gauss quadrature.

    All nodes of all cells are located in the fan's piece table in one
    ``locate_source`` call, on (node, cell) coordinates. A node in a
    constant piece gathers that piece's conserved row, and only the nodes
    inside a rarefaction compute (rho, rho u, E) from their own (rho, u, p),
    with the expressions the per-node form uses. The weighted sum then runs
    node by node, so each mean rounds as a loop over the nodes would. Cells
    containing a discontinuity pick up an O(h) quadrature defect, which is
    reported rather than hidden.
    """
    t = _positive_time(t)
    xi = (grid.centers + _REF_NODES[:, None] * grid.h) / t
    piece, rows, found = locate_source(fan, xi.reshape(-1))
    g = fan.minus.gamma
    nodes = gather(_conserved(rows, g), piece, [(at, _conserved(r, g)) for at, r in found])
    out = np.zeros((grid.n_cells, 3))
    for w, node_means in zip(_REF_WEIGHTS, nodes.reshape(xi.shape + (3,))):
        out += w * node_means
    return out


def _conserved(rows: np.ndarray, gamma: float) -> np.ndarray:
    """(rho, rho u, E) of (rho, u, p) rows."""
    rho, u, p = rows.T
    return np.column_stack([rho, rho * u, total_energy(rho, u, p, gamma)])


def _primitive_table(means: np.ndarray, gamma: float) -> dict[str, np.ndarray]:
    rho, u, p = primitives(means, gamma)
    return {"rho": rho, "u": u, "p": p, "E": means[:, 2]}


def error_norms(num_means: np.ndarray, ref_means: np.ndarray, gamma: float, h: float) -> dict:
    num = _primitive_table(num_means, gamma)
    ref = _primitive_table(ref_means, gamma)
    out = {}
    for var in ("rho", "u", "p", "E"):
        d = np.abs(num[var] - ref[var])
        out[var] = (h * float(np.sum(d)), float(np.sqrt(h * np.sum(d * d))), float(np.max(d)))
    return out


def total_variation(values: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(values))))


def write_profile(path: str | Path, xs: np.ndarray, rows: np.ndarray) -> None:
    """CSV with columns x,rho,u,p,E; 17 significant digits, LF line endings."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,rho,u,p,E\n")
        for x, row in zip(xs, rows):
            cells = ",".join(f"{v:.17g}" for v in (x, *row))
            fh.write(cells + "\n")


def profile_rows_from_field(field: DgField) -> tuple[np.ndarray, np.ndarray]:
    prim = _primitive_table(field.means, field.gamma)
    rows = np.column_stack([prim["rho"], prim["u"], prim["p"], prim["E"]])
    return field.grid.centers, rows


def profile_rows_from_fan(fan: SourceFan, xs: np.ndarray, t: float) -> np.ndarray:
    """Rows (rho, u, p, E) of the exact solution at the points ``xs`` and time ``t``.

    ``xs`` may have any shape; the rows have shape ``xs.shape + (4,)``.
    """
    rows = sample_source_primitives(fan, np.asarray(xs) / _positive_time(t))
    rho, u, p = np.moveaxis(rows, -1, 0)
    return np.stack([rho, u, p, total_energy(rho, u, p, fan.minus.gamma)], axis=-1)


def run_test(test_id: int, scheme: Scheme, h: float, cfl: float = CFL,
             t_end: float | None = None, domain: tuple[float, float] | None = None) -> RunReport:
    """Run one test problem and compare against its exactly composed solution."""
    case = get_case(test_id)
    t_end = end_time(case, t_end)
    grid = make_grid(*(case.domain if domain is None else domain), h)
    left, right = initial_states(case)

    start = _time.perf_counter()
    field0 = field_from_states(grid, left, right)
    field = advance(field0, case.coeffs, scheme, t_end, cfl)
    duration = _time.perf_counter() - start

    fan = compose_reference_fan(left, right, case.coeffs)
    ref_means = reference_cell_averages(fan, grid, t_end)
    wb = float(np.max(np.abs(field.means - field0.means))) if case.equilibrium else None
    oscillation = total_variation(field.means[:, 0]) - total_variation(ref_means[:, 0])
    return RunReport(test_id, scheme, h, grid.n_cells, t_end,
                     error_norms(field.means, ref_means, left.gamma, h), wb, oscillation,
                     duration, field)


def convergence_study(test_id: int, scheme: Scheme, h_list: list[float],
                      cfl: float = CFL) -> list[RunReport]:
    """Run a refinement sequence; ``h_list`` must be descending and origin-aligned.

    Every width is checked before the first run.
    """
    domain = get_case(test_id).domain
    for h in h_list:
        make_grid(*domain, h)
    if not all(h > finer for h, finer in zip(h_list, h_list[1:])):
        raise ConfigError(f"cell widths must strictly decrease, got {h_list}")
    return [run_test(test_id, scheme, h, cfl=cfl) for h in h_list]


def scheme_from_name(name: str) -> Scheme:
    if name not in SCHEMES:
        raise ConfigError(f"unknown scheme '{name}'")
    return SCHEMES[name]
