"""Batch orchestration: run a test problem, compare against its exact fan, emit CSV."""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .cases import TestCase, get_case
from .dg import DgField, Grid, cfl_dt, field_from_states, make_grid, ssp_rk3_step
from .errors import ConfigError, DeltawaveError
from .fluxes import Scheme
from .gas import GasState, primitives, total_energy
from .stationary import Branch, downstream_state
from .structure import SourceFan, compose_reference_fan, sample_source_primitives

# 5-point Gauss rule on [-1/2, 1/2] for exact-solution cell averages.
_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(5)
_REF_NODES = 0.5 * _REF_NODES
_REF_WEIGHTS = 0.5 * _REF_WEIGHTS
# Distance from every wave, in cells, that a cell needs to count as constant.
_MARGIN_CELLS = 5

SCHEMES = {s.value: s for s in Scheme}


@dataclass
class RunReport:
    test_id: int
    scheme: Scheme
    h: float
    n_cells: int
    t_end: float
    errors: dict = dc_field(default_factory=dict)  # var -> (L1, L2, Linf)
    wb_deviation: float | None = None
    oscillation: float | None = None
    duration: float = 0.0
    out_path: str | None = None
    field: DgField | None = None  # final numerical field

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
    t = field.time
    while t < t_end * (1.0 - 1e-14):
        dt = min(cfl_dt(field, cfl), t_end - t)
        try:
            field = ssp_rk3_step(field, dt, coeffs, scheme)
        except DeltawaveError as exc:
            raise type(exc)(f"{exc} (t={t:.6g}, h={field.grid.h})") from exc
        t = field.time
    return field


def reference_cell_averages(fan: SourceFan, grid: Grid, t: float) -> np.ndarray:
    """Exact-solution conserved cell means by 5-point Gauss quadrature.

    Cells containing a discontinuity pick up an O(h) quadrature defect, which
    is reported rather than hidden.
    """
    t = _positive_time(t)
    g = fan.minus.gamma
    out = np.zeros((grid.n_cells, 3))
    centers = grid.centers
    for node, w in zip(_REF_NODES, _REF_WEIGHTS):
        rho, u, p = sample_source_primitives(fan, (centers + node * grid.h) / t).T
        out += w * np.column_stack([rho, rho * u, total_energy(rho, u, p, g)])
    return out


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
    """Rows (rho, u, p, E) of the exact solution at the points ``xs`` and time ``t``."""
    rho, u, p = sample_source_primitives(fan, np.asarray(xs) / _positive_time(t)).T
    return np.column_stack([rho, u, p, total_energy(rho, u, p, fan.minus.gamma)])


def run_test(test_id: int, scheme: Scheme, h: float, cfl: float = 0.5,
             t_end: float | None = None, domain: tuple[float, float] | None = None,
             out_path: str | None = None) -> RunReport:
    """Run one test problem and compare against its exactly composed solution."""
    case = get_case(test_id)
    t_end = end_time(case, t_end)
    a, b = case.domain if domain is None else domain
    grid = make_grid(a, b, h)
    left, right = initial_states(case)

    start = _time.perf_counter()
    field0 = field_from_states(grid, left, right)
    field = advance(field0, case.coeffs, scheme, t_end, cfl)
    duration = _time.perf_counter() - start

    report = RunReport(test_id, scheme, h, grid.n_cells, t_end, duration=duration, field=field)
    fan = compose_reference_fan(left, right, case.coeffs)
    ref_means = reference_cell_averages(fan, grid, t_end)
    report.errors = error_norms(field.means, ref_means, left.gamma, h)
    if case.equilibrium:
        report.wb_deviation = float(np.max(np.abs(field.means - field0.means)))
    num_rho = field.means[:, 0]
    report.oscillation = total_variation(num_rho) - total_variation(ref_means[:, 0])

    if out_path is not None:
        xs, rows = profile_rows_from_field(field)
        write_profile(out_path, xs, rows)
        report.out_path = str(out_path)
    return report


def convergence_study(test_id: int, scheme: Scheme, h_list: list[float], cfl: float = 0.5,
                      out_dir: str | None = None) -> list[RunReport]:
    """Run a refinement sequence; ``h_list`` must be descending and origin-aligned.

    Every width is checked before the first run. Profiles in ``out_dir`` are
    named by the scheme's command-line name.
    """
    domain = get_case(test_id).domain
    for h in h_list:
        make_grid(*domain, h)
    if not all(h > finer for h, finer in zip(h_list, h_list[1:])):
        raise ConfigError(f"cell widths must strictly decrease, got {h_list}")
    reports = []
    for h in h_list:
        out = None
        if out_dir is not None:
            out = str(Path(out_dir) / f"test{test_id}_{scheme.value}_h{h:g}.csv")
        reports.append(run_test(test_id, scheme, h, cfl=cfl, out_path=out))
    return reports


def constant_region_cells(fan: SourceFan, grid: Grid, t: float) -> np.ndarray:
    """Indices of cells at least five widths away from every wave."""
    spans = [(lo * t, hi * t) for lo, hi in fan.feature_intervals()]
    centers = grid.centers
    margin = _MARGIN_CELLS * grid.h
    keep = np.ones(grid.n_cells, dtype=bool)
    for lo, hi in spans:
        keep &= (centers < lo - margin) | (centers > hi + margin)
    return np.where(keep)[0]


def plateau_representatives(fan: SourceFan, grid: Grid, t: float) -> list[int]:
    """One cell index per constant region of the exact solution.

    Each constant region between consecutive waves is represented by its most
    interior cell, provided the region is wide enough to hold cells at least
    five widths from the bounding waves; narrower regions are not
    resolvable at this grid and are skipped. The representative cell is where
    a converged scheme must show the plateau value, clear of the numerically
    smeared wave footprints on either side.
    """
    spans = [(lo * t, hi * t) for lo, hi in fan.feature_intervals()]
    edges = [grid.a] + [e for span in spans for e in span] + [grid.b]
    margin = _MARGIN_CELLS * grid.h
    centers = grid.centers
    picks: list[int] = []
    for lo, hi in zip(edges[0::2], edges[1::2]):
        inside = np.where((centers > lo + margin) & (centers < hi - margin))[0]
        if len(inside) == 0:
            continue
        depth = np.minimum(centers[inside] - lo, hi - centers[inside])
        picks.append(int(inside[np.argmax(depth)]))
    return picks


def scheme_from_name(name: str) -> Scheme:
    if name not in SCHEMES:
        raise DeltawaveError(f"unknown scheme '{name}'")
    return SCHEMES[name]
