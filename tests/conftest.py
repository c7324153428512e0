import math

import numpy as np
import pytest

from deltawave import GasState, SourceCoefficients
from deltawave.classical import solve_classical
from deltawave.errors import VacuumError
from deltawave.stationary import Branch, critical_mach_numbers

GAMMA = 1.4
# Distance from every wave, in cells, that a cell needs to count as constant.
MARGIN_CELLS = 5


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rel_err(a, b, floor=1.0):
    return abs(a - b) / max(abs(b), floor)


def state_rel_err(s1: GasState, s2: GasState) -> float:
    return max(
        abs(s1.rho - s2.rho) / abs(s2.rho),
        abs(s1.u - s2.u) / max(abs(s2.u), 1e-8),
        abs(s1.p - s2.p) / abs(s2.p),
    )


def riemann_batch_arrays(n: int):
    """(k, rho and p, u) arrays of the first ``n`` seed-0 draws of the benchmark's
    ``riemann_batch`` workload: shapes (n, 3), (n, 4) and (n, 2)."""
    rng = np.random.default_rng(0)
    k = rng.uniform(-0.6, 1.5, (n, 3))
    rp = rng.uniform(0.1, 5.0, (n, 4))
    u = rng.uniform(-4.0, 4.0, (n, 2))
    return k, rp, u


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
    otherwise a 1-shock, which moves rightward unless it is stronger than the
    shock at rest. Data that opens a vacuum does not pass. The reference for
    ``structure._type2_wave_clears_origin``, which decides from defect signs.
    """
    g = down.gamma
    try:
        p_star = solve_classical(down, right).p_star
    except VacuumError:
        return False
    if p_star < down.p:
        return True
    m2 = down.mach ** 2
    return (g + 1.0) * p_star <= (2.0 * g * m2 - g + 1.0) * down.p
