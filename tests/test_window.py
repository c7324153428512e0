"""The step window and the fixed-point rule of ``runner.advance``: bit identity with full-grid steps.

``advance`` steps only the cells that ``dg.step_window`` names, and stops
stepping a field that a step returns bit for bit. The oracle here is the
loop ``advance`` replaced: ``cfl_dt`` plus a full-grid ``ssp_rk3_step`` per
step. Every comparison is on the bytes of the coefficients and on the
time, so a sign of zero that differs fails it.
"""

import math

import numpy as np
import pytest

from deltawave import GasState, SourceCoefficients, to_conserved
from deltawave.cases import get_case
from deltawave.dg import (DgField, Grid, cfl_dt, field_from_states, make_grid, ssp_rk3_step,
                          step_window)
from deltawave.errors import DeltawaveError, SchemeError
from deltawave.fluxes import Scheme
from deltawave.runner import CFL, advance, initial_states

from conftest import GAMMA, coeffs_with_k

SCHEMES = (Scheme.SPLITTING, Scheme.KT, Scheme.SOLVER)
TEST1 = get_case(1)
TEST8_COEFFS = get_case(8).coeffs


def full_grid_advance(field: DgField, coeffs, scheme: Scheme, t_end: float, cfl: float,
                      steps: list | None = None) -> DgField:
    """``advance`` as it was before the window and the fixed-point rule: every step
    computed, on the full grid. The (start time, dt) of each step goes into ``steps``."""
    t = field.time
    while t < t_end * (1.0 - 1e-14):
        dt = min(cfl_dt(field, cfl), t_end - t)
        if steps is not None:
            steps.append((t, dt))
        field = ssp_rk3_step(field, dt, coeffs, scheme)
        t = field.time
    return field


def assert_same_bits(a: DgField, b: DgField) -> None:
    assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert a.time == b.time


def piecewise_field(n: int = 64, h: float = 0.125) -> DgField:
    """A Riemann field of ``n`` cells with the origin at the middle interface."""
    grid = make_grid(-n * h / 2, n * h / 2, h)
    return field_from_states(grid, GasState(1.0, 0.5, 1.0), GasState(0.6, 0.8, 0.9))


def l2_projection(grid: Grid, rho, u: float, p: float) -> DgField:
    """Modal coefficients of (rho(x), u, p) in conserved variables, by 5-point Gauss."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    xi, w = 0.5 * nodes, 0.5 * weights
    x = grid.centers[:, None] + xi * grid.h
    r = rho(x)
    cons = np.stack([r, r * u, p / (GAMMA - 1.0) + 0.5 * r * u * u], axis=-1)  # (n, node, var)
    basis = np.stack([np.ones_like(xi), xi, xi * xi - 1.0 / 12.0])  # (mode, node)
    mass = np.array([1.0, 1.0 / 12.0, 1.0 / 180.0])
    coeffs = np.einsum("mq,q,nqv->nmv", basis, w, cons) / mass[None, :, None]
    return DgField(grid, GAMMA, coeffs)


class TestWindowRule:
    def test_piecewise_constant_field(self):
        field = piecewise_field()
        j0 = field.grid.j0
        assert step_window(field.coeffs, j0) == (j0 - 1 - 4, j0 + 4 + 1)

    def test_negative_zero_high_mode_makes_its_cell_active(self):
        field = piecewise_field()
        n, j0 = field.grid.n_cells, field.grid.j0
        c = field.coeffs.copy()
        c[10, 2, 1] = -0.0
        assert step_window(c, j0) == (10 - 4, j0 + 5)
        c[n - 11, 1, 0] = -0.0
        assert step_window(c, j0) == (10 - 4, n - 11 + 5)

    def test_negative_zero_mean_makes_its_cells_active(self):
        # 0.0 + (-0.0) is 0.0: a zero update would flip the sign of such a mean.
        grid = make_grid(-4.0, 4.0, 0.125)
        field = field_from_states(grid, GasState(1.0, -0.0, 1.0), GasState(0.6, 0.8, 0.9))
        assert math.copysign(1.0, field.coeffs[0, 0, 1]) < 0.0
        assert step_window(field.coeffs, grid.j0) == (0, grid.j0 + 5)

    def test_slope_in_cell_zero_starts_the_window_at_zero(self):
        field = piecewise_field()
        c = field.coeffs.copy()
        c[0, 1, 0] = 1e-3
        assert step_window(c, field.grid.j0)[0] == 0

    def test_interior_mean_jump_makes_its_cells_active(self):
        field = piecewise_field()
        c = field.coeffs.copy()
        c[:20, 0, 0] *= 1.5
        assert step_window(c, field.grid.j0) == (19 - 4, field.grid.j0 + 5)

    def test_equilibrium_keeps_the_ten_cell_window(self):
        case = get_case(1)
        field = field_from_states(make_grid(*case.domain, 0.25), *initial_states(case))
        j0 = field.grid.j0
        assert step_window(field.coeffs, j0) == (j0 - 5, j0 + 5)
        out = advance(field, case.coeffs, Scheme.SOLVER, 1.0, CFL)
        assert step_window(out.coeffs, j0) == (j0 - 5, j0 + 5)


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("test_id", range(1, 9))
    def test_cases_match_full_grid_steps(self, test_id, scheme):
        case = get_case(test_id)
        field = field_from_states(make_grid(*case.domain, 0.25), *initial_states(case))
        assert_same_bits(advance(field, case.coeffs, scheme, case.t_end, CFL),
                         full_grid_advance(field, case.coeffs, scheme, case.t_end, CFL))

    def test_smooth_bump_uses_the_whole_grid(self):
        grid = make_grid(-6.0, 6.0, 0.25)
        field = l2_projection(grid, lambda x: 1.0 + 0.5 * np.exp(-(x + 3.0) ** 2), 1.0, 1.0)
        assert step_window(field.coeffs, grid.j0) == (0, grid.n_cells)
        coeffs = coeffs_with_k(0.0)
        assert_same_bits(advance(field, coeffs, Scheme.SOLVER, 1.0, CFL),
                         full_grid_advance(field, coeffs, Scheme.SOLVER, 1.0, CFL))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_disturbance_at_the_domain_ends(self, scheme):
        field = piecewise_field(48, 0.25)
        c = field.coeffs.copy()
        c[0, 1, :] = [0.02, 0.01, 0.03]  # a slope in the first cell
        c[-2:, 0, :] *= 1.1  # a mean step next to the last cell
        field = field.with_coeffs(c)
        assert_same_bits(advance(field, TEST8_COEFFS, scheme, 1.5, CFL),
                         full_grid_advance(field, TEST8_COEFFS, scheme, 1.5, CFL))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("t_end", (0.1, 0.5))
    def test_negative_zero_momentum(self, scheme, t_end):
        # A full step turns the -0.0 momentum of every cell into 0.0; a few
        # steps show it before the disturbance reaches the domain end.
        grid = make_grid(-4.0, 4.0, 0.125)
        field = field_from_states(grid, GasState(1.0, -0.0, 1.0), GasState(0.6, 0.8, 0.9))
        coeffs = SourceCoefficients(0.1, 0.1, 0.2)
        assert_same_bits(advance(field, coeffs, scheme, t_end, CFL),
                         full_grid_advance(field, coeffs, scheme, t_end, CFL))

    def test_random_fields_one_step(self):
        # Piecewise-constant fields with a few disturbed cells, some -0.0
        # coefficients and some inadmissible slopes: one windowed step must
        # give the full step's bytes, or raise its error with its message.
        rng = np.random.default_rng(15)
        windowed = 0
        for _ in range(300):
            n = int(rng.integers(4, 48))
            j0 = int(rng.integers(1, n))
            c = np.zeros((n, 3, 3))
            edges = [0, *sorted(rng.integers(0, n + 1, int(rng.integers(0, 3))).tolist()), n]
            for a, b in zip(edges, edges[1:]):
                c[a:b, 0] = to_conserved(GasState(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.5),
                                                  rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(0, 3))):
                c[rng.integers(0, n), rng.integers(0, 3)] += rng.normal(0.0, 0.05, 3)
            if rng.random() < 0.2:
                c[rng.integers(0, n), rng.integers(1, 3), rng.integers(0, 3)] = -0.0
            if rng.random() < 0.1:
                c[rng.integers(0, n), 2, 0] = -50.0  # inadmissible at the quadrature nodes
            field = DgField(Grid(-j0 * 0.1, (n - j0) * 0.1, n, 0.1, j0), GAMMA, c)
            scheme = SCHEMES[int(rng.integers(0, 3))]
            dt = cfl_dt(field, CFL)
            lo, hi = step_window(c, j0)
            windowed += hi - lo < n
            outcomes = []
            for step in (lambda f: advance(f, TEST8_COEFFS, scheme, dt, CFL),
                         lambda f: ssp_rk3_step(f, dt, TEST8_COEFFS, scheme)):
                try:
                    out = step(field)
                    outcomes.append((out.coeffs.tobytes(), out.time))
                except DeltawaveError as exc:
                    outcomes.append((type(exc), str(exc).split(" (t=")[0]))
            assert outcomes[0] == outcomes[1]
        assert windowed > 100


class TestFixedPoint:
    """A step that returns its input bit for bit is not taken again: the clock runs on
    while the CFL dt fits, and only the last, shorter step is computed."""

    @staticmethod
    def check(field: DgField, coeffs, scheme: Scheme, t_end: float, advance_steps: list) -> None:
        out = advance(field, coeffs, scheme, t_end, CFL)
        assert_same_bits(out, full_grid_advance(field, coeffs, scheme, t_end, CFL))
        assert 1 <= len(advance_steps) <= 2
        assert not np.shares_memory(out.coeffs, field.coeffs)

    @pytest.mark.parametrize("t_end", (TEST1.t_end, 0.37))  # 0.37 is no multiple of dt
    @pytest.mark.parametrize("scheme", (Scheme.KT, Scheme.KT_NOCORR, Scheme.SOLVER),
                             ids=lambda s: s.value)
    def test_equilibrium(self, scheme, t_end, advance_steps):
        field = field_from_states(make_grid(*TEST1.domain, 0.05), *initial_states(TEST1))
        self.check(field, TEST1.coeffs, scheme, t_end, advance_steps)

    @pytest.mark.parametrize("scheme", tuple(Scheme), ids=lambda s: s.value)
    def test_uniform_state_without_source(self, scheme, advance_steps):
        field = field_from_states(make_grid(-2.0, 2.0, 0.125), *[GasState(1.0, 0.5, 1.0)] * 2)
        self.check(field, SourceCoefficients(0.0, 0.0, 0.0), scheme, 1.0, advance_steps)

    def test_splitting_computes_every_step(self, advance_steps):
        # Splitting moves test 1 (criterion 5), so no step is a fixed point.
        field = field_from_states(make_grid(*TEST1.domain, 0.05), *initial_states(TEST1))
        steps = []
        assert_same_bits(advance(field, TEST1.coeffs, Scheme.SPLITTING, TEST1.t_end, CFL),
                         full_grid_advance(field, TEST1.coeffs, Scheme.SPLITTING, TEST1.t_end,
                                           CFL, steps))
        assert advance_steps == steps and len(steps) == 73


class TestErrorsNameGlobalCells:
    # In the 64-cell field the window of the step starts at cell 16.
    @pytest.mark.parametrize("n, cell", [(32, 10), (64, 21)])
    def test_advance_names_the_cell_of_the_full_grid(self, n, cell):
        field = piecewise_field(n, 0.125)
        c = field.coeffs.copy()
        c[cell, 2, 0] = -50.0  # density negative at the outer quadrature nodes
        with pytest.raises(SchemeError, match=rf"quadrature cells \[{cell}\]"):
            advance(field.with_coeffs(c), TEST8_COEFFS, Scheme.SOLVER, 0.1, CFL)
