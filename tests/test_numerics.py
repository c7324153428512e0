import math
import warnings

import numpy as np
import pytest

from deltawave import (
    GasState,
    SourceCoefficients,
    UnavailableFluxError,
    downstream_state,
    evaluate_source,
    kt_flux,
    llf_flux,
    physical_flux,
    solver_flux,
    to_conserved,
)
from deltawave.dg import (
    DgField,
    cfl_dt,
    dg_rhs,
    field_from_states,
    make_grid,
    ssp_rk3_combine,
    ssp_rk3_step,
    tvd_limit,
    _eig_matrices,
)
from deltawave.errors import ConfigError, SchemeError
from deltawave.fluxes import Scheme
from deltawave.stationary import Branch

from conftest import GAMMA, coeffs_with_k, random_state

SOLVER = Scheme.SOLVER
KT = Scheme.KT
KT_RAW = Scheme.KT_NOCORR
SPLIT = Scheme.SPLITTING

TEST1_COEFFS = SourceCoefficients(0.4, 0.2, 0.4)
TEST1_LEFT = GasState(0.6, 0.5, 0.6)


def exact_pair():
    left = TEST1_LEFT
    return left, downstream_state(left, TEST1_COEFFS, Branch.SUBSONIC)


class TestLlf:
    def test_consistency(self):
        s = GasState(0.7, 0.3, 1.2)
        assert np.array_equal(llf_flux(s, s), physical_flux(s))

    def test_dissipation_sign(self):
        a = GasState(1.0, 0.0, 1.0)
        b = GasState(2.0, 0.0, 1.0)
        f = llf_flux(a, b)
        center = 0.5 * (physical_flux(a) + physical_flux(b))
        diff = f - center
        # dissipation opposes the state jump
        assert diff[0] < 0.0  # rho_b > rho_a

    def test_supersonic_upwind_bound(self):
        a = GasState(1.0, 3.0, 1.0)
        b = GasState(1.1, 3.1, 1.1)
        f = llf_flux(a, b)
        alpha = abs(b.u) + b.sound_speed
        bound = alpha * np.abs(to_conserved(b) - to_conserved(a))
        assert np.all(np.abs(f - physical_flux(a)) <= bound)


class TestKtFlux:
    def test_equilibrium_consistency(self):
        left, right = exact_pair()
        pair = kt_flux(left, right, TEST1_COEFFS)
        assert np.allclose(pair.minus, physical_flux(left), rtol=1e-12, atol=1e-14)
        assert np.allclose(pair.plus, physical_flux(right), rtol=1e-12, atol=1e-14)

    def test_unavailable_without_corrections(self):
        # strongly amplifying source (no supersonic branch) with a supersonic
        # left trace and subsonic right trace
        coeffs = SourceCoefficients(0.1, -0.2, 0.2)
        left = GasState(1.0, 2.0 * math.sqrt(GAMMA), 1.0)
        right = GasState(1.0, 0.5 * math.sqrt(GAMMA), 1.0)
        with pytest.raises(UnavailableFluxError):
            kt_flux(left, right, coeffs, corrections=False)
        pair = kt_flux(left, right, coeffs, corrections=True)
        assert np.all(np.isfinite(pair.minus)) and np.all(np.isfinite(pair.plus))

    def test_solvable_subsonic_pair(self):
        left = GasState(1.0, 0.3, 1.0)
        right = GasState(1.1, 0.35, 1.05)
        pair = kt_flux(left, right, TEST1_COEFFS, corrections=False)
        assert np.all(np.isfinite(pair.minus))


class TestSolverFlux:
    def test_equilibrium_values(self):
        left, right = exact_pair()
        pair = solver_flux(left, right, TEST1_COEFFS)
        assert np.allclose(pair.minus, [0.3, 0.75, 1.0875], atol=5e-5)
        assert np.allclose(pair.plus, [0.42, 0.90, 1.5225], atol=5e-5)
        assert np.allclose(pair.minus, physical_flux(left), atol=1e-13)
        assert np.allclose(pair.plus, physical_flux(right), atol=1e-13)

    def test_opposed_flow_single_flux(self):
        pair = solver_flux(GasState(1, 1, 1), GasState(1, -1, 1), TEST1_COEFFS)
        assert np.array_equal(pair.minus, pair.plus)

    def test_flux_difference_matches_source(self):
        s = GasState(1.0, 0.8, 1.0)
        pair = solver_flux(s, s, TEST1_COEFFS)
        out_minus = pair.minus
        diff = pair.plus - pair.minus
        # the one-sided states form a stationary pair, so the difference is
        # exactly the coefficient-scaled upstream flux
        assert np.allclose(diff, TEST1_COEFFS.diag * out_minus, rtol=1e-9, atol=1e-12)


class TestGrid:
    def test_origin_on_interface(self):
        g = make_grid(-10.0, 10.0, 0.05)
        assert g.n_cells == 400 and g.j0 == 200
        assert g.interfaces[g.j0] == 0.0
        assert np.all(np.diff(g.interfaces) > 0)

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigError):
            make_grid(-10.0, 10.0, 0.3)
        with pytest.raises(ConfigError):
            make_grid(1.0, 2.0, 0.1)

    def test_asymmetric_domain(self):
        g = make_grid(-1.0, 3.0, 0.25)
        assert g.j0 == 4 and g.n_cells == 16
        assert g.interfaces[4] == 0.0


class TestDgRhs:
    def test_free_stream_zero_source(self):
        g = make_grid(-2.0, 2.0, 0.25)
        c = SourceCoefficients(0.0, 0.0, 0.0)
        s = GasState(1.3, 0.7, 2.0)
        field = field_from_states(g, s, s)
        for scheme in (SOLVER, KT, SPLIT):
            rhs = dg_rhs(field, c, scheme)
            assert np.all(rhs == 0.0)

    def test_equilibrium_zero_rhs_solver(self):
        g = make_grid(-2.0, 2.0, 0.25)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        rhs = dg_rhs(field, TEST1_COEFFS, SOLVER)
        assert np.all(rhs == 0.0)

    def test_equilibrium_rhs_kt_tiny(self):
        g = make_grid(-2.0, 2.0, 0.25)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        rhs = dg_rhs(field, TEST1_COEFFS, KT)
        assert float(np.max(np.abs(rhs))) <= 1e-12

    def test_equilibrium_rhs_splitting_nonzero(self):
        g = make_grid(-2.0, 2.0, 0.25)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        rhs = dg_rhs(field, TEST1_COEFFS, SPLIT)
        # the convection step alone tears the stationary jump apart
        assert float(np.max(np.abs(rhs[g.left_cell : g.right_cell + 1]))) > 1e-3

    def test_conservation_telescoping(self, rng):
        g = make_grid(-2.0, 2.0, 0.125)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        c = field.coeffs.copy()
        c[:, 1, :] += rng.uniform(-0.01, 0.01, size=c[:, 1, :].shape)
        c[:, 2, :] += rng.uniform(-0.003, 0.003, size=c[:, 2, :].shape)
        field = field.with_coeffs(c)
        rhs = dg_rhs(field, TEST1_COEFFS, SOLVER)
        total = g.h * np.sum(rhs[:, 0, :], axis=0)

        from deltawave.dg import _traces
        from deltawave.fluxes import lax_friedrichs, origin_flux
        from deltawave.gas import from_conserved, primitives

        tr_lo, tr_hi = _traces(c.transpose(1, 0, 2))
        means = c[:, 0, :]
        u_left = np.vstack([means[:1], tr_hi])
        u_right = np.vstack([tr_lo, means[-1:]])
        fhat = lax_friedrichs(u_left, u_right, primitives(u_left, GAMMA),
                              primitives(u_right, GAMMA), GAMMA)
        pair = origin_flux(from_conserved(*u_left[g.j0], GAMMA),
                           from_conserved(*u_right[g.j0], GAMMA), TEST1_COEFFS, SOLVER)
        expected = -(fhat[-1] - fhat[0] + pair.minus - pair.plus)
        assert np.allclose(total, expected, atol=1e-13)

    @pytest.mark.parametrize("c2, where", [
        (-30.0, r"interfaces \[5 6\], quadrature cells \[5\]"),  # negative at edges and outer nodes
        (30.0, r"at quadrature cells \[5\]"),  # negative at the centre node only
    ])
    def test_inadmissible_state_names_its_place(self, c2, where):
        g = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        c = field.coeffs.copy()
        c[5, 2, 0] = c2
        with pytest.raises(SchemeError, match=where):
            dg_rhs(field.with_coeffs(c), TEST1_COEFFS, SOLVER)


class TestLimiter:
    def test_constant_field_unchanged(self):
        g = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        out = tvd_limit(field)
        assert np.array_equal(out.coeffs, field.coeffs)

    def test_non_positive_mean_pressure_raises_typed(self):
        g = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        c = field.coeffs.copy()
        c[3, 0, 2] = 0.01  # energy below the kinetic energy: p < 0
        c[2, 1, 0] = 0.1  # a slope for the limiter to look at
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail the test
            with pytest.raises(SchemeError, match=r"cells \[3\]"):
                tvd_limit(field.with_coeffs(c))

    def test_smooth_gentle_slopes_kept(self):
        g = make_grid(-1.0, 1.0, 0.125)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        c = field.coeffs.copy()
        xs = g.centers
        # gentle monotone profile: mean variation dominates interface deviation
        c[:, 0, 0] += 0.1 * xs
        c[:, 1, 0] = 0.1 * g.h * 0.3
        field = field.with_coeffs(c)
        out = tvd_limit(field)
        interior = slice(2, -2)
        assert np.allclose(out.coeffs[interior, 1, 0], c[interior, 1, 0], atol=0)

    def test_extremum_flattened(self):
        g = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        c = field.coeffs.copy()
        mid = g.n_cells // 2
        c[mid, 0, 0] += 0.5   # isolated extremum in the means
        c[mid, 1, 0] = 0.2    # with a large internal slope
        c[mid, 2, 0] = 0.05
        field = field.with_coeffs(c)
        out = tvd_limit(field)
        assert out.coeffs[mid, 2, 0] == 0.0
        assert abs(out.coeffs[mid, 1, 0]) <= 1e-14
        # means untouched
        assert np.array_equal(out.coeffs[:, 0, :], c[:, 0, :])

    def test_total_variation_of_means_preserved(self):
        g = make_grid(-1.0, 1.0, 0.125)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(0.3, 0.5, 0.4))
        out = tvd_limit(field)
        tv_before = np.sum(np.abs(np.diff(field.means[:, 0])))
        tv_after = np.sum(np.abs(np.diff(out.means[:, 0])))
        assert tv_after <= tv_before + 1e-15

    def test_positivity_guard(self):
        g = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        c = field.coeffs.copy()
        c[3, 1, 0] = 5.0  # slope so large the trace density would go negative
        out = tvd_limit(field.with_coeffs(c))
        from deltawave.dg import _traces

        lo, hi = _traces(out.coeffs.transpose(1, 0, 2))
        assert np.all(lo[:, 0] > 0) and np.all(hi[:, 0] > 0)

    def test_eigenvector_matrices_invert(self, rng):
        states = np.array([to_conserved(random_state(rng, u_range=(-2, 2))) for _ in range(50)])
        left, right = (m.transpose(2, 0, 1) for m in _eig_matrices(states.T, GAMMA))
        prod = np.einsum("nij,njk->nik", left, right)
        assert np.allclose(prod, np.eye(3)[None, :, :], atol=1e-12)


class TestTimeStepping:
    def test_zero_rhs_is_identity(self):
        y0 = np.array([1.0, -2.0, 3.0])
        out = ssp_rk3_combine(y0, 0.1, lambda y: np.zeros_like(y))
        assert np.array_equal(out, y0)

    def test_third_order_on_decay_ode(self):
        # local error of one step on y' = -y scales like dt^4
        def err(dt):
            y = ssp_rk3_combine(np.array([1.0]), dt, lambda y: -y)
            return abs(y[0] - math.exp(-dt))

        e1, e2 = err(0.1), err(0.05)
        ratio = e1 / e2
        assert 12.0 < ratio < 20.0

    def test_equilibrium_field_fixed_point(self):
        g = make_grid(-2.0, 2.0, 0.25)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        out = field
        for _ in range(3):
            out = ssp_rk3_step(out, 0.05, TEST1_COEFFS, SOLVER)
        assert np.array_equal(out.coeffs, field.coeffs)
        assert out.time == pytest.approx(0.15)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.01])
    def test_rejects_non_finite_or_non_positive_dt(self, dt):
        g = make_grid(-2.0, 2.0, 0.25)
        field = field_from_states(g, *exact_pair())
        with pytest.raises(ConfigError, match="dt must be finite and positive"):
            ssp_rk3_step(field, dt, TEST1_COEFFS, SOLVER)

    def test_stage_calls_module_kernels(self, monkeypatch):
        # The benchmark's traced dg.rhs and dg.limit layers wrap these two
        # module-level functions: one step must call each once per stage.
        import deltawave.dg as dg

        seen = {"dg_rhs": [], "tvd_limit": []}
        for name, calls in seen.items():
            def wrapper(field, *args, _fn=getattr(dg, name), _calls=calls):
                _calls.append(field)
                return _fn(field, *args)
            monkeypatch.setattr(dg, name, wrapper)
        g = make_grid(-2.0, 2.0, 0.25)
        field = field_from_states(g, GasState(1.0, 1.0, 1.0), GasState(0.9, 0.4, 1.3))
        ssp_rk3_step(field, 0.02, TEST1_COEFFS, SOLVER)
        for calls in seen.values():
            assert len(calls) == 3
            for f in calls:
                assert isinstance(f, DgField)
                assert f.coeffs.shape == (g.n_cells, 3, 3) and f.coeffs.flags.c_contiguous

    def test_splitting_step_moves_downstream_cell(self):
        g = make_grid(-2.0, 2.0, 0.25)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        out = ssp_rk3_step(field, 0.01, TEST1_COEFFS, SPLIT)
        dev = np.abs(out.means - field.means)
        assert dev[g.right_cell].max() > 1e-4

    def test_split_source_uses_upwind_cell(self):
        g = make_grid(-2.0, 2.0, 0.25)
        left, right = exact_pair()
        field = field_from_states(g, left, right)
        from deltawave.dg import _apply_split_source

        out = _apply_split_source(field, TEST1_COEFFS, 0.01)
        expected = field.means[g.right_cell] + 0.01 / g.h * evaluate_source(
            left, right, TEST1_COEFFS
        )
        assert np.allclose(out.means[g.right_cell], expected, rtol=1e-14)
        assert np.array_equal(out.means[g.left_cell], field.means[g.left_cell])


def _parent_rk3(y0, dt, rhs, post):
    """The three stages as first written, one new array per operation."""
    y1 = post(y0 + dt * rhs(y0))
    y2 = post(y0 + 0.25 * ((y1 - y0) + dt * rhs(y1)))
    return post(y0 + (2.0 / 3.0) * ((y2 - y0) + dt * rhs(y2)))


class TestStageInputs:
    """The stage kernels never write into their inputs or into what their callbacks return."""

    @pytest.mark.parametrize("post", [None, lambda y: y], ids=["no-post", "identity-post"])
    def test_combine_with_identity_rhs_keeps_y0(self, post):
        y0 = np.array([1.0, -2.0, 3.5, 0.0])
        kept = y0.copy()
        out = ssp_rk3_combine(y0, 0.1, lambda y: y, post)
        assert np.array_equal(y0, kept)
        want = _parent_rk3(kept.copy(), 0.1, lambda y: y, post or (lambda y: y))
        assert out.tobytes() == want.tobytes()

    def _field(self):
        g = make_grid(-2.0, 2.0, 0.25)
        field = field_from_states(g, GasState(1.0, 1.0, 1.0), GasState(0.5, 0.4, 0.6))
        c = field.coeffs.copy()
        c[:, 1, :] = 0.05 * c[:, 0, :] * np.sin(np.arange(g.n_cells))[:, None]
        c[:, 2, :] = 0.02 * c[:, 0, :] * np.cos(np.arange(g.n_cells))[:, None]
        return field.with_coeffs(c)

    @pytest.mark.parametrize("kernel", ["dg_rhs", "tvd_limit", "ssp_rk3_step"])
    def test_kernels_leave_the_field_unchanged(self, kernel):
        field = self._field()
        before = field.coeffs.tobytes()
        call = {"dg_rhs": lambda f: dg_rhs(f, TEST1_COEFFS, SOLVER),
                "tvd_limit": tvd_limit,
                "ssp_rk3_step": lambda f: ssp_rk3_step(f, 0.01, TEST1_COEFFS, SOLVER)}[kernel]
        call(field)
        assert field.coeffs.tobytes() == before

    def test_successive_rhs_results_share_no_memory(self):
        field = self._field()
        first = dg_rhs(field, TEST1_COEFFS, SOLVER)
        second = dg_rhs(field, TEST1_COEFFS, SOLVER)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)


class TestCfl:
    def test_rest_state_value(self):
        g = make_grid(-1.0, 1.0, 0.05)
        field = field_from_states(g, GasState(1, 0, 1), GasState(1, 0, 1))
        assert abs(cfl_dt(field, 0.5) - 0.021128856368212916) < 1e-15

    def test_linear_in_h(self):
        g1 = make_grid(-1.0, 1.0, 0.1)
        g2 = make_grid(-1.0, 1.0, 0.05)
        f1 = field_from_states(g1, GasState(1, 0, 1), GasState(1, 0, 1))
        f2 = field_from_states(g2, GasState(1, 0, 1), GasState(1, 0, 1))
        assert abs(cfl_dt(f1, 0.5) / cfl_dt(f2, 0.5) - 2.0) < 1e-12

    def test_governed_by_fastest_state(self):
        g = make_grid(-1.0, 1.0, 0.05)
        fast = GasState(0.378535, 2.07562, 0.46455)
        field = field_from_states(g, GasState(1, 1, 1), fast)
        expect = 0.5 * 0.05 / (fast.u + fast.sound_speed)
        assert abs(cfl_dt(field, 0.5) - expect) < 1e-15

    def test_rejects_bad_cfl(self):
        g = make_grid(-1.0, 1.0, 0.05)
        field = field_from_states(g, GasState(1, 0, 1), GasState(1, 0, 1))
        with pytest.raises(ValueError):
            cfl_dt(field, 0.6)


    def test_non_positive_mean_pressure_names_cells(self):
        g = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(g, GasState(1, 0.5, 1), GasState(1, 0.5, 1))
        c = field.coeffs.copy()
        c[3, 0, 2] = 0.01  # energy below the kinetic energy: p < 0
        with pytest.raises(SchemeError, match=r"cells \[3\]"):
            cfl_dt(field.with_coeffs(c), 0.5)


class TestFreeStreamMultiStep:
    def test_all_schemes_preserve_constant_state(self):
        g = make_grid(-2.0, 2.0, 0.25)
        c = SourceCoefficients(0.0, 0.0, 0.0)
        s = GasState(1.3, 0.7, 2.0)
        for scheme in (SOLVER, KT, SPLIT):
            field = field_from_states(g, s, s)
            ref = field.coeffs.copy()
            for _ in range(5):
                field = ssp_rk3_step(field, cfl_dt(field, 0.5), c, scheme)
            assert np.array_equal(field.coeffs, ref)


MIRROR = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])  # (mode, variable)


def _mirrored(c: np.ndarray) -> np.ndarray:
    """Coefficients of the x -> -x, u -> -u reflected field on a symmetric grid.

    Cells reverse; the momentum and the odd mode 1 change sign.
    """
    return c[::-1] * MIRROR


class TestDgMirror:
    """The DG operator commutes with reflection on a grid symmetric about the origin."""

    @pytest.mark.parametrize("scheme", [SPLIT, KT, SOLVER], ids=["splitting", "kt", "solver"])
    @pytest.mark.parametrize("tid", [2, 6, 8])
    def test_rhs_and_limiter_commute_with_reflection(self, tid, scheme):
        from deltawave.cases import get_case
        from deltawave.runner import advance, initial_states

        case = get_case(tid)
        g = make_grid(-10.0, 10.0, 0.05)
        field = advance(field_from_states(g, *initial_states(case)), case.coeffs, scheme,
                        0.3 * case.t_end, 0.5)
        mirrored = field.with_coeffs(_mirrored(field.coeffs))

        for got, want in [
            (dg_rhs(mirrored, case.coeffs, scheme), _mirrored(dg_rhs(field, case.coeffs, scheme))),
            (tvd_limit(mirrored).coeffs, _mirrored(tvd_limit(field).coeffs)),
        ]:
            scale = np.max(np.abs(want), axis=0)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("tid", [2, 6, 8])
    def test_split_source_commutes_with_reflection(self, tid):
        from deltawave.cases import get_case
        from deltawave.dg import _apply_split_source
        from deltawave.runner import advance, initial_states

        case = get_case(tid)
        g = make_grid(-10.0, 10.0, 0.05)
        field = advance(field_from_states(g, *initial_states(case)), case.coeffs, SPLIT,
                        0.3 * case.t_end, 0.5)
        mirrored = field.with_coeffs(_mirrored(field.coeffs))
        out = _apply_split_source(field, case.coeffs, 0.01)
        assert not np.array_equal(out.coeffs, field.coeffs)
        got = _apply_split_source(mirrored, case.coeffs, 0.01).coeffs
        assert np.array_equal(got, _mirrored(out.coeffs))
