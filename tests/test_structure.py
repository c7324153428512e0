import math
import time

import numpy as np
import pytest

from deltawave import (
    GasState,
    SourceCoefficients,
    StationaryPair,
    approximate_solve,
    compose_reference_fan,
    downstream_state,
    jump_residual,
    predict_structure,
    sample_source_fan,
    subsonic_passage_bracket,
    velocity_mismatch,
)
from deltawave.cases import get_case
from deltawave.classical import sample_classical, solve_classical
from deltawave.stationary import Branch
from deltawave.structure import SolutionStructure
from deltawave.waves import WaveFamily, wave_state

from conftest import GAMMA, coeffs_with_k, random_admissible_upstream, state_rel_err


def exact_test1_pair():
    c = get_case(1)
    right = downstream_state(c.left, c.coeffs, Branch.SUBSONIC)
    return c.left, right, c.coeffs


class TestVelocityMismatch:
    def test_root_at_equilibrium(self):
        left, right, coeffs = exact_test1_pair()
        t = velocity_mismatch(left.p, left, right, coeffs)
        assert abs(t) <= 1e-13 * (abs(left.u) + left.sound_speed)

    def test_zero_coefficients_reduce_to_classical(self):
        c = SourceCoefficients(0.0, 0.0, 0.0)
        left = GasState(1.0, 0.9, 1.0)
        right = GasState(0.8, 0.7, 0.9)
        from deltawave.waves import WaveFamily, wave_state

        p1, p2 = subsonic_passage_bracket(left, c)
        for frac in (0.0, 0.3, 0.6, 0.9):
            p = p2 + frac * (p1 - p2)
            t = velocity_mismatch(p, left, right, c)
            classical = wave_state(WaveFamily.THREE, right, p).u - wave_state(WaveFamily.ONE, left, p).u
            assert abs(t - classical) <= 1e-12

    def test_sign_change_for_subsonic_passage_data(self):
        c = get_case(2)
        p1, p2 = subsonic_passage_bracket(c.left, c.coeffs)
        assert p2 < p1
        t1 = velocity_mismatch(p1, c.left, c.right, c.coeffs)
        t2 = velocity_mismatch(p2, c.left, c.right, c.coeffs)
        assert t1 * t2 < 0.0


class TestBracket:
    def test_anchor_already_at_target(self):
        c = coeffs_with_k(0.3)
        from deltawave.stationary import critical_mach_numbers

        crit = critical_mach_numbers(c, GAMMA)
        m = crit.upstream_subsonic_max
        anchor = GasState(1.0, m * math.sqrt(GAMMA), 1.0)
        p1, p2 = subsonic_passage_bracket(anchor, c)
        assert abs(p2 - anchor.p) <= 1e-10

    def test_endpoints_hit_targets(self):
        anchor = GasState(1.0, 1.0, 1.0)
        for k in (-0.2, 0.0, 0.25):
            c = coeffs_with_k(k)
            from deltawave.stationary import critical_mach_numbers

            target = critical_mach_numbers(c, GAMMA).upstream_subsonic_max
            p1, p2 = subsonic_passage_bracket(anchor, c)
            assert p2 < p1
            assert abs(wave_state(WaveFamily.ONE, anchor, p1).mach) <= 1e-10
            assert abs(wave_state(WaveFamily.ONE, anchor, p2).mach - target) <= 1e-10

    def test_attenuating_bracket_below_anchor_for_subsonic_anchor(self):
        # a subsonic anchor must expand (pressure drop) to reach the sonic point
        anchor = GasState(1.0, 1.0, 1.0)  # Mach 0.845
        c = coeffs_with_k(-0.2)
        _, p2 = subsonic_passage_bracket(anchor, c)
        assert p2 < anchor.p

    @pytest.mark.parametrize("tid, kind", [(2, SolutionStructure.TYPE1),
                                           (4, SolutionStructure.TYPE3)])
    def test_computed_once_per_solve(self, monkeypatch, tid, kind):
        from deltawave import structure

        calls = []
        real = structure.pressure_for_mach
        monkeypatch.setattr(structure, "pressure_for_mach",
                            lambda *args: calls.append(args) or real(*args))
        c = get_case(tid)
        left = GasState(c.left.rho, c.left.u, c.left.p)  # an object no call has seen
        out = approximate_solve(left, c.right, c.coeffs)
        assert out.structure is kind
        assert len(calls) == 1
        kept = subsonic_passage_bracket(left, c.coeffs)
        assert len(calls) == 1
        assert subsonic_passage_bracket(GasState(left.rho, left.u, left.p), c.coeffs) == kept
        assert len(calls) == 2


class TestPrediction:
    def test_tabulated_structures(self):
        expected = {
            2: {SolutionStructure.TYPE1},
            3: {SolutionStructure.TYPE2},
            4: {SolutionStructure.TYPE3},
            5: {SolutionStructure.TYPE2, SolutionStructure.TYPE3},
            6: {SolutionStructure.TYPE5},
            7: {SolutionStructure.TYPE1, SolutionStructure.TYPE5},
            8: {SolutionStructure.TYPE7},
        }
        for tid, allowed in expected.items():
            c = get_case(tid)
            assert predict_structure(c.left, c.right, c.coeffs) in allowed

    def test_rejects_non_rightward_input(self):
        c = coeffs_with_k(0.2)
        with pytest.raises(ValueError):
            predict_structure(GasState(1, -1, 1), GasState(1, 1, 1), c)

    def test_legal_tags_per_sign(self, rng):
        legal = {
            1: {SolutionStructure.TYPE1, SolutionStructure.TYPE2, SolutionStructure.TYPE3},
            0: {SolutionStructure.TYPE1, SolutionStructure.TYPE2, SolutionStructure.TYPE7},
            -1: {SolutionStructure.TYPE1, SolutionStructure.TYPE2, SolutionStructure.TYPE5},
        }
        for k, allowed in ((0.3, legal[1]), (0.0, legal[0]), (-0.3, legal[-1])):
            c = coeffs_with_k(k)
            for _ in range(60):
                left = GasState(rng.uniform(0.2, 3), rng.uniform(0.05, 3), rng.uniform(0.2, 3))
                right = GasState(rng.uniform(0.2, 3), rng.uniform(0.05, 3), rng.uniform(0.2, 3))
                assert predict_structure(left, right, c) in allowed


class TestApproximateSolve:
    def test_equilibrium_returns_inputs(self):
        left, right, coeffs = exact_test1_pair()
        out = approximate_solve(left, right, coeffs)
        assert state_rel_err(out.minus, left) < 1e-13
        assert state_rel_err(out.plus, right) < 1e-13

    def test_supersonic_passage_keeps_left_state(self):
        c = get_case(3)
        out = approximate_solve(c.left, c.right, c.coeffs)
        assert out.structure is SolutionStructure.TYPE2
        assert out.minus is c.left

    def test_opposed_flow_collapses_to_classical_sample(self):
        c = coeffs_with_k(0.3)
        left = GasState(1.0, 1.0, 1.0)
        right = GasState(1.0, -1.0, 1.0)
        out = approximate_solve(left, right, c)
        assert out.structure is SolutionStructure.CLASSICAL
        fan = solve_classical(left, right)
        ref = sample_classical(fan, 0.0)
        assert state_rel_err(out.minus, ref) < 1e-12
        assert state_rel_err(out.plus, ref) < 1e-12

    def test_mirrored_flow(self):
        left, right, coeffs = exact_test1_pair()
        out = approximate_solve(right.mirrored(), left.mirrored(), coeffs)
        assert state_rel_err(out.minus, right.mirrored()) < 1e-13
        assert state_rel_err(out.plus, left.mirrored()) < 1e-13

    def test_exactness_on_random_equilibria(self, rng):
        # randomized admissible stationary pairs across amplifying, neutral
        # and attenuating coefficients must be returned exactly
        start = time.perf_counter()
        count = 0
        for k in (-0.3, -0.05, 0.0, 0.1, 0.36):
            c = coeffs_with_k(k)
            branches = [Branch.SUBSONIC, Branch.SUPERSONIC]
            for i in range(40):
                branch = branches[i % 2]
                up = random_admissible_upstream(rng, c, branch)
                down = downstream_state(up, c, branch)
                out = approximate_solve(up, down, c)
                assert state_rel_err(out.minus, up) <= 1e-10
                assert state_rel_err(out.plus, down) <= 1e-10
                count += 1
        assert count == 200
        assert time.perf_counter() - start < 1.0


class TestReferenceFans:
    @pytest.mark.parametrize("tid", range(1, 9))
    def test_jump_relation_at_origin(self, tid):
        case = get_case(tid)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        pair = StationaryPair(fan.minus, fan.plus, case.coeffs, Branch.SUBSONIC)
        res = np.max(np.abs(jump_residual(pair)))
        scale = max(1.0, abs(fan.minus.rho * fan.minus.u))
        assert res <= 1e-9 * scale

    @pytest.mark.parametrize("tid", range(2, 9))
    def test_sonic_conditions(self, tid):
        case = get_case(tid)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        if fan.structure in (SolutionStructure.TYPE3, SolutionStructure.TYPE4):
            assert abs(fan.plus.mach - 1.0) <= 1e-6
        if fan.structure in (SolutionStructure.TYPE5, SolutionStructure.TYPE6):
            assert abs(fan.minus.mach - 1.0) <= 1e-6
        if fan.structure is SolutionStructure.TYPE7:
            assert abs(fan.minus.mach - 1.0) <= 1e-6
            assert abs(fan.plus.mach - 1.0) <= 1e-6

    @pytest.mark.parametrize("tid", range(1, 9))
    def test_wave_speed_ordering(self, tid):
        case = get_case(tid)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        scale = abs(case.left.u) + case.left.sound_speed
        tol = 1e-4 * scale  # tabulated data is rounded to six digits
        left_speeds = fan.left_wave_speeds()
        right_speeds = fan.right_wave_speeds()
        assert all(s <= tol for s in left_speeds)
        assert all(s >= -tol for s in right_speeds)
        speeds = left_speeds + right_speeds
        assert all(a <= b + tol for a, b in zip(speeds, speeds[1:]))

    def test_stationary_only_fan(self):
        left, right, coeffs = exact_test1_pair()
        fan = compose_reference_fan(left, right, coeffs)
        assert fan.left_wave_speeds() == []
        assert fan.right_wave_speeds() == []
        assert state_rel_err(sample_source_fan(fan, -0.1), left) == 0.0
        assert state_rel_err(sample_source_fan(fan, +0.1), right) == 0.0

    def test_type1_fan_geometry(self):
        case = get_case(2)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        assert fan.structure is SolutionStructure.TYPE1
        assert all(s <= 0.0 for s in fan.left_wave_speeds())
        # first right-going feature is the contact, moving with the downstream state
        assert fan.right_fan.wave_strength("left") < 1e-6
        assert abs(fan.right_fan.u_star - fan.plus.u) < 1e-6
        assert fan.plus.u > 0.0

    def test_choked_fan_opens_at_origin(self):
        case = get_case(4)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        s = sample_source_fan(fan, 1e-12)
        assert abs(s.mach - 1.0) <= 1e-6

    def test_far_field_and_origin_sides(self):
        for tid in (2, 3, 4, 6, 8):
            case = get_case(tid)
            fan = compose_reference_fan(case.left, case.right, case.coeffs)
            assert state_rel_err(sample_source_fan(fan, -1e9), case.left) < 1e-14
            assert state_rel_err(sample_source_fan(fan, 1e9), case.right) < 1e-14
            assert state_rel_err(sample_source_fan(fan, -1e-13), fan.minus) < 1e-9
            assert state_rel_err(sample_source_fan(fan, +1e-13), fan.plus) < 1e-9

    def test_mirrored_composition(self):
        case = get_case(2)
        fan = compose_reference_fan(case.right.mirrored(), case.left.mirrored(), case.coeffs)
        assert fan.mirrored
        ref = compose_reference_fan(case.left, case.right, case.coeffs)
        for xi in (-2.0, -0.5, 0.4, 1.5):
            a = sample_source_fan(fan, xi)
            b = sample_source_fan(ref, -xi).mirrored()
            assert state_rel_err(a, b) < 1e-9

    def test_classical_fan_lists_each_wave_once(self):
        fan = compose_reference_fan(GasState(1, -0.5, 1), GasState(0.5, 0.5, 0.4),
                                    SourceCoefficients(0.2, 0.1, 0.2))
        assert fan.structure is SolutionStructure.CLASSICAL
        intervals = fan.feature_intervals()
        assert len(intervals) == 3 == len(set(intervals))
        left_speeds, right_speeds = fan.left_wave_speeds(), fan.right_wave_speeds()
        assert [s for span in intervals for s in span] == left_speeds + right_speeds
        assert all(s <= 0.0 for s in left_speeds)
        assert all(s >= 0.0 for s in right_speeds)
        speeds = left_speeds + right_speeds
        assert all(a <= b for a, b in zip(speeds, speeds[1:]))

    def test_classical_fan_when_no_through_flow(self):
        c = coeffs_with_k(0.3)
        fan = compose_reference_fan(GasState(1, 1, 1), GasState(1, -1, 1), c)
        assert fan.structure is SolutionStructure.CLASSICAL
        assert state_rel_err(fan.minus, fan.plus) == 0.0
