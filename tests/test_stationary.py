import math

import numpy as np
import pytest

from deltawave import (
    GasState,
    SourceCoefficients,
    StationaryPair,
    choked_downstream,
    critical_mach_numbers,
    downstream_state,
    eigenvalues,
    jump_residual,
    upstream_state,
)
from deltawave.errors import ConfigError, NotSolvableError
from deltawave.stationary import Branch, Side

from conftest import GAMMA, coeffs_with_k, random_admissible_upstream, state_rel_err

TEST1_COEFFS = SourceCoefficients(0.4, 0.2, 0.4)
TEST1_LEFT = GasState(0.6, 0.5, 0.6)
TEST1_RIGHT = GasState(0.641338, 0.654881, 0.62495)


def state_at_mach(mach, rho=1.0, p=1.0):
    return GasState(rho, mach * math.sqrt(GAMMA * p / rho), p, GAMMA)


class TestCriticalMachNumbers:
    def test_zero_combination_has_sonic_boundaries(self):
        c = SourceCoefficients(0.3, 0.3, 0.3)
        assert c.k == 0.0
        crit = critical_mach_numbers(c, GAMMA)
        assert crit.upstream_subsonic_max == 1.0
        assert crit.upstream_supersonic_min == 1.0
        assert math.isinf(crit.upstream_supersonic_sup)
        assert crit.downstream_subsonic_max == 1.0

    def test_roundoff_zero_combination_classifies_as_zero(self):
        # Triples on the k = 0 surface; about half compute k within an ulp of 0.
        exact = critical_mach_numbers(SourceCoefficients(0.3, 0.3, 0.3), GAMMA)
        rng = np.random.default_rng(1)
        for k1, k3 in rng.uniform(-0.5, 1.0, (2000, 2)):
            c = SourceCoefficients(k1, math.sqrt((1.0 + k1) * (1.0 + k3)) - 1.0, k3)
            assert critical_mach_numbers(c, GAMMA) == exact, (k1, k3)

    def test_amplifying_values(self):
        crit = critical_mach_numbers(TEST1_COEFFS, GAMMA)
        assert abs(crit.upstream_subsonic_max - 0.5308004229032729) < 1e-12
        assert math.isfinite(crit.upstream_supersonic_min)
        assert math.isfinite(crit.downstream_supersonic_sup)

    def test_boundary_combination_special_value(self):
        kc = 1.0 / (GAMMA**2 - 1.0)
        c = coeffs_with_k(kc)
        crit = critical_mach_numbers(c, GAMMA)
        assert abs(crit.upstream_subsonic_max - math.sqrt(0.4 / 2.8)) < 1e-12
        assert math.isinf(crit.upstream_supersonic_min)
        assert math.isinf(crit.downstream_supersonic_sup)

    def test_strong_sink_degenerates(self):
        c = coeffs_with_k(-0.7)  # below -1/gamma^2
        crit = critical_mach_numbers(c, GAMMA)
        assert math.isinf(crit.downstream_supersonic_min)
        assert crit.upstream_supersonic_sup == 1.0  # empty supersonic interval


class TestAdmissible:
    def test_amplifying_rows(self):
        crit = critical_mach_numbers(TEST1_COEFFS, GAMMA)
        m1, m2 = crit.upstream_subsonic_max, crit.upstream_supersonic_min
        assert critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(m1 / 2, Side.LEFT, Branch.SUBSONIC)
        assert critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(m1, Side.LEFT, Branch.SUBSONIC)
        mid = 0.5 * (m1 + m2)
        assert not critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(mid, Side.LEFT, Branch.SUBSONIC)
        assert not critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(mid, Side.LEFT, Branch.SUPERSONIC)
        assert critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(m2, Side.LEFT, Branch.SUPERSONIC)
        assert critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(1.0, Side.RIGHT, Branch.SUBSONIC)
        assert not critical_mach_numbers(TEST1_COEFFS, GAMMA).admits(1.0001, Side.RIGHT, Branch.SUBSONIC)

    def test_attenuating_supersonic_interval_right_open(self):
        c = coeffs_with_k(-0.2)
        crit = critical_mach_numbers(c, GAMMA)
        sup = crit.upstream_supersonic_sup
        assert critical_mach_numbers(c, GAMMA).admits(sup * 0.999, Side.LEFT, Branch.SUPERSONIC)
        assert not critical_mach_numbers(c, GAMMA).admits(sup, Side.LEFT, Branch.SUPERSONIC)
        assert critical_mach_numbers(c, GAMMA).admits(crit.downstream_subsonic_max, Side.RIGHT, Branch.SUBSONIC)
        assert critical_mach_numbers(c, GAMMA).admits(crit.downstream_supersonic_min, Side.RIGHT, Branch.SUPERSONIC)


class TestDownstream:
    def test_zero_coefficients_identity(self):
        c = SourceCoefficients(0.0, 0.0, 0.0)
        s = GasState(1.2, 0.4, 0.9)
        assert downstream_state(s, c, Branch.SUBSONIC) is s

    def test_tabulated_pair(self):
        got = downstream_state(TEST1_LEFT, TEST1_COEFFS, Branch.SUBSONIC)
        assert state_rel_err(got, TEST1_RIGHT) < 5e-5

    def test_unsolvable_gap(self):
        crit = critical_mach_numbers(TEST1_COEFFS, GAMMA)
        mid = 0.5 * (crit.upstream_subsonic_max + crit.upstream_supersonic_min)
        s = state_at_mach(mid)
        with pytest.raises(NotSolvableError):
            downstream_state(s, TEST1_COEFFS, Branch.SUBSONIC)
        with pytest.raises(NotSolvableError):
            downstream_state(s, TEST1_COEFFS, Branch.SUPERSONIC)

    @pytest.mark.parametrize("curve", [downstream_state, upstream_state])
    def test_rightward_state_at_mach_zero_is_outside_the_subsonic_branch(self, curve):
        # u > 0, but u / a underflows, so the Mach number is 0.0. (A sound
        # speed that overflows, the other way to Mach 0.0, is refused by GasState.)
        state = GasState(1.0, 5e-324, 4.0)
        assert state.mach == 0.0
        with pytest.raises(NotSolvableError, match="Mach 0 outside admissible"):
            curve(state, TEST1_COEFFS, Branch.SUBSONIC)

    def test_just_past_the_choking_boundary_has_no_subsonic_jump(self):
        # 2e-10 relative past the choking Mach, beyond the snap and the slack
        # of the discriminant, but inside the admissible range's slack.
        c = SourceCoefficients(0.1, 0.1, 0.2)
        s = state_at_mach(critical_mach_numbers(c, GAMMA).upstream_subsonic_max * (1.0 + 2e-10))
        with pytest.raises(NotSolvableError, match=r"discriminant -\S+ < 0$"):
            downstream_state(s, c, Branch.SUBSONIC)

    def test_supersonic_existence_limit_is_excluded(self):
        # A state of sound speed 1 carries the critical Mach number exactly.
        c = SourceCoefficients(0.1, 0.2, -0.2)
        sup = critical_mach_numbers(c, GAMMA).upstream_supersonic_sup
        s = GasState(GAMMA, sup, 1.0, GAMMA)
        assert s.mach == sup
        with pytest.raises(NotSolvableError, match="at or beyond the supersonic existence limit"):
            downstream_state(s, c, Branch.SUPERSONIC)

    def test_attenuating_sonic_is_double_valued(self):
        c = coeffs_with_k(-0.2)
        s = state_at_mach(1.0)
        sub = downstream_state(s, c, Branch.SUBSONIC)
        sup = downstream_state(s, c, Branch.SUPERSONIC)
        assert sub.mach < 1.0 < sup.mach

    def test_choking_boundary_lands_sonic(self):
        crit = critical_mach_numbers(TEST1_COEFFS, GAMMA)
        s = state_at_mach(crit.upstream_subsonic_max, rho=0.7, p=1.3)
        got = downstream_state(s, TEST1_COEFFS, Branch.SUBSONIC)
        assert abs(got.mach - 1.0) <= 1e-8

    def test_forced_choked_downstream(self):
        crit = critical_mach_numbers(TEST1_COEFFS, GAMMA)
        s = state_at_mach(crit.upstream_subsonic_max, rho=0.7, p=1.3)
        got = choked_downstream(s, TEST1_COEFFS)
        assert got.mach == 1.0 or abs(got.mach - 1.0) < 1e-15
        pair = StationaryPair(s, got, TEST1_COEFFS, Branch.SUBSONIC)
        assert float(np.max(np.abs(jump_residual(pair)))) < 1e-11

    def test_mirror_covariance(self, rng):
        for k in (0.2, -0.2):
            c = coeffs_with_k(k)
            for _ in range(50):
                up = random_admissible_upstream(rng, c, Branch.SUBSONIC)
                down = downstream_state(up, c, Branch.SUBSONIC)
                # the reflected pair is a leftward stationary wave
                pair = StationaryPair(down.mirrored(), up.mirrored(), c, Branch.SUBSONIC)
                assert float(np.max(np.abs(jump_residual(pair)))) <= 1e-10


class TestUpstream:
    def test_tabulated_pair_inverse(self):
        got = upstream_state(TEST1_RIGHT, TEST1_COEFFS, Branch.SUBSONIC)
        assert state_rel_err(got, TEST1_LEFT) < 5e-5
        exact_down = downstream_state(TEST1_LEFT, TEST1_COEFFS, Branch.SUBSONIC)
        back = upstream_state(exact_down, TEST1_COEFFS, Branch.SUBSONIC)
        assert state_rel_err(back, TEST1_LEFT) < 1e-10

    def test_round_trip_random(self, rng):
        count = 0
        for k in (0.3, 0.05, -0.1, -0.35):
            c = coeffs_with_k(k)
            for branch in (Branch.SUBSONIC, Branch.SUPERSONIC):
                for _ in range(125):
                    up = random_admissible_upstream(rng, c, branch)
                    down = downstream_state(up, c, branch)
                    back = upstream_state(down, c, branch)
                    assert state_rel_err(back, up) <= 1e-10
                    count += 1
        assert count == 1000


class TestPairProperties:
    def test_jump_and_monotonicity(self, rng):
        for k in (0.3, 0.0, -0.3):
            c = coeffs_with_k(k)
            for branch in (Branch.SUBSONIC, Branch.SUPERSONIC):
                for _ in range(100):
                    up = random_admissible_upstream(rng, c, branch)
                    down = downstream_state(up, c, branch)
                    pair = StationaryPair(up, down, c, branch)
                    res = np.abs(jump_residual(pair))
                    flux_scale = max(1.0, abs(up.rho * up.u), abs(up.p))
                    assert float(np.max(res)) <= 1e-10 * flux_scale
                    lam_u = eigenvalues(up)
                    lam_d = eigenvalues(down)
                    nu = abs(up.u) + up.sound_speed
                    nd = abs(down.u) + down.sound_speed
                    for lu, ld in zip(lam_u, lam_d):
                        assert (lu / nu) * (ld / nd) >= -1e-12


class TestJumpResidual:
    @pytest.mark.parametrize("u_left, u_right", [(0.5, -0.5), (-0.5, 0.5), (0.0, 0.5),
                                                 (-0.5, 0.0), (0.0, 0.0)],
                             ids=["opposed", "diverging", "stagnant-left", "stagnant-right",
                                  "at-rest"])
    def test_rejects_pair_without_through_flow(self, u_left, u_right):
        pair = StationaryPair(GasState(1.0, u_left, 1.0), GasState(0.8, u_right, 0.9),
                              TEST1_COEFFS, Branch.SUBSONIC)
        with pytest.raises(ConfigError, match="no flow through the origin"):
            jump_residual(pair)


class TestSolvabilityClassification:
    def test_amplifying_sweep(self):
        c = coeffs_with_k(0.3)
        crit = critical_mach_numbers(c, GAMMA)
        m1, m2 = crit.upstream_subsonic_max, crit.upstream_supersonic_min
        for m in np.linspace(0.05, m1 * 0.999, 20):
            downstream_state(state_at_mach(m), c, Branch.SUBSONIC)  # solvable
        for m in np.linspace(m1 * 1.01, m2 * 0.99, 20):
            with pytest.raises(NotSolvableError):
                downstream_state(state_at_mach(m), c, Branch.SUBSONIC)
            with pytest.raises(NotSolvableError):
                downstream_state(state_at_mach(m), c, Branch.SUPERSONIC)
        for m in np.linspace(m2 * 1.001, m2 * 3, 20):
            downstream_state(state_at_mach(m), c, Branch.SUPERSONIC)

    def test_attenuating_sweep(self):
        c = coeffs_with_k(-0.25)
        crit = critical_mach_numbers(c, GAMMA)
        m3 = crit.upstream_supersonic_sup
        for m in np.linspace(0.05, 0.999, 15):
            downstream_state(state_at_mach(m), c, Branch.SUBSONIC)
        for m in np.linspace(1.001, m3 * 0.995, 15):
            downstream_state(state_at_mach(m), c, Branch.SUPERSONIC)
        for m in np.linspace(m3 * 1.001, m3 * 2, 15):
            with pytest.raises(NotSolvableError):
                downstream_state(state_at_mach(m), c, Branch.SUPERSONIC)


class TestChoked:
    def test_sonic_sides(self):
        c = coeffs_with_k(-0.2)
        s = state_at_mach(1.0)
        downstream_state(s, c, Branch.SUPERSONIC)  # a sonic upstream side has a supersonic jump
        assert abs(s.mach - 1.0) <= 1e-10
        crit = critical_mach_numbers(TEST1_COEFFS, GAMMA)
        up = state_at_mach(crit.upstream_subsonic_max)
        down = choked_downstream(up, TEST1_COEFFS)
        assert abs(down.mach - 1.0) <= 1e-10
