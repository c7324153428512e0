"""Exact classical solver tests.

The star-region oracle below was written against the textbook pressure
function before the solver existed; its bisection shares no code with the
library (anti-circularity for the frozen Sod values).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltawave import GasState, VacuumError, physical_flux, to_conserved
from deltawave.classical import WaveKind, sample_classical, solve_classical
from deltawave.waves import WaveFamily, wave_state

from conftest import GAMMA, random_state


def oracle_star(left, right, gamma=GAMMA):
    """Independent bisection on the standard two-curve pressure function."""

    def branch_fn(p, rho_k, p_k):
        a_k = math.sqrt(gamma * p_k / rho_k)
        if p > p_k:
            a = 2.0 / ((gamma + 1.0) * rho_k)
            b = (gamma - 1.0) / (gamma + 1.0) * p_k
            return (p - p_k) * math.sqrt(a / (p + b))
        return 2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)

    def total(p):
        return branch_fn(p, left.rho, left.p) + branch_fn(p, right.rho, right.p) + right.u - left.u

    lo, hi = 1e-12, 10.0 * max(left.p, right.p)
    while total(hi) < 0.0:
        hi *= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    p_star = 0.5 * (lo + hi)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (
        branch_fn(p_star, right.rho, right.p) - branch_fn(p_star, left.rho, left.p)
    )
    return p_star, u_star


SOD_LEFT = GasState(1.0, 0.0, 1.0)
SOD_RIGHT = GasState(0.125, 0.0, 0.1)


class TestSod:
    def test_oracle_reproduces_textbook_values(self):
        p, u = oracle_star(SOD_LEFT, SOD_RIGHT)
        assert abs(p - 0.30313) < 1e-4
        assert abs(u - 0.92745) < 1e-4

    def test_solver_matches_oracle(self):
        p, u = oracle_star(SOD_LEFT, SOD_RIGHT)
        fan = solve_classical(SOD_LEFT, SOD_RIGHT)
        assert abs(fan.p_star - p) < 1e-9
        assert abs(fan.u_star - u) < 1e-9
        assert fan.left_kind is WaveKind.RAREFACTION
        assert fan.right_kind is WaveKind.SHOCK

    def test_sample_at_origin_is_left_star(self):
        # the left rarefaction tail sits at -0.0703, so the origin lies in the
        # left star plateau
        fan = solve_classical(SOD_LEFT, SOD_RIGHT)
        s = sample_classical(fan, 0.0)
        assert abs(s.rho - 0.42631942817849516) < 1e-9
        assert abs(s.u - 0.9274526200489499) < 1e-9
        assert abs(s.p - 0.30313017805064685) < 1e-9
        assert fan.left_speeds[1] < 0.0


class TestDegenerate:
    def test_identity(self):
        s = GasState(1.0, 1.0, 1.0)
        fan = solve_classical(s, s)
        assert fan.p_star == 1.0 and fan.u_star == 1.0
        assert fan.wave_strength("left") == 0.0 and fan.wave_strength("right") == 0.0
        for xi in (-5.0, -0.3, 0.0, 0.7, 5.0):
            got = sample_classical(fan, xi)
            assert (got.rho, got.u, got.p) == (1.0, 1.0, 1.0)

    def test_vacuum_detection(self):
        with pytest.raises(VacuumError):
            solve_classical(GasState(1, -6, 1), GasState(1, 6, 1))
        solve_classical(GasState(1, -5, 1), GasState(1, 5, 1))  # borderline, still fine


class TestRootQuality:
    def test_pressure_residual(self, rng):
        for _ in range(300):
            left = random_state(rng)
            right = random_state(rng)
            try:
                fan = solve_classical(left, right)
            except VacuumError:
                continue
            res = (wave_state(WaveFamily.ONE, left, fan.p_star).u
                   - wave_state(WaveFamily.THREE, right, fan.p_star).u)
            assert abs(res) <= 1e-11 * max(1.0, abs(fan.u_star))

    def test_matches_oracle_random(self, rng):
        for _ in range(100):
            left = random_state(rng, u_range=(-1.5, 1.5))
            right = random_state(rng, u_range=(-1.5, 1.5))
            p_oracle, _ = oracle_star(left, right)
            fan = solve_classical(left, right)
            assert abs(fan.p_star - p_oracle) <= 1e-8 * max(1.0, p_oracle)


class TestSampling:
    def test_far_field(self):
        fan = solve_classical(SOD_LEFT, SOD_RIGHT)
        far_l = sample_classical(fan, -1e6)
        far_r = sample_classical(fan, 1e6)
        assert (far_l.rho, far_l.u, far_l.p) == (1.0, 0.0, 1.0)
        assert (far_r.rho, far_r.u, far_r.p) == (0.125, 0.0, 0.1)

    def test_constant_between_waves(self, rng):
        fan = solve_classical(SOD_LEFT, SOD_RIGHT)
        tail = fan.left_speeds[1]
        for xi in np.linspace(tail + 1e-6, fan.u_star - 1e-6, 50):
            s = sample_classical(fan, xi)
            assert abs(s.p - fan.p_star) < 1e-12

    def test_rankine_hugoniot_across_sampled_shock(self):
        fan = solve_classical(SOD_LEFT, SOD_RIGHT)
        sigma = fan.right_speeds[0]
        ul = sample_classical(fan, sigma - 1e-9)
        ur = sample_classical(fan, sigma + 1e-9)
        res = physical_flux(ur) - physical_flux(ul) - sigma * (to_conserved(ur) - to_conserved(ul))
        assert float(np.max(np.abs(res))) <= 1e-9

    def test_contact_tie_break_takes_right_state(self):
        fan = solve_classical(SOD_LEFT, SOD_RIGHT)
        s = sample_classical(fan, fan.u_star)
        assert abs(s.rho - fan.rho_star_right) < 1e-14

    def test_mirror_symmetry(self, rng):
        for _ in range(100):
            left = random_state(rng, u_range=(-1.0, 1.0))
            right = random_state(rng, u_range=(-1.0, 1.0))
            try:
                fan = solve_classical(left, right)
            except VacuumError:
                continue
            fan_m = solve_classical(right.mirrored(), left.mirrored())
            for xi in (-0.8, -0.1, 0.05, 0.9):
                a = sample_classical(fan, xi)
                b = sample_classical(fan_m, -xi).mirrored()
                # tie-break sides may differ exactly on a discontinuity; skip those
                if abs(a.rho - b.rho) > 1e-8 * a.rho:
                    assert abs(fan.u_star - xi) < 1e-6 or any(
                        abs(s - xi) < 1e-6 for s in (*fan.left_speeds, *fan.right_speeds)
                    )
                else:
                    assert abs(a.u - b.u) <= 1e-8 * max(1.0, abs(a.u))
                    assert abs(a.p - b.p) <= 1e-8 * a.p


def pointwise_curve_velocity(anchor, p, sign):
    """Velocity on the wave curve and its derivative, every constant computed at the point.

    The per-point form the solver evaluated before it hoisted the anchor's
    constants into ``_velocity_curve``; the two must agree to the bit.
    """
    g = anchor.gamma
    if p >= anchor.p:
        a_coef = 2.0 / ((g + 1.0) * anchor.rho)
        b_coef = (g - 1.0) / (g + 1.0) * anchor.p
        q = math.sqrt(a_coef / (p + b_coef))
        u = anchor.u + sign * (p - anchor.p) * q
        du = sign * q * (1.0 - 0.5 * (p - anchor.p) / (p + b_coef))
    else:
        z = (g - 1.0) / (2.0 * g)
        ratio = (p / anchor.p) ** z
        u = anchor.u + sign * 2.0 * anchor.sound_speed / (g - 1.0) * (ratio - 1.0)
        du = sign / (anchor.rho * anchor.sound_speed) * (p / anchor.p) ** (-(g + 1.0) / (2.0 * g))
    return u, du


_positive = st.floats(0.1, 5.0, exclude_min=True, exclude_max=True)


class TestVelocityCurve:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.builds(GasState, _positive, st.floats(-4.0, 4.0), _positive),
           st.one_of(st.floats(1e-12, 1.0), st.floats(1.0, 50.0)))
    def test_per_solve_closure_equals_pointwise_form(self, anchor, ratio):
        from deltawave.classical import _velocity_curve

        p = anchor.p * ratio
        for sign in (-1.0, 1.0):
            assert _velocity_curve(anchor, sign)(p) == pointwise_curve_velocity(anchor, p, sign)
