import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltawave import (
    ConfigError,
    GasState,
    SourceCoefficients,
    choked_downstream,
    downstream_state,
    physical_flux,
    predict_structure,
    solve_classical,
    to_conserved,
    upstream_state,
)
from deltawave.stationary import Branch, stationary_ratios
from deltawave.structure import velocity_mismatch
from deltawave.waves import (
    WaveFamily,
    _rarefaction_rho_u,
    _shock_mach_map,
    _shock_rho_u,
    _wave_rho_u,
    pressure_for_mach,
    rarefaction_ratios,
    rest_pressure,
    shock_speed,
    wave_state,
)

from conftest import GAMMA, random_state


class TestShock:
    def test_zero_strength_is_identity(self):
        s = wave_state(WaveFamily.ONE, GasState(1, 0, 1), 1.0)
        assert (s.rho, s.u, s.p) == (1.0, 0.0, 1.0)
        assert s.mach == 0.0

    def test_family_one_value(self):
        # frozen from the jump relations; also verified against the
        # Rankine-Hugoniot residual below
        s = wave_state(WaveFamily.ONE, GasState(1, 0, 1), 2.0)
        assert abs(s.rho - 1.625) < 1e-14
        assert abs(s.u - (-0.620173672946042)) < 1e-12

    def test_family_three_mirror(self):
        s = wave_state(WaveFamily.THREE, GasState(1, 0, 1), 2.0)
        assert abs(s.rho - 1.625) < 1e-14
        assert abs(s.u - 0.620173672946042) < 1e-12

    def test_rankine_hugoniot_residual(self, rng):
        for _ in range(1000):
            anchor = random_state(rng)
            p = anchor.p * (1.0 + rng.uniform(1e-3, 20.0))
            family = WaveFamily.ONE if rng.uniform() < 0.5 else WaveFamily.THREE
            other = wave_state(family, anchor, p)
            ul, ur = (anchor, other) if family is WaveFamily.ONE else (other, anchor)
            du = to_conserved(ur) - to_conserved(ul)
            sigma = (physical_flux(ur)[0] - physical_flux(ul)[0]) / du[0]
            res = physical_flux(ur) - physical_flux(ul) - sigma * du
            scale = max(1.0, float(np.max(np.abs(physical_flux(ul)))))
            assert float(np.max(np.abs(res))) <= 1e-10 * scale

    def test_shock_speed_matches_mass_balance(self, rng):
        for _ in range(200):
            anchor = random_state(rng)
            p = anchor.p * (1.0 + rng.uniform(0.01, 10.0))
            family = WaveFamily.ONE if rng.uniform() < 0.5 else WaveFamily.THREE
            other = wave_state(family, anchor, p)
            sigma = shock_speed(family, anchor, p)
            du = to_conserved(other) - to_conserved(anchor)
            sigma_mass = (physical_flux(other)[0] - physical_flux(anchor)[0]) / du[0]
            assert abs(sigma - sigma_mass) <= 1e-9 * max(1.0, abs(sigma))


class TestRarefaction:
    def test_identity_at_anchor_pressure(self):
        anchor = GasState(2.0, 0.3, 1.5)
        s = wave_state(WaveFamily.ONE, anchor, anchor.p)
        assert (s.rho, s.u, s.p) == (anchor.rho, anchor.u, anchor.p)

    def test_family_one_value(self):
        # frozen from the isentrope relations (invariant-checked)
        s = wave_state(WaveFamily.ONE, GasState(1, 0, 1), 0.5)
        assert abs(s.rho - 0.609506827102238) < 1e-13
        assert abs(s.u - 0.557746323873013) < 1e-13

    def test_family_three_mirror(self):
        s = wave_state(WaveFamily.THREE, GasState(1, 0, 1), 0.5)
        assert abs(s.u + 0.557746323873013) < 1e-13
        assert abs(s.rho - 0.609506827102238) < 1e-13

    def test_invariants_constant(self, rng):
        for _ in range(500):
            anchor = random_state(rng)
            p = anchor.p * rng.uniform(0.05, 1.0)
            family = WaveFamily.ONE if rng.uniform() < 0.5 else WaveFamily.THREE
            s = wave_state(family, anchor, p)
            sign = 1.0 if family is WaveFamily.ONE else -1.0
            inv0 = anchor.u + sign * 2.0 * anchor.sound_speed / (GAMMA - 1.0)
            inv1 = s.u + sign * 2.0 * s.sound_speed / (GAMMA - 1.0)
            assert abs(inv1 - inv0) <= 1e-12 * max(1.0, abs(inv0))
            ent0 = anchor.p / anchor.rho**GAMMA
            ent1 = s.p / s.rho**GAMMA
            assert abs(ent1 - ent0) <= 1e-12 * ent0


class TestMachParametrization:
    def test_identity_at_anchor_mach(self):
        gd, gu, gp = rarefaction_ratios(0.7, 0.7, GAMMA)
        assert (gd, gu, gp) == (1.0, 1.0, 1.0)

    def test_velocity_ratio_value(self):
        _, gu, _ = rarefaction_ratios(0.5, 1.0, GAMMA)
        assert abs(gu - (1.0 / 0.5) * 2.2 / 2.4) < 1e-15

    def test_pressure_density_exponent_identity(self):
        gd, _, gp = rarefaction_ratios(0.5, 1.0, GAMMA)
        assert abs(gp - gd**GAMMA) <= 1e-12 * gp

    def test_rejects_decreasing_mach(self):
        with pytest.raises(ValueError):
            rarefaction_ratios(1.0, 0.5, GAMMA)

    def test_agrees_with_pressure_form(self, rng):
        for _ in range(300):
            anchor = random_state(rng, u_range=(0.05, 3.0))
            p = anchor.p * rng.uniform(0.1, 1.0)
            by_p = wave_state(WaveFamily.ONE, anchor, p)
            gd, gu, gp = rarefaction_ratios(anchor.mach, by_p.mach, GAMMA)
            assert abs(anchor.rho * gd - by_p.rho) <= 1e-10 * by_p.rho
            assert abs(anchor.u * gu - by_p.u) <= 1e-10 * max(1.0, abs(by_p.u))
            assert abs(anchor.p * gp - by_p.p) <= 1e-10 * by_p.p


class TestCombinedCurve:
    def test_continuous_at_seam(self, rng):
        for _ in range(100):
            anchor = random_state(rng)
            for family in (WaveFamily.ONE, WaveFamily.THREE):
                lo = wave_state(family, anchor, anchor.p * (1.0 - 1e-9))
                hi = wave_state(family, anchor, anchor.p * (1.0 + 1e-9))
                assert abs(lo.rho - hi.rho) <= 1e-7 * anchor.rho
                assert abs(lo.u - hi.u) <= 1e-7 * max(1.0, abs(anchor.u))

    def test_dispatch(self):
        anchor = GasState(1, 0, 1)
        assert abs(wave_state(WaveFamily.ONE, anchor, 2.0).u + 0.620173672946042) < 1e-12
        assert abs(wave_state(WaveFamily.ONE, anchor, 0.5).u - 0.557746323873013) < 1e-13


class TestMachInversion:
    def test_anchor_value(self):
        anchor = GasState(1, 1, 1)
        assert abs(wave_state(WaveFamily.ONE, anchor, 1.0).mach - anchor.mach) < 1e-14

    def test_monotone_decreasing(self):
        anchor = GasState(1, 1, 1)
        ps = np.linspace(0.2, rest_pressure(anchor) * 0.999, 60)
        machs = [wave_state(WaveFamily.ONE, anchor, p).mach for p in ps]
        assert all(m1 > m2 for m1, m2 in zip(machs, machs[1:]))

    def test_rest_pressure_stagnates(self, rng):
        for _ in range(100):
            anchor = random_state(rng, u_range=(0.05, 3.0))
            p1 = rest_pressure(anchor)
            s = wave_state(WaveFamily.ONE, anchor, p1)
            assert abs(s.u) <= 1e-11 * anchor.sound_speed

    def test_pressure_for_mach_round_trip(self, rng):
        for _ in range(200):
            anchor = random_state(rng, u_range=(0.05, 3.0))
            target = rng.uniform(0.02, 2.0)
            p = pressure_for_mach(anchor, target)
            mach = wave_state(WaveFamily.ONE, anchor, p).mach
            assert abs(mach - target) <= 1e-10 * max(1.0, target)


BAD_PRESSURES = [0.0, -1.0, math.nan, math.inf, -math.inf]


class TestOutOfDomain:
    """Public curves raise ``ConfigError`` (a ``ValueError``) off their domain, never NaN."""

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_pressure_for_mach_rejects_non_finite_target(self, target):
        with pytest.raises(ConfigError, match="finite"):
            pressure_for_mach(GasState(1, 1, 1), target)

    @pytest.mark.parametrize("u", [0.0, -0.5, -10.0])
    def test_pressure_for_mach_rejects_anchor_not_moving_rightward(self, u):
        # Before the check, u = -10 returned a complex pressure from the rarefaction ratios.
        with pytest.raises(ConfigError, match="rightward"):
            pressure_for_mach(GasState(1, u, 1), 0.5)

    def test_pressure_for_mach_rejects_overflowing_rest_pressure(self):
        # The bisection's upper end would be inf; it used to fail on a NaN state inside.
        with pytest.raises(ConfigError, match="overflows"):
            pressure_for_mach(GasState(1.0, 1e200, 1.0), 0.5)

    @pytest.mark.parametrize("p", BAD_PRESSURES)
    @pytest.mark.parametrize("family", [WaveFamily.ONE, WaveFamily.THREE])
    def test_wave_state_rejects_bad_pressure(self, family, p):
        with pytest.raises(ConfigError, match="finite and positive"):
            wave_state(family, GasState(1, 1, 1), p)

    @pytest.mark.parametrize("p", BAD_PRESSURES)
    def test_velocity_mismatch_rejects_bad_pressure(self, p):
        coeffs = SourceCoefficients(0.1, 0.0, 0.1)
        with pytest.raises(ConfigError, match="finite and positive"):
            velocity_mismatch(p, GasState(1, 1, 1), GasState(1, 1, 1), coeffs)

    def test_velocity_mismatch_rejects_overflowing_downstream_pressure(self):
        # p is finite, but p * (1 + k2) at the stagnation end overflows.
        coeffs = SourceCoefficients(0.0, 1e10, 0.0)
        with pytest.raises(ConfigError, match="got inf"):
            velocity_mismatch(1e300, GasState(1, 1, 1), GasState(1, 1, 1), coeffs)

    def test_curve_overflow_fails_typed(self):
        # The shock density overflows: the state used to come back with rho = inf,
        # and the mismatch raised ZeroDivisionError from its Mach number.
        with pytest.raises(ConfigError, match="non-physical"):
            wave_state(WaveFamily.ONE, GasState(1, 1, 1), 1e308)
        with pytest.raises(ConfigError, match="overflows"):
            velocity_mismatch(1e308, GasState(1, 1, 1), GasState(1, 1, 1),
                              SourceCoefficients(0.1, 0, 0.1))


_C = SourceCoefficients(0.1, 0.0, 0.1)
_LEFTWARD = GasState(1.0, -1.0, 1.0)
OFF_DOMAIN = {
    "stationary_ratios": lambda: stationary_ratios(0.0, _C, GAMMA, Branch.SUBSONIC),
    "downstream_state": lambda: downstream_state(_LEFTWARD, _C, Branch.SUBSONIC),
    "upstream_state": lambda: upstream_state(_LEFTWARD, _C, Branch.SUBSONIC),
    "choked_downstream": lambda: choked_downstream(_LEFTWARD, _C),
    "predict_structure": lambda: predict_structure(_LEFTWARD, _LEFTWARD, _C),
    "rest_pressure": lambda: rest_pressure(_LEFTWARD),
    "pressure_for_mach": lambda: pressure_for_mach(GasState(1, 1, 1), -0.5),
    "rarefaction_ratios_decreasing": lambda: rarefaction_ratios(1.0, 0.5, GAMMA),
    # These returned complex ratios, raised ZeroDivisionError and returned NaN.
    "rarefaction_ratios_negative_anchor": lambda: rarefaction_ratios(-10.0, 0.5, GAMMA),
    "rarefaction_ratios_anchor_at_rest": lambda: rarefaction_ratios(0.0, 0.5, GAMMA),
    "rarefaction_ratios_infinite_target": lambda: rarefaction_ratios(0.5, math.inf, GAMMA),
    "solve_classical": lambda: solve_classical(GasState(1, 0, 1), GasState(1, 0, 1, 5.0 / 3.0)),
    "wave_state_contact": lambda: wave_state(WaveFamily.TWO, GasState(1, 1, 1), 1.0),
    "source_coefficients": lambda: SourceCoefficients(-1.0, 0.0, 0.0),
}


@pytest.mark.parametrize("call", OFF_DOMAIN.values(), ids=OFF_DOMAIN.keys())
def test_public_entry_points_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


_positive = st.floats(0.1, 5.0, exclude_min=True, exclude_max=True)
anchors = st.builds(GasState, _positive, st.floats(-4.0, 4.0), _positive)
# Pressure over anchor pressure: the rarefaction branch below 1, the shock branch above.
ratios = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 50.0))
exact = settings(max_examples=500, derandomize=True, database=None, deadline=None)


class TestFloatKernels:
    """The float kernels of the root finders equal the ``GasState`` path to the bit."""

    @exact
    @given(anchors, ratios)
    def test_kernels_equal_wave_state(self, anchor, ratio):
        p = anchor.p * ratio
        for sign, family in ((-1.0, WaveFamily.ONE), (1.0, WaveFamily.THREE)):
            state = wave_state(family, anchor, p)
            assert _wave_rho_u(sign, anchor, p) == (state.rho, state.u)
            if p >= anchor.p:
                kernel = _shock_rho_u(sign, anchor.rho, anchor.u, anchor.p, anchor.gamma, p)
            else:
                kernel = _rarefaction_rho_u(sign, anchor.rho, anchor.u, anchor.p, anchor.gamma,
                                            anchor.sound_speed, p)
            assert kernel == (state.rho, state.u)

    @exact
    @given(anchors, ratios)
    def test_kernels_equal_pointwise_form(self, anchor, ratio):
        # The expressions as written per state before the kernels existed.
        rho0, u0, p0, g = anchor.rho, anchor.u, anchor.p, anchor.gamma
        p = p0 * ratio
        if p >= p0:
            rho = rho0 * ((g - 1.0) * p0 + (g + 1.0) * p) / ((g - 1.0) * p + (g + 1.0) * p0)
            du = math.sqrt(2.0) * (p - p0) / math.sqrt(rho0 * ((g + 1.0) * p + (g - 1.0) * p0))
        else:
            rho = rho0 * (p / p0) ** (1.0 / g)
            du = 2.0 * anchor.sound_speed / (g - 1.0) * ((p / p0) ** ((g - 1.0) / (2.0 * g)) - 1.0)
        for sign in (-1.0, 1.0):
            assert _wave_rho_u(sign, anchor, p) == (rho, u0 + sign * du)

    @exact
    @given(anchors, st.floats(1.0, 50.0))
    def test_shock_mach_map_equals_mach_along_1wave(self, anchor, ratio):
        p = anchor.p * ratio
        assert _shock_mach_map(anchor, 0.0)(p) == wave_state(WaveFamily.ONE, anchor, p).mach
