import math

import numpy as np
import pytest

from deltawave import (
    ConfigError,
    GasState,
    SourceCoefficients,
    eigenvalues,
    evaluate_source,
    from_conserved,
    physical_flux,
    to_conserved,
)

from conftest import GAMMA, random_state


class TestGasState:
    def test_rejects_vacuum(self):
        with pytest.raises(ValueError):
            GasState(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GasState(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GasState(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            GasState(1.0, 1.0, 1.0, gamma=1.0)

    @pytest.mark.parametrize("fields", [(math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
                                        (1.0, math.inf, 1.0), (1.0, -math.inf, 1.0),
                                        (1.0, math.nan, 1.0), (1.0, 1.0, math.inf),
                                        (1.0, 1.0, math.nan),
                                        (np.float64(1.0), np.float64(np.inf), np.float64(1.0))])
    def test_rejects_non_finite_fields(self, fields):
        with pytest.raises(ConfigError, match="non-physical"):
            GasState(*fields)

    def test_mirror(self):
        s = GasState(0.7, -1.3, 2.0)
        m = s.mirrored()
        assert (m.rho, m.u, m.p) == (0.7, 1.3, 2.0)


class TestConversions:
    def test_basic_values(self):
        assert np.allclose(to_conserved(GasState(1, 1, 1)), [1, 1, 3.0], rtol=1e-15, atol=0)
        assert np.allclose(to_conserved(GasState(1, 0, 1)), [1, 0, 2.5], rtol=1e-15, atol=0)
        got = to_conserved(GasState(0.6, 0.5, 0.6))
        assert np.allclose(got, [0.6, 0.3, 1.575], rtol=1e-15)
        back = from_conserved(*got)
        assert abs(back.u - 0.5) < 1e-15 and abs(back.p - 0.6) < 1e-15

    def test_round_trip_random(self, rng):
        # pressure recovery subtracts the kinetic energy, so its error is
        # bounded relative to the total-energy scale, not to p itself
        for _ in range(10_000):
            s = GasState(
                float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))),
                float(rng.uniform(-10, 10)),
                float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))),
                GAMMA,
            )
            back = from_conserved(*to_conserved(s), s.gamma)
            assert abs(back.rho - s.rho) <= 1e-14 * s.rho
            assert abs(back.u - s.u) <= 1e-14 * max(abs(s.u), 1.0)
            p_scale = s.p + (GAMMA - 1.0) * 0.5 * s.rho * s.u * s.u
            assert abs(back.p - s.p) <= 1e-14 * p_scale
            assert abs(back.energy - s.energy) <= 1e-14 * s.energy


class TestFlux:
    def test_stagnant(self):
        assert np.allclose(physical_flux(GasState(1, 0, 1)), [0, 1, 0], atol=0)

    def test_values(self):
        assert np.allclose(physical_flux(GasState(0.6, 0.5, 0.6)), [0.3, 0.75, 1.0875], rtol=1e-14)

    def test_scaled_jump_between_tabulated_pair(self):
        # the tabulated stationary pair satisfies (1 + k_i) F_i(left) = F_i(right)
        # to the printed six digits
        fl = physical_flux(GasState(0.6, 0.5, 0.6))
        fr = physical_flux(GasState(0.641338, 0.654881, 0.62495))
        scaled = (1.0 + np.array([0.4, 0.2, 0.4])) * fl
        assert np.allclose(fr, scaled, rtol=5e-5)
        assert np.allclose(fr, [0.42, 0.90, 1.5225], atol=1e-5)


class TestEigenvalues:
    def test_symmetric_at_rest(self):
        lam = eigenvalues(GasState(1, 0, 1))
        a = math.sqrt(1.4)
        assert lam == (-a, 0.0, a)
        assert abs(a - 1.1832159566199232) < 1e-15

    def test_mach(self):
        assert abs(GasState(0.6, 0.5, 0.6).mach - 0.4225771273642583) < 1e-15

    def test_sonic(self):
        s = GasState(1, math.sqrt(1.4), 1)
        assert abs(eigenvalues(s)[0]) < 1e-15

    def test_strictly_increasing(self, rng):
        for _ in range(200):
            lam = eigenvalues(random_state(rng))
            assert lam[0] < lam[1] < lam[2]


class TestSourceCoefficients:
    def test_derived_combination(self):
        c = SourceCoefficients(0.4, 0.2, 0.4)
        assert c.k == (1.4 * 1.4) / (1.2 * 1.2) - 1.0  # bitwise recompute
        assert SourceCoefficients(0.3, 0.3, 0.3).k == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SourceCoefficients(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SourceCoefficients(0.0, -1.5, 0.0)


class TestEvaluateSource:
    def test_rightward_flow(self):
        c = SourceCoefficients(0.4, 0.2, 0.4)
        s = evaluate_source(GasState(0.6, 0.5, 0.6), GasState(0.641338, 0.654881, 0.62495), c)
        assert np.allclose(s, [0.12, 0.15, 0.435], rtol=1e-12)

    def test_opposed_and_stagnant_flow(self):
        c = SourceCoefficients(0.4, 0.2, 0.4)
        assert np.all(evaluate_source(GasState(1, 1, 1), GasState(1, -1, 1), c) == 0.0)
        assert np.all(evaluate_source(GasState(1, 0, 1), GasState(1, 0, 1), c) == 0.0)
        assert np.all(evaluate_source(GasState(1, 1, 1), GasState(1, 0, 1), c) == 0.0)

    def test_mirror_antisymmetry(self, rng):
        c = SourceCoefficients(0.3, -0.1, 0.2)
        for _ in range(100):
            left = random_state(rng)
            right = random_state(rng)
            s = evaluate_source(left, right, c)
            sm = evaluate_source(right.mirrored(), left.mirrored(), c)
            assert np.allclose(sm, s * np.array([1.0, -1.0, 1.0]), rtol=1e-14, atol=1e-16)
