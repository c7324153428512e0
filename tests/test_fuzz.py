"""Checks over the solver's whole fuzz domain: the 20,000-draw set of
``tools/fuzz_domain.py`` (k_i in (-0.6, 1.5), rho, p in (0.1, 5), |u| <= 4).

- Every draw either solves or fails with a typed regime error; no root finder
  reaches its iteration cap (that would raise ``RootBracketError``).
- Choked (Type3) origin pairs meet their jump relation to the measured worst
  number of ulps of the flux scale.
- Wave sides (ROADMAP item 7(a)): a composed fan is a weak solution only if
  every wave of its left sub-fan has speed <= 0 and every wave of its right
  sub-fan speed >= 0, within 1e-12 of the largest signal speed |u| + c of the
  data (``fuzz_domain.off_side``). The check needs no quadrature, so it
  covers every draw. The known failures are strict xfails, one per
  structure.
- Origin states of the draws whose flow does not pass the origin: the
  solver builds one wave of the classical fan, and returns the full fan's
  sample at x/t = 0 bit for bit, or raises its error.
- The unit of mass (ROADMAP item 16): (rho, u, p) -> (s rho, u, s p) maps
  solutions onto solutions, exactly in floats for s a power of two. The
  first draws, scaled, solve to the same outcome and the scaled states.
- Continuity across k = 0 (ROADMAP item 2(c)): for every draw whose flow
  passes the origin, the origin pair at coefficients eps * d tends to the
  pair at zero coefficients, with d the draw's own coefficients scaled to a
  largest magnitude of one. This oracle does not read the predictor.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

from deltawave import (
    DeltawaveError,
    GasState,
    SolutionStructure,
    SourceCoefficients,
    StationaryPair,
    approximate_solve,
    compose_reference_fan,
    jump_residual,
    physical_flux,
)
from deltawave.classical import sample_classical, solve_classical
from deltawave.gas import rightward_frame
from deltawave.stationary import Branch

from conftest import off_side, riemann_batch_draws

N_DRAWS = 20_000
EPS = float(np.finfo(float).eps)
# Worst Type3 jump residual over the draws, in ulps of the flux scale: 6.3e4
# while the choking pressure came from a bisection to 1e-12, 5,623 with
# Newton steps on the Mach map. Above the 64 ulps of the other pairs, so
# ROADMAP item 2(d) stays open.
TYPE3_MAX_ULPS = 5.7e3
# Coefficient scales of the continuity oracle, and its bound: the worst
# difference over the draws is 3.35 sqrt(|eps|), from the Type7 draws that turn
# Type3 or Type5 at eps != 0 and converge like sqrt(eps); the others converge
# like eps.
CONTINUITY_EPS = (1e-6, -1e-6, 1e-8, -1e-8)
CONTINUITY_BOUND = 10.0
# Draws of the unit-of-mass oracle.
N_SCALED = 500


@pytest.fixture(scope="module")
def fuzz():
    """(left, right, coeffs, outcome) per draw: the solver output, or the error class name."""
    out = []
    for left, right, coeffs in riemann_batch_draws(N_DRAWS):
        try:
            outcome = approximate_solve(left, right, coeffs)
        except DeltawaveError as exc:
            outcome = type(exc).__name__
        out.append((left, right, coeffs, outcome))
    return out


def _name(outcome):
    return outcome if isinstance(outcome, str) else outcome.structure.value


def test_every_draw_solves_or_fails_typed(fuzz):
    assert Counter(_name(o) for *_, o in fuzz) == {
        "Classical": 9923, "Type1": 1661, "Type2": 1464, "Type3": 2739, "Type5": 615,
        "NotSolvableError": 3521, "VacuumError": 77,
    }


def test_classical_origin_states_are_the_sampled_fans(fuzz):
    # Every draw whose flow does not pass the origin: the solver reads one wave
    # of the classical fan, and must return the full fan's sample at x/t = 0.
    n = 0
    for left, right, coeffs, outcome in fuzz:
        if rightward_frame(left, right) is not None:
            continue
        n += 1
        try:
            want = repr(sample_classical(solve_classical(left, right), 0.0))
        except DeltawaveError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                approximate_solve(left, right, coeffs)
            continue
        assert repr(outcome.minus) == repr(outcome.plus) == want
    assert n == 10_000


@pytest.mark.parametrize("j", [-40, -100])
def test_solve_does_not_depend_on_the_unit_of_mass(fuzz, j):
    # Root finders that stopped on an absolute step below a pressure of 1 changed
    # 70 of these outcomes at either scale, most of them into NotSolvableError.
    s = 2.0 ** j
    for left, right, coeffs, outcome in fuzz[:N_SCALED]:
        try:
            scaled = approximate_solve(GasState(s * left.rho, left.u, s * left.p),
                                       GasState(s * right.rho, right.u, s * right.p), coeffs)
        except DeltawaveError as exc:
            assert type(exc).__name__ == outcome
            continue
        assert scaled.structure is outcome.structure
        for got, want in ((scaled.minus, outcome.minus), (scaled.plus, outcome.plus)):
            got = (got.rho / s, got.u, got.p / s)
            if outcome.structure is not SolutionStructure.CLASSICAL:
                assert got == (want.rho, want.u, want.p)
            else:  # Toro's starting guess takes fractional powers of the pressures
                scale = (want.rho, abs(want.u) + want.sound_speed, want.p)
                err = max(abs(g - w) / c for g, w, c in zip(got, (want.rho, want.u, want.p), scale))
                assert err <= 1e-12


def _ulps(out, coeffs) -> float:
    pair = StationaryPair(out.minus, out.plus, coeffs, Branch.SUBSONIC)
    up, down = (out.minus, out.plus) if out.minus.u > 0.0 else \
        (out.plus.mirrored(), out.minus.mirrored())
    scale = np.maximum(np.abs((1.0 + coeffs.diag) * physical_flux(up)),
                       np.abs(physical_flux(down)))
    return float(np.max(np.abs(jump_residual(pair)) / (EPS * scale)))


def test_choked_jump_residuals(fuzz):
    worst = max(_ulps(o, c) for _, _, c, o in fuzz if _name(o) == "Type3")
    assert worst <= TYPE3_MAX_ULPS


def _strict_xfail(structure, reason):
    return pytest.param(structure, marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize("structure", [
    _strict_xfail(SolutionStructure.TYPE1, "1 Type1 fan (draw 1395) has its upstream 1-shock "
                                           "moving right (ROADMAP 2(b))"),
    SolutionStructure.TYPE2,
    _strict_xfail(SolutionStructure.TYPE3, "97 Type3 fans have a downstream 1-shock moving "
                                           "left (ROADMAP 2(b))"),
    _strict_xfail(SolutionStructure.TYPE5, "12 Type5 fans have a downstream 1-shock moving "
                                           "left (ROADMAP 2(b))"),
], ids=lambda s: s.value)
def test_sub_fans_stay_on_their_side(fuzz, structure):
    off = [i for i, (left, right, coeffs, o) in enumerate(fuzz)
           if _name(o) == structure.value
           and off_side(compose_reference_fan(left, right, coeffs), left, right)]
    assert off == []


def _origin_values(left, right, coeffs) -> np.ndarray:
    out = approximate_solve(left, right, coeffs)
    return np.array([out.minus.rho, out.minus.u, out.minus.p, out.plus.rho, out.plus.u, out.plus.p])


def test_origin_pair_is_continuous_across_zero_coefficients(fuzz):
    zero = SourceCoefficients(0.0, 0.0, 0.0)
    solved = skipped = 0
    for left, right, coeffs, _ in fuzz:
        if not left.u * right.u > 0.0:
            continue
        try:
            base = _origin_values(left, right, zero)
        except DeltawaveError:  # 29 draws fail typed without a source
            skipped += 1
            continue
        solved += 1
        d = np.array([coeffs.k1, coeffs.k2, coeffs.k3])
        d /= np.max(np.abs(d))
        scale = np.max(np.abs(base))
        diff = {}
        for eps in CONTINUITY_EPS:
            near = _origin_values(left, right, SourceCoefficients(*(eps * d).tolist()))
            diff[eps] = float(np.max(np.abs(near - base))) / scale
            assert diff[eps] <= CONTINUITY_BOUND * math.sqrt(abs(eps))
        # Converging at least like sqrt(eps): a hundredth of eps, at most a fifth of the difference.
        for sign in (1.0, -1.0):
            assert diff[sign * 1e-8] <= 0.2 * diff[sign * 1e-6]
    assert (solved, skipped) == (9971, 29)
