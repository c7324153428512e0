"""Mirror covariance, checked with no tolerance.

Swapping the two data and reflecting them (x -> -x, u -> -u) must reflect
every output exactly: states by u -> -u, interface fluxes by (-1, 1, -1) and
the source vector by (1, -1, 1). Where one orientation fails, the other must
fail with the same error class. Draws cover the solver's fuzz domain:
k_i in (-0.6, 1.5), rho and p in (0.1, 5), |u| <= 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltawave import (
    DeltawaveError,
    GasState,
    SolutionStructure,
    SourceCoefficients,
    approximate_solve,
    compose_reference_fan,
    evaluate_source,
    kt_flux,
    sample_source_fan,
    solve_classical,
)

from conftest import coefficients, states

FLUX_MIRROR = np.array([-1.0, 1.0, -1.0])
SOURCE_MIRROR = np.array([1.0, -1.0, 1.0])
fast = settings(max_examples=600, derandomize=True, database=None, deadline=None)


def _attempt(fn, *args):
    """(result, None) on success, (None, error class) on failure."""
    try:
        return fn(*args), None
    except Exception as exc:  # the solver's domain is not total yet: compare failures too
        return None, type(exc)


def _wave_at_origin(left, right):
    """Whether the classical fan has an acoustic wave edge exactly at x/t = 0.

    The sampler resolves such a coordinate to the state on the wave's right,
    so the two frames pick opposite sides there by design. A contact at rest
    is not excluded: there the sampler takes the denser star state in either
    frame.
    """
    fan = solve_classical(left, right)
    return 0.0 in (*fan.left_speeds, *fan.right_speeds)


@fast
@given(states, states, coefficients)
def test_approximate_solve_mirrors(left, right, coeffs):
    out, err = _attempt(approximate_solve, left, right, coeffs)
    mirrored, mirrored_err = _attempt(approximate_solve, right.mirrored(), left.mirrored(), coeffs)
    assert err is mirrored_err
    if out is None:
        return
    assert mirrored.structure is out.structure
    if not (out.structure is SolutionStructure.CLASSICAL and _wave_at_origin(left, right)):
        assert mirrored.minus == out.plus.mirrored()
        assert mirrored.plus == out.minus.mirrored()


@fast
@given(states, states, coefficients, st.booleans())
def test_kt_flux_mirrors(left, right, coeffs, corrections):
    pair, err = _attempt(kt_flux, left, right, coeffs, corrections)
    mirrored, mirrored_err = _attempt(kt_flux, right.mirrored(), left.mirrored(), coeffs,
                                      corrections)
    assert err is mirrored_err
    if pair is not None:
        assert np.array_equal(mirrored.minus, FLUX_MIRROR * pair.plus)
        assert np.array_equal(mirrored.plus, FLUX_MIRROR * pair.minus)


@fast
@given(states, states, coefficients)
def test_evaluate_source_mirrors(left, right, coeffs):
    source = evaluate_source(left, right, coeffs)
    mirrored = evaluate_source(right.mirrored(), left.mirrored(), coeffs)
    assert np.array_equal(mirrored, SOURCE_MIRROR * source)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(states, states, coefficients)
def test_reference_fan_samples_mirror(left, right, coeffs):
    fan, err = _attempt(compose_reference_fan, left, right, coeffs)
    mirrored, mirrored_err = _attempt(compose_reference_fan, right.mirrored(), left.mirrored(),
                                      coeffs)
    assert err is mirrored_err
    if fan is None:
        return
    assert mirrored.left_wave_speeds() == [-s for s in reversed(fan.right_wave_speeds())]
    assert mirrored.right_wave_speeds() == [-s for s in reversed(fan.left_wave_speeds())]
    # A coordinate on a wave resolves to the state on its right in either
    # frame, so the two frames disagree there by design: skip those.
    edges = np.array([x for span in fan.feature_intervals() for x in span])
    for xi in np.linspace(-9.95, 9.95, 200):
        if edges.size and np.min(np.abs(edges - xi)) <= 1e-9:
            continue
        assert sample_source_fan(mirrored, -xi) == sample_source_fan(fan, xi).mirrored(), xi


def test_underflowing_mach_fails_typed():
    left, right = GasState(1.0, 1e-290, 1.0), GasState(1.0, 1.0, 1.0)
    with pytest.raises(DeltawaveError):
        kt_flux(left, right, SourceCoefficients(0.0, 1.0, 0.0), corrections=True)


@fast
@given(states, states, coefficients)
def test_solver_fails_typed_on_fuzz_domain(left, right, coeffs):
    """Where the solver and the composed fan fail, they raise the package's own errors."""
    for fn in (approximate_solve, compose_reference_fan):
        _, err = _attempt(fn, left, right, coeffs)
        assert err is None or issubclass(err, DeltawaveError), (fn.__name__, err)
