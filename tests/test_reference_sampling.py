"""Array sampling of exact fans against the scalar samplers, with no tolerance.

``sample_source_primitives`` must give, row for row and bit for bit, the
state ``sample_source_fan`` gives at each coordinate: on every wave's edges
and shock speed, on the contact, at the origin, far out, and anywhere else.
Draws cover the solver's fuzz domain: k_i in (-0.6, 1.5), rho and p in
(0.1, 5), |u| <= 4. The reference functions of ``runner`` are checked
against per-point loops over the scalar sampler.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltawave import (
    ConfigError,
    GasState,
    SolutionStructure,
    SourceCoefficients,
    compose_reference_fan,
    sample_source_fan,
    sample_source_primitives,
    to_conserved,
)
from deltawave.cases import all_cases
from deltawave.dg import make_grid
from deltawave.runner import (
    _REF_NODES,
    _REF_WEIGHTS,
    initial_states,
    profile_rows_from_fan,
    reference_cell_averages,
)

_positive = st.floats(0.1, 5.0, exclude_min=True, exclude_max=True)
_k = st.floats(-0.6, 1.5, exclude_min=True, exclude_max=True)
states = st.builds(GasState, _positive, st.floats(-4.0, 4.0), _positive)
coefficients = st.builds(SourceCoefficients, _k, _k, _k)
points = st.lists(st.floats(-12.0, 12.0), max_size=40)


def _scalar_rows(fan, xi):
    rows = []
    for x in xi:
        s = sample_source_fan(fan, x)
        rows.append((s.rho, s.u, s.p))
    return np.array(rows).reshape(-1, 3)


def _special_points(fan):
    """Every wave edge, shock speed and contact of both sub-fans, in either
    frame, with their neighbouring floats, plus the origin and the far field."""
    speeds = []
    for sub in (fan.left_fan, fan.right_fan):
        speeds += [sub.u_star, *sub.left_speeds, *sub.right_speeds]
    pts = [0.0, -0.0, 1e9, -1e9]
    for s in speeds:
        for v in (s, -s):
            pts += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return pts


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(states, states, coefficients, points)
@example(GasState(1.0, -0.5, 1.0), GasState(0.5, 0.5, 0.4),
         SourceCoefficients(0.2, 0.1, 0.2), [])  # classical: no through-flow
@example(GasState(1.0, 0.5, 1.0), GasState(0.8, 0.7, 0.6),
         SourceCoefficients(0.3, 0.0, 0.1), [])  # rightward flow
@example(GasState(0.8, -0.7, 0.6), GasState(1.0, -0.5, 1.0),
         SourceCoefficients(0.3, 0.0, 0.1), [])  # leftward flow: a mirrored fan
def test_array_sampler_matches_scalar_sampler(left, right, coeffs, extra):
    try:
        fan = compose_reference_fan(left, right, coeffs)
    except Exception:  # the solver's domain is not total yet; sampling needs a fan
        return
    xi = np.array(_special_points(fan) + extra)
    got = sample_source_primitives(fan, xi)
    assert got.shape == (len(xi), 3)
    assert got.tobytes() == _scalar_rows(fan, xi.tolist()).tobytes()


def test_examples_cover_classical_and_mirrored_fans():
    kinds = set()
    for left, right in [(GasState(1.0, -0.5, 1.0), GasState(0.5, 0.5, 0.4)),
                        (GasState(1.0, 0.5, 1.0), GasState(0.8, 0.7, 0.6)),
                        (GasState(0.8, -0.7, 0.6), GasState(1.0, -0.5, 1.0))]:
        fan = compose_reference_fan(left, right, SourceCoefficients(0.3, 0.0, 0.1))
        kinds.add((fan.structure is SolutionStructure.CLASSICAL, fan.mirrored))
    assert kinds == {(True, False), (False, False), (False, True)}


def _reference_loop(fan, grid, t):
    out = np.zeros((grid.n_cells, 3))
    for node, w in zip(_REF_NODES, _REF_WEIGHTS):
        for i, x in enumerate(grid.centers + node * grid.h):
            out[i] += w * to_conserved(sample_source_fan(fan, x / t))
    return out


def _profile_loop(fan, xs, t):
    rows = []
    for x in xs:
        s = sample_source_fan(fan, x / t)
        rows.append((s.rho, s.u, s.p, s.energy))
    return np.array(rows)


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: f"test{c.id}")
def test_reference_functions_match_per_point_loops(case):
    left, right = initial_states(case)
    fan = compose_reference_fan(left, right, case.coeffs)
    grid = make_grid(*case.domain, 0.05)
    got = reference_cell_averages(fan, grid, case.t_end)
    assert got.tobytes() == _reference_loop(fan, grid, case.t_end).tobytes()
    xs = np.linspace(-10.0, 10.0, 401)
    got = profile_rows_from_fan(fan, xs, case.t_end)
    assert got.tobytes() == _profile_loop(fan, xs, case.t_end).tobytes()


@pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf])
def test_reference_functions_reject_invalid_time(t):
    case = all_cases()[1]
    left, right = initial_states(case)
    fan = compose_reference_fan(left, right, case.coeffs)
    with pytest.raises(ConfigError, match="finite and positive"):
        reference_cell_averages(fan, make_grid(*case.domain, 0.5), t)
    with pytest.raises(ConfigError, match="finite and positive"):
        profile_rows_from_fan(fan, np.linspace(-1.0, 1.0, 5), t)


def _nan_fans():
    """A contact at rest (classical), a rightward Type1 fan and a mirrored one."""
    yield compose_reference_fan(GasState(2.0, 0.0, 1.0), GasState(1.0, 0.0, 1.0),
                                SourceCoefficients(0.3, 0.0, 0.1))
    case = all_cases()[1]
    left, right = initial_states(case)
    yield compose_reference_fan(left, right, case.coeffs)
    yield compose_reference_fan(right.mirrored(), left.mirrored(), case.coeffs)


@pytest.mark.parametrize("fan", list(_nan_fans()), ids=["contact-at-rest", "type1", "mirrored"])
def test_nan_coordinate_raises(fan):
    with pytest.raises(ConfigError, match="NaN"):
        sample_source_fan(fan, math.nan)
    with pytest.raises(ConfigError, match="NaN"):
        sample_source_primitives(fan, np.array([0.5, math.nan]))
    with pytest.raises(ConfigError, match="NaN"):
        profile_rows_from_fan(fan, np.array([math.nan]), 1.0)
