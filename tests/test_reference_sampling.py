"""Array sampling of exact fans against the scalar samplers, with no tolerance.

``sample_source_primitives`` must give, row for row and bit for bit, the
state ``sample_source_fan`` gives at each coordinate: on every wave's edges
and shock speed, on the contact, at the origin, far out, and anywhere else.
Draws cover the solver's fuzz domain: k_i in (-0.6, 1.5), rho and p in
(0.1, 5), |u| <= 4. The reference functions of ``runner`` are checked
against per-point loops over the scalar sampler. The array samplers take
coordinates of any shape, and the interior of every rarefaction is checked
point by point, including where it leaves the admissible states.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltawave import (
    ConfigError,
    GasState,
    SolutionStructure,
    SourceCoefficients,
    SourceFan,
    compose_reference_fan,
    sample_source_fan,
    sample_source_primitives,
    to_conserved,
)
from deltawave.cases import all_cases
from deltawave.classical import (
    ClassicalFan,
    WaveKind,
    sample_classical,
    sample_classical_primitives,
    solve_classical,
)
from deltawave.dg import Grid, make_grid
from deltawave.runner import (
    _REF_NODES,
    _REF_WEIGHTS,
    initial_states,
    profile_rows_from_fan,
    reference_cell_averages,
)

from conftest import coefficients, riemann_batch_draws, states

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


def _three_fans():
    """A contact at rest (classical), a rightward Type1 fan and a mirrored one."""
    yield compose_reference_fan(GasState(2.0, 0.0, 1.0), GasState(1.0, 0.0, 1.0),
                                SourceCoefficients(0.3, 0.0, 0.1))
    case = all_cases()[1]
    left, right = initial_states(case)
    yield compose_reference_fan(left, right, case.coeffs)
    yield compose_reference_fan(right.mirrored(), left.mirrored(), case.coeffs)


@pytest.mark.parametrize("fan", list(_three_fans()), ids=["contact-at-rest", "type1", "mirrored"])
def test_nan_coordinate_raises(fan):
    with pytest.raises(ConfigError, match="NaN"):
        sample_source_fan(fan, math.nan)
    with pytest.raises(ConfigError, match="NaN"):
        sample_source_primitives(fan, np.array([0.5, math.nan]))
    with pytest.raises(ConfigError, match="NaN"):
        profile_rows_from_fan(fan, np.array([math.nan]), 1.0)


def _shape_fans():
    """A classical fan of two rarefactions, a rightward Type1 fan and a mirrored one."""
    yield compose_reference_fan(GasState(1.0, -0.5, 1.0), GasState(0.5, 0.5, 0.4),
                                SourceCoefficients(0.2, 0.1, 0.2))
    case = all_cases()[1]
    left, right = initial_states(case)
    yield compose_reference_fan(left, right, case.coeffs)
    yield compose_reference_fan(right.mirrored(), left.mirrored(), case.coeffs)


def _classical_rows(fan, xi):
    return np.array([(s.rho, s.u, s.p) for s in (sample_classical(fan, x) for x in xi)])


@pytest.mark.parametrize("fan", list(_shape_fans()), ids=["classical", "type1", "mirrored"])
def test_array_samplers_take_any_shape(fan):
    # 0-d, 1-D and 2-D coordinates give the scalar sampler's rows, reshaped, to the bit.
    xi = np.array(_special_points(fan) + np.linspace(-3.0, 3.0, 61).tolist())
    grid = np.concatenate([xi, xi[::-1]]).reshape(2, -1)
    for sampler, scalar_rows, target in ((sample_source_primitives, _scalar_rows, fan),
                                         (sample_classical_primitives, _classical_rows,
                                          fan.left_fan),
                                         (sample_classical_primitives, _classical_rows,
                                          fan.right_fan)):
        rows = scalar_rows(target, grid.reshape(-1).tolist())
        assert sampler(target, grid.reshape(-1)).tobytes() == rows.tobytes()
        got = sampler(target, grid)
        assert got.shape == grid.shape + (3,) and got.tobytes() == rows.tobytes()
        for x, row in zip(xi, rows):
            point = sampler(target, np.array(x))
            assert point.shape == (3,) and point.tobytes() == row.tobytes()
    profile = profile_rows_from_fan(fan, grid, 0.5)
    assert profile.shape == grid.shape + (4,)
    assert profile.tobytes() == profile_rows_from_fan(fan, grid.reshape(-1), 0.5).tobytes()


def _interior_points(fan):
    """7 points strictly inside each rarefaction of the classical ``fan``, and the
    neighbouring floats on both sides of its two edges."""
    pts = []
    for kind, (lo, hi) in ((fan.left_kind, fan.left_speeds), (fan.right_kind, fan.right_speeds)):
        if kind is WaveKind.RAREFACTION:
            pts += [lo + (hi - lo) * k / 8.0 for k in range(1, 8)]
            for v in (lo, hi):
                pts += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return pts


def test_rarefaction_interiors_match_scalar_sampler():
    # Fuzz fans: every rarefaction of both sub-fans, read through the classical
    # samplers and through the source-fan samplers, mirrored fans included.
    fans = rarefactions = 0
    mirrored = set()
    for draw in riemann_batch_draws(400):
        try:
            fan = compose_reference_fan(*draw)
        except Exception:  # the solver's domain is not total yet; sampling needs a fan
            continue
        fans += 1
        mirrored.add(fan.mirrored)
        for sub in (fan.left_fan, fan.right_fan):
            eta = _interior_points(sub)
            rarefactions += len(eta) // 13
            got = sample_classical_primitives(sub, np.array(eta))
            assert got.tobytes() == _classical_rows(sub, eta).tobytes()
            xi = [-x for x in eta] if fan.mirrored else eta
            got = sample_source_primitives(fan, np.array(xi))
            assert got.tobytes() == _scalar_rows(fan, xi).tobytes()
    assert fans > 300 and rarefactions > 200 and mirrored == {False, True}


def _broken_fan(family):
    """A hand-built fan whose rarefaction reaches a <= 0 well inside its edges."""
    anchor = GasState(1.0, 0.0, 1.0)
    star = dict(p_star=0.4, rho_star_left=0.5, rho_star_right=0.5, gamma=1.4)
    if family == "left":  # a = (c - 0.2 xi) / 1.2 is negative for xi > 5.92
        return ClassicalFan(anchor, GasState(0.5, 20.0, 0.4), u_star=20.0,
                            left_kind=WaveKind.RAREFACTION, right_kind=WaveKind.SHOCK,
                            left_speeds=(-anchor.sound_speed, 10.0), right_speeds=(30.0, 30.0),
                            **star)
    return ClassicalFan(GasState(0.5, -20.0, 0.4), anchor, u_star=-20.0,
                        left_kind=WaveKind.SHOCK, right_kind=WaveKind.RAREFACTION,
                        left_speeds=(-30.0, -30.0), right_speeds=(-10.0, anchor.sound_speed),
                        **star)


@pytest.mark.parametrize("family", ["left", "right"])
def test_inadmissible_interior_raises_as_scalar(family):
    fan = _broken_fan(family)
    sign = 1.0 if family == "left" else -1.0
    good, bad = sign * 1.0, sign * 8.0
    sample_classical(fan, good)  # an admissible interior point
    with pytest.raises(ConfigError) as scalar:
        sample_classical(fan, bad)
    with pytest.raises(ConfigError) as array:
        sample_classical_primitives(fan, np.array([good, bad, sign * 9.0]))
    assert type(array.value) is type(scalar.value)
    assert str(array.value) == str(scalar.value)
    assert "rho must be a real number" in str(scalar.value)


def _node_coordinates(grid, t):
    """The similarity coordinates of ``reference_cell_averages``'s quadrature nodes."""
    return ((grid.centers + _REF_NODES[:, None] * grid.h) / t).reshape(-1)


def _source_fans(fan):
    """``fan`` as a one-fan source fan, and as both sub-fans of a composed one, mirrored or not."""
    left = sample_classical(fan, -1e9)
    yield SourceFan(SolutionStructure.CLASSICAL, left, left, fan, fan)
    for mirrored in (False, True):
        yield SourceFan(SolutionStructure.TYPE1, left, left, fan, fan, mirrored)


def _assert_reference_matches_loop(fan, grid, t):
    assert reference_cell_averages(fan, grid, t).tobytes() == _reference_loop(fan, grid, t).tobytes()


REF_GRID, REF_T = make_grid(-1.0, 1.0, 0.05), 0.5
_NODES = _node_coordinates(REF_GRID, REF_T)


def _on_node(target, offset=0):
    """The node coordinate nearest ``target``, moved by ``offset`` floats."""
    x = float(_NODES[np.argmin(np.abs(_NODES - target))])
    for _ in range(abs(offset)):
        x = math.nextafter(x, math.copysign(math.inf, offset))
    return x


def _fan_on_nodes(kinds, offsets):
    """A hand-built fan whose wave edges, shock speed and contact lie on node
    coordinates of ``REF_GRID`` at ``REF_T``, each moved by its offset in floats.

    ``kinds`` is ``(rarefaction, shock)`` or ``(shock, rarefaction)``; the
    rarefaction is anchored on (1, 0, 1), whose head is near -1.18 or +1.18.
    """
    rest = GasState(1.0, 0.0, 1.0)
    o = iter(offsets)
    if kinds == (WaveKind.RAREFACTION, WaveKind.SHOCK):
        shock = _on_node(1.3, next(o))
        return ClassicalFan(rest, GasState(0.5, 0.2, 0.3), 0.5, _on_node(0.3, next(o)), 0.6, 0.9,
                            *kinds, (_on_node(-1.18, next(o)), _on_node(-0.4, next(o))),
                            (shock, shock), 1.4)
    shock = _on_node(-1.3, next(o))
    return ClassicalFan(GasState(0.5, -0.2, 0.3), rest, 0.5, _on_node(-0.3, next(o)), 0.9, 0.6,
                        *kinds, (shock, shock), (_on_node(0.4, next(o)), _on_node(1.18, next(o))),
                        1.4)


@pytest.mark.parametrize("kinds", [(WaveKind.RAREFACTION, WaveKind.SHOCK),
                                   (WaveKind.SHOCK, WaveKind.RAREFACTION)],
                         ids=["left fan", "right fan"])
def test_waves_on_node_coordinates(kinds):
    # Every wave edge, the shock speed and the contact on a node coordinate or
    # one float to either side of it, in every combination; read as a one-fan
    # source fan and as both sub-fans of a composed one, mirrored or not.
    fan = _fan_on_nodes(kinds, (0,) * 4)
    assert all(s in _NODES for s in (*fan.left_speeds, fan.u_star, *fan.right_speeds))
    for offsets in itertools.product((-1, 0, 1), repeat=4):
        fan = _fan_on_nodes(kinds, offsets)
        for source in _source_fans(fan):
            _assert_reference_matches_loop(source, REF_GRID, REF_T)


def test_rarefaction_edges_out_of_order():
    # Edges that rounding could swap: a family-1 tail three floats below its
    # head, and a family-3 tail three floats above its head, each head on a
    # node coordinate.
    left = _fan_on_nodes((WaveKind.RAREFACTION, WaveKind.SHOCK), (0,) * 4)
    left = dataclasses.replace(left, left_speeds=(_on_node(-1.18), _on_node(-1.18, -3)))
    right = _fan_on_nodes((WaveKind.SHOCK, WaveKind.RAREFACTION), (0,) * 4)
    right = dataclasses.replace(right, right_speeds=(_on_node(1.18, 3), _on_node(1.18)))
    for fan in (left, right):
        xi = _NODES.tolist() + _special_points(SourceFan(SolutionStructure.CLASSICAL, fan.left,
                                                         fan.left, fan, fan))
        assert sample_classical_primitives(fan, np.array(xi)).tobytes() == \
            _classical_rows(fan, xi).tobytes()
        for source in _source_fans(fan):
            _assert_reference_matches_loop(source, REF_GRID, REF_T)


@pytest.mark.parametrize("densities", [(2.0, 1.0), (1.0, 2.0)], ids=["denser left", "denser right"])
def test_contact_at_rest_on_a_node(densities):
    # A cell centred on the origin (j0 is a half integer), so its middle node
    # samples x/t = 0 exactly: the denser star state there, as the scalar sampler.
    fan = solve_classical(GasState(densities[0], 0.0, 1.0), GasState(densities[1], 0.0, 1.0))
    assert fan.u_star == 0.0
    grid = Grid(-1.025, 0.975, 40, 0.05, 20.5)
    assert 0.0 in _node_coordinates(grid, REF_T)
    for source in _source_fans(fan):
        _assert_reference_matches_loop(source, grid, REF_T)


def test_fuzz_fans_of_every_structure():
    # Up to 5 seeded fuzz fans of each (structure, mirrored) kind, on a coarse
    # grid at a late time and a fine one at an early time.
    picked = {}
    for draw in riemann_batch_draws(600):
        try:
            fan = compose_reference_fan(*draw)
        except Exception:  # the solver's domain is not total yet; sampling needs a fan
            continue
        kind = picked.setdefault((fan.structure, fan.mirrored), [])
        if len(kind) < 5:
            kind.append(fan)
    assert {s for s, _ in picked} == {SolutionStructure.CLASSICAL, SolutionStructure.TYPE1,
                                      SolutionStructure.TYPE2, SolutionStructure.TYPE3,
                                      SolutionStructure.TYPE5}
    assert {m for _, m in picked} == {False, True}
    fans = [fan for kind in picked.values() for fan in kind]
    assert 35 <= len(fans) <= 45
    for grid, t in ((make_grid(-1.0, 1.0, 0.1), 0.5), (make_grid(-1.0, 1.0, 0.025), 0.1)):
        for fan in fans:
            _assert_reference_matches_loop(fan, grid, t)
