import dataclasses
import inspect
import math
import time

import numpy as np
import pytest

from deltawave import (
    ConfigError,
    DeltawaveError,
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
from deltawave.classical import (
    ClassicalFan,
    _defect_curve,
    origin_state,
    sample_classical,
    solve_classical,
)
from deltawave.dg import DgField, field_from_states, make_grid
from deltawave.errors import NotSolvableError, RootBracketError, VacuumError
from deltawave.gas import rightward_frame
from deltawave.stationary import Branch, CriticalMachNumbers, Side, critical_mach_numbers
from deltawave.structure import SolutionStructure, SolverOutput
from deltawave.waves import WaveFamily, shock_speed, wave_state

from conftest import (
    GAMMA,
    coeffs_with_k,
    random_admissible_upstream,
    riemann_batch_arrays,
    riemann_batch_draws,
    state_rel_err,
    type2_wave_clears_origin,
)


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
        out = approximate_solve(c.left, c.right, c.coeffs)
        assert out.structure is kind
        assert len(calls) == 1


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
            assert predict_structure(c.left, c.right, c.coeffs).structure in allowed

    @pytest.mark.parametrize("tid, mirrored, kind", [
        (2, False, SolutionStructure.TYPE1), (3, False, SolutionStructure.TYPE2),
        (4, False, SolutionStructure.TYPE3), (6, False, SolutionStructure.TYPE5),
        (2, True, SolutionStructure.TYPE1), (None, False, SolutionStructure.CLASSICAL),
    ])
    def test_one_critical_table_per_solve(self, monkeypatch, tid, mirrored, kind):
        # Every reader, ``downstream_state``'s entry check included, shares the
        # one table that ``predict_structure`` builds.
        from deltawave import stationary, structure

        tables, classical_calls = [], []
        real_table, real_classical = stationary.critical_mach_numbers, structure.solve_classical

        def table(*args):
            tables.append(args)
            return real_table(*args)

        for module in (stationary, structure):
            monkeypatch.setattr(module, "critical_mach_numbers", table)
        monkeypatch.setattr(structure, "solve_classical",
                            lambda *args: classical_calls.append(args) or real_classical(*args))
        if tid is None:  # opposed flow: no source, a classical fan
            left, right, coeffs = GasState(1.0, 0.5, 1.0), GasState(0.8, -0.4, 0.9), \
                coeffs_with_k(0.3)
        else:
            c = get_case(tid)
            left, right, coeffs = c.left, c.right, c.coeffs
        if mirrored:
            left, right = right.mirrored(), left.mirrored()
        assert approximate_solve(left, right, coeffs).structure is kind
        assert len(tables) <= 1
        if kind is SolutionStructure.TYPE2:
            assert classical_calls == []

    def test_rejects_non_rightward_input(self):
        c = coeffs_with_k(0.2)
        with pytest.raises(ValueError):
            predict_structure(GasState(1, -1, 1), GasState(1, 1, 1), c)

    @pytest.mark.parametrize("tid", [2, 3, 4, 6])
    def test_rejects_unequal_gamma(self, tid):
        # Every structure, not only the Type2 candidate, whose classical solve checked it.
        c = get_case(tid)
        right = GasState(c.right.rho, c.right.u, c.right.p, 5.0 / 3.0)
        with pytest.raises(ConfigError, match="share gamma"):
            approximate_solve(c.left, right, c.coeffs)

    def test_legal_tags_per_sign(self, rng):
        # For k <= 0 the sonic expansion of a supersonic left datum is refused.
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
                try:
                    structure = predict_structure(left, right, c).structure
                except NotSolvableError:
                    assert k <= 0.0
                    continue
                assert structure in allowed

    def test_solves_as_approximate_solve(self):
        # Every fuzz draw whose flow passes the origin, in its rightward frame:
        # the prediction is the solve, output or error.
        def outcome(solve, *args):
            try:
                return repr(solve(*args))
            except DeltawaveError as exc:
                return type(exc).__name__, str(exc)

        solved = 0
        for i, (left, right, coeffs) in enumerate(riemann_batch_draws(2000)):
            frame = rightward_frame(left, right)
            if frame is None:
                continue
            left, right, _ = frame
            assert outcome(predict_structure, left, right, coeffs) == \
                outcome(approximate_solve, left, right, coeffs), i
            solved += 1
        assert solved == 995


def _normal_shock_pressure(down: GasState) -> float:
    """Pressure behind the 1-shock at rest on ``down``, as the Type2 test computes it."""
    g, m = down.gamma, down.mach
    return (2.0 * g * m * m - g + 1.0) * down.p / (g + 1.0)


class TestType2Oracle:
    """The Type2 test of ``predict_structure``, ``origin_state(down, right) is down``,
    against the full classical solve of conftest."""

    def test_agrees_on_every_fuzz_candidate(self):
        verdicts, refused = [], 0
        for i, (left, right, coeffs) in enumerate(riemann_batch_draws(20_000)):
            frame = rightward_frame(left, right)
            if frame is None:
                continue
            left, right, _ = frame
            if not critical_mach_numbers(coeffs, GAMMA).admits(left.mach, Side.LEFT,
                                                                Branch.SUPERSONIC):
                continue
            down = downstream_state(left, coeffs, Branch.SUPERSONIC)
            try:
                out = predict_structure(left, right, coeffs)
            except NotSolvableError:  # a refused sonic expansion: not Type2
                out = None
                refused += 1
            verdict = out is not None and out.structure is SolutionStructure.TYPE2
            assert verdict is type2_wave_clears_origin(down, right), i
            if verdict:
                assert repr(out.plus) == repr(down), i
            verdicts.append(verdict)
        # Every supersonic-admissible candidate; the 1,464 that pass are the Type2 solves.
        assert (len(verdicts), sum(verdicts), refused) == (1499, 1464, 2)

    def test_root_at_the_downstream_pressure(self):
        # Only a contact separates the states: the defect at down.p is 0.0 exactly.
        down = GasState(1.0, 2.0, 1.0)
        right = GasState(0.5, 2.0, 1.0)
        assert _defect_curve(down, right, [None])(down.p)[0] == 0.0
        assert origin_state(down, right) is down
        assert type2_wave_clears_origin(down, right)

    def test_shock_at_zero_speed(self):
        # The right datum is the state behind the shock at rest, so the root
        # is exactly the pressure of that shock. The sampler reads x/t = 0 on
        # a discontinuity at rest as the state behind it, so this is no Type2.
        down = GasState(1.0, 2.0, 1.0)
        p_normal = _normal_shock_pressure(down)
        right = wave_state(WaveFamily.ONE, down, p_normal)
        assert _defect_curve(down, right, [None])(p_normal)[0] == 0.0
        assert abs(shock_speed(WaveFamily.ONE, down, p_normal, down.sound_speed)) <= 1e-14
        assert repr(origin_state(down, right)) == repr(right)
        assert not type2_wave_clears_origin(down, right)
        # A shock weaker by 1e-9 relative moves right and leaves ``down`` at the origin.
        weaker = wave_state(WaveFamily.ONE, down, p_normal * (1.0 - 1e-9))
        assert shock_speed(WaveFamily.ONE, down, weaker.p, down.sound_speed) > 0.0
        assert origin_state(down, weaker) is down
        assert type2_wave_clears_origin(down, weaker)
        # A shock stronger by 1e-9 relative moves left.
        stronger = wave_state(WaveFamily.ONE, down, p_normal * (1.0 + 1e-9))
        assert shock_speed(WaveFamily.ONE, down, stronger.p, down.sound_speed) < 0.0
        assert origin_state(down, stronger) is not down
        assert not type2_wave_clears_origin(down, stronger)

    def test_near_vacuum_does_not_pass(self):
        # Two rarefactions close the velocity gap, but only below the pressure
        # floor of the classical solve: the defect there is negative.
        down = GasState(1.0, 2.0, 1.0)
        right = GasState(1.0, down.u + 0.99 * 4.0 * down.sound_speed / (GAMMA - 1.0), 1.0)
        assert _defect_curve(down, right, [None])(1e-12 * min(down.p, right.p))[0] < 0.0
        for solve in (solve_classical, origin_state):
            with pytest.raises(VacuumError, match="^failed to bracket the star pressure$"):
                solve(down, right)
        assert not type2_wave_clears_origin(down, right)

    def test_extreme_compression_raises(self):
        # The star pressure overflows, so the classical solve cannot bracket
        # it; the defect at the shock-at-rest pressure is still positive, so
        # no shortcut applies and ``origin_state`` raises as ``solve_classical``
        # does. A right datum that flows leftward never reaches ``predict_structure``.
        down = GasState(1.0, 2.0, 1.0)
        right = GasState(1.0, -1e155, 1.0)
        assert _defect_curve(down, right, [None])(_normal_shock_pressure(down))[0] > 0.0
        for solve in (solve_classical, origin_state, type2_wave_clears_origin):
            with pytest.raises(RootBracketError):
                solve(down, right)

    @pytest.mark.parametrize("mirrored", [False, True], ids=["rightward", "leftward"])
    def test_vacuum_in_the_type2_test_raises(self, mirrored):
        # The left datum passes supersonically, and the first wave right of
        # the origin, from the downstream state to the right datum, opens a
        # vacuum. No other structure gives a usable pair for such data, so the
        # solve raises where the Type2 test does.
        left, right = GasState(1.0, 2.0, 1.0), GasState(1.0, 15.0, 1.0)
        coeffs = SourceCoefficients(0.1, 0.1, 0.2)
        assert critical_mach_numbers(coeffs, GAMMA).admits(left.mach, Side.LEFT,
                                                           Branch.SUPERSONIC)
        if mirrored:
            left, right = right.mirrored(), left.mirrored()
        else:
            with pytest.raises(VacuumError, match="opens vacuum$"):
                predict_structure(left, right, coeffs)
        for solve in (approximate_solve, compose_reference_fan):
            with pytest.raises(VacuumError, match="opens vacuum$"):
                solve(left, right, coeffs)


def _value_objects():
    c = get_case(2)
    fan = solve_classical(c.left, c.right)
    return [fan, approximate_solve(c.left, c.right, c.coeffs),
            critical_mach_numbers(c.coeffs, GAMMA),
            field_from_states(make_grid(-1.0, 1.0, 0.5), c.left, c.right)]


class TestValueClasses:
    """The ``__init__`` of each frozen value class keeps the dataclass contract."""

    @pytest.mark.parametrize("cls", [GasState, ClassicalFan, SolverOutput, CriticalMachNumbers,
                                     DgField])
    def test_init_takes_the_fields(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in dataclasses.fields(cls)]
        for p, f in zip(params, dataclasses.fields(cls)):
            assert p.default == (inspect.Parameter.empty if f.default is dataclasses.MISSING
                                 else f.default)

    @pytest.mark.parametrize("obj", _value_objects(),
                             ids=["ClassicalFan", "SolverOutput", "CriticalMachNumbers", "DgField"])
    def test_frozen_value(self, obj):
        cls = type(obj)
        values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        for copy in (cls(*values.values()), cls(**values)):
            if cls.__eq__ is object.__eq__:  # eq=False: a field holds an array
                assert copy != obj and hash(copy) == object.__hash__(copy)
            else:
                assert copy == obj and hash(copy) == hash(obj)
            assert vars(copy) == values
        assert repr(obj) == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in values.items()) + ")"
        for name in values:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        first = next(iter(values))
        changed = dataclasses.replace(obj, **{first: None})
        assert getattr(changed, first) is None and changed != obj


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

    def test_numpy_draws_solve_as_their_floats(self):
        # The 500-draw set of the fuzz domain, built from numpy scalars as the
        # benchmark builds its problems, and from the same values as floats.
        n = 500
        k, rp, u = riemann_batch_arrays(n)
        kf, rpf, uf = k.tolist(), rp.tolist(), u.tolist()

        def outcome(left, right, coeffs):
            try:
                out = approximate_solve(left, right, coeffs)
            except Exception as exc:  # the solver is not total: failures compare by class
                return type(exc)
            values = [getattr(s, f) for s in (out.minus, out.plus) for f in ("rho", "u", "p")]
            assert [type(v) for v in values] == [float] * 6
            return out.structure, np.array(values).tobytes()

        solved = 0
        for i in range(n):
            drawn = outcome(GasState(rp[i, 0], u[i, 0], rp[i, 1]),
                            GasState(rp[i, 2], u[i, 1], rp[i, 3]), SourceCoefficients(*k[i]))
            floats = outcome(GasState(rpf[i][0], uf[i][0], rpf[i][1]),
                             GasState(rpf[i][2], uf[i][1], rpf[i][3]), SourceCoefficients(*kf[i]))
            assert drawn == floats, i
            solved += isinstance(drawn, tuple)
        assert solved > 400

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
        assert fan.right_fan.wave_strength(WaveFamily.ONE) < 1e-6
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
