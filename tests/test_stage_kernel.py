"""The one-stack stage kernel and the float origin fluxes, bit for bit against the references.

``dg.dg_rhs`` derives primitives, Euler fluxes and the admissibility test
once over one stack of every state of a stage; ``conftest.dg_rhs`` is the
kernel it replaced, with one stack per kind of state. The origin fluxes
(``physical_flux``, ``evaluate_source``, ``llf_flux``, ``kt_flux`` and
``solver_flux``) work on the traces' floats; ``conftest`` keeps forms of them
built on its own array Euler flux of ``to_conserved``. Every comparison is on
the bytes of the result, or on the error class and message where one side
raises.
"""

import numpy as np
import pytest

from deltawave import (GasState, SchemeError, SourceCoefficients, dg, evaluate_source, kt_flux,
                       llf_flux, physical_flux, solver_flux)
from deltawave.dg import dg_rhs, make_grid, tvd_limit
from deltawave.gas import primitives
from deltawave.fluxes import FluxPair, Scheme

import conftest as ref
from conftest import riemann_batch_draws

SCHEMES = tuple(Scheme)
# How the random fields of ``random_field`` are spoiled, if at all.
KINDS = ("admissible", "leftward", "nodes", "last_mean", "nonfinite")
N_FIELDS = 40  # per kind
N_DRAWS = 2000


def random_field(rng, kind: str):
    """A random field of 4-400 cells of the given kind, with random source coefficients.

    ``admissible`` fields have admissible means and slopes of up to a tenth
    of them; ``leftward`` ones also flow leftward supersonically; ``nodes``
    gives a few cells slopes of up to three times their means, which drives
    node and trace states out of the admissible set; ``last_mean`` makes the
    last cell's mean inadmissible, which is the right ghost and the pad of the
    stage stack; ``nonfinite`` puts a NaN or an infinity into one coefficient.
    """
    n = int(rng.integers(4, 401))
    h = 2.0 / n
    j0 = int(rng.integers(1, n))
    grid = make_grid(-j0 * h, (n - j0) * h, h)
    rho = rng.uniform(0.2, 3.0, n)
    p = rng.uniform(0.2, 3.0, n)
    if kind == "leftward":
        u = -np.sqrt(1.4 * p / rho) * rng.uniform(1.1, 2.5, n)
    else:
        u = rng.uniform(-2.0, 2.0, n)
    c = np.zeros((n, 3, 3))
    c[:, 0] = np.column_stack([rho, rho * u, p / 0.4 + 0.5 * rho * u * u])
    scale = rng.uniform(0.0, 0.1) * np.abs(c[:, 0])
    c[:, 1] = rng.uniform(-1.0, 1.0, (n, 3)) * scale
    c[:, 2] = rng.uniform(-1.0, 1.0, (n, 3)) * scale
    c[rng.uniform(size=n) < 0.2, 1:] = 0.0
    if kind == "nodes":
        bad = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
        c[bad, 1:] = rng.uniform(-3.0, 3.0, (len(bad), 2, 3)) * np.abs(c[bad, :1])
    elif kind == "last_mean":
        var = int(rng.choice([0, 2]))  # a negative density or a negative pressure
        c[-1, 0, var] = -rng.uniform(0.1, 1.0)
    elif kind == "nonfinite":
        c[rng.integers(n), rng.integers(3), rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
    k = SourceCoefficients(*rng.uniform(-0.3, 0.8, 3))
    return dg.DgField(grid, 1.4, c, float(rng.uniform(0.0, 1.0))), k


def outcome(fn, *args):
    """The bytes of ``fn(*args)``, of both sides of a flux pair, or the class and message it raises.

    Inadmissible inputs may warn on their way to the typed error; the
    outcome, not the warning, is compared.
    """
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as exc:  # the class is part of the outcome
        return type(exc).__name__, str(exc)
    if isinstance(out, FluxPair):
        return out.minus.tobytes(), out.plus.tobytes()
    return out.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_dg_rhs_matches_per_stack_kernel(monkeypatch, kind):
    # The admissibility test runs once over the whole stack; the parts are
    # checked apart only when it fails, which must be exactly when a state
    # of the stage is inadmissible (the pad column adds no failure).
    slow_calls = []
    real_check = dg._check_admissible

    def check(*args):
        slow_calls.append(args)
        return real_check(*args)

    monkeypatch.setattr(dg, "_check_admissible", check)
    rng = np.random.default_rng(KINDS.index(kind))
    raised = 0
    for _ in range(N_FIELDS):
        field, k = random_field(rng, kind)
        for scheme in SCHEMES:
            slow_calls.clear()
            want = outcome(ref.dg_rhs, field, k, scheme)
            assert outcome(dg_rhs, field, k, scheme) == want
            inadmissible = isinstance(want, tuple) and want[1].startswith("inadmissible state")
            assert len(slow_calls) == inadmissible
            raised += inadmissible
    # Each kind reaches the outcome it is built for.
    if kind in ("last_mean", "nonfinite"):
        assert raised == N_FIELDS * len(SCHEMES)
    elif kind == "nodes":
        assert raised >= N_FIELDS * len(SCHEMES) // 2
    else:
        assert raised <= N_FIELDS * len(SCHEMES) // 2


def test_last_mean_is_named_only_as_interface():
    # An inadmissible last mean fails the right ghost, interface n; the pad
    # column that repeats it is not a quadrature cell.
    grid = make_grid(-1.0, 1.0, 0.25)
    c = np.zeros((grid.n_cells, 3, 3))
    c[:, 0] = [1.0, 0.5, 2.5]
    c[-1, 0, 2] = -1.0
    field = dg.DgField(grid, 1.4, c)
    want = outcome(ref.dg_rhs, field, SourceCoefficients(0.1, 0.1, 0.1), Scheme.SOLVER)
    assert want[1].startswith("inadmissible state at interfaces [7 8], quadrature cells [7]")
    assert outcome(dg_rhs, field, SourceCoefficients(0.1, 0.1, 0.1), Scheme.SOLVER) == want


def test_guard_traces_are_the_next_stage_traces(monkeypatch):
    # The limiter's positivity guard tests each cell's traces; the next
    # stage builds its interface rows from the limited field. Where the
    # guard keeps a cell, the rows are the traces it tested, bit for bit;
    # where it flattens one, both are the cell's mean. Both are read where
    # ``dg`` hands them to ``primitives``: the limiter's second call gets
    # the (2, cell, variable) traces, the stage's call its whole stack.
    seen = []

    def record(u, gamma):
        seen.append(u.copy())
        return primitives(u, gamma)

    monkeypatch.setattr(dg, "primitives", record)
    rng = np.random.default_rng(11)
    kept = flattened = 0
    for kind in ("admissible", "leftward", "nodes", "low_pressure"):
        for _ in range(N_FIELDS):
            field, _ = random_field(rng, "admissible" if kind == "low_pressure" else kind)
            if kind == "low_pressure":
                # Pressures of 0.001-0.05 under slopes of up to half the
                # means: the limiter keeps traces of p <= 0 in many fields.
                c, n = field.coeffs, field.grid.n_cells
                rho, u = rng.uniform(0.2, 3.0, n), rng.uniform(-2.0, 2.0, n)
                p = rng.uniform(0.001, 0.05, n)
                c[:, 0] = np.column_stack([rho, rho * u, p / 0.4 + 0.5 * rho * u * u])
                c[:, 1:] = rng.uniform(-0.5, 0.5, (n, 2, 3)) * np.abs(c[:, :1])
            seen.clear()
            limited = tvd_limit(field)
            try:
                dg._stage_fluxes(limited)
            except SchemeError:
                pass  # a quadrature node left the admissible set, after the rows were built
            _, guard, stack = seen
            rho, _, p = primitives(guard, field.gamma)
            bad = ((rho <= 0.0) | (p <= 0.0)).any(axis=0)
            assert not limited.coeffs[bad, 1:].any()
            for tested, row in zip(guard, (stack[1, :-1], stack[0, 1:])):
                assert row[~bad].tobytes() == tested[~bad].tobytes()
                assert np.array_equal(row[bad], limited.means[bad])
            kept += int((~bad).sum())
            flattened += int(bad.sum())
    assert kept > 0 and flattened > 0


def _at_rest(state: GasState) -> GasState:
    return GasState(state.rho, 0.0, state.p, state.gamma)


def _pairs(left: GasState, right: GasState):
    """The draw, its mirror image (the other flow orientation), and each side put at rest."""
    return ((left, right), (right.mirrored(), left.mirrored()), (_at_rest(left), right),
            (left, _at_rest(right)))


def test_origin_fluxes_match_two_call_forms():
    failed = {"kt": 0, "kt-nocorr": 0, "solver": 0}
    n_pairs = 0
    for draw_left, draw_right, k in riemann_batch_draws(N_DRAWS):
        for left, right in _pairs(draw_left, draw_right):
            n_pairs += 1
            for state in (left, right):
                assert outcome(physical_flux, state) == outcome(ref.physical_flux, state)
            assert outcome(evaluate_source, left, right, k) == outcome(ref.evaluate_source,
                                                                       left, right, k)
            assert outcome(llf_flux, left, right) == outcome(ref.llf_flux, left, right)
            for name, corrections in (("kt", True), ("kt-nocorr", False)):
                want = outcome(ref.kt_flux, left, right, k, corrections)
                assert outcome(kt_flux, left, right, k, corrections) == want
                failed[name] += isinstance(want[0], str)
            want = outcome(ref.solver_flux, left, right, k)
            assert outcome(solver_flux, left, right, k) == want
            failed["solver"] += isinstance(want[0], str)
    # Both outcomes occur: values and typed refusals (the corrected kt flux
    # refuses none of these pairs).
    assert 0 < failed["kt-nocorr"] < n_pairs and 0 < failed["solver"] < n_pairs
