"""Digests of the package's outputs, for checking that a change keeps them bit for bit.

    python tools/bitcheck.py TREE > digests.json

imports ``deltawave`` from ``TREE/src`` and prints one JSON object: a
sha256 per group of outputs, plus the error classes counted. Two trees
compare with ``diff``. It exits with status 2, printing no JSON, where the
imported package is not ``TREE/src/deltawave`` (say, ``TREE`` has none and
``PYTHONPATH`` names another tree). The groups:

- ``solve.*``: over the 20,000-draw set of the solver's fuzz domain in
  ``tools/fuzz_domain.py``, the repr of each ``approximate_solve`` output,
  the indices that fail, and each failure's error class and message. The
  set depends on its size, so its head is not the benchmark's 2,000-draw
  ``riemann_batch`` set;
- ``curve.*``: for the first 2,000 of the 20,000 draws, the repr (or error
  class and message) of ``solve_classical`` on the draw; and for those whose
  flow passes the origin, seen in the rightward frame, of
  ``subsonic_passage_bracket``, of ``velocity_mismatch`` at both ends of
  that bracket and of ``pressure_for_mach`` at the critical Mach number that
  bounds it.
  A drift in the wave curves or their root finders then names its layer;
- ``flux.*``: ``kt_flux`` with and without corrections, ``solver_flux``,
  ``evaluate_source`` and ``llf_flux`` of every draw, and ``jump_residual``
  of every solver pair that carries a source; and ``solver_flux`` of the
  first 2,000 of the 20,000 draws put at rest with the left pressure on
  both sides, in both orientations, so each is a contact at rest on
  x/t = 0;
- ``fan.*``: for the first 300 of the 20,000 draws,
  ``reference_cell_averages`` and ``profile_rows_from_fan`` on [-1, 1]
  (h = 0.01, t = 0.1), ``feature_intervals`` and the wave speeds of each fan that
  ``compose_reference_fan`` composes, the indices that fail, and their
  errors; and ``sample_source_primitives`` of each fan on the 1,000
  quadrature coordinates of ``reference_cell_averages``, shuffled (seed 0)
  and reshaped to (25, 40), so that a sampler whose rows depend on the
  order or the shape of its coordinates cannot keep the digests;
- ``run.*``: sha256 of the final coefficients and repr of the density L1
  error of ``run_test`` for tests 1-8 x {splitting, kt, kt-nocorr, solver}
  at h = 0.05, test 8 with the solver at h = 0.0125 and test 1 with kt and
  with the solver at h = 0.0125, where ``advance`` fast-forwards an exact
  equilibrium (the error class and message where a run raises);
- ``stage.*``: for seeds 0-2, 300 seeded random fields each (4-400 cells,
  means scaled by 1 +/- 0.5 of a random factor cubed, so some cells are
  troubled, some flattened and some have p <= 0; some fields flow leftward
  supersonically, some have zero slopes), the bytes of ``dg_rhs`` under
  each scheme, of ``tvd_limit`` and of one ``ssp_rk3_step``, and the repr
  of ``cfl_dt`` (the error class and message where one raises); and
  ``stage.spoiled_means``, the same outputs (one step, its scheme cycling)
  for a 16-cell admissible field with one mean spoiled, in each of the
  classes of ``SPOILS``, at cells 0, j0 - 1, j0 and n - 1: values that the
  random fields never draw;
- ``cli.reference.N``: the CSV bytes of ``deltawave reference --test N``;
- ``cli.run.N``: the CSV bytes of ``deltawave run --test N --scheme solver
  --h 0.5``;
- ``cli.converge``: the names and CSV bytes of the profiles that
  ``deltawave converge --test 2 --scheme solver --h-list 0.5,0.25 --out-dir``
  writes.

It takes about 40 s on one core, 3 s of it in the ``stage.*`` group and
under 2 s in ``curve.*``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import fuzz_domain

N_DRAWS = 20_000
N_FANS = 300
N_CURVES = 2_000
N_FIELDS = 300  # random stage inputs per seed
# The spoiled means of ``stage.spoiled_means``: (variable, value) sets that
# conserved entry of a mean, and ("p", value) sets its energy to the one that
# gives the pressure ``value``, as the scheme computes p.
SPOILS = [(0, math.inf), (0, -math.inf), (0, 0.0), (0, -0.0), (0, 1e-310), (0, 5e-324),
          (1, math.nan), (2, math.inf), ("p", 0.0), ("p", -0.5)]


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line if isinstance(line, bytes) else str(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _attempt(fn, *args) -> str:
    """repr of the result, or the error class and message; arrays by their bytes."""
    try:
        out = fn(*args)
    except Exception as exc:  # failures are outputs too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, np.ndarray):
        return out.tobytes().hex()
    return repr(out)


def _solves(dw, draws) -> dict:
    ok, failed, errors, classes, pairs = [], [], [], Counter(), []
    for i, (left, right, coeffs) in enumerate(draws):
        try:
            out = dw.approximate_solve(left, right, coeffs)
        except Exception as exc:
            failed.append(i)
            errors.append(f"{i} {type(exc).__name__}: {exc}")
            classes[type(exc).__name__] += 1
            continue
        ok.append(f"{i} {out!r}")
        if out.structure is not dw.SolutionStructure.CLASSICAL:
            pairs.append(dw.StationaryPair(out.minus, out.plus, coeffs, dw.Branch.SUBSONIC))
    return {
        "solve.ok": _digest(ok),
        "solve.failed_indices": _digest(failed),
        "solve.errors": _digest(errors),
        "solve.error_classes": dict(sorted(classes.items())),
        "flux.jump_residual": _digest(_attempt(dw.jump_residual, p) for p in pairs),
    }


def _curves(dw, draws) -> dict:
    from deltawave.gas import rightward_frame
    from deltawave.stationary import critical_mach_numbers
    from deltawave.structure import subsonic_passage_bracket, velocity_mismatch
    from deltawave.waves import pressure_for_mach

    brackets, mismatches, pressures, classical = [], [], [], []
    for left, right, coeffs in draws[:N_CURVES]:
        classical.append(_attempt(dw.solve_classical, left, right))
        frame = rightward_frame(left, right)
        if frame is None:  # no flow through the origin: no bracket to find
            continue
        left, right = frame[:2]
        target = critical_mach_numbers(coeffs, left.gamma).upstream_subsonic_max
        pressures.append(_attempt(pressure_for_mach, left, target))
        try:
            bracket = subsonic_passage_bracket(left, coeffs)
        except Exception as exc:
            brackets.append(f"{type(exc).__name__}: {exc}")
            continue
        brackets.append(repr(bracket))
        mismatches.extend(_attempt(velocity_mismatch, p, left, right, coeffs) for p in bracket)
    return {"curve.bracket": _digest(brackets),
            "curve.velocity_mismatch": _digest(mismatches),
            "curve.pressure_for_mach": _digest(pressures),
            "curve.solve_classical": _digest(classical)}


def _pair(pair) -> str:
    return pair.minus.tobytes().hex() + pair.plus.tobytes().hex()


def _contacts_at_rest(dw, draws):
    """Each draw with both velocities 0 and the left pressure on both sides, and its mirror."""
    for left, right, coeffs in draws:
        left, right = dw.GasState(left.rho, 0.0, left.p), dw.GasState(right.rho, 0.0, left.p)
        yield left, right, coeffs
        yield right.mirrored(), left.mirrored(), coeffs


def _fluxes(dw, draws) -> dict:
    def solver(*args):
        return _pair(dw.solver_flux(*args))

    return {
        "flux.solver": _digest(_attempt(solver, *d) for d in draws),
        "flux.solver_at_rest": _digest(_attempt(solver, *d)
                                       for d in _contacts_at_rest(dw, draws[:N_CURVES])),
        "flux.kt": _digest(_attempt(lambda *a: _pair(dw.kt_flux(*a)), *d) for d in draws),
        "flux.kt_nocorr": _digest(_attempt(lambda *a: _pair(dw.kt_flux(*a, False)), *d)
                                  for d in draws),
        "flux.source": _digest(_attempt(dw.evaluate_source, *d) for d in draws),
        "flux.llf": _digest(_attempt(dw.llf_flux, *d[:2]) for d in draws),
    }


def _fans(dw, draws) -> dict:
    from deltawave.dg import make_grid
    from deltawave.runner import _REF_NODES, profile_rows_from_fan, reference_cell_averages

    grid = make_grid(-1.0, 1.0, 0.01)
    nodes = ((grid.centers + _REF_NODES[:, None] * grid.h) / 0.1).reshape(-1)
    shuffled = np.random.default_rng(0).permutation(nodes).reshape(25, 40)
    averages, rows, intervals, speeds, failed, errors = [], [], [], [], [], []
    samples = []
    for i, (left, right, coeffs) in enumerate(draws[:N_FANS]):
        try:
            fan = dw.compose_reference_fan(left, right, coeffs)
        except Exception as exc:
            failed.append(i)
            errors.append(f"{i} {type(exc).__name__}: {exc}")
            continue
        averages.append(_attempt(reference_cell_averages, fan, grid, 0.1))
        rows.append(_attempt(profile_rows_from_fan, fan, grid.centers, 0.1))
        samples.append(_attempt(dw.sample_source_primitives, fan, shuffled))
        intervals.append(_attempt(fan.feature_intervals))
        speeds.append(_attempt(lambda: (fan.left_wave_speeds(), fan.right_wave_speeds())))
    return {"fan.reference_cell_averages": _digest(averages),
            "fan.profile_rows": _digest(rows),
            "fan.shuffled_samples": _digest(samples),
            "fan.feature_intervals": _digest(intervals),
            "fan.wave_speeds": _digest(speeds),
            "fan.failed_indices": _digest(failed),
            "fan.errors": _digest(errors)}


def _runs() -> dict:
    from deltawave.runner import SCHEMES, run_test

    out = {}
    runs = [(tid, name, 0.05) for tid in range(1, 9)
            for name in ("splitting", "kt", "kt-nocorr", "solver")]
    runs += [(8, "solver", 0.0125), (1, "kt", 0.0125), (1, "solver", 0.0125)]
    for tid, name, h in runs:
        key = f"run.{tid}.{name}.{h:g}"
        try:
            rep = run_test(tid, SCHEMES[name], h)
        except Exception as exc:
            out[key] = f"{type(exc).__name__}: {exc}"
            continue
        out[key] = [hashlib.sha256(rep.field.coeffs.tobytes()).hexdigest(), repr(rep.l1("rho"))]
    return out


def _random_field(dg, rng):
    """A random field of 4-400 cells and random source coefficients."""
    from deltawave import SourceCoefficients

    n = int(rng.integers(4, 401))
    h = 2.0 / n
    j0 = int(rng.integers(1, n))
    grid = dg.make_grid(-j0 * h, (n - j0) * h, h)
    rho = rng.uniform(0.2, 3.0, n)
    p = rng.uniform(0.2, 3.0, n)
    if rng.uniform() < 0.2:  # supersonic leftward flow
        u = -np.sqrt(1.4 * p / rho) * rng.uniform(1.1, 2.5, n)
    else:
        u = rng.uniform(-2.0, 2.0, n)
    coeffs = np.zeros((n, 3, 3))
    coeffs[:, 0] = np.column_stack([rho, rho * u, p / 0.4 + 0.5 * rho * u * u])
    coeffs[:, 0] *= 1.0 + 0.5 * rng.uniform() ** 3 * rng.uniform(-1.0, 1.0, (n, 3))
    if rng.uniform() >= 0.15:  # else zero slopes
        scale = rng.uniform(0.0, 0.1) * np.abs(coeffs[:, 0])
        coeffs[:, 1] = rng.uniform(-1.0, 1.0, (n, 3)) * scale
        coeffs[:, 2] = rng.uniform(-1.0, 1.0, (n, 3)) * scale
        coeffs[rng.uniform(size=n) < 0.2, 1:] = 0.0
    k = SourceCoefficients(*rng.uniform(-0.3, 0.8, 3))
    return dg.DgField(grid, 1.4, coeffs, float(rng.uniform(0.0, 1.0))), k


def _coeffs_of(fn, *args) -> np.ndarray:
    return fn(*args).coeffs


def _stage_outputs(dg, field, k, scheme, schemes) -> list[str]:
    """The outcomes of ``dg_rhs`` under each scheme, ``tvd_limit``, ``cfl_dt`` and one step.

    Inadmissible inputs may warn on their way to the typed error; the
    outcome, not the warning, is the output.
    """
    with np.errstate(all="ignore"):
        return [*(_attempt(dg.dg_rhs, field, k, each) for each in schemes),
                _attempt(_coeffs_of, dg.tvd_limit, field), _attempt(dg.cfl_dt, field, 0.3),
                _attempt(_coeffs_of, dg.ssp_rk3_step, field, 0.05 * field.grid.h, k, scheme)]


def _spoiled_means() -> str:
    """The digest of ``_stage_outputs`` on a 16-cell field with one mean spoiled per case."""
    from deltawave import SourceCoefficients, dg
    from deltawave.runner import SCHEMES

    grid, k = dg.make_grid(-0.75, 1.25, 0.125), SourceCoefficients(0.4, 0.2, 0.4)
    n, rng = grid.n_cells, np.random.default_rng(0)
    rho, u, p = rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n)
    base = np.zeros((n, 3, 3))
    base[:, 0] = np.column_stack([rho, rho * u, p / 0.4 + 0.5 * rho * u * u])
    base[:, 1:] = 0.01 * rng.uniform(-1.0, 1.0, (n, 2, 3)) * np.abs(base[:, :1])
    schemes, lines = list(SCHEMES.values()), []
    for cell in (0, grid.j0 - 1, grid.j0, n - 1):
        for var, value in SPOILS:
            c = base.copy()
            if var == "p":
                rho, mom = c[cell, 0, :2]
                c[cell, 0, 2] = 0.5 * mom * (mom / rho) + value / 0.4
            else:
                c[cell, 0, var] = value
            scheme = schemes[len(lines) % len(schemes)]
            lines.append(_stage_outputs(dg, dg.DgField(grid, 1.4, c), k, scheme, schemes))
    return _digest(line for outputs in lines for line in outputs)


def _stages() -> dict:
    from deltawave import dg
    from deltawave.runner import SCHEMES

    names = [f"rhs.{s}" for s in SCHEMES] + ["limit", "cfl", "step"]
    out = {"stage.spoiled_means": _spoiled_means()}
    for seed in range(3):
        rng = np.random.default_rng(seed)
        lines = {name: [] for name in names}
        for i in range(N_FIELDS):
            field, k = _random_field(dg, rng)
            scheme = list(SCHEMES.values())[i % len(SCHEMES)]
            outputs = _stage_outputs(dg, field, k, scheme, SCHEMES.values())
            for name, line in zip(names, outputs):
                lines[name].append(line)
        out.update({f"stage.{seed}.{name}": _digest(v) for name, v in lines.items()})
    return out


def _cli() -> dict:
    from deltawave.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        commands = (("reference", []), ("run", ["--scheme", "solver", "--h", "0.5"]))
        for tid in range(1, 9):
            for command, options in commands:
                path = Path(tmp) / f"{command}{tid}.csv"
                main([command, "--test", str(tid), *options, "--out", str(path)],
                     standalone_mode=False)
                out[f"cli.{command}.{tid}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        study = Path(tmp) / "converge"
        main(["converge", "--test", "2", "--scheme", "solver", "--h-list", "0.5,0.25",
              "--out-dir", str(study)], standalone_mode=False)
        profiles = sorted(study.iterdir())
        out["cli.converge"] = _digest(line for p in profiles for line in (p.name, p.read_bytes()))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    package = Path(argv[0]).resolve() / "src" / "deltawave"
    sys.path.insert(0, str(package.parent))
    # Without TREE/src/deltawave, the import would find another tree's package on the path.
    spec = importlib.util.find_spec("deltawave")
    if spec is None or spec.origin is None or Path(spec.origin).resolve() != package / "__init__.py":
        print(f"bitcheck.py: error: no package {package} to import", file=sys.stderr)
        return 2
    import deltawave as dw

    print(f"digests of {package}", file=sys.stderr)
    draws = fuzz_domain.draws(N_DRAWS, dw)
    result = {**_solves(dw, draws), **_curves(dw, draws), **_fluxes(dw, draws), **_fans(dw, draws), **_runs(),
              **_stages(), **_cli()}
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
