"""Interleaved in-process A/B timing of the package in two source trees.

    python tools/abtime.py TREE_A TREE_B [--rounds N]

imports ``TREE_A/src/deltawave`` as ``deltawave_a`` and
``TREE_B/src/deltawave`` as ``deltawave_b`` into one interpreter and runs N
rounds (default 40). Each round times both packages, in alternating order,
on nine pieces of work:

- ``solve``: ``approximate_solve`` over the 2,000-draw set of
  ``tools/fuzz_domain.py``, the seed-0 problems of the benchmark's
  ``riemann_batch`` workload (draws that fail count too); the fastest of
  three passes, as one pass on a shared host spreads widely;
- ``origin``: ``fluxes.origin_flux`` under the kt and the solver schemes
  over the same 2,000 draws (refusals count too); the fastest of three
  passes. It times the origin flux pairs alone, which every stage of an
  unsplit run evaluates once from its two traces;
- ``step``: one ``ssp_rk3_step`` of test 8 with the solver flux at
  h = 0.0125 (1,600 cells), from its initial field; the fastest of five, as
  one step takes only a few milliseconds;
- ``advance``: ``runner.advance`` of the same run from t = 1.5 to 1.6 (about
  40 steps), from a field that each side computes once at setup with its own
  ``advance``; the fastest of three. Unlike ``step``, it sees what
  ``advance`` does around the steps, and a mid-run field, where the waves
  have spread over part of the grid;
- ``reference``: ``compose_reference_fan`` plus ``reference_cell_averages``
  over the first 100 of those draws, on the benchmark's reference grid
  (200 cells on [-1, 1], t = 0.1); the fastest of three;
- ``sweep``: ``runner.advance`` of test 5 with the kt flux at h = 0.05 from
  t = 2.0 to 2.35 (about 40 steps on windows of about 200 cells), from a
  field that each side computes once at setup; the fastest of three. The
  runs of the benchmark's ``table_sweep`` step such small windows, where a
  stage costs mostly its fixed per-call work; ``step`` and ``advance`` run
  far more cells per stage;
- ``limit``: one ``tvd_limit`` alone, on the cells of ``step_window`` of the
  t = 1.5 field of ``advance`` (511 of the 1,600 cells); the fastest of
  five, as one call takes a fraction of a millisecond;
- ``equilibrium``: ``run_test`` of test 1 with the solver flux at h = 0.05,
  the set-up run of the benchmark's ``table_sweep``; the fastest of three.
  Test 1 is an exact equilibrium, so ``advance`` computes only its first
  and last steps, and the piece times what a run does around its steps:
  the initial field, the reference fan and the error norms;
- ``solve_min``: ``approximate_solve`` over the draws of ``solve``, each
  draw timed alone: the sum over the draws of each draw's fastest time in
  ten passes per package, the two packages' passes interleaved. A whole pass
  takes in every interrupt and slow phase of a shared host, so ``solve``
  spreads by a few per cent between rounds; the per-draw minimum drops them
  and resolves changes of 1-2% of a solve.

It prints, per piece of work, each side's median time, the median and
quartiles of the per-round ratio B / A, so a ratio below 1 means B is faster,
and the rounds that B won, as k/N.
Both sides of a round run back to back, so the speed phases of a shared host
that separate benchmark processes cancel in the ratio.

The two positions are not quite equal: trees whose code is byte-identical
have read ``solve_min`` up to about 0.8% apart (a tree against a fresh copy
of itself, 40 rounds on a 2-core Xeon VM: B / A 0.9923, B won 34 of 40), and
the lean is not a fixed bonus for either position. So a ``solve_min``
reading under about 1% needs both orders, A then B and B then A, before it
says which tree is faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from fuzz_domain import draws

N_DRAWS = 2000
STEP_H = 0.0125
SOLVE_REPEATS = 3
ORIGIN_REPEATS = 3
STEP_REPEATS = 5
ADVANCE_REPEATS = 3
ADVANCE_FROM, ADVANCE_TO = 1.5, 1.6
N_FANS = 100
REF_H, REF_T = 0.01, 0.1
REFERENCE_REPEATS = 3
SWEEP_TEST, SWEEP_H = 5, 0.05
SWEEP_FROM, SWEEP_TO = 2.0, 2.35
SWEEP_REPEATS = 3
LIMIT_REPEATS = 5
EQUILIBRIUM_TEST, EQUILIBRIUM_H = 1, 0.05
EQUILIBRIUM_REPEATS = 3
MIN_PASSES = 10  # per package and round


def load(tree: Path, name: str):
    """The ``deltawave`` package under ``tree/src``, imported as the top-level module ``name``."""
    init = tree / "src" / "deltawave" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Work:
    """The timed pieces of work, set up on one package."""

    def __init__(self, dw, name: str):
        structure, dg, runner, fluxes = (importlib.import_module(f"{name}.{m}")
                                         for m in ("structure", "dg", "runner", "fluxes"))
        self.draws = draws(N_DRAWS, dw)  # the seed-0 problems of riemann_batch
        self.solve_fn, self.error = structure.approximate_solve, dw.DeltawaveError
        self.origin_fn = fluxes.origin_flux
        self.origin_schemes = (fluxes.Scheme.KT, fluxes.Scheme.SOLVER)
        case = dw.get_case(8)
        left, right = runner.initial_states(case)
        self.field = dg.field_from_states(dg.make_grid(*case.domain, STEP_H), left, right)
        self.run_args = (case.coeffs, runner.scheme_from_name("solver"))
        self.step_args = (dg.cfl_dt(self.field, runner.CFL), *self.run_args)
        self.step_fn = dg.ssp_rk3_step
        self.advance_fn, self.cfl = runner.advance, runner.CFL
        self.mid_field = runner.advance(self.field, *self.run_args, ADVANCE_FROM, self.cfl)
        grid, c = self.mid_field.grid, self.mid_field.coeffs
        lo, hi = dg.step_window(c, grid.j0)
        window = dg.Grid(grid.a + lo * grid.h, grid.a + hi * grid.h, hi - lo, grid.h,
                         grid.j0 - lo)
        self.window = dg.DgField(window, self.mid_field.gamma, c[lo:hi].copy(),
                                 self.mid_field.time)
        self.limit_fn = dg.tvd_limit
        self.run_test_fn, self.solver = runner.run_test, runner.scheme_from_name("solver")
        self.compose_fn = structure.compose_reference_fan
        self.reference_fn = runner.reference_cell_averages
        self.ref_grid = dg.make_grid(-1.0, 1.0, REF_H)
        sweep_case = dw.get_case(SWEEP_TEST)
        self.sweep_args = (sweep_case.coeffs, runner.scheme_from_name("kt"))
        sweep_field = dg.field_from_states(dg.make_grid(*sweep_case.domain, SWEEP_H),
                                           *runner.initial_states(sweep_case))
        self.sweep_field = runner.advance(sweep_field, *self.sweep_args, SWEEP_FROM, self.cfl)

    def _solve_pass(self) -> None:
        for left, right, coeffs in self.draws:
            try:
                self.solve_fn(left, right, coeffs)
            except self.error:
                pass

    def _origin_pass(self) -> None:
        for left, right, coeffs in self.draws:
            for scheme in self.origin_schemes:
                try:
                    self.origin_fn(left, right, coeffs, scheme)
                except self.error:
                    pass

    def _reference_pass(self) -> None:
        for left, right, coeffs in self.draws[:N_FANS]:
            try:
                self.reference_fn(self.compose_fn(left, right, coeffs), self.ref_grid, REF_T)
            except self.error:
                pass

    def solve_latencies(self) -> np.ndarray:
        """Each draw's ``approximate_solve`` time in one pass, in seconds."""
        out = np.empty(len(self.draws))
        for i, (left, right, coeffs) in enumerate(self.draws):
            t0 = perf_counter()
            try:
                self.solve_fn(left, right, coeffs)
            except self.error:
                pass
            out[i] = perf_counter() - t0
        return out

    def solve(self) -> float:
        return fastest(self._solve_pass, SOLVE_REPEATS)

    def origin(self) -> float:
        return fastest(self._origin_pass, ORIGIN_REPEATS)

    def step(self) -> float:
        return fastest(lambda: self.step_fn(self.field, *self.step_args), STEP_REPEATS)

    def advance(self) -> float:
        return fastest(lambda: self.advance_fn(self.mid_field, *self.run_args, ADVANCE_TO,
                                               self.cfl), ADVANCE_REPEATS)

    def reference(self) -> float:
        return fastest(self._reference_pass, REFERENCE_REPEATS)

    def sweep(self) -> float:
        return fastest(lambda: self.advance_fn(self.sweep_field, *self.sweep_args, SWEEP_TO,
                                               self.cfl), SWEEP_REPEATS)

    def limit(self) -> float:
        return fastest(lambda: self.limit_fn(self.window), LIMIT_REPEATS)

    def equilibrium(self) -> float:
        return fastest(lambda: self.run_test_fn(EQUILIBRIUM_TEST, self.solver, EQUILIBRIUM_H),
                       EQUILIBRIUM_REPEATS)


def fastest(fn, repeats: int) -> float:
    """The shortest wall time, in seconds, of ``repeats`` calls of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def solve_min(sides: list[Work], order: tuple[int, int]) -> list[float]:
    """Per package, the sum over the draws of each draw's fastest time in ``MIN_PASSES``
    passes; the passes of the two packages alternate in ``order``."""
    best = [np.full(N_DRAWS, np.inf) for _ in sides]
    for _ in range(MIN_PASSES):
        for s in order:
            np.minimum(best[s], sides[s].solve_latencies(), out=best[s])
    return [float(b.sum()) for b in best]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "src" / "deltawave" / "__init__.py").is_file():
            parser.error(f"no package src/deltawave in {tree}")
    sides = [Work(load(tree.resolve(), name), name)
             for tree, name in ((args.tree_a, "deltawave_a"), (args.tree_b, "deltawave_b"))]
    names = ("solve", "origin", "step", "advance", "reference", "sweep", "limit", "equilibrium")
    for side in sides:  # warm-up, untimed; ``solve`` warms ``solve_min``'s code
        for name in names:
            getattr(side, name)()
    times = {(name, s): [] for name in names + ("solve_min",) for s in range(2)}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name in names:
            for s in order:
                gc.collect()
                times[name, s].append(getattr(sides[s], name)())
        gc.collect()
        for s, t in enumerate(solve_min(sides, order)):
            times["solve_min", s].append(t)
    print(f"A = {args.tree_a}, B = {args.tree_b}, {args.rounds} interleaved rounds")
    print(f"{'work':11s} {'A median s':>11s} {'B median s':>11s} {'B/A median':>11s} "
          f"{'B wins':>7s}  B/A quartiles")
    for name in names + ("solve_min",):
        a, b = times[name, 0], times[name, 1]
        ratios = [tb / ta for ta, tb in zip(a, b)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        wins = f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"
        print(f"{name:11s} {statistics.median(a):11.5f} {statistics.median(b):11.5f} "
              f"{statistics.median(ratios):11.4f} {wins:>7s}  {q1:.4f}-{q3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
