"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. A workload builds its inputs from the seed,
runs one operation at a time through the package's public functions, and
checks the outputs. Functions are looked up on their modules at call time so
that the tracer's wrappers are seen. Every reported time is scaled to the
reference machine speed (see ``clock``); the calibration kernel runs between
equal chunks of work and its own time is taken out of every timer.

- ``fine_run``: test 8 (Type7, choked) with the solver scheme at h = 0.0125,
  1600 cells. The largest run of the paper's refinement study; DG kernel
  work dominates and the origin solver is a few per cent.
- ``table_sweep``: all 8 built-in tests x {splitting, kt, solver} at
  h = 0.05 through ``run_test``. Small grids, so fixed per-stage overhead and
  the origin flux weigh more; test 1 checks well-balancing bit-exactly.
- ``riemann_batch``: random Riemann problems from the solver fuzz domain,
  solved and then composed into exact reference fans. No DG work at all, so
  DG-only optimisations should leave it unchanged.
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import deltawave
from deltawave import cases, dg, runner, stationary, structure

CFL = 0.5
EPS = float(np.finfo(float).eps)
# Jump relation of a solver pair: curve evaluations leave a few ulps (at
# most 5 over 12,000 fuzz draws); choked pairs pin the downstream Mach to one
# while the upstream choking Mach comes from a bisection to 1e-12, which
# leaves up to 7e-12 (3.3e4 ulps) on the same draws.
JUMP_ULPS = 64.0
CHOKED_JUMP_REL = 1e-10
CHOKED = ("Type3", "Type7")


def _admissible_means(means: np.ndarray, gamma: float) -> bool:
    rho = means[:, 0]
    p = (gamma - 1.0) * (means[:, 2] - 0.5 * means[:, 1] ** 2 / rho)
    return bool(np.all(np.isfinite(means)) and np.all(rho > 0.0) and np.all(p > 0.0))


def _state_ok(s) -> bool:
    return all(math.isfinite(v) for v in (s.rho, s.u, s.p)) and s.rho > 0.0 and s.p > 0.0


@dataclass
class Op:
    """Measurements of one operation."""

    wall_s: float
    attempted: int
    failed: int
    data: dict


class FineRun:
    name = "fine_run"

    def __init__(self, seed: int, tiny: bool = False):
        # A fixed problem: the seed has nothing to draw here.
        self.test_id, self.scheme_name = 8, "solver"
        self.h = 0.5 if tiny else 0.0125
        # Accuracy floor: the package as first benchmarked gives 0.01358 at
        # h = 0.0125 (0.0389 at h = 0.05) and 0.180 at h = 0.5.
        self.rho_l1_max = 0.25 if tiny else 0.02

    def build(self) -> None:
        self.case = cases.get_case(self.test_id)
        self.scheme = runner.scheme_from_name(self.scheme_name)
        self.grid = dg.make_grid(*self.case.domain, self.h)
        self.left, self.right = runner.initial_states(self.case)
        self.field0 = dg.field_from_states(self.grid, self.left, self.right)

    def warm_up(self) -> None:
        # One limited RK step and one reference evaluation; a full run would
        # double the cost of a benchmark run.
        f = self.field0
        dg.ssp_rk3_step(f, dg.cfl_dt(f, CFL), self.case.coeffs, self.scheme)
        fan = structure.compose_reference_fan(self.left, self.right, self.case.coeffs)
        ref = runner.reference_cell_averages(fan, self.grid, self.case.t_end)
        runner.error_norms(f.means, ref, self.left.gamma, self.h)

    def run_op(self, tracer, cal) -> Op:
        c = self.case
        op_w = cal.window()
        t0 = perf_counter()
        try:
            steps0 = tracer.counted("rk.steps.calls")
            adv_w = cal.window()
            ta = perf_counter()
            # The step counter samples the kernel before every RK step.
            field = runner.advance(self.field0, c.coeffs, self.scheme, c.t_end, CFL)
            advance_s = cal.scaled(perf_counter() - ta, adv_w)
            steps = tracer.counted("rk.steps.calls") - steps0
            ref_w = cal.window()
            cal.sample()
            tr = perf_counter()
            fan = structure.compose_reference_fan(self.left, self.right, c.coeffs)
            ref = runner.reference_cell_averages(fan, self.grid, c.t_end)
            ref_raw = perf_counter() - tr
            cal.sample()
            ref_s = ref_raw * cal.factor(ref_w)
            errors = runner.error_norms(field.means, ref, self.left.gamma, self.h)
        except Exception as exc:  # a run that raises is a failed operation
            return Op(cal.scaled(perf_counter() - t0, op_w), 1, 1, {"error": repr(exc)})
        wall = cal.scaled(perf_counter() - t0, op_w)
        n = self.grid.n_cells
        return Op(wall, 1, 0, {
            "advance_s": advance_s, "steps": steps, "cell_steps": n * steps,
            "ref_s": ref_s, "ref_cells": n, "rho_l1": errors["rho"][0],
            "admissible": _admissible_means(field.means, field.gamma),
        })

    def metrics(self, ops: list[Op]) -> dict:
        ok = [op.data for op in ops if not op.failed]
        if not ok:
            return {}
        cell_steps = sum(d["cell_steps"] for d in ok) / sum(d["advance_s"] for d in ok)
        return {
            "wall_s": statistics.median(op.wall_s for op in ops if not op.failed),
            "work_per_s": cell_steps,
            "cell_steps_per_s": cell_steps,
            "rho_l1": ok[0]["rho_l1"],
            "ref_cells_per_s": sum(d["ref_cells"] for d in ok) / sum(d["ref_s"] for d in ok),
        }

    def counts(self, ops: list[Op]) -> dict:
        ok = [op.data for op in ops if not op.failed]
        return {"steps": ok[0]["steps"]} if ok else {}

    def check(self, ops: list[Op]) -> list[str]:
        ok = [op.data for op in ops if not op.failed]
        bad = []
        if len(ok) < len(ops):
            bad.append(f"fine_run: {len(ops) - len(ok)} of {len(ops)} runs raised")
        if any(not d["admissible"] for d in ok):
            bad.append("fine_run: final cell means inadmissible")
        if len({(d["steps"], d["rho_l1"]) for d in ok}) > 1:
            bad.append("fine_run: steps or rho L1 differ between identical runs")
        if ok and not ok[0]["rho_l1"] <= self.rho_l1_max:
            bad.append(f"fine_run: rho L1 {ok[0]['rho_l1']!r} above {self.rho_l1_max}")
        return bad


class TableSweep:
    name = "table_sweep"
    SCHEMES = ("splitting", "kt", "solver")

    def __init__(self, seed: int, tiny: bool = False):
        self.h = 0.5 if tiny else 0.05
        combos = [(tid, s) for tid in range(1, 9) for s in self.SCHEMES]
        # The seed fixes the order of the 24 runs; every run is made once.
        order = np.random.default_rng(seed).permutation(len(combos))
        self.combos = [combos[i] for i in order]

    def build(self) -> None:
        # Set-up builds the cases as a caller would; run_test looks its own up.
        self.cases = {c.id: c for c in cases.all_cases()}
        self.schemes = {s: runner.scheme_from_name(s) for s in self.SCHEMES}

    def warm_up(self) -> None:
        runner.run_test(1, self.schemes["solver"], self.h)

    def run_op(self, tracer, cal) -> Op:
        runs = []
        op_w = cal.window()
        t0 = perf_counter()
        for tid, s in self.combos:
            steps0 = tracer.counted("rk.steps.calls")
            run_w = cal.window()
            t = perf_counter()
            try:
                report = runner.run_test(tid, self.schemes[s], self.h)
            except Exception as exc:  # a run that raises is a failed operation
                runs.append({"test": tid, "scheme": s, "error": repr(exc)})
                continue
            wall = perf_counter() - t
            # Kernel samples happen only inside advance, i.e. inside duration.
            runs.append({
                "test": tid, "scheme": s, "wall_s": cal.scaled(wall, run_w),
                "advance_s": cal.scaled(report.duration, run_w), "cells": report.n_cells,
                "steps": tracer.counted("rk.steps.calls") - steps0,
                "rho_l1": report.l1("rho"), "wb": report.wb_deviation,
            })
        wall = cal.scaled(perf_counter() - t0, op_w)
        failed = sum("error" in r for r in runs)
        return Op(wall, len(runs), failed, {"runs": runs})

    @staticmethod
    def _ok(ops):
        return [r for op in ops for r in op.data["runs"] if "error" not in r]

    def metrics(self, ops: list[Op]) -> dict:
        ok = self._ok(ops)
        if not ok:
            return {}
        first = [r for r in ops[0].data["runs"] if "error" not in r]
        cell_steps = sum(r["cells"] * r["steps"] for r in ok) / sum(r["advance_s"] for r in ok)
        return {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "work_per_s": cell_steps,
            "cell_steps_per_s": cell_steps,
            "rho_l1": math.fsum(r["rho_l1"] for r in first),
        }

    def counts(self, ops: list[Op]) -> dict:
        steps = {f"{r['test']}/{r['scheme']}": r["steps"] for r in self._ok(ops[:1])}
        return {"steps": dict(sorted(steps.items()))}

    def check(self, ops: list[Op]) -> list[str]:
        bad = []
        errors = [r for op in ops for r in op.data["runs"] if "error" in r]
        if errors:
            bad.append(f"table_sweep: {len(errors)} runs raised, first {errors[0]}")
        by_combo: dict = {}
        for r in self._ok(ops):
            by_combo.setdefault((r["test"], r["scheme"]), set()).add((r["steps"], r["rho_l1"], r["wb"]))
            if not math.isfinite(r["rho_l1"]):
                bad.append(f"table_sweep: test {r['test']} {r['scheme']} rho L1 not finite")
        if any(len(v) > 1 for v in by_combo.values()):
            bad.append("table_sweep: steps or errors differ between identical runs")
        for (tid, s), results in sorted(by_combo.items()):
            if tid != 1:
                continue
            wb = next(iter(results))[2]
            if s != "splitting" and wb != 0.0:
                bad.append(f"well_balanced: test 1 {s} wb_deviation {wb!r} is not exactly 0.0")
            if s == "splitting" and not wb > 1e-3:
                bad.append(f"splitting_not_wb: test 1 splitting wb_deviation {wb!r} <= 1e-3")
        if not any(tid == 1 for tid, _ in by_combo):
            bad.append("well_balanced: test 1 did not complete")
        return bad


class RiemannBatch:
    name = "riemann_batch"
    # Reference fans are sampled on [-1, 1] at t = 0.1, i.e. x/t in [-10, 10],
    # which holds every wave of the draw domain.
    REF_T = 0.1
    CHUNK = 25  # problems between kernel samples in the solve phase

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_solve, self.n_ref = (40, 4) if tiny else (2000, 100)
        self.ref_h = 0.1 if tiny else 0.01

    def build(self) -> None:
        # The solver's fuzz domain: k_i in (-0.6, 1.5), rho, p in (0.1, 5),
        # |u| <= 4. Problems the solver cannot handle stay in.
        rng = np.random.default_rng(self.seed)
        n = self.n_solve
        k = rng.uniform(-0.6, 1.5, (n, 3))
        rp = rng.uniform(0.1, 5.0, (n, 4))
        u = rng.uniform(-4.0, 4.0, (n, 2))
        self.problems = [
            (deltawave.GasState(rp[i, 0], u[i, 0], rp[i, 1]),
             deltawave.GasState(rp[i, 2], u[i, 1], rp[i, 3]),
             deltawave.SourceCoefficients(*k[i]))
            for i in range(n)
        ]
        self.grid = dg.make_grid(-1.0, 1.0, self.ref_h)

    def warm_up(self) -> None:
        left, right, coeffs = self.problems[0]
        try:
            structure.approximate_solve(left, right, coeffs)
            fan = structure.compose_reference_fan(left, right, coeffs)
            runner.reference_cell_averages(fan, self.grid, self.REF_T)
        except Exception:  # the first draw may be one the solver refuses
            pass

    def run_op(self, tracer, cal) -> Op:
        lat, outs = array("d"), []
        op_w = cal.window()
        t0 = perf_counter()
        for i, (left, right, coeffs) in enumerate(self.problems):
            if i % self.CHUNK == 0:
                cal.sample()
            t = perf_counter()
            try:
                out = structure.approximate_solve(left, right, coeffs)
            except Exception as exc:  # counted as a failed solve, never redrawn
                outs.append(type(exc).__name__)
                continue
            lat.append(perf_counter() - t)
            outs.append(out)
        solve_factor = cal.factor(op_w)
        solve_s = cal.scaled(perf_counter() - t0, op_w)
        lat = array("d", (t * solve_factor for t in lat))

        refs = []
        ref_w = cal.window()
        t1 = perf_counter()
        for left, right, coeffs in self.problems[: self.n_ref]:
            cal.sample()
            try:
                fan = structure.compose_reference_fan(left, right, coeffs)
                refs.append(runner.reference_cell_averages(fan, self.grid, self.REF_T))
            except Exception as exc:
                refs.append(type(exc).__name__)
        ref_s = cal.scaled(perf_counter() - t1, ref_w)
        wall = cal.scaled(perf_counter() - t0, op_w)

        # Outputs are checked, and reduced to counts and a digest, after the
        # timed part so that memory does not grow with the number of passes.
        keys = tuple(o if isinstance(o, str) else
                     (o.structure.value, o.minus.rho, o.minus.u, o.minus.p,
                      o.plus.rho, o.plus.u, o.plus.p) for o in outs)
        hist: dict = {}
        for key in keys:
            name = key if isinstance(key, str) else key[0]
            hist[name] = hist.get(name, 0) + 1
        ref_ok = [r for r in refs if not isinstance(r, str)]
        failed = len(outs) - len(lat) + len(refs) - len(ref_ok)
        return Op(wall, len(outs) + len(refs), failed, {
            "solve_s": solve_s, "ref_s": ref_s, "latencies": lat,
            "ref_cells": len(ref_ok) * self.grid.n_cells,
            "digest": hash(keys), "hist": dict(sorted(hist.items())),
            "bad": self._check_outputs(outs, ref_ok),
        })

    def _check_outputs(self, outs, refs) -> list[str]:
        bad = []
        for (left, right, coeffs), out in zip(self.problems, outs):
            if isinstance(out, str):
                continue
            if not (_state_ok(out.minus) and _state_ok(out.plus)):
                bad.append(f"admissible_solve: non-finite or inadmissible output {out}")
                break
            if out.structure.value == "Classical":
                continue
            pair = stationary.StationaryPair(out.minus, out.plus, coeffs, stationary.Branch.SUBSONIC)
            res = np.abs(stationary.jump_residual(pair))
            up, down = (out.minus, out.plus) if out.minus.u > 0.0 else \
                (out.plus.mirrored(), out.minus.mirrored())
            scale = np.maximum(np.abs((1.0 + coeffs.diag) * deltawave.physical_flux(up)),
                               np.abs(deltawave.physical_flux(down)))
            rel = CHOKED_JUMP_REL if out.structure.value in CHOKED else JUMP_ULPS * EPS
            if not np.all(res <= rel * scale):
                bad.append(f"jump_residual: {out.structure.value} pair residual {res.max():.3e} "
                           f"exceeds {rel:.1e} of flux scale {scale.max():.3e}")
                break
        if not all(np.all(np.isfinite(r)) and np.all(r[:, 0] > 0.0) for r in refs):
            bad.append("reference: cell averages non-finite or with non-positive density")
        return bad

    def metrics(self, ops: list[Op]) -> dict:
        # One float64 array, not a list of floats: peak memory must not grow
        # with the number of passes a run happens to make.
        lat = np.sort(np.concatenate([np.frombuffer(op.data["latencies"]) for op in ops]))
        if not len(lat):
            return {}
        solve_s = sum(op.data["solve_s"] for op in ops)
        return {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "work_per_s": len(lat) / solve_s,
            "solves_per_s": len(lat) / solve_s,
            "solve_us_p50": 1e6 * float(np.median(lat)),
            "solve_us_p99": 1e6 * float(lat[math.ceil(0.99 * len(lat)) - 1]),
            "solve_samples": len(lat),
            "ref_cells_per_s": sum(op.data["ref_cells"] for op in ops)
            / sum(op.data["ref_s"] for op in ops),
        }

    def counts(self, ops: list[Op]) -> dict:
        return {"outcomes": ops[0].data["hist"]}

    def check(self, ops: list[Op]) -> list[str]:
        bad = [msg for op in ops for msg in op.data["bad"]]
        if len({op.data["digest"] for op in ops}) > 1:
            bad.append("riemann_batch: solver outputs differ between passes over the same problems")
        return bad


WORKLOADS = {w.name: w for w in (FineRun, TableSweep, RiemannBatch)}
