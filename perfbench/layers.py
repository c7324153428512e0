"""The package functions the traced run wraps, and the per-layer metrics.

Span names follow the layer metric names: ``dg.rhs`` is ``dg_rhs``,
``stationary.curve`` covers the three stationary-jump curve functions, and
so on. Count-only targets are functions that are called per sample or per
root-finder iteration, where a timer would cost as much as the call.

Per-layer times are raw wall times: the traced phase takes no calibration
samples, so that none land inside a span. Compare them between runs made on
one machine, and read ``kernel_mean_s`` in each run's provenance beside them.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import OpTrace, Target

STRUCTURES = ("Type1", "Type2", "Type3", "Type4", "Type5", "Type6", "Type7", "Classical")
# Error classes the fuzz domain raises today, plus two the solver code can
# raise (a failed bracket, a division by a roundoff-zero k); anything else is
# counted as Other.
FAIL_CLASSES = ("ValueError", "NotSolvableError", "VacuumError", "RootBracketError",
                "ZeroDivisionError")


def _cells(args, kwargs) -> int:
    return args[0].grid.n_cells


def _samples(args, kwargs) -> int:
    return 5 * args[1].n_cells  # 5-point Gauss rule per cell


def _after_limit(tracer, args, kwargs, outcome) -> None:
    if isinstance(outcome, BaseException):
        return
    before = args[0].coeffs[:, 1:, :]
    after = outcome.coeffs[:, 1:, :]
    changed = np.any(before != after, axis=(1, 2))
    flat = changed & np.all(after == 0.0, axis=(1, 2))
    tracer.count("dg.limit.cells", before.shape[0])
    tracer.count("dg.limit.troubled_cells", int(np.count_nonzero(changed)))
    tracer.count("dg.limit.flattened_cells", int(np.count_nonzero(flat)))


def _after_solve(tracer, args, kwargs, outcome) -> None:
    if isinstance(outcome, BaseException):
        name = type(outcome).__name__
        tracer.count(f"structure.fail.{name if name in FAIL_CLASSES else 'Other'}")
    else:
        tracer.count(f"structure.hist.{outcome.structure.value}")


def _after_wave_state(tracer, args, kwargs, outcome) -> None:
    if tracer.inside("structure.solve"):
        tracer.count("waves.wave_state.in_solve")


TARGETS = [
    Target("runner.run_test", "runner", "run_test"),
    Target("runner.advance", "runner", "advance"),
    Target("runner.reference", "runner", "reference_cell_averages", units=_samples),
    Target("runner.error_norms", "runner", "error_norms"),
    Target("dg.step", "dg", "ssp_rk3_step"),
    Target("dg.rhs", "dg", "dg_rhs", units=_cells),
    Target("dg.limit", "dg", "tvd_limit", units=_cells, after=_after_limit),
    Target("dg.cfl", "dg", "cfl_dt"),
    Target("fluxes.origin", "fluxes", "origin_flux"),
    Target("fluxes.origin.kt", "fluxes", "kt_flux"),
    Target("fluxes.origin.solver", "fluxes", "solver_flux"),
    Target("structure.solve", "structure", "approximate_solve", after=_after_solve),
    Target("structure.predict", "structure", "predict_structure"),
    Target("structure.compose", "structure", "compose_reference_fan"),
    Target("structure.sample", "structure", "sample_source_fan"),
    Target("stationary.curve", "stationary", "downstream_state"),
    Target("stationary.curve", "stationary", "upstream_state"),
    Target("stationary.curve", "stationary", "choked_downstream"),
    Target("stationary.critical", "stationary", "critical_mach_numbers", timed=False),
    Target("waves.pressure_for_mach", "waves", "pressure_for_mach"),
    Target("waves.wave_state", "waves", "wave_state", timed=False, after=_after_wave_state),
    Target("classical.solve", "classical", "solve_classical"),
    Target("classical.sample", "classical", "sample_classical", timed=False),
    Target("gas.scalar", "gas", "to_conserved", timed=False),
    Target("gas.scalar", "gas", "physical_flux", timed=False),
    Target("gas.scalar", "gas", "eigenvalues", timed=False),
]

# Per-layer metrics: name -> unit. Every traced run prints all of them; a
# layer a workload never reaches reads 0.
PER_LAYER = {
    "dg.step.calls": "count",
    "dg.step.overhead_us": "us",
    "dg.rhs.calls": "count",
    "dg.rhs.self_s": "s",
    "dg.rhs.ns_per_cell": "ns",
    "dg.limit.calls": "count",
    "dg.limit.self_s": "s",
    "dg.limit.ns_per_cell": "ns",
    "dg.limit.troubled_frac": "fraction",
    "dg.limit.flattened_frac": "fraction",
    "dg.limit.troubled_cells": "count",
    "dg.limit.flattened_cells": "count",
    "dg.cfl.self_s": "s",
    "fluxes.origin.calls": "count",
    "fluxes.origin.kt.us_per_call": "us",
    "fluxes.origin.solver.us_per_call": "us",
    "structure.solve.calls": "count",
    "structure.solve.us_per_call": "us",
    "structure.predict.us_per_call": "us",
    "structure.compose.us_per_call": "us",
    "structure.sample.calls": "count",
    "structure.sample.us_per_call": "us",
    **{f"structure.hist.{s}": "count" for s in STRUCTURES},
    **{f"structure.fail.{c}": "count" for c in FAIL_CLASSES + ("Other",)},
    "stationary.curve.calls": "count",
    "stationary.curve.us_per_call": "us",
    "stationary.critical.calls": "count",
    "waves.pressure_for_mach.calls": "count",
    "waves.pressure_for_mach.us_per_call": "us",
    "waves.wave_state.calls": "count",
    "waves.wave_state.per_solve": "count",
    "classical.solve.calls": "count",
    "classical.solve.us_per_call": "us",
    "classical.sample.calls": "count",
    "gas.scalar.calls": "count",
    "runner.advance.self_s": "s",
    "runner.reference.s": "s",
    "runner.reference.ns_per_sample": "ns",
    "runner.error_norms.s": "s",
    "trace.overhead_frac": "fraction",
}


def op_counts(op: OpTrace) -> dict[str, int]:
    """Deterministic counts of one traced operation: they must repeat exactly."""
    counts = {f"{m}.calls": s.calls for m, s in op.spans.items()}
    counts.update(op.counts)
    return dict(sorted(counts.items()))


def per_layer_metrics(ops: list[OpTrace], overhead_frac: float) -> dict[str, float]:
    """Per-layer values from traced operations.

    Counts are per operation (taken from the first; the caller checks that
    every operation repeats them). Self times are medians over operations;
    per-call and per-cell costs pool all traced operations.
    """
    counts = op_counts(ops[0])

    def pooled(metric: str) -> tuple[int, float, float, float]:
        stats = [op.spans[metric] for op in ops if metric in op.spans]
        return (sum(s.calls for s in stats), sum(s.total_s for s in stats),
                sum(s.self_s for s in stats), sum(s.units for s in stats))

    def per_op(metric: str, attr: str) -> float:
        return statistics.median(getattr(op.spans[metric], attr) if metric in op.spans else 0.0
                                 for op in ops)

    def ratio(num: float, den: float, scale: float) -> float:
        return scale * num / den if den else 0.0

    def pooled_counts(name: str) -> int:
        return sum(op.counts[name] for op in ops)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".calls") or name.startswith(("structure.hist.", "structure.fail.")) \
                or name.endswith("_cells"):
            out[name] = counts.get(name, 0)
    calls, total, self_s, units = pooled("dg.step")
    out["dg.step.overhead_us"] = ratio(self_s, calls, 1e6)
    for metric in ("dg.rhs", "dg.limit"):
        calls, total, self_s, units = pooled(metric)
        out[f"{metric}.self_s"] = per_op(metric, "self_s")
        out[f"{metric}.ns_per_cell"] = ratio(self_s, units, 1e9)
    cells = pooled_counts("dg.limit.cells")
    out["dg.limit.troubled_frac"] = ratio(pooled_counts("dg.limit.troubled_cells"), cells, 1.0)
    out["dg.limit.flattened_frac"] = ratio(pooled_counts("dg.limit.flattened_cells"), cells, 1.0)
    out["dg.cfl.self_s"] = per_op("dg.cfl", "self_s")
    for metric in ("fluxes.origin.kt", "fluxes.origin.solver", "structure.solve",
                   "structure.predict", "structure.compose", "structure.sample",
                   "stationary.curve", "waves.pressure_for_mach", "classical.solve"):
        calls, total, _, _ = pooled(metric)
        out[f"{metric}.us_per_call"] = ratio(total, calls, 1e6)
    out["waves.wave_state.per_solve"] = ratio(pooled_counts("waves.wave_state.in_solve"),
                                              pooled("structure.solve")[0], 1.0)
    out["runner.advance.self_s"] = per_op("runner.advance", "self_s")
    out["runner.reference.s"] = per_op("runner.reference", "total_s")
    calls, total, _, units = pooled("runner.reference")
    out["runner.reference.ns_per_sample"] = ratio(total, units, 1e9)
    out["runner.error_norms.s"] = per_op("runner.error_norms", "total_s")
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in PER_LAYER}
