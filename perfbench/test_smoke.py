"""Smoke test of the benchmark's own code, with every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the thread variables before numpy loads)

run.import_package("loop")

from compare import verdict  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spec import ALL_END_TO_END, END_TO_END  # noqa: E402

WORKLOADS = ("fine_run", "table_sweep", "riemann_batch")


def _printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "CHECK")):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric_with_unit(workload):
    result, lines = run.run_once(workload, seed=3, seconds=0.2, trace=False, import_s=0.0,
                                 tiny=True)
    assert result["correct"], result["checks"]
    printed = _printed(lines)
    for name in END_TO_END:
        assert printed[name][1] == END_TO_END[name][0]
        assert result["metrics"][name]["value"] > 0.0
    for name, (value, unit) in printed.items():
        if name in ALL_END_TO_END:
            assert unit == ALL_END_TO_END[name][0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_self_times_fit_in_wall(workload):
    result, lines = run.run_once(workload, seed=3, seconds=0.4, trace=True, import_s=0.0,
                                 tiny=True)
    assert result["correct"], result["checks"]
    printed = _printed(lines)
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, unit in PER_LAYER.items():
        assert printed[name][1] == unit
    assert result["trace_ops"]
    for op in result["trace_ops"]:
        assert 0.0 < op["self_s"] <= op["wall_s"]


def test_failure_counts_do_not_depend_on_run_length():
    short, _ = run.run_once("riemann_batch", seed=0, seconds=0.01, trace=False, import_s=0.0,
                            tiny=True)
    long, _ = run.run_once("riemann_batch", seed=0, seconds=0.5, trace=False, import_s=0.0,
                           tiny=True)
    assert long["provenance"]["operations"] > short["provenance"]["operations"]
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_benchmark_json_matches_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert declared == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    assert verdict(base, {s: v * 0.5 for s, v in base.items()}, "higher", 0.1) == "worse"
    assert verdict(base, {s: v * 2.0 for s, v in base.items()}, "higher", 0.1) == "better"
    assert verdict(base, {s: v * 0.97 for s, v in base.items()}, "higher", 0.1) == "within bound"
    noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    exact = {s: 0.1 * s for s in range(10)}
    assert verdict(exact, dict(exact), "lower", 0.0) == "within bound"
    assert verdict(exact, {**exact, 3: 0.31}, "lower", 0.0) == "worse"
