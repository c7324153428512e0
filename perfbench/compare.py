"""Compare two result sets, metric by metric and workload by workload.

A result set is the JSON file that ``run.py --series`` writes: a list of
runs, each with its workload, seed, trace flag, metrics and deterministic
counts. For every (metric, workload) this prints each side's median and
quartiles, the ratio new/base and a verdict:

- ``better``: the new side wins at least nine tenths of the pairs (runs
  paired by seed, ties counting for neither) and the medians differ by more
  than the base side's quartile distance;
- ``worse``: the new median is worse than the base median by more than the
  metric's bound;
- ``unresolved``: the run-to-run spread of either side exceeds the bound,
  unless every new run reads better than every base run;
- ``within bound``: otherwise.

A metric with bound 0 is deterministic for a given code and seed (rho_l1,
fail_frac): it is compared seed by seed, and any worse pair makes it worse;
sets without common seeds are judged only when their values are identical.

Per-layer metrics have no bound and get no verdict. Deterministic counts of
runs with the same workload, seed and trace flag are compared exactly.
"""

from __future__ import annotations

import json
import statistics

from spec import ALL_END_TO_END


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    """Verdict for one (metric, workload); ``base`` and ``new`` map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(base[s], new[s]) for s in base if s in new]
    if bound == 0.0:
        if not pairs:  # different seeds: only identical value sets can be judged
            same = sorted(base.values()) == sorted(new.values())
            return "within bound" if same else "unresolved"
        gains = [sign * (n - b) for b, n in pairs]
        if any(g < 0.0 for g in gains):
            return "worse"
        return "better" if any(g > 0.0 for g in gains) else "within bound"
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_q1, n_med, n_q3 = quartiles(list(new.values()))
    if b_med == 0.0 or n_med == 0.0:
        gain = sign * (n_med - b_med)
        return "within bound" if gain == 0.0 else ("better" if gain > 0.0 else "worse")
    spread = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med))
    if spread > bound:
        if min(sign * v for v in new.values()) > max(sign * v for v in base.values()):
            return "better"
        return "unresolved"
    pairs = pairs or list(zip(base.values(), new.values()))
    wins = sum(sign * (n - b) > 0.0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > b_q3 - b_q1:
        return "better"
    if sign * (n_med - b_med) / abs(b_med) < -bound:
        return "worse"
    return "within bound"


def _series(runs: list[dict], workload: str, trace: int, metric: str) -> dict[int, float]:
    out = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace and metric in run["all_metrics"]:
            out[run["seed"]] = run["all_metrics"][metric]["value"]
    return out


def compare(base_path: str, new_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)["runs"]
    with open(new_path) as fh:
        new = json.load(fh)["runs"]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    rows, regressions = [], 0
    for trace in (0, 1):
        # Traced runs also carry the end-to-end metrics of their untraced half;
        # only their per-layer metrics are compared.
        metrics = sorted({m for r in base + new if r["trace"] == trace for m in r["all_metrics"]
                          if (m in ALL_END_TO_END) == (trace == 0)})
        for metric in metrics:
            for workload in workloads:
                b = _series(base, workload, trace, metric)
                n = _series(new, workload, trace, metric)
                if not b or not n:
                    continue
                spec = ALL_END_TO_END.get(metric) if trace == 0 else None
                if spec is None or spec[2] is None:
                    result = "-"
                else:
                    result = verdict(b, n, spec[1], spec[2])
                regressions += result == "worse"
                bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
                ratio = f"{nq[1] / bq[1]:.4f}" if bq[1] else "-"
                rows.append((metric, workload, _fmt(bq), _fmt(nq), ratio, result))
    widths = [max(len(str(r[i])) for r in rows + [_HEADER]) for i in range(len(_HEADER))]
    for row in [_HEADER] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    mismatches = 0
    for rb in base:
        for rn in new:
            if (rb["workload"], rb["seed"], rb["trace"]) == (rn["workload"], rn["seed"], rn["trace"]) \
                    and rb["counts"] != rn["counts"]:
                mismatches += 1
                print(f"counts differ: {rb['workload']} seed {rb['seed']} trace {rb['trace']}")
    speed = [statistics.median(r["provenance"]["kernel_mean_s"] for r in runs
                               if r["provenance"]["kernel_mean_s"]) for runs in (base, new)]
    print(f"calibration kernel, median of run means: base {speed[0]:.4g} s, "
          f"new {speed[1]:.4g} s, new/base {speed[1] / speed[0]:.4f}")
    print(f"{regressions} regression(s); {mismatches} count mismatch(es)")
    return 1 if regressions else 0


_HEADER = ("metric", "workload", "base median [q1, q3]", "new median [q1, q3]", "new/base",
           "verdict")


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
