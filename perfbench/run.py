"""deltawave benchmark: one workload per run, timed from outside the package.

Single run (run from the repository root)::

    python3 perfbench/run.py --workload fine_run --seed 0 --seconds 30 --trace 0

prints a table of every metric with its unit, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``attempted`` and ``failed`` count the distinct operations
of the seed's inputs, which every pass of the timed loop repeats. The full
result (metrics, deterministic counts, checks and a provenance block) goes
to ``.bench_out/runs/``; a traced run also writes its spans to
``.bench_out/spans/``. A failed correctness check names itself and
makes the exit code 1.

Series of runs, each in a fresh interpreter, appended to a result set::

    python3 perfbench/run.py --series fine_run,table_sweep,riemann_batch \\
        --seeds 0-9 --seconds 30 --trace 0 --out SET.json

Comparison of two result sets (exit code 1 on a regression)::

    python3 perfbench/run.py --compare BASE.json NEW.json
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One thread everywhere: set before numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3

sys.path.insert(0, str(HERE))

from clock import KERNEL_OF, REF_S, Calibration, kernel_seconds  # noqa: E402


class MissingPackage(RuntimeError):
    pass


def import_package(kernel: str) -> float:
    """Import numpy and the package from this checkout; return the seconds it took."""
    if not (SRC / "deltawave" / "__init__.py").is_file():
        raise MissingPackage(f"no deltawave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    before = kernel_seconds(kernel)
    t0 = perf_counter()
    import numpy  # noqa: F401
    import deltawave
    elapsed = perf_counter() - t0
    scale = REF_S / statistics.fmean((before, kernel_seconds(kernel)))
    if Path(deltawave.__file__).resolve().parent != (SRC / "deltawave").resolve():
        raise MissingPackage(f"imported deltawave from {deltawave.__file__}, not {SRC}")
    return elapsed * scale


# -- provenance --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "deltawave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, seconds: float, measured_s: float, n_ops: int, tiny: bool,
               cal: Calibration) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "run_seconds": seconds,
        "measured_s": measured_s,
        "operations": n_ops,
        "setup_reps": SETUP_REPS,
        "tiny": tiny,
        "kernel_ref_s": REF_S,
        "kernel_mean_s": statistics.fmean(cal.samples) if cal.samples else None,
        "kernel_samples": len(cal.samples),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


# -- one run -----------------------------------------------------------------

def _phase(workload, tracer, cal, budget: float, first_id: int) -> tuple[list, list]:
    """Closed loop: operations back to back while another one fits in the budget.

    At least one operation runs. Returns the operations and their raw wall
    times without kernel samples.
    """
    ops, raw, took = [], [], []
    t0 = perf_counter()
    with tracer.installed():
        while not ops or perf_counter() - t0 + statistics.median(took) <= budget:
            spent = cal.spent
            with tracer.op(first_id + len(ops)) as op_trace:
                ops.append(workload.run_op(tracer, cal))
            took.append(op_trace.wall_s)
            raw.append(op_trace.wall_s - (cal.spent - spent))
    return ops, raw


def run_once(name: str, seed: int, seconds: float, trace: bool, import_s: float,
             tiny: bool = False, out: Path | None = None) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; return the result and the printed lines."""
    from layers import PER_LAYER, TARGETS, op_counts, per_layer_metrics
    from spec import ALL_END_TO_END, END_TO_END
    from tracer import Target, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    cal = Calibration(KERNEL_OF[name])
    setup = []
    for _ in range(SETUP_REPS):
        window = cal.window()
        cal.sample()
        t0 = perf_counter()
        workload = cls(seed, tiny)
        workload.build()
        workload.warm_up()
        raw = perf_counter() - t0
        cal.sample()
        setup.append(raw * cal.factor(window))

    # RK steps are counted in every run (cell-steps need them), and the
    # untraced phase samples the calibration kernel before each step.
    def steps(calibration):
        return Target("rk.steps", "dg", "ssp_rk3_step", timed=False,
                      after=lambda tracer, args, kwargs, outcome: calibration.sample())

    t_start = perf_counter()
    plain = Tracer([steps(cal)])
    ops, plain_raw = _phase(workload, plain, cal, seconds / 2 if trace else seconds, 0)
    traced, trace_ops = None, []
    if trace:
        off = Calibration(KERNEL_OF[name], enabled=False)
        traced = Tracer(TARGETS + [steps(off)])
        traced_ops, traced_raw = _phase(workload, traced, off, seconds / 2, len(ops))
        ops += traced_ops
    measured_s = perf_counter() - t_start

    # attempted and failed count the distinct operations of the seed's
    # inputs. Every pass repeats them, so a sum over passes would depend on
    # how many passes fit in the time; the passes must agree instead.
    attempted, failed = ops[0].attempted, ops[0].failed
    plain_ops = ops[: len(plain.ops)]
    values = workload.metrics(plain_ops)
    checks = workload.check(ops)
    if any((op.attempted, op.failed) != (attempted, failed) for op in ops):
        checks.append(f"{name}: failure counts differ between passes over the same inputs")
    counts = workload.counts(ops)
    if values:
        values.update(setup_s=import_s + statistics.median(setup),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      fail_frac=failed / attempted)
    else:
        checks.append(f"{name}: every operation failed")

    all_metrics = {m: {"value": values[m], "unit": ALL_END_TO_END[m][0]}
                   for m in ALL_END_TO_END if m in values}
    if traced is not None and values:
        layer = per_layer_metrics(traced.ops, statistics.median(traced_raw)
                                  / statistics.median(plain_raw) - 1.0)
        trace_counts = [op_counts(op) for op in traced.ops]
        if any(c != trace_counts[0] for c in trace_counts):
            checks.append(f"{name}: deterministic counts differ between traced operations")
        counts["trace"] = trace_counts[0]
        trace_ops = [{"run_id": op.run_id, "wall_s": op.wall_s,
                      "self_s": sum(s.self_s for s in op.spans.values())} for op in traced.ops]
        all_metrics.update({m: {"value": layer[m], "unit": PER_LAYER[m]} for m in PER_LAYER})
        metrics = {m: all_metrics[m] for m in PER_LAYER}
    else:
        metrics = {m: all_metrics[m] for m in END_TO_END if m in all_metrics}

    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": not checks, "attempted": attempted, "failed": failed,
        "metrics": metrics, "all_metrics": all_metrics, "counts": counts, "checks": checks,
        "trace_ops": trace_ops,
        "provenance": provenance(seed, seconds, measured_s, len(ops), tiny, cal),
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        if traced is not None:
            spans = OUT / "spans" / (out.stem + ".npz")
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced.save_spans(spans)

    lines = [f"# {name} seed={seed} trace={int(trace)} operations={len(ops)} "
             f"measured_s={measured_s:.3f}"]
    shown = PER_LAYER if trace else ALL_END_TO_END
    for m, spec_unit in shown.items():
        if m in all_metrics:
            unit = spec_unit if trace else spec_unit[0]
            value = all_metrics[m]["value"]
            lines.append(f"{m:40s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    lines.append(f"{'attempted':40s} {attempted} count")
    lines.append(f"{'failed':40s} {failed} count")
    lines.extend(f"CHECK FAILED: {c}" for c in checks)
    return result, lines


# -- command line ------------------------------------------------------------

def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def series(workloads: list[str], seeds: list[int], seconds: int, trace: int, out: Path) -> int:
    """Run each (seed, workload) in a fresh interpreter and append the results to ``out``."""
    data = json.loads(out.read_text()) if out.exists() else {"commands": [], "runs": []}
    data["commands"].append("python3 perfbench/run.py " + " ".join(sys.argv[1:]))
    status = 0
    for seed in seeds:
        for name in workloads:
            tmp = OUT / "series" / f"{name}-seed{seed}-trace{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--out", str(tmp)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"{name} seed={seed} trace={trace} exit={proc.returncode} {last[0]}", flush=True)
            if proc.returncode != 0:
                status = 1
            if tmp.exists():
                data["runs"].append(json.loads(tmp.read_text()))
                tmp.unlink()
            out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("fine_run", "table_sweep", "riemann_batch"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--series", help="comma-separated workloads to run as a series")
    parser.add_argument("--seeds", default="0-9", help="seed range a-b or list for --series")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if args.series:
        if args.out is None:
            parser.error("--series needs --out")
        return series(args.series.split(","), _seeds(args.seeds), args.seconds, args.trace,
                      args.out.resolve())
    if args.workload is None:
        parser.error("one of --workload, --series or --compare is required")

    try:
        import_s = import_package(KERNEL_OF[args.workload])
    except (MissingPackage, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result, lines = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                             import_s, out=out)
    print("\n".join(lines))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
