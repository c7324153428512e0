"""Span recorder that times the package from outside.

The tracer replaces public functions of ``deltawave`` at every module binding
that holds them (``runner.ssp_rk3_step`` as well as ``dg.ssp_rk3_step``), so
calls made inside the package are seen without editing it. Nothing is
patched until :meth:`Tracer.installed` is entered, and every binding is
restored when it exits.

Two kinds of wrapper exist. A *span* wrapper records name, start, end,
parent span and run id, and accumulates calls, inclusive time and self time
(duration minus the time covered by child spans). A *count* wrapper only
increments a counter; it is used on functions too small to time without the
timer dominating them. The tracer's own bookkeeping after a call is charged
to no span, so the self times of one run sum to at most its wall time.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

PACKAGE = "deltawave"


@dataclass
class Target:
    """One function to wrap: where it is defined and what to record."""

    metric: str  # span or counter name, e.g. "dg.rhs"
    module: str  # defining module inside the package
    func: str
    timed: bool = True
    units: Callable | None = None  # (args, kwargs) -> work units of this call
    # (tracer, args, kwargs, outcome) -> None: runs when a span ends, or for a
    # count target before each call (outcome None).
    after: Callable | None = None


@dataclass
class SpanStats:
    calls: int = 0  # outermost calls only (a recursive call is not counted twice)
    total_s: float = 0.0  # inclusive time of outermost calls
    self_s: float = 0.0
    units: float = 0.0


@dataclass
class OpTrace:
    """Aggregates of one traced operation."""

    run_id: int
    wall_s: float = 0.0
    spans: dict = field(default_factory=dict)  # metric -> SpanStats
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Span log, one column per field, kept compact for long runs.
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("q")
        self.run_ids = array("q")
        self.start = array("d")
        self.end = array("d")
        self.ops: list[OpTrace] = []
        self._op: OpTrace | None = None
        self._stack: list[list] = []  # open frames: [span id, child-covered seconds]
        self._depth: Counter = Counter()  # open spans per metric name
        self._next_id = 0

    # -- operations ---------------------------------------------------------

    @contextmanager
    def op(self, run_id: int):
        """Collect the spans and counts of one workload operation."""
        self._op = OpTrace(run_id)
        t0 = perf_counter()
        try:
            yield self._op
        finally:
            self._op.wall_s = perf_counter() - t0
            self.ops.append(self._op)
            self._op = None

    def counted(self, name: str) -> int:
        """Count recorded so far in the current operation."""
        return self._op.counts[name] if self._op is not None else 0

    def count(self, name: str, n: int = 1) -> None:
        if self._op is not None:
            self._op.counts[name] += n

    def inside(self, metric: str) -> bool:
        return self._depth[metric] > 0

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        metric = target.metric
        if metric not in self._name_ids:
            self._name_ids[metric] = len(self.names)
            self.names.append(metric)
        nid = self._name_ids[metric]
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[metric] += 1
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[metric] -= 1
                self._record(target, nid, sid, parent, start, end, frame[1], args, kwargs, outcome)
                if stack:
                    # The whole wrapper, bookkeeping included, is covered by
                    # this child: the parent's self time excludes tracer cost.
                    stack[-1][1] += perf_counter() - t_enter

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        key, after = target.metric + ".calls", target.after

        def wrapper(*args, **kwargs):
            op = self._op
            if op is not None:
                op.counts[key] += 1
                if after is not None:
                    after(self, args, kwargs, None)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, target, nid, sid, parent, start, end, child_s, args, kwargs, outcome):
        op = self._op
        if op is None:
            return
        self.span_id.append(sid)
        self.parent_id.append(parent)
        self.name_id.append(nid)
        self.run_ids.append(op.run_id)
        self.start.append(start)
        self.end.append(end)
        stats = op.spans.get(target.metric)
        if stats is None:
            stats = op.spans[target.metric] = SpanStats()
        stats.self_s += (end - start) - child_s
        if self._depth[target.metric] == 0:
            stats.calls += 1
            stats.total_s += end - start
            if target.units is not None and not isinstance(outcome, BaseException):
                stats.units += target.units(args, kwargs)
        if target.after is not None:
            target.after(self, args, kwargs, outcome)

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target at every binding in the package; restore on exit."""
        patched: list[tuple[object, str, Callable]] = []
        try:
            for target in self.targets:
                home = importlib.import_module(f"{PACKAGE}.{target.module}")
                orig = getattr(home, target.func)
                make = self._span_wrapper if target.timed else self._count_wrapper
                wrapper = make(target, orig)
                for module in _package_modules():
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, orig))
            yield self
        finally:
            for module, attr, orig in reversed(patched):
                setattr(module, attr, orig)

    def save_spans(self, path) -> None:
        """Write the span log (name table plus one column per field)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            run_id=np.frombuffer(self.run_ids, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
