"""Span tracing by wrapping public functions of the package under test.

A wrapper replaces a function wherever a package module holds it, so a name
that ``cli`` or ``agestats`` imported from another module is timed as well,
and calls made inside a wrapped function nest as child spans. Functions called
once per packet are aggregated (count, total, a 50 ns histogram for the
median) instead of being stored span by span. Spans live in memory until the
run ends and are then written out as JSON.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "aoikit"
HIST_NS = 50

# (module, attribute, how): "span" records one span per call, "agg"
# aggregates per-packet calls. A dotted attribute names a classmethod.
TARGETS = (
    ("aoikit.cli", "main", "span"),
    ("aoikit.trace", "read_trace_csv", "span"),
    ("aoikit.trace", "write_trace_csv", "span"),
    ("aoikit.trace", "effective_trace", "span"),
    ("aoikit.trace", "Trace.from_records", "span"),
    ("aoikit.agestats", "compute_statistics", "span"),
    ("aoikit.agestats", "loss_runs", "span"),
    ("aoikit.agestats", "sample_path", "span"),
    ("aoikit.agestats", "time_average_age", "span"),
    ("aoikit.agestats", "peak_average_age", "span"),
    ("aoikit.agestats", "penalty_average", "span"),
    ("aoikit.syncbias", "shift_reception", "span"),
    ("aoikit.queuesim", "simulate_queue", "span"),
    ("aoikit.queuesim", "load_sweep", "span"),
    ("aoikit.net.regions", "classify_regions", "span"),
    ("aoikit.net.session", "run_measured_sweep", "span"),
    ("aoikit.net.sender", "run_sender", "span"),
    ("aoikit.net.wire", "decode", "agg"),
    ("aoikit.net.wire", "encode_update", "agg"),
)

# counts taken from a wrapped call's result, at the layer boundary
COUNTERS = {
    "queuesim.simulate_queue": lambda r: {"queuesim.events": r.n_generated, "queuesim.dropped": r.n_dropped},
    "net.regions.classify_regions": lambda r: {"net.regions.windows": len(r.labels)},
}


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix(PACKAGE + '.')}.{attr}"


class Aggregate:
    """Count, total and duration histogram of a per-packet function. Each
    aggregated function is called from one thread only."""

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.hist: dict[int, int] = {}

    def add(self, dt_ns: int) -> None:
        self.count += 1
        self.total_ns += dt_ns
        k = dt_ns // HIST_NS
        self.hist[k] = self.hist.get(k, 0) + 1

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_ns / 1e9,
            "p50_us": hist_p50_us(self.hist),
            "hist": {str(k): n for k, n in sorted(self.hist.items())},
        }


def hist_p50_us(hist: dict) -> float:
    """Median duration of a histogram, to its resolution (bucket middle)."""
    count = sum(hist.values())
    seen = 0
    for k in sorted(hist, key=int):
        seen += hist[k]
        if 2 * seen >= count:
            return (int(k) + 0.5) * HIST_NS / 1e3
    return 0.0


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`
    and read ``spans``, ``aggregates`` and ``counters``."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id or None, name, start_ns, end_ns]
        self.aggregates: dict[str, Aggregate] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [next(self._ids), stack[-1] if stack else None, name, time.perf_counter_ns(), 0]
            self.spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                with self._lock:
                    for key, n in count(result).items():
                        self.counters[key] += n
            return result

        return wrapper

    def _agg(self, name: str, fn):
        agg = self.aggregates.setdefault(name, Aggregate())
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg.add(clock() - t0)

        return wrapper

    def install(self) -> "Tracer":
        for module, attr, how in TARGETS:
            mod = importlib.import_module(module)
            name = span_name(module, attr)
            if "." in attr:  # classmethod on a class the modules share
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._span(name, original.__func__)
                setattr(cls, meth, classmethod(wrapped))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapped = (self._span if how == "span" else self._agg)(name, original)
            for m in list(sys.modules.values()):
                if m is None or not getattr(m, "__name__", "").startswith(PACKAGE):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": {k: a.to_dict() for k, a in self.aggregates.items()},
            "counters": dict(self.counters),
        }


# -- reductions over dumped spans --------------------------------------------


def span_times(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time (a
    span minus its children; children of one span run in its thread, one at
    a time, so they do not overlap)."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, _, name, start, end in spans:
        row = out[name]
        row["count"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[sid]) / 1e9
    return dict(out)


def span_tree(spans: list) -> list[tuple[int, str, int, float, float]]:
    """Spans merged by call path: (depth, name, calls, total s, self s), in
    depth-first order of first appearance."""
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[4] - s[3]
    paths: dict[tuple, list] = {}
    for s in spans:
        path, cur = [], s
        while cur is not None:
            path.append(cur[2])
            cur = by_id.get(cur[1]) if cur[1] is not None else None
        key = tuple(reversed(path))
        row = paths.setdefault(key, [0, 0, 0])
        row[0] += 1
        row[1] += s[4] - s[3]
        row[2] += s[4] - s[3] - child_ns[s[0]]
    return [(len(k) - 1, k[-1], n, t / 1e9, st / 1e9) for k, (n, t, st) in sorted(paths.items())]


def format_tree(spans: list, aggregates: dict) -> str:
    lines = [f"{'span':<52}{'calls':>8}{'total s':>11}{'self s':>11}"]
    for depth, name, n, total, self_s in span_tree(spans):
        lines.append(f"{'  ' * depth + name:<52}{n:>8}{total:>11.4f}{self_s:>11.4f}")
    for name, agg in sorted(aggregates.items()):
        if agg["count"]:
            lines.append(
                f"{name + ' (per packet)':<52}{agg['count']:>8}{agg['total_s']:>11.4f}"
                f"   p50 {agg['p50_us']:.2f} us"
            )
    return "\n".join(lines)
