"""The three CLI workloads and the metric tables shared by all four.

Each CLI workload runs ``python -m aoikit.cli`` in a child process; wall time
and peak RSS come from ``os.wait4``. One CLI run is one operation. A traced
run alternates an untraced and a traced operation, checks that both wrote
byte-identical outputs, and takes the per-layer numbers from the traced one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import gen
import tracer
from common import HERE, BenchError, import_seconds, repeat

ANALYZE_RECORDS = 1_000_000
SIM_RATES = [round(0.1 * k, 1) for k in range(1, 10)]
SIM_SEEDS = 10
SIM_EVENTS = 10_000
BIAS_NS = 1000 * gen.NS
FINITE_EVENTS = 1_000_000
WARMUP_FRACTION = 0.05  # SimConfig default: leading share of departures dropped
REL_TOL = 1e-9

# per-layer metric -> (span name, "total_s" or "self_s")
SPAN_LAYER = {
    "trace.read_trace_csv_s": ("trace.read_trace_csv", "total_s"),
    "trace.effective_trace_s": ("trace.effective_trace", "total_s"),
    "trace.write_trace_csv_s": ("trace.write_trace_csv", "total_s"),
    "trace.from_records_s": ("trace.Trace.from_records", "total_s"),
    "agestats.compute_statistics_s": ("agestats.compute_statistics", "self_s"),
    "agestats.loss_runs_s": ("agestats.loss_runs", "total_s"),
    "agestats.sample_path_s": ("agestats.sample_path", "total_s"),
    "agestats.time_average_age_s": ("agestats.time_average_age", "total_s"),
    "agestats.peak_average_age_s": ("agestats.peak_average_age", "total_s"),
    "agestats.penalty_average_s": ("agestats.penalty_average", "total_s"),
    "syncbias.shift_reception_s": ("syncbias.shift_reception", "total_s"),
    "queuesim.simulate_queue_s": ("queuesim.simulate_queue", "self_s"),
    "queuesim.load_sweep_s": ("queuesim.load_sweep", "total_s"),
    "net.regions.classify_regions_s": ("net.regions.classify_regions", "total_s"),
    "cli.self_s": ("cli.main", "self_s"),
}

LAYER_UNITS = {
    **{name: "s" for name in SPAN_LAYER},
    "trace.stale_discarded": "count",
    "trace.csv_bytes": "bytes",
    "agestats.n_effective": "count",
    "queuesim.events": "count",
    "queuesim.dropped": "count",
    "net.regions.windows": "count",
    "net.wire.decode_calls": "count",
    "net.wire.decode_s": "s",
    "net.wire.decode_p50_us": "us",
    "net.wire.encode_update_s": "s",
    "net.receiver.received": "count",
    "net.receiver.malformed": "count",
    "net.receiver.loss_share": "share",
    "net.sender.achieved_pps": "1/s",
    "net.sender.lateness_p90_us": "us",
    "net.sender.lateness_p99_us": "us",
    "net.sender.max_burst": "count",
    "net.relay.forwarded": "count",
    "net.relay.dropped": "count",
    "net.relay.service_pps": "1/s",
    "net.relay.queue_delay_p50_ms": "ms",
    "net.session.cpu_s": "s",
    "net.session.fidelity_miss_share": "share",
    "bench.trace_overhead_s": "s",
}

E2E_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "delivered_pps": "1/s",
    "lateness_p50_us": "us",
}


def metric_block(values: dict, units: dict) -> dict:
    """Every metric of ``units``, in its order; a layer the workload does not
    reach reads 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def median_of(rows: list[dict]) -> dict:
    keys = {k for r in rows for k in r}
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


def layer_from_dump(dump: dict) -> dict:
    times = tracer.span_times(dump["spans"])
    out = {m: times.get(span, {}).get(col, 0.0) for m, (span, col) in SPAN_LAYER.items()}
    out.update(dump["counters"])
    return out


def merge_dumps(dumps: list[dict]) -> dict:
    """One dump from several, span ids renumbered so they stay unique."""
    spans, hists, totals, counters, base = [], {}, {}, {}, 0
    for d in dumps:
        for sid, parent, name, start, end in d["spans"]:
            spans.append([sid + base, None if parent is None else parent + base, name, start, end])
        base += 1 + max((s[0] for s in d["spans"]), default=-1)
        for name, agg in d["aggregates"].items():
            hist = hists.setdefault(name, {})
            for k, n in agg["hist"].items():
                hist[k] = hist.get(k, 0) + n
            totals[name] = totals.get(name, 0.0) + agg["total_s"]
        for k, v in d["counters"].items():
            counters[k] = counters.get(k, 0) + v
    aggregates = {
        name: {"count": sum(h.values()), "total_s": totals[name], "p50_us": tracer.hist_p50_us(h), "hist": h}
        for name, h in hists.items()
    }
    return {"spans": spans, "aggregates": aggregates, "counters": counters}


# -- CLI children -------------------------------------------------------------


class CliOp:
    """One workload operation: its CLI runs in sequence."""

    def __init__(self):
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.ok = True
        self.facts: dict = {}
        self.digests: dict[str, str] = {}
        self.dumps: list[dict] = []


def run_cli(ctx, args: list[str], out_dir, traced: bool):
    """(exit code, wall s, peak RSS MB, stdout, stderr) of one CLI child."""
    if traced:
        cmd = [sys.executable, str(HERE / "tracedcli.py"), str(out_dir / "spans.json")]
    else:
        cmd = [sys.executable, "-m", "aoikit.cli"]
    cmd += [*args, "--out", str(out_dir)]
    stdout, stderr = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=out_dir, env=ctx.env, stdout=so, stderr=se)
        killer = threading.Timer(max(1.0, ctx.kill_at - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout.read_text(), stderr.read_text()


def cli_op(ctx, tally, commands, traced: bool, compare: tuple[str, ...]) -> CliOp:
    """Run ``commands`` (pairs of CLI args and an output check) as one
    operation each; the check returns (problems, facts)."""
    op = CliOp()
    out = Path(tempfile.mkdtemp(prefix="op", dir=ctx.work))
    for args, check in commands:
        rc, wall, rss, stdout, stderr = run_cli(ctx, args, out, traced)
        op.wall_s += wall
        op.rss_mb = max(op.rss_mb, rss)
        if rc != 0:
            problems = [f"{' '.join(args[:2])} exited {rc}: {stderr.strip()[-300:]}"]
            op.ok = False
        else:
            try:
                problems, facts = check(out, stdout)
                op.facts.update(facts)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"{' '.join(args[:2])} output unreadable: {exc!r}"]
                op.ok = False
        tally.op(problems)
        if traced and (out / "spans.json").exists():
            op.dumps.append(json.loads((out / "spans.json").read_text()))
    for name in compare:
        if (out / name).exists():
            op.digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    shutil.rmtree(out)
    return op


def cli_workload(ctx, tally, commands, compare: tuple[str, ...], sizes) -> dict:
    """Set up, repeat the operation for the run's seconds and reduce.

    ``sizes(op)`` gives the op's (records, events, delivered) counts.
    """
    setup_s = import_seconds(ctx)
    ctx.deadline_after_setup()
    if not ctx.traced:
        ops = repeat(ctx, lambda: cli_op(ctx, tally, commands, False, compare))
        done = [o for o in ops if o.ok]
        if not done:
            raise BenchError("no operation completed")
        rows = []
        for o in done:
            records, events, delivered = sizes(o)
            rows.append({
                "records_per_s": records / o.wall_s,
                "events_per_s": events / o.wall_s,
                "peak_rss_mb": o.rss_mb,
                "delivered_pps": delivered / o.wall_s,
                "lateness_p50_us": o.wall_s / records * 1e6,
            })
        e2e = {"setup_s": setup_s, **median_of(rows)}
        return {
            "e2e": metric_block(e2e, E2E_UNITS),
            "ops": [{"wall_s": o.wall_s, "rss_mb": o.rss_mb, **o.facts} for o in ops],
        }

    pairs = repeat(ctx, lambda: (
        cli_op(ctx, tally, commands, False, compare),
        cli_op(ctx, tally, commands, True, compare),
    ))
    rows, dumps = [], []
    for plain, traced in pairs:
        problems = [f"traced run changed {name}" for name in compare
                    if plain.digests.get(name) != traced.digests.get(name)]
        tally.op(problems)
        if not (plain.ok and traced.ok):
            continue
        dump = merge_dumps(traced.dumps)
        dumps.append(dump)
        rows.append({
            **layer_from_dump(dump),
            **traced.facts,
            "bench.trace_overhead_s": traced.wall_s - plain.wall_s,
        })
    if not rows:
        raise BenchError("no traced operation completed")
    return {
        "layer": metric_block(median_of(rows), LAYER_UNITS),
        "spans": dumps[0],
        "tree": tracer.format_tree(dumps[0]["spans"], dumps[0]["aggregates"]),
    }


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


# -- analyze-1m ------------------------------------------------------------------


def analyze_1m(ctx, tally) -> dict:
    trace = gen.generate_trace(ctx.seed, ANALYZE_RECORDS)
    path = ctx.work / "trace.csv"
    path.write_text(trace.to_csv())
    traffic = gen.traffic_stats(trace)
    want_avg, want_peak = gen.oracle_ages(trace)
    n_eff = int(np.count_nonzero(gen.effective_mask(trace)))
    seq_span = int(trace.seq.max() - trace.seq.min() + 1)

    def check(out, stdout):
        stats = json.loads((out / "stats.json").read_text())
        problems = []
        if not close(stats["avg_age_s"], want_avg):
            problems.append(f"avg_age_s {stats['avg_age_s']!r} != oracle {want_avg!r}")
        if not close(stats["peak_age_s"], want_peak):
            problems.append(f"peak_age_s {stats['peak_age_s']!r} != oracle {want_peak!r}")
        if stats["n_effective"] != n_eff:
            problems.append(f"n_effective {stats['n_effective']} != oracle {n_eff}")
        if stats["n_stale_discarded"] != len(trace) - n_eff:
            problems.append(f"n_stale_discarded {stats['n_stale_discarded']} != oracle {len(trace) - n_eff}")
        return problems, {
            "trace.stale_discarded": stats["n_stale_discarded"],
            "agestats.n_effective": stats["n_effective"],
        }

    args = ["--mode", "analyze", "--trace", str(path), "--penalty", "exp", "--alpha", "0.5"]
    result = cli_workload(ctx, tally, [(args, check)], ("stats.json",),
                          lambda op: (len(trace), seq_span, n_eff))
    result["traffic"] = traffic
    return result


# -- sim-paper ---------------------------------------------------------------------


def sim_paper(ctx, tally) -> dict:
    def check_sweep(out, stdout):
        with open(out / "sweep.csv") as fp:
            rows = list(csv.DictReader(fp))
        lams = [float(r["lambda"]) for r in rows]
        if lams != SIM_RATES:
            return [f"sweep rates {lams} != {SIM_RATES}"], {}
        ages = [float(r["avg_age"]) for r in rows]
        lo = min(ages)
        problems = []
        # acceptance 6: both ends at least 20 % above an interior minimum
        if not (ages[0] >= 1.2 * lo and ages[-1] >= 1.2 * lo and 0 < ages.index(lo) < len(ages) - 1):
            problems.append(f"age-versus-load curve is not U-shaped: {ages}")
        return problems, {}

    def check_bias(out, stdout):
        with open(out / "bias.csv") as fp:
            rows = list(csv.DictReader(fp))
        if len(rows) != SIM_SEEDS:
            return [f"bias.csv has {len(rows)} rows, want {SIM_SEEDS}"], {}
        shift = BIAS_NS / gen.NS  # linear penalty, alpha 1: exactly alpha * B
        worst = max(abs(float(r["difference"]) - shift) for r in rows)
        return ([f"linear bias shift off alpha*B by {worst:.3e}"] if worst > 1e-6 else []), {}

    seed = str(ctx.seed)
    sweep = ["--mode", "sweep", "--rates", ",".join(map(str, SIM_RATES)), "--mu", "1",
             "--seeds", str(SIM_SEEDS), "--events", str(SIM_EVENTS), "--seed", seed]
    bias = ["--mode", "bias-experiment", "--lambda", "0.5", "--mu", "1", "--seeds", str(SIM_SEEDS),
            "--events", str(SIM_EVENTS), "--penalty", "linear", "--alpha", "1",
            "--bias-ns", str(BIAS_NS), "--seed", seed]
    n_sims = len(SIM_RATES) * SIM_SEEDS + SIM_SEEDS
    rows_per_sim = SIM_EVENTS - math.floor(WARMUP_FRACTION * SIM_EVENTS) - 1  # anchor row is not a record
    events, records = n_sims * SIM_EVENTS, n_sims * rows_per_sim
    return cli_workload(ctx, tally, [(sweep, check_sweep), (bias, check_bias)],
                        ("sweep.csv", "bias.csv"), lambda op: (records, events, records))


# -- sim-finite-1m -------------------------------------------------------------------


def read_trace_columns(path):
    """(metadata, int64 array of seq,gen_ns,recv_ns rows) of a trace CSV,
    parsed without the package."""
    meta = {}
    with open(path) as fp:
        for line in fp:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key] = int(val)
            elif line.strip() == gen.CSV_HEADER:
                break
            else:
                raise ValueError(f"unexpected line before header: {line!r}")
        rows = np.loadtxt(fp, delimiter=",", dtype=np.int64, ndmin=2)
    return meta, rows


def sim_finite_1m(ctx, tally) -> dict:
    def check(out, stdout):
        summary = json.loads(stdout.strip().splitlines()[-1])
        admitted = summary["n_generated"] - summary["n_dropped"]
        want = admitted - math.floor(WARMUP_FRACTION * admitted) - 1
        meta, rows = read_trace_columns(out / "trace.csv")
        seq, g, r = rows[:, 0], rows[:, 1], rows[:, 2]
        problems = []
        if summary["n_generated"] != FINITE_EVENTS:
            problems.append(f"n_generated {summary['n_generated']} != {FINITE_EVENTS}")
        if len(rows) != want:
            problems.append(f"trace.csv has {len(rows)} rows, want {want}")
        if np.any(np.diff(r) < 0) or np.any(np.diff(seq) <= 0) or np.any(g > r):
            problems.append("trace.csv rows out of order or with negative delay")
        if len(rows) and not (meta["observe_start_ns"] <= r[0] and meta["observe_end_ns"] >= r[-1]):
            problems.append("trace.csv observation window does not cover its rows")
        return problems, {
            "rows": len(rows),
            "trace.csv_bytes": (out / "trace.csv").stat().st_size,
        }

    args = ["--mode", "simulate", "--lambda", "0.95", "--mu", "1", "--queue-cap", "10",
            "--events", str(FINITE_EVENTS), "--seed", str(ctx.seed)]
    return cli_workload(ctx, tally, [(args, check)], ("trace.csv",),
                        lambda op: (op.facts["rows"], FINITE_EVENTS, op.facts["rows"]))


def loopback_udp(ctx, tally) -> dict:
    import loopback

    return loopback.run(ctx, tally)


WORKLOADS = {
    "analyze-1m": analyze_1m,
    "sim-paper": sim_paper,
    "sim-finite-1m": sim_finite_1m,
    "loopback-udp": loopback_udp,
}
