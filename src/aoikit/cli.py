"""Command-line orchestration: analyze traces, run simulations and sweeps,
run the offset bias experiment, and drive live measurement roles.

Every run writes a manifest (full argument list + tool version) next to its
outputs; ``--from-manifest`` re-executes a recorded run, which reproduces
simulation outputs bit-identically. Exit codes: 0 success, 1 usage error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, replace

from . import __version__
from .agestats import compute_statistics, sample_path
from .penalty import from_name
from .queuesim import SimConfig, bias_experiment, load_sweep, simulate_queue
from .trace import Trace, TraceError, read_trace_csv, write_rows, write_trace_csv
from .net import (
    Receiver,
    RegionConfig,
    Relay,
    classify_regions,
    estimate_offset,
    parse_rate_plan,
    run_measured_sweep,
    run_sender,
)
from .net.wire import MIN_PAYLOAD


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError("address must be host:port")
    return host, int(port)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> _Parser:
    p = _Parser(prog="aoikit", description=__doc__)
    p.add_argument("--mode", choices=["analyze", "simulate", "sweep", "bias-experiment", "measure"])
    p.add_argument("--from-manifest", metavar="PATH", help="re-run a recorded invocation")
    p.add_argument("--out", default=None, help="output directory (default: AOI_OUT_DIR or .)")
    # analyze
    p.add_argument("--trace", help="input trace CSV (analyze mode)")
    # shared measurement flags
    p.add_argument("--role", choices=["send", "recv", "relay", "probe"])
    p.add_argument("--proto", choices=["tcp", "udp"], default="udp")
    p.add_argument("--addr", type=_addr, help="host:port endpoint")
    p.add_argument("--forward", type=_addr, help="relay forward endpoint")
    p.add_argument("--rate-plan", help="start:end:step:dwell_s")
    p.add_argument("--payload", type=int, default=MIN_PAYLOAD)
    p.add_argument("--service-rate", type=float)
    p.add_argument("--queue-cap", type=int)
    p.add_argument("--probes", type=int, default=10)
    p.add_argument("--window-s", type=float, default=1.0)
    p.add_argument("--duration-s", type=float, help="recv role run time")
    p.add_argument("--bias-ns", type=int, default=0)
    # simulation flags
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--arrival", choices=["poisson", "deterministic"], default="poisson")
    p.add_argument("--service", choices=["exponential", "deterministic"], default="exponential")
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_positive_int, default=10)
    p.add_argument("--rates", help="comma-separated arrival rates (sim sweep)")
    p.add_argument("--sweep-kind", choices=["sim", "net"], default="sim")
    p.add_argument("--penalty", choices=["linear", "exp", "log"], default="linear")
    p.add_argument("--alpha", type=float, default=1.0)
    return p


def _out_dir(args) -> str:
    out = args.out or os.environ.get("AOI_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out_dir: str, argv: list[str]) -> None:
    manifest = {"tool": "aoikit", "version": __version__, "argv": argv}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fp:
        json.dump(manifest, fp, indent=2)
        fp.write("\n")


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fp:
        if not rows:
            return
        writer = csv.DictWriter(fp, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# -- modes -------------------------------------------------------------------


def cmd_analyze(args, out_dir: str) -> int:
    if not args.trace:
        raise UsageError("analyze mode requires --trace")
    config = RegionConfig(window_s=args.window_s)
    with open(args.trace) as fp:
        trace = read_trace_csv(fp)
    if not len(trace):
        raise RuntimeError("trace has no records")
    stats = compute_statistics(trace, from_name(args.penalty, args.alpha))
    with open(os.path.join(out_dir, "stats.json"), "w") as fp:
        json.dump(stats.to_dict(), fp, indent=2)
        fp.write("\n")
    path = sample_path(trace)
    with open(os.path.join(out_dir, "samplepath.csv"), "w") as fp:
        fp.write("t_ns,age_ns\n")
        write_rows(fp, (path.t_ns, path.age_ns))
    del path  # as long as the trace: release it before classifying
    report = classify_regions(trace, config)
    with open(os.path.join(out_dir, "regions.csv"), "w", newline="") as fp:
        report.write_csv(fp)
    print(json.dumps(stats.to_dict()))
    return 0


def _sim_config(args, arrival_rate: float) -> SimConfig:
    return SimConfig(
        arrival_rate=arrival_rate,
        service_rate=args.mu,
        arrival=args.arrival,
        service=args.service,
        buffer_capacity=args.queue_cap,
        n_events=args.events,
        seed=args.seed,
    )


def cmd_simulate(args, out_dir: str) -> int:
    if args.lam is None:
        raise UsageError("simulate mode requires --lambda")
    cfg = _sim_config(args, args.lam)
    result = simulate_queue(cfg)
    with open(os.path.join(out_dir, "trace.csv"), "w") as fp:
        write_trace_csv(result.trace, fp)
    summary = {
        "load": cfg.load,
        "n_generated": result.n_generated,
        "n_dropped": result.n_dropped,
        "loss_fraction": result.loss_fraction,
        "unstable": result.unstable,
        "mean_delay_s": result.mean_delay,
    }
    print(json.dumps(summary))
    return 0


def cmd_sweep(args, out_dir: str) -> int:
    if args.sweep_kind == "sim":
        if not args.rates:
            raise UsageError("sim sweep requires --rates")
        rates = [float(r) for r in args.rates.split(",") if r]
        result = load_sweep(_sim_config(args, rates[0]), rates, seeds_per_point=args.seeds)
        rows = result.to_rows()
        _write_csv(os.path.join(out_dir, "sweep.csv"), rows)
        print(json.dumps(rows))
        return 0
    if not args.rate_plan:
        raise UsageError("net sweep requires --rate-plan")
    plan = parse_rate_plan(args.rate_plan)
    outcome = run_measured_sweep(
        rates=[s.rate for s in plan],
        dwell_s=plan[0].duration_s,
        proto=args.proto,
        payload_size=args.payload,
        service_rate=args.service_rate,
        queue_capacity=args.queue_cap,
        region_config=RegionConfig(window_s=args.window_s),
    )
    rows = [asdict(s) for s in outcome.steps]
    _write_csv(os.path.join(out_dir, "sweep.csv"), rows)
    with open(os.path.join(out_dir, "trace.csv"), "w") as fp:
        write_trace_csv(Trace.from_columns(*outcome.rows.T), fp)
    print(json.dumps(rows))
    return 0


def cmd_bias_experiment(args, out_dir: str) -> int:
    if args.lam is None:
        raise UsageError("bias-experiment mode requires --lambda")
    f = from_name(args.penalty, args.alpha)
    base = _sim_config(args, args.lam)
    rows = []
    for seed in range(args.seed, args.seed + args.seeds):
        unbiased, biased = bias_experiment(replace(base, seed=seed), args.bias_ns, f)
        rows.append({"seed": seed, "unbiased": unbiased, "biased": biased, "difference": biased - unbiased})
    _write_csv(os.path.join(out_dir, "bias.csv"), rows)
    if args.penalty == "linear":
        expected = args.alpha * args.bias_ns / 1e9
        worst = max(abs(r["difference"] - expected) for r in rows)
        if worst > 1e-6:
            raise RuntimeError(
                f"linear bias shift deviates from alpha*B by {worst:.3e}"
            )
    print(json.dumps(rows))
    return 0


def cmd_measure(args, out_dir: str) -> int:
    if not args.role:
        raise UsageError("measure mode requires --role")
    if args.role == "probe":
        if not args.addr:
            raise UsageError("probe role requires --addr")
        est = estimate_offset(args.addr, probe_count=args.probes)
        print(json.dumps(asdict(est)))
        return 0
    if args.role == "send":
        if not args.addr or not args.rate_plan:
            raise UsageError("send role requires --addr and --rate-plan")
        log = run_sender(args.addr, args.proto, parse_rate_plan(args.rate_plan), args.payload)
        rows = [
            {
                "target_rate": s.target_rate,
                "sent": s.sent,
                "achieved_rate": s.achieved_rate,
                "shortfall": s.shortfall,
                "error": s.error or "",
            }
            for s in log.steps
        ]
        _write_csv(os.path.join(out_dir, "send_log.csv"), rows)
        print(json.dumps(rows))
        return 0
    if args.role == "recv":
        if not args.addr or not args.duration_s:
            raise UsageError("recv role requires --addr and --duration-s")
        with Receiver(args.addr, proto=args.proto, offset_ns=args.bias_ns) as rx:
            time.sleep(args.duration_s)
            trace = rx.trace()
            stats = rx.statistics()
        with open(os.path.join(out_dir, "trace.csv"), "w") as fp:
            write_trace_csv(trace, fp, clock_bias_ns=args.bias_ns)
        print(json.dumps(stats.to_dict()))
        return 0
    # relay
    if not args.addr or not args.forward or not args.service_rate:
        raise UsageError("relay role requires --addr, --forward and --service-rate")
    if not args.duration_s:
        raise UsageError("relay role requires --duration-s")
    with Relay(
        args.addr,
        args.forward,
        service_rate=args.service_rate,
        queue_capacity=args.queue_cap,
        proto=args.proto,
    ) as relay:
        time.sleep(args.duration_s)
        log = relay.log
    if log.error is not None:
        raise RuntimeError(f"relay failed: {log.error}")
    print(json.dumps({"forwarded": log.forwarded, "dropped": log.dropped}))
    return 0


_MODES = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "bias-experiment": cmd_bias_experiment,
    "measure": cmd_measure,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.from_manifest:
            with open(args.from_manifest) as fp:
                manifest = json.load(fp)
            recorded = list(manifest["argv"])
            if args.out:  # allow redirecting the rerun's outputs
                recorded += ["--out", args.out]
            argv = recorded
            args = parser.parse_args(argv)
        if not args.mode:
            raise UsageError("--mode is required")
        out_dir = _out_dir(args)
        _write_manifest(out_dir, argv)
        return _MODES[args.mode](args, out_dir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TraceError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
