"""aoikit benchmark: one workload per run, seeded, timed, output-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/aoikit``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A fuller record (environment fingerprint, traffic, per-operation details,
spans) goes to ``.perfbench_out/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads
from common import OUT, ROOT, SRC, BenchError, Ctx, Tally, fingerprint


def check_checkout() -> None:
    if not (SRC / "aoikit" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'aoikit'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import aoikit

    if Path(aoikit.__file__).resolve().parent != (SRC / "aoikit").resolve():
        raise BenchError(f"imported aoikit from {aoikit.__file__}, not from {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ctx = Ctx(args)
    tally = Tally()
    try:
        check_checkout()
        shutil.rmtree(ctx.work, ignore_errors=True)
        ctx.work.mkdir(parents=True)
        try:
            result = workloads.WORKLOADS[args.workload](ctx, tally)
        finally:
            shutil.rmtree(ctx.work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["layer"] if ctx.traced else result["e2e"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": fingerprint(),
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        **result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(record['environment'])}")
    if "traffic" in result:
        print(f"traffic: {json.dumps(result['traffic'])}")
    if result.get("tree"):
        print(result["tree"])
    for name, m in metrics.items():
        print(f"{name:<36}{m['value']:>16.6g} {m['unit']}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    for note in tally.notes:
        print(f"failure: {note}")
    if "fidelity" in result:
        fid = result["fidelity"]
        print(f"phase-(a) fidelity missed in {fid['missed']} of {fid['runs']} runs")
        for note in fid["notes"]:
            print(f"fidelity miss: {note}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
