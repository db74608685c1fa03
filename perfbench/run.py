"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints every metric by name with its unit,
the output checks, a provenance block, and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits
non-zero if the program is missing or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    wl = WORKLOADS[args.workload]()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    run = harness.Run(ROOT, wl, args.seed, args.seconds, workdir)
    try:
        if args.trace:
            values, summary = run.measure_traced(OUT)
            units = layer_units
        else:
            values, extras = run.measure()
            units = e2e_units
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(run.meta, sort_keys=True))
    missing = sorted(set(units) - set(values))
    for name in units:
        print(f"  {name:<28} {values.get(name, float('nan')):>16.6g} {units[name]}")
    if args.trace:
        for name, row in summary["layers"].items():
            print(f"  span {name:<30} n={row['count']:<6} total={row['total_ms']:.3f} ms "
                  f"self={row['self_ms']:.3f} ms p50={row['p50_ms']:.4f} ms")
        for path in summary["files"]:
            print(f"  wrote {os.path.relpath(path, ROOT)}")
    else:
        for name, (value, unit) in extras.items():
            print(f"  extra {name:<22} {value:>16.6g} {unit}")
    for name, ok, detail in run.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    if missing:
        print(f"perfbench: workload did not produce {missing}", file=sys.stderr)
    correct = run.correct and not missing
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values.get(name, float("nan"))), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
