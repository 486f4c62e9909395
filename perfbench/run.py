"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload apps-warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository; ``repro`` is imported
from ``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
spends the first half of the time untraced (the baseline of
``trace.overhead_ratio``) and the second half with the layer wrappers of
:mod:`tracing` installed, and reports the per-layer metrics.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``failed`` counts requests that failed plus outputs that disagree with
their reference; any such request makes the command exit with status 1
(status 2: not run from a checkout that has ``src/repro``).
See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(cls, seed: int, scratch: Path):
    """Build the workload ``SETUPS`` times; returns the last and the median time."""
    times, workload = [], None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = cls(seed, scratch)
        workload.warm()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>14.4f} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import closed_loop, quantile
    from metrics import END_TO_END, end_to_end, load_layer_catalog, per_layer
    from tracing import LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        workload, setup_s = setup(cls, args.seed, scratch)
        try:
            if args.trace:
                baseline = closed_loop(workload, args.seconds / 2)
                tracer = LayerTracer()
                with tracer:
                    traced = closed_loop(workload, args.seconds / 2, tracer)
                tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
                untraced_p50 = quantile([s.latency * 1e3 for s in baseline.samples], 0.5)
                values, share = per_layer(traced, tracer, untraced_p50, workload.store_bytes)
                samples = baseline.samples + traced.samples
                units = {m["name"]: m["unit"] for m in load_layer_catalog()}
                loop = traced
            else:
                loop = closed_loop(workload, args.seconds)
                values = end_to_end(loop, setup_s)
                samples = loop.samples
                units = {name: unit for name, (unit, _better) in END_TO_END.items()}
        finally:
            workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [s for s in samples if not s.ok]
    latencies = [s.latency for s in loop.samples]
    p90 = quantile(latencies, 0.9)
    print(f"workload {cls.name}: {cls.why}")
    print(f"  requests timed {len(loop.samples)} "
          f"({sum(1 for x in latencies if x > p90)} beyond p90), "
          f"attempted {len(samples)}, failed {len(failed)} "
          f"(failed_ratio {len(failed) / max(len(samples), 1):.4f})")
    for s in failed[:5]:
        print(f"  FAILED {s.kind}: {s.error}")
    print_table("metrics" + (" (traced run)" if args.trace else ""),
                [(k, v, units[k]) for k, v in values.items()])
    if args.trace:
        print_table("self time share of request wall, per layer",
                    [(k, v, "share") for k, v in share.items()])

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
