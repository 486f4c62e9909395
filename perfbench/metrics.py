"""End-to-end metrics (untraced run) and per-layer metrics (traced run).

Timings are in milliseconds per request and reported as medians unless
the name says otherwise; counts are means per request.  A metric whose
layer a workload never reaches reads 0.
"""

from __future__ import annotations

import json
import resource
from collections import defaultdict
from pathlib import Path

from harness import LoopResult, Sample, mean, median, quantile
from tracing import LAYERS, LayerTracer

HERE = Path(__file__).resolve().parent

#: name -> (unit, better) of every end-to-end metric printed in the JSON
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "throughput_rps": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "remap_bytes": ("bytes/req", "lower"),
    "remap_messages": ("msgs/req", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def load_layer_catalog() -> list[dict]:
    """The per-layer metric catalog: name, unit, better, layer, moves, how."""
    return json.loads((HERE / "layers.json").read_text())["metrics"]


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: LoopResult, setup_seconds: float) -> dict[str, float]:
    ok = [s for s in loop.samples if s.ok]
    latencies = [s.latency * 1e3 for s in loop.samples]
    return {
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
        "throughput_rps": len(ok) / loop.elapsed if loop.elapsed > 0 else 0.0,
        "setup_s": setup_seconds,
        "remap_bytes": mean([s.stats["bytes"] for s in ok]),
        "remap_messages": mean([s.stats["messages"] for s in ok]),
        "peak_rss_mb": peak_rss_mib(),
    }


def _p50_ms(values: list[float]) -> float:
    return median([v for v in values if v > 0.0]) * 1e3


def per_layer(
    loop: LoopResult,
    tracer: LayerTracer,
    untraced_p50_ms: float,
    store_bytes: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """The traced run's per-layer metrics, and each layer's share of the
    summed request wall time (self time over client latency)."""
    samples: list[Sample] = [s for s in loop.samples if s.ok]
    n = max(len(samples), 1)
    spans = tracer.by_request()
    recs = [spans.get(s.rid, {"self": {}, "total": {}, "calls": {}}) for s in samples]

    def span_ms(*names: str) -> float:
        """p50 over requests that reach it of the summed span time."""
        return _p50_ms([sum(r["total"].get(nm, 0.0) for nm in names) for r in recs])

    def call_ms(name: str) -> float:
        """p50 over requests that reach it of the mean time per call."""
        return _p50_ms(
            [r["total"][name] / r["calls"][name] for r in recs if r["calls"].get(name)]
        )

    def calls(*names: str) -> float:
        return sum(r["calls"].get(nm, 0) for r in recs for nm in names) / n

    def kernel_calls(r) -> int:
        return sum(c for nm, c in r["calls"].items() if nm.startswith("kernels."))

    def kernel_ms(r) -> float:
        return sum(t for nm, t in r["total"].items() if nm.startswith("kernels."))

    def stat(key: str) -> float:
        return mean([s.stats[key] for s in samples])

    compiled = [s for s in samples if s.passes]
    pass_ms: dict[str, list[float]] = defaultdict(list)
    for s in compiled:
        other = 0.0
        for name, seconds, _counters in s.passes:
            if name in ("motion", "schedule", "construction"):
                pass_ms[name].append(seconds)
            else:
                other += seconds
        pass_ms["other"].append(other)

    def motion(key: str) -> float:
        return mean(
            [sum(c.get(key, 0) for nm, _t, c in s.passes if nm == "motion") for s in compiled]
        )

    decisions = [
        s.stats["remaps_performed"] + s.stats["remaps_skipped_live"]
        + s.stats["remaps_skipped_status"] + s.stats["remaps_dead_copy"]
        for s in samples
    ]
    skipped = [s.stats["remaps_skipped_live"] + s.stats["remaps_skipped_status"] for s in samples]
    mp = [s for s in samples if s.mp is not None]

    wall = sum(s.latency for s in samples)
    share = dict.fromkeys(LAYERS, 0.0)
    for s, r in zip(samples, recs):
        for layer, t in r["self"].items():
            share[layer] += t
        share["service"] += s.latency - s.seconds  # queue wait and hand-off
    share = {k: v / wall if wall > 0 else 0.0 for k, v in share.items()}
    traced_p50 = quantile([s.latency * 1e3 for s in loop.samples], 0.5)

    metrics = {
        "service.queue_wait_ms": median([s.latency - s.seconds for s in samples]) * 1e3,
        "service.cache_hit_ratio": mean([1.0 if s.cache_source != "compiled" else 0.0
                                         for s in samples]),
        "compiler.compile_ms": median([s.compile_seconds for s in samples]) * 1e3,
        "compiler.pass.motion_ms": median(pass_ms["motion"]) * 1e3,
        "compiler.pass.schedule_ms": median(pass_ms["schedule"]) * 1e3,
        "compiler.pass.construction_ms": median(pass_ms["construction"]) * 1e3,
        "compiler.pass.other_ms": median(pass_ms["other"]) * 1e3,
        "compiler.motion.sunk": motion("sunk"),
        "compiler.motion.rejected": motion("rejected"),
        "template.instantiate_ms": call_ms("template.instantiate"),
        "template.instantiations": calls("template.instantiate"),
        "store.write_ms": call_ms("store.write"),
        "store.writes": calls("store.write"),
        "store.load_ms": call_ms("store.load"),
        "store.loads": calls("store.load"),
        "store.total_bytes": float(store_bytes),
        "executor.run_ms": median([s.run_seconds for s in samples]) * 1e3,
        "kernels.ms": _p50_ms([kernel_ms(r) for r in recs]),
        "kernels.calls": mean([kernel_calls(r) for r in recs]),
        "redistribution.build_schedule_ms": span_ms("redistribution.build_schedule"),
        "redistribution.build_schedule_calls": calls("redistribution.build_schedule"),
        "redistribution.move_ms": span_ms("redistribution.move"),
        "schedule.execute_ms": span_ms("schedule.execute"),
        "schedule.prepare_ms": span_ms("schedule.prepare"),
        "plans.built": stat("plans_built"),
        "plans.reused": stat("plans_reused"),
        "status.remaps_performed": stat("remaps_performed"),
        "status.skip_ratio": (sum(skipped) / sum(decisions)) if sum(decisions) else 0.0,
        "memory.allocations": stat("allocations"),
        "machine.phases": stat("phases"),
        "machine.local_bytes": stat("local_bytes"),
        "fusion.traces_recorded": mean([s.fusion[0] for s in samples]),
        "fusion.replays": mean([s.fusion[1] for s in samples]),
        "fusion.invalidations": mean([s.fusion[2] for s in samples]),
        "mp.spawn_ms": span_ms("mp.spawn"),
        "mp.close_ms": span_ms("mp.close"),
        "mp.wall_ms": median([s.mp["wall_seconds"] for s in mp]) * 1e3,
        "mp.port_ms": median([s.mp["port_seconds"] for s in mp]) * 1e3,
        "mp.orchestration_ms": median(
            [s.mp["wall_seconds"] - s.mp["port_seconds"] for s in mp]
        ) * 1e3,
        "mp.phases": mean([s.mp["phases"] for s in mp]),
        "mp.calibration": median(
            [s.mp["port_seconds"] / s.phase_seconds for s in mp if s.phase_seconds > 0]
        ),
        "trace.overhead_ratio": traced_p50 / untraced_p50_ms if untraced_p50_ms > 0 else 0.0,
        "trace.unattributed_ratio": share["unattributed"],
    }
    return metrics, share
