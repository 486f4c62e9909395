"""The closed-loop client and the metrics computed from what it saw.

One client thread keeps ``workload.inflight`` requests outstanding: it
submits the next request only after an earlier one resolved.  A request's
latency runs from just before ``CompileService.submit`` to the moment its
future resolves (taken in the future's done-callback).  Each resolved
result is reduced to a :class:`Sample` on the client thread -- outputs
checked against the workload's reference, traffic counters copied -- and
then dropped, so memory does not grow with the run.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from dataclasses import dataclass, field

from workloads import Item, Workload


@dataclass
class Sample:
    """What one resolved request contributes to the metrics."""

    kind: str
    latency: float
    ok: bool
    seconds: float = 0.0
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    cache_source: str | None = None
    stats: dict = field(default_factory=dict)
    fusion: tuple[int, int, int] = (0, 0, 0)
    mp: dict | None = None
    phase_seconds: float = 0.0
    passes: list[tuple[str, float, dict]] = field(default_factory=list)
    rid: int | None = None
    error: str = ""


def reduce_result(item: Item, latency: float, res, rid: int | None = None) -> Sample:
    """Check one ServiceResult against its reference and keep its numbers."""
    if not res.ok:
        return Sample(item.kind, latency, False, rid=rid, error=repr(res.error))
    ok = item.matches(item.read(res))
    run = res.result
    sample = Sample(
        item.kind,
        latency,
        ok,
        seconds=res.seconds,
        compile_seconds=res.compile_seconds,
        run_seconds=res.run_seconds,
        cache_source=res.cache_source,
        stats=run.stats.snapshot(),
        fusion=(run.fusion.traces_recorded, run.fusion.replays, run.fusion.invalidations),
        mp=run.mp.snapshot() if run.mp is not None else None,
        phase_seconds=run.machine.phase_seconds,
        rid=rid,
        error="" if ok else "output disagrees with the reference",
    )
    if res.cache_source == "compiled" and not res.deduped:
        sample.passes = [(r.name, r.seconds, dict(r.counters)) for r in res.compiled.trace.records]
    return sample


@dataclass
class LoopResult:
    samples: list[Sample]
    elapsed: float  # first submit to last resolution


def closed_loop(workload: Workload, seconds: float, tracer=None) -> LoopResult:
    """Send passes of requests until ``seconds`` have elapsed.

    No new request is submitted after the deadline; those in flight are
    awaited and counted.  With ``tracer`` every request is registered
    under a request id and runs with traced kernels.
    """
    done: queue.SimpleQueue = queue.SimpleQueue()
    slots = threading.Semaphore(workload.inflight)
    samples: list[Sample] = []
    last_done = [0.0]

    def drain() -> None:
        while True:
            try:
                item, t0, t1, res, rid = done.get_nowait()
            except queue.Empty:
                return
            last_done[0] = max(last_done[0], t1)
            samples.append(reduce_result(item, t1 - t0, res, rid))

    def wait_all() -> None:
        for _ in range(workload.inflight):
            slots.acquire()
        for _ in range(workload.inflight):
            slots.release()
        drain()

    traced_kernels: dict[int, dict | None] = {}
    start = time.perf_counter()
    deadline = start + seconds
    service = workload.service
    while time.perf_counter() < deadline:
        if workload.fresh_service_per_pass:
            service = workload.open_service()
        for item in workload.pass_items():
            slots.acquire()
            drain()
            if time.perf_counter() >= deadline:
                slots.release()
                break
            request, rid = item.request, None
            if tracer is not None:
                if id(item) not in traced_kernels:
                    traced_kernels[id(item)] = tracer.kernels(item.request.kernels)
                request, rid = tracer.request(request)
                request.kernels = traced_kernels[id(item)]
            t0 = time.perf_counter()
            future = service.submit(request)

            def resolved(fut, item=item, t0=t0, rid=rid) -> None:
                done.put((item, t0, time.perf_counter(), fut.result(), rid))
                slots.release()

            future.add_done_callback(resolved)
        if workload.fresh_service_per_pass:
            wait_all()
            workload.close_service(service)
    wait_all()
    return LoopResult(samples, last_done[0] - start)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0
