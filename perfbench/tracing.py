"""Outside-in tracing for the benchmark's traced run.

:class:`LayerTracer` wraps the public functions at each layer boundary of
``repro`` -- the names the calling module actually looks up, so that the
wrapper is the one that runs -- and records one span per call: name,
start, end, parent span and request id.  Spans stay in memory and are
written out when the run ends.  Every wrapper is installed by
:meth:`LayerTracer.install` and restored by :meth:`LayerTracer.uninstall`;
nothing in ``repro`` is edited, and the untraced run never sees a wrapper.

The request id is assigned by the client before it submits a request and
picked up by the wrapper around the service's per-request handler, which
runs on the worker thread; every span that thread opens until the handler
returns belongs to that request.

A layer's *self time* is its span's duration minus the time its child
spans cover.  The handler span's own self time is the part of a request no
layer explains; it is reported as ``unattributed``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import repro.compiler.template as _template
import repro.runtime.executor as _executor
import repro.runtime.fusion as _fusion
import repro.runtime.mpbackend as _mpbackend
import repro.service.pool as _pool
import repro.service.service as _service
import repro.spmd.transport as _transport
import repro.store.store as _store

#: the request root: the service's per-request handler on its worker thread
ROOT = "service.request"

#: (owner, attribute, span name) for every wrapped boundary besides the root
BOUNDARIES = (
    (_service.CompileService, "compile", "service.lookup"),
    (_pool.SessionPool, "compile_traced", "compiler.compile"),
    (_template.SymbolicTemplate, "instantiate", "template.instantiate"),
    (_store.ArtifactStore, "store", "store.write"),
    (_store.ArtifactStore, "load", "store.load"),
    (_service, "execute", "executor.run"),
    (_mpbackend, "execute_mp", "executor.run"),
    (_executor, "default_kernel", "kernels.default"),
    (_executor, "build_schedule", "redistribution.build_schedule"),
    (_executor, "execute_schedule", "redistribution.move"),
    (_fusion.PreparedRedist, "execute", "redistribution.move"),
    (_executor, "execute_comm_schedule", "schedule.execute"),
    (_executor, "execute_prepared_schedule", "schedule.execute"),
    (_executor, "prepare_comm_schedule", "schedule.prepare"),
    (_executor, "run_fused_loop", "fusion.loop"),
    (_transport.MPTransport, "start", "mp.spawn"),
    (_transport.MPTransport, "close", "mp.close"),
    (_transport.MPTransport, "exchange", "mp.exchange"),
)

#: every layer a span can be charged to, in report order
LAYERS = (
    "service",
    "compiler",
    "template",
    "store",
    "executor",
    "kernels",
    "redistribution",
    "schedule",
    "fusion",
    "mp",
    "unattributed",
)


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to."""
    return "unattributed" if span_name == ROOT else span_name.split(".", 1)[0]


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # one span: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self._local = threading.local()
        self._pending: dict[int, int] = {}  # id(request) -> request id
        self._next_rid = 0
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """``fn`` recording a span called ``name`` around every call."""
        spans, stack_of = self.spans, self._stack
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            idx = len(spans)
            spans.append(
                [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                 getattr(local, "rid", None)]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def _wrap_handler(self, handle):
        pending, local = self._pending, self._local
        traced = self.wrap(handle, ROOT)

        @functools.wraps(handle)
        def handler(service, request, index):
            local.rid = pending.pop(id(request), None)
            try:
                return traced(service, request, index)
            finally:
                local.rid = None

        return handler

    def request(self, request):
        """A per-submission copy of ``request``, registered under a fresh
        request id; returns ``(copy, request id)``."""
        copy = dataclasses.replace(request)
        rid = self._next_rid
        self._next_rid += 1
        self._pending[id(copy)] = rid
        return copy, rid

    def kernels(self, kernels: dict | None) -> dict | None:
        """A kernel dict whose every kernel records a ``kernels.*`` span."""
        if not kernels:
            return kernels
        return {label: self.wrap(fn, f"kernels.{label}") for label, fn in kernels.items()}

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patched.append((owner, attr, original, own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        handle = _service.CompileService._handle
        self._patch(_service.CompileService, "_handle", self._wrap_handler(handle))
        for owner, attr, name in BOUNDARIES:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def by_request(self) -> dict[int, dict]:
        """Per request id: ``self`` seconds per layer, plus ``total``
        seconds and ``calls`` per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _rid in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict] = {}
        for i, (name, start, end, _parent, rid) in enumerate(spans):
            if rid is None or end == 0.0:
                continue
            rec = out.setdefault(
                rid,
                {"self": defaultdict(float), "total": defaultdict(float),
                 "calls": defaultdict(int)},
            )
            dur = end - start
            rec["self"][layer_of(name)] += dur - child[i]
            rec["total"][name] += dur
            rec["calls"][name] += 1
        return out

    def dump(self, path: Path) -> None:
        """Write every recorded span as JSON (times in seconds)."""
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))
