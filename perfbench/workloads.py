"""The three benchmark workloads: requests, references and services.

Every workload is built from a seed alone.  The seed draws the program
stream, the inputs and the order; the service under test only ever sees
the generated :class:`~repro.CompileRequest` objects.  Each request is
paired with the output array to read back and the expected values, which
come from a reference that does not use the compiler: the applications'
own numpy references for ``apps-warm``, and the mapping-free evaluator in
:mod:`reference` for the other two.

A *pass* is one round over a workload's requests.  The benchmark repeats
passes until its time is up; ``compile-stream`` opens a fresh service over
a fresh artifact store for every pass, so each of its requests needs a new
artifact, while the other two keep one warmed service for the whole run.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import CompileRequest, CompilerOptions, CompileService
from repro.apps.adi import adi_kernels, adi_reference, build_adi_program
from repro.apps.fft2d import build_fft2d_program, fft2d_kernels
from repro.apps.lu import build_lu_program, lu_kernels, lu_reference
from repro.apps.sar import (
    build_sar_program,
    chirp,
    sar_kernels,
    sar_reference,
    synthesize_raw,
    synthetic_scene,
)
from repro.apps.workloads import random_environment, random_legal_subroutine
from repro.lang.parser import parse_program
from repro.store import ArtifactStore

from reference import evaluate

#: tolerances of the output check: the applications' float kernels against
#: their numpy references, and default-kernel programs against the
#: evaluator (which is exact today; the slack only admits a reordered sum)
APP_TOL = {"rtol": 1e-7, "atol": 1e-9}
EVAL_TOL = {"rtol": 1e-12, "atol": 1e-12}

#: the Fig. 16 loop of ``benchmarks/bench_symbolic.py``, extents symbolic in n
FIG16_SRC = """
subroutine main(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""

#: the contended block<->cyclic(3) loop of ``benchmarks/bench_mp.py``
MP_SRC = """
subroutine mp_bench()
  integer n, t
  real a(n)
!hpf$ dynamic a
!hpf$ distribute a(block)
  compute defines a
  do i = 1, t
!hpf$   redistribute a(cyclic(3))
    compute writes a reads a
!hpf$   redistribute a(block)
  enddo
  compute reads a
end
"""


@dataclass(frozen=True)
class Item:
    """One request of a pass, with what its output must equal."""

    kind: str
    request: CompileRequest
    expected: dict[str, np.ndarray]
    tol: dict

    def matches(self, values: dict[str, np.ndarray]) -> bool:
        """Whether every checked array equals its reference within ``tol``."""
        return all(
            values[name].shape == ref.shape and np.allclose(values[name], ref, **self.tol)
            for name, ref in self.expected.items()
        )

    def read(self, res) -> dict[str, np.ndarray]:
        """The checked arrays' final values from a resolved ServiceResult."""
        return {name: res.value(name) for name in self.expected}


class Workload:
    """Base: a pass of items, the service that runs them, its concurrency.

    ``inflight`` is the number of requests the single closed-loop client
    keeps outstanding; ``workers`` the service's worker threads;
    ``processors`` the default P of the service.
    """

    name = ""
    why = ""
    inflight = 2
    workers = 2
    processors = 4
    fresh_service_per_pass = False
    #: largest artifact-store footprint a pass left behind (0: no store)
    store_bytes = 0

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.items = self.build()
        self.service = None if self.fresh_service_per_pass else self.open_service()

    def build(self) -> list[Item]:
        raise NotImplementedError

    def pass_items(self) -> list[Item]:
        """The requests of the next pass, in a seeded order of their own."""
        return [self.items[i] for i in self.rng.permutation(len(self.items))]

    def open_service(self) -> CompileService:
        return CompileService(processors=self.processors, workers=self.workers)

    def close_service(self, service: CompileService) -> None:
        service.close()

    def warm(self) -> None:
        """Fill the caches the timed loop relies on (one request per item).

        Outputs are not checked here: every timed request is, so a wrong
        or failing request shows up in the run's ``failed`` count."""
        for item in self.items:
            self.service.submit(item.request).result()

    def close(self) -> None:
        if self.service is not None:
            self.close_service(self.service)
            self.service = None


class AppsWarm(Workload):
    """The paper's four application classes, served warm from memory."""

    name = "apps-warm"
    why = (
        "warm memory-tier hits on adi/fft2d/lu/sar (n=16, P=4): loads the executor, "
        "redistribution and kernels, never the compiler; 1 client, 2 in flight, 2 workers"
    )
    n = 16

    def build(self) -> list[Item]:
        n, rng = self.n, self.rng

        def adi() -> Item:
            u0 = rng.normal(size=(n, n))
            req = CompileRequest(
                build_adi_program(n),
                bindings={"t": 2},
                kernels=adi_kernels(alpha=0.1),
                inputs={"u": u0},
            )
            return Item("adi", req, {"u": adi_reference(u0, 2, 0.1)}, APP_TOL)

        def lu() -> Item:
            prog, steps = build_lu_program(n, block=8)
            a0 = rng.normal(size=(n, n)) + n * np.eye(n)
            req = CompileRequest(
                prog,
                bindings={"steps": steps},
                kernels=lu_kernels(n, block=8),
                inputs={"a": a0},
            )
            return Item("lu", req, {"a": lu_reference(a0)}, APP_TOL)

        def fft() -> Item:
            x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            req = CompileRequest(
                build_fft2d_program(n),
                kernels=fft2d_kernels(),
                inputs={"x": x0},
                dtype=np.complex128,
            )
            return Item("fft2d", req, {"x": np.fft.fft2(x0)}, APP_TOL)

        def sar() -> Item:
            range_ref, azimuth_ref = chirp(n, rate=7.0), chirp(n, rate=3.0)
            scene = synthetic_scene(n, seed=int(rng.integers(2**31)))
            raw = synthesize_raw(scene, range_ref, azimuth_ref)
            req = CompileRequest(
                build_sar_program(n),
                bindings={"looks": 1},
                kernels=sar_kernels(range_ref, azimuth_ref),
                inputs={"img": raw},
                dtype=np.complex128,
            )
            expected = sar_reference(raw, range_ref, azimuth_ref, 1)
            return Item("sar", req, {"img": expected}, APP_TOL)

        # adi and lu (the looped, remap-heavy apps, ~3x slower than fft2d
        # and sar) are sent twice per pass: with an even split the median
        # would sit in the gap between the fast and the slow requests and
        # jump between them from run to run
        return [adi(), adi(), lu(), lu(), fft(), sar()]


class CompileStream(Workload):
    """Every request needs a new artifact: the compiler, template and store."""

    name = "compile-stream"
    why = (
        "every request misses: random programs under 4 schedule policies plus "
        "symbolic Fig.16 instantiations, fresh service+store per pass; "
        "1 client, 2 in flight, 2 workers, P=4"
    )
    fresh_service_per_pass = True
    #: per pass: this many random programs, and one Fig. 16 request per
    #: three of them (every fourth request)
    randoms = 384
    policies = (None, "naive", "round-robin", "aggregate")
    #: Fig. 16 shapes: every P here times ``fig16_slots`` size strata
    #: 16 wide, so n stays within 16..527
    fig16_procs = (2, 3, 4, 8)
    fig16_slots = 32

    def build(self) -> list[Item]:
        rng = self.rng
        # balanced policy draw: each policy on a quarter of the programs
        policies = [self.policies[i % 4] for i in range(self.randoms)]
        rng.shuffle(policies)
        randoms: list[Item] = []
        for policy in policies:
            prog = random_legal_subroutine(rng, n_arrays=3, length=12, depth=2)
            conditions, inputs = random_environment(rng, n_arrays=3)
            req = CompileRequest(
                prog,
                conditions=conditions,
                inputs=inputs,
                options=CompilerOptions(schedule=policy),
            )
            expected = evaluate(prog, conditions=conditions, inputs=inputs)
            randoms.append(Item(f"random/{policy or 'unscheduled'}", req, expected, EVAL_TOL))
        # stratified distinct shapes: one n per (P, size slot), so a pass's
        # traffic does not hinge on a lucky draw of large n
        fig16 = parse_program(FIG16_SRC)
        shapes = [
            (16 * (k + 1) + int(rng.integers(0, 16)), p)
            for p in self.fig16_procs
            for k in range(self.fig16_slots)
        ]
        rng.shuffle(shapes)
        symbolic: list[Item] = []
        options = CompilerOptions.symbolic(level=3)
        for n, p in shapes:
            a0 = rng.normal(size=n)
            bindings = {"n": n, "t": 3}
            req = CompileRequest(
                FIG16_SRC, bindings=bindings, inputs={"a": a0}, processors=p, options=options
            )
            expected = evaluate(fig16, bindings=bindings, inputs={"a": a0})
            symbolic.append(Item("fig16", req, expected, EVAL_TOL))
        items: list[Item] = []
        for i, item in enumerate(randoms):
            items.append(item)
            if i % 3 == 2:
                items.append(symbolic[i // 3])
        return items

    def pass_items(self) -> list[Item]:
        """The same seeded stream every pass: a fresh service sees it all anew."""
        return self.items

    def open_service(self) -> CompileService:
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return CompileService(
            processors=self.processors, workers=self.workers, store=ArtifactStore(root)
        )

    def close_service(self, service: CompileService) -> None:
        service.close()
        store = service.pool.store
        self.store_bytes = max(self.store_bytes, store.total_bytes)
        shutil.rmtree(store.root, ignore_errors=True)

    def warm(self) -> None:
        """Import-time and first-call costs only: a throwaway service compiles
        a few programs; the timed passes still miss on every request."""
        service = self.open_service()
        try:
            for item in self.items[:8]:
                service.submit(item.request).result()
        finally:
            self.close_service(service)
        self.store_bytes = 0


class MPRemap(Workload):
    """The contended remap loop on real forked ranks."""

    name = "mp-remap"
    why = (
        "block<->cyclic(3) loop (n=2048, t=4) on the mp backend, unscheduled/naive/"
        "round-robin: the only workload on real ranks; 1 client, 1 in flight, 1 worker, P=2"
    )
    inflight = 1
    workers = 1
    processors = 2
    policies = (None, "naive", "round-robin")
    bindings = {"n": 2048, "t": 4}

    def build(self) -> list[Item]:
        expected = evaluate(parse_program(MP_SRC), bindings=self.bindings)
        return [
            Item(
                f"mp/{policy or 'unscheduled'}",
                CompileRequest(
                    MP_SRC,
                    bindings=dict(self.bindings),
                    options=CompilerOptions(level=3, schedule=policy),
                    backend="mp",
                ),
                expected,
                EVAL_TOL,
            )
            for policy in self.policies
        ]


WORKLOADS = {w.name: w for w in (AppsWarm, CompileStream, MPRemap)}
