"""Counting executor: the executor's own walk, pricing copies instead of moving data.

Whether a generated :class:`~repro.remap.codegen.RemapOp` communicates
depends only on the runtime descriptors (status, liveness, poisoning),
never on array *values*.  So :class:`CountingExecutor` runs the
:class:`~repro.runtime.executor.Executor`'s statement and op walk
unchanged and overrides only what touches data:

* storage is a dataless stand-in, so descriptors are allocated, freed and
  marked live exactly as in a real run;
* each performed remapping copy adds its exact price -- the bytes,
  messages, local copies, phases and modelled makespan of its message
  schedule or policy plan -- to a ledger instead of moving elements;
* a compute statement applies the default kernel's effects (every
  referenced current copy becomes live) without computing values.

The result is the run's traffic as
:meth:`~repro.runtime.executor.ExecutionResult.observed_traffic` would
report it, predicted without data, machine or compiled artifact: frames
are built from the mid-compile ``(construction, code)`` pairs, and the
runtime inputs come from one :class:`~repro.symbolic.scenarios.Scenario`.
:func:`repro.spmd.traffic.simulate_traffic` is the public entry point.
A counting run publishes no ``repro.runtime.*`` metric and opens no
``executor.run`` span: predicting is not running.
"""

from __future__ import annotations

from repro.compiler.artifacts import CompiledSubroutine
from repro.errors import RuntimeRemapError, TrafficPredictionError
from repro.lang.ast_nodes import Compute
from repro.mapping.mapping import Mapping
from repro.mapping.ownership import layout_of
from repro.remap.codegen import GeneratedCode
from repro.remap.construction import ConstructionResult
from repro.remap.motion import MotionReport
from repro.runtime.executor import ExecutionEnv, Executor, _Frame, _machine_traffic
from repro.runtime.status import ArrayRuntime
from repro.spmd.cost import CostModel, TrafficEstimate
from repro.spmd.message import TrafficStats
from repro.spmd.redistribution import build_schedule
from repro.spmd.schedule import plan_redistribution
from repro.symbolic.scenarios import Scenario

# ---------------------------------------------------------------------------
# copy prices (shared memo -- layouts are static)
# ---------------------------------------------------------------------------

#: (src signature, dst signature, itemsize, policy, cost) -> (bytes,
#: messages, local_bytes, local_copies, phases, makespan) of one copy
_PRICES: dict[tuple, tuple[int, int, int, int, int, float]] = {}


def _price(
    src: Mapping, dst: Mapping, itemsize: int, policy: str | None, cost: CostModel
) -> tuple[int, int, int, int, int, float]:
    """What copying ``src`` into ``dst`` costs, unscheduled or under ``policy``."""
    key = (src.signature, dst.signature, itemsize, policy, cost)
    price = _PRICES.get(key)
    if price is None:
        if policy is None:
            sched = build_schedule(layout_of(src), layout_of(dst))
            moved = sched.moved_elements()
            local = sched.total_elements() - moved
            price = (
                moved * itemsize,
                sched.message_count,
                local * itemsize,
                sched.local_count,
                0,
                0.0,
            )
        else:
            plan = plan_redistribution(src, dst, policy)
            price = (
                plan.moved_bytes(itemsize),
                plan.message_count,
                plan.local_elements * itemsize,
                plan.local_count,
                plan.phase_count,
                plan.makespan(cost, itemsize),
            )
        _PRICES[key] = price
    return price


# ---------------------------------------------------------------------------
# stand-ins for the machine, the storage and the artifact
# ---------------------------------------------------------------------------


class _NoData:
    """Storage stand-in: allocated or not is all a counting run tracks."""

    def scatter_from_global(self, values) -> None:
        pass

    def total_local_bytes(self) -> int:
        return 0

    def free(self) -> None:
        pass


_NO_DATA = _NoData()


class _Ledger:
    """The slice of :class:`~repro.spmd.machine.Machine` the walk touches."""

    def __init__(self) -> None:
        self.stats = TrafficStats()
        self.phase_seconds = 0.0

    def status_check(self) -> None:
        self.stats.status_checks += 1


class _MidCompile:
    """``CompiledProgram.get`` over the pipeline's per-subroutine results."""

    def __init__(
        self,
        constructions: dict[str, ConstructionResult],
        codes: dict[str, GeneratedCode],
    ):
        self._constructions = constructions
        self._codes = codes
        self._subs: dict[str, CompiledSubroutine] = {}

    def get(self, name: str) -> CompiledSubroutine:
        sub = self._subs.get(name)
        if sub is None:
            try:
                res, code = self._constructions[name], self._codes[name]
            except KeyError:
                raise TrafficPredictionError(
                    f"no compiled subroutine {name!r}"
                ) from None
            sub = self._subs[name] = CompiledSubroutine(
                name, res.sub, res, code, MotionReport()
            )
        return sub


class _ScenarioEnv(ExecutionEnv):
    """Runtime inputs from a scenario; records every condition it is asked.

    Prediction never calls user code: a callable condition (which
    :meth:`ExecutionEnv.condition` would call, consuming its state) is
    refused.
    """

    def __init__(self, scenario: Scenario):
        super().__init__(
            conditions=scenario.conditions,
            bindings=scenario.bindings,
            fuse_loops=False,
        )
        self.evaluated: set[str] = set()

    def condition(self, name: str) -> bool:
        self.evaluated.add(name)
        if callable(self.conditions.get(name)):
            raise TrafficPredictionError(
                f"unsupported condition value for {name!r}: prediction takes "
                "bools and sequences and never calls a callable"
            )
        return super().condition(name)


# ---------------------------------------------------------------------------
# the counting executor
# ---------------------------------------------------------------------------


class CountingExecutor(Executor):
    """An :class:`Executor` that prices remapping copies instead of moving data.

    ``policy`` prices copies as *scheduled* executions: the policy's plan
    gives the message count (aggregation coalesces pairs), the phases and
    the makespan modelled under ``cost``.
    """

    env: _ScenarioEnv

    def __init__(
        self,
        constructions: dict[str, ConstructionResult],
        codes: dict[str, GeneratedCode],
        scenario: Scenario,
        policy: str | None = None,
        cost: CostModel | None = None,
    ):
        # deliberately not Executor.__init__: there is no artifact, machine
        # or memory manager, only the state the walk reads
        self.compiled = _MidCompile(constructions, codes)
        self.scenario = scenario
        self.env = _ScenarioEnv(scenario)
        self.machine = _Ledger()
        self.policy = policy
        self.cost = cost or CostModel()
        self._frames: list[_Frame] = []
        self._fuse = False

    def count(self, entry: str) -> TrafficEstimate:
        """Walk ``entry`` as the program entry point; return its traffic."""
        sub = self.compiled.get(entry)
        inputs = self.scenario.inputs
        # None = every array holds an input value (the harness convention)
        names = sub.sub.arrays if inputs is None else inputs
        self.env.inputs = dict.fromkeys(names, 0.0)
        try:
            self._run_sub(sub, args=None, caller=None)
        except RuntimeRemapError as exc:
            raise TrafficPredictionError(f"prediction failed: {exc}") from exc
        return _machine_traffic(self.machine)

    # -- the data-touching overrides ----------------------------------------

    def _allocate(self, state: ArrayRuntime, version: int, poison: bool = False):
        state.insts[version] = _NO_DATA
        return _NO_DATA

    def _remap_copy(
        self, state: ArrayRuntime, src: int, leaving: int, tag: str, prepared=None
    ) -> None:
        b, m, lb, lc, ph, mk = _price(
            state.versions[src],
            state.versions[leaving],
            self.scenario.itemsize,
            self.policy,
            self.cost,
        )
        stats = self.machine.stats
        stats.bytes += b
        stats.messages += m
        stats.local_bytes += lb
        stats.local_copies += lc
        stats.phases += ph
        self.machine.phase_seconds += mk

    def _run_kernel(self, frame: _Frame, stmt: Compute) -> None:
        # the default kernel's liveness effect: every referenced array's
        # current copy is instantiated and live (poison is cleared after)
        for name in stmt.reads + stmt.writes + stmt.defines:
            state = frame.arrays.get(name)
            if state is not None:
                self._ensure_instantiated(frame, state, state.status)
