"""Static traffic estimation: the executor's walk, priced without data.

The simulated machine charges communication in exactly one place -- the
remapping copies of :mod:`repro.spmd.redistribution` -- and the decision of
whether a generated :class:`~repro.remap.codegen.RemapOp` communicates
depends only on the runtime descriptors (status, liveness, poisoning), never
on array *values*.  So running the executor's own statement and op walk
over dataless storage, pricing each performed copy by its exact message
schedule, predicts the executor's traffic **exactly**, given the same
runtime inputs (branch outcomes, loop trip counts, which arrays hold input
values).  There is one interpreter: prediction cannot drift from execution.

Three layers:

* :class:`Scenario` / :func:`enumerate_scenarios` -- one concrete choice
  of runtime inputs, and the grid of them a placement decision must be
  validated against; they live in :mod:`repro.symbolic.scenarios` and
  are re-exported here;
* :func:`simulate_traffic` -- one scenario through
  :class:`~repro.runtime.counting.CountingExecutor`, the executor
  subclass that counts instead of moving data, returning a
  :class:`~repro.spmd.cost.TrafficEstimate`; :func:`estimate_range`
  bounds it over a scenario grid;
* :func:`predict_traffic` -- the user-facing oracle half: predict the
  traffic of a compiled program for one known environment, to be checked
  against the machine's observed :class:`~repro.spmd.message.TrafficStats`.

Assumptions (documented, not checked): compute statements behave like the
executor's default kernel -- they touch exactly their declared effects --
and the machine runs without a memory limit (no live-copy evictions).
Custom kernels that read or write fewer arrays than declared can make real
liveness diverge from the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.remap.codegen import GeneratedCode
from repro.spmd.cost import CostModel, TrafficEstimate
from repro.symbolic.scenarios import Scenario, enumerate_scenarios

if TYPE_CHECKING:
    from repro.remap.construction import ConstructionResult


def simulate_traffic(
    constructions: dict[str, "ConstructionResult"],
    codes: dict[str, GeneratedCode],
    entry: str,
    scenario: Scenario,
    policy: str | None = None,
    cost: CostModel | None = None,
) -> TrafficEstimate:
    """Predict the traffic of one subroutine under one scenario.

    With a scheduling ``policy`` the prediction prices the *scheduled*
    placement: message counts follow the policy's plans (aggregation
    coalesces pairs) and the estimate carries phase counts and the
    modelled makespan under ``cost``.
    """
    # deferred: repro.compiler.artifacts imports this package, and the
    # executor imports repro.compiler.artifacts
    from repro.runtime.counting import CountingExecutor

    return CountingExecutor(
        constructions, codes, scenario, policy=policy, cost=cost
    ).count(entry)


@dataclass(frozen=True)
class TrafficRange:
    """Best/worst-case traffic of one subroutine over a scenario space."""

    lo: TrafficEstimate
    hi: TrafficEstimate
    scenarios: int

    def describe(self) -> str:
        if self.lo.bytes == self.hi.bytes and self.lo.messages == self.hi.messages:
            return f"{self.hi.bytes} B in {self.hi.messages} message(s)"
        return (
            f"{self.lo.bytes}..{self.hi.bytes} B in "
            f"{self.lo.messages}..{self.hi.messages} message(s) "
            f"over {self.scenarios} scenario(s)"
        )


def estimate_range(
    constructions: dict[str, "ConstructionResult"],
    codes: dict[str, GeneratedCode],
    entry: str,
    bindings: dict[str, int] | None = None,
    max_scenarios: int = 96,
    itemsize: int = 8,
    policy: str | None = None,
    cost: CostModel | None = None,
) -> TrafficRange:
    """Bound one subroutine's traffic over its runtime-unknown scenarios."""
    scenarios = enumerate_scenarios(
        constructions,
        entry,
        bindings=bindings,
        max_scenarios=max_scenarios,
        itemsize=itemsize,
    )
    lo = hi = None
    for sc in scenarios:
        est = simulate_traffic(constructions, codes, entry, sc, policy=policy, cost=cost)
        lo = est if lo is None else lo.meet(est)
        hi = est if hi is None else hi.join(est)
    assert lo is not None and hi is not None
    return TrafficRange(lo=lo, hi=hi, scenarios=len(scenarios))


# ---------------------------------------------------------------------------
# the compile-time half of the traffic oracle
# ---------------------------------------------------------------------------


def predict_traffic(
    compiled,
    entry: str | None = None,
    conditions: dict | None = None,
    bindings: dict[str, int] | None = None,
    inputs: frozenset[str] | set[str] | None = None,
    itemsize: int = 8,
) -> TrafficEstimate:
    """Predict the executor's traffic for one known environment.

    ``compiled`` is a :class:`~repro.compiler.artifacts.CompiledProgram`
    (duck-typed: anything with per-subroutine ``construction`` and ``code``).
    ``inputs`` names the arrays given initial values (``None`` = all, the
    harness convention).  With default kernels and no machine memory limit
    the prediction equals :class:`~repro.spmd.message.TrafficStats` on
    every count, and the runtime oracle tests hold it to that.  Conditions
    must be bools or sequences: a callable is refused with
    :class:`~repro.errors.TrafficPredictionError`, never called.  A
    program compiled with ``CompilerOptions(schedule=...)`` is predicted
    as the executor runs it: scheduled, with phase counts and modelled
    makespan under the compile options' cost model.
    """
    subs = compiled.subroutines
    constructions = {name: cs.construction for name, cs in subs.items()}
    codes = {name: cs.code for name, cs in subs.items()}
    options = getattr(compiled, "options", None)
    policy = getattr(options, "schedule", None)
    cost = getattr(options, "cost", None)
    if entry is None:
        entry = next(iter(subs))
    scenario = Scenario(
        conditions=dict(conditions or {}),
        bindings=dict(bindings or {}),
        inputs=None if inputs is None else frozenset(inputs),
        itemsize=itemsize,
    )
    return simulate_traffic(
        constructions, codes, entry, scenario, policy=policy, cost=cost
    )
