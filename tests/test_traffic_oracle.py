"""The traffic oracle: compile-time predictions vs. executed ground truth.

:func:`repro.spmd.traffic.predict_traffic` runs the executor's own walk
over dataless storage, pricing each copy instead of moving it; the
executor's :meth:`ExecutionResult.observed_traffic` measures the real
thing.  With default kernels and no memory limit the two must agree
exactly -- equal bytes, messages, local copies, status checks and phases,
and the same modelled makespan -- on the paper figures, the three
workload generators and a sweep of random programs under every schedule
policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CompilerOptions,
    CompilerSession,
    ExecutionEnv,
    Executor,
    Machine,
    compile_program,
    predict_traffic,
)
from repro.apps.workloads import (
    branchy_subroutine,
    chain_subroutine,
    loopy_subroutine,
    random_environment,
    random_legal_subroutine,
)
from repro.compiler.artifacts import passes_for_level
from repro.compiler.pipeline import PassManager
from repro.errors import TrafficPredictionError
from repro.obs import REGISTRY, TRACER, snapshot_diff
from repro.spmd.traffic import enumerate_scenarios, estimate_range

# paper Fig. 1: realign+redistribute through an unused intermediate mapping
FIG1 = """
subroutine main()
  integer n
  real A(n, n), B(n, n)
!hpf$ align with B :: A
!hpf$ dynamic A, B
!hpf$ distribute B(block, *)
  compute reads A, B
!hpf$ realign A(i, j) with B(j, i)
!hpf$ redistribute B(cyclic, *)
  compute reads A, B
end
"""

# paper Fig. 10/12: the running example (branches, loop, alignment family)
FIG12 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""

N = 16

WORKLOADS = {
    "fig1": dict(
        source=FIG1,
        bindings={"n": N},
        conditions={},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N), "b": np.ones((N, N))},
    ),
    "fig12-then": dict(
        source=FIG12,
        bindings={"n": N, "m": 3},
        conditions={"c1": True},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N)},
    ),
    "fig12-else": dict(
        source=FIG12,
        bindings={"n": N, "m": 3},
        conditions={"c1": False},
        inputs={"a": np.arange(N * N, dtype=float).reshape(N, N)},
    ),
    "chain": dict(
        source=chain_subroutine(6, 3),
        bindings={},
        conditions={},
        inputs={f"a{i}": np.arange(16.0) + i for i in range(3)},
    ),
    "branchy": dict(
        source=branchy_subroutine(5, 2),
        bindings={},
        conditions={"c0": True, "c1": False, "c2": True, "c3": False},
        inputs={f"a{i}": np.arange(16.0) + i for i in range(2)},
    ),
    "loopy": dict(
        source=loopy_subroutine(2),
        bindings={"t": 3},
        conditions={},
        inputs={"a": np.arange(16.0)},
    ),
}


def _observe(w, level):
    compiled = compile_program(
        w["source"],
        bindings=w["bindings"] or None,
        processors=4,
        options=CompilerOptions(level=level),
    )
    machine = Machine(compiled.processors)
    env = ExecutionEnv(
        conditions=dict(w["conditions"]),
        bindings=dict(w["bindings"]),
        inputs={k: v.copy() for k, v in w["inputs"].items()},
    )
    name = next(iter(compiled.subroutines))
    result = Executor(compiled, machine, env).run(name)
    predicted = predict_traffic(
        compiled,
        entry=name,
        conditions=w["conditions"],
        bindings=w["bindings"],
        inputs=frozenset(w["inputs"]),
    )
    return predicted, result.observed_traffic()


COUNTS = ("bytes", "messages", "local_bytes", "local_copies", "status_checks", "phases")


def _assert_exact(predicted, observed, what):
    for key in COUNTS:
        p, o = getattr(predicted, key), getattr(observed, key)
        assert p == o, f"{what}: predicted {key}={p}, observed {o}"
    assert predicted.makespan == pytest.approx(observed.makespan), what


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_predicted_vs_observed_within_tolerance(workload, level):
    # the tolerance is zero: prediction runs the executor's own walk
    predicted, observed = _observe(WORKLOADS[workload], level)
    _assert_exact(predicted, observed, f"{workload} level {level}")


@pytest.mark.parametrize("policy", [None, "naive", "round-robin", "aggregate"])
def test_predicted_equals_observed_on_random_programs(policy):
    """Scheduled and unscheduled prediction on random programs: exact."""
    opts = CompilerOptions(level=3, schedule=policy)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        program = random_legal_subroutine(rng, n_arrays=3, length=12, depth=2)
        conditions, inputs = random_environment(rng, n_arrays=3)
        compiled = compile_program(program, processors=4, options=opts)
        env = ExecutionEnv(conditions=dict(conditions), inputs=dict(inputs))
        observed = Executor(compiled, env=env).run("main").observed_traffic()
        predicted = predict_traffic(
            compiled, conditions=conditions, inputs=frozenset(inputs)
        )
        _assert_exact(predicted, observed, f"seed {seed} policy {policy}")


def test_prediction_refuses_conditions_it_cannot_answer():
    """Errors surface as TrafficPredictionError; a callable condition is
    refused without being called, since it may be stateful."""
    bindings = {"n": N, "m": 3}
    compiled = compile_program(FIG12, bindings=bindings, processors=4)
    calls = []

    def c1():
        calls.append(1)
        return True

    with pytest.raises(TrafficPredictionError, match="c1"):
        predict_traffic(compiled, conditions={"c1": c1}, bindings=bindings)
    assert calls == []
    with pytest.raises(TrafficPredictionError, match="c1"):
        predict_traffic(compiled, bindings=bindings)  # no outcome for c1
    with pytest.raises(TrafficPredictionError, match="exhausted"):
        predict_traffic(compiled, conditions={"c1": []}, bindings=bindings)


def test_compile_time_prediction_is_not_a_run():
    """Pricing placements walks the executor but publishes nothing as a run."""
    opts = CompilerOptions(
        passes=passes_for_level(3) + ("traffic-estimate",), schedule="naive"
    )
    before = REGISTRY.snapshot()
    prev = TRACER.enabled
    TRACER.enabled = True
    TRACER.clear()
    try:
        compiled = CompilerSession(processors=4, options=opts).compile(
            loopy_subroutine(2)
        )
        spans = [s.name for s in TRACER.finished_spans()]
    finally:
        TRACER.enabled = prev
        TRACER.clear()
    assert compiled.report.traffic["loopy"].scenarios > 1
    assert compiled.report.motion["loopy"].count >= 1  # the guard priced sinks
    assert "executor.run" not in spans
    assert not [s for s in spans if s.startswith("remap.")]
    moved = [
        d["name"]
        for d in snapshot_diff(before, REGISTRY.snapshot())["diff"]
        if d["name"].startswith("repro.runtime.")
        and (d.get("delta") or d.get("count_delta"))
    ]
    assert moved == []


# ---------------------------------------------------------------------------
# the traffic-estimate pass surfaces predictions without executing
# ---------------------------------------------------------------------------


def test_traffic_estimate_pass_records_ranges_and_counters():
    pipeline = PassManager.build(
        [
            "parse",
            "motion",
            "resolve",
            "construction",
            "remove-useless",
            "live-copies",
            "status-checks",
            "codegen",
            "traffic-estimate",
        ]
    )
    compiled = pipeline.compile(FIG12, bindings={"n": N, "m": 3}, processors=4)
    rng = compiled.report.traffic["remap"]
    assert rng.scenarios >= 2  # both c1 outcomes at least
    assert rng.lo.dominated_by(rng.hi)
    assert compiled.trace.counter("traffic-estimate", "predicted_bytes_max") == rng.hi.bytes
    assert "predicted traffic" in compiled.report.summary()

    # both branch outcomes are inside the predicted range
    for name in ("fig12-then", "fig12-else"):
        _, observed = _observe(WORKLOADS[name], 3)
        assert rng.lo.bytes <= observed.bytes <= rng.hi.bytes


def test_traffic_estimate_pass_via_options():
    opts = CompilerOptions(
        passes=(
            "parse", "resolve", "construction", "status-checks",
            "codegen", "traffic-estimate",
        )
    )
    compiled = compile_program(FIG1, bindings={"n": N}, processors=4, options=opts)
    assert "traffic-estimate" in compiled.trace.pass_names
    assert compiled.report.traffic


# ---------------------------------------------------------------------------
# scenario enumeration
# ---------------------------------------------------------------------------


def _constructions(source, bindings):
    compiled = compile_program(source, bindings=bindings, processors=4)
    return {n: cs.construction for n, cs in compiled.subroutines.items()}


def test_enumerate_scenarios_covers_branches_and_trips():
    cons = _constructions(FIG12, {"n": N, "m": 3})
    scenarios = enumerate_scenarios(cons, "remap", bindings={"n": N, "m": 3})
    # one condition (c1) x inputs-live variation, m is bound: 4 scenarios
    assert len(scenarios) == 4
    assert {s.conditions["c1"] for s in scenarios} == {False, True}

    # with m unbound at compile time, the trip axis adds zero/one/many choices
    cons_free = _constructions(FIG12, {"n": N})
    scenarios = enumerate_scenarios(cons_free, "remap", bindings={"n": N})
    trips = {s.bindings["m"] for s in scenarios}
    assert trips == {0, 1, 3}


def test_enumerate_scenarios_caps_deterministically():
    src_lines = ["subroutine main()", "  integer n", "  real A(n)",
                 "!hpf$ dynamic A", "!hpf$ distribute A(block)"]
    for i in range(8):  # 2^8 condition assignments > the cap
        src_lines += [f"  if c{i} then", "!hpf$   redistribute A(cyclic)",
                      "    compute reads A", "!hpf$   redistribute A(block)",
                      "  endif"]
    src_lines += ["  compute reads A", "end"]
    cons = _constructions("\n".join(src_lines), {"n": 16})
    a = enumerate_scenarios(cons, "main", bindings={"n": 16}, max_scenarios=32)
    b = enumerate_scenarios(cons, "main", bindings={"n": 16}, max_scenarios=32)
    assert len(a) <= 33  # cap plus the forced far corner
    assert [s.describe() for s in a] == [s.describe() for s in b]


def test_estimate_range_bounds_are_ordered():
    compiled = compile_program(FIG12, bindings={"n": N, "m": 3}, processors=4)
    cons = {n: cs.construction for n, cs in compiled.subroutines.items()}
    codes = {n: cs.code for n, cs in compiled.subroutines.items()}
    rng = estimate_range(cons, codes, "remap", bindings={"n": N, "m": 3})
    assert rng.lo.dominated_by(rng.hi)
    assert rng.hi.bytes > 0
