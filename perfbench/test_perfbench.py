"""Tests of the benchmark itself: references, failure counting, tracing
hygiene and the metric catalog.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from harness import closed_loop, reduce_result
from metrics import END_TO_END, load_layer_catalog
from reference import evaluate
from repro import CompileService
from repro.lang.builder import SubroutineBuilder, program
from repro.spmd.transport import fork_available

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_evaluator_follows_default_kernel_arithmetic_by_hand():
    b = SubroutineBuilder("main")
    b.array("a", (4,))
    b.array("b", (4,))
    b.dynamic("a")
    b.distribute("a", "block")
    b.distribute("b", "block")
    b.compute(defines=("a",))  # a = [0, 1/3, 2/3, 1]
    with b.do("i", 1, 2):
        b.redistribute("a", "cyclic")  # a value no-op
        with b.branch("c0") as alt:
            b.compute(writes=("b",), reads=("a",))  # b = 0.5 b + 0.001 sum(a) + 1
            alt.orelse()
            b.compute(defines=("b",))
    out = evaluate(program(b), conditions={"c0": True}, inputs={"b": np.ones(4)})
    assert np.allclose(out["a"], [0, 1 / 3, 2 / 3, 1], rtol=0, atol=1e-15)
    once = 0.5 + 0.002 + 1.0
    assert np.allclose(out["b"], [0.5 * once + 0.002 + 1.0] * 4, rtol=0, atol=1e-15)
    out = evaluate(program(b), conditions={"c0": False})
    assert np.allclose(out["b"], np.linspace(0, 1, 4) + 0.0, rtol=0, atol=1e-15)


def _serve(items, processors: int = 4):
    with CompileService(processors=processors, workers=1) as svc:
        return [svc.submit(item.request).result() for item in items]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluator_is_bit_identical_to_the_executor_on_compile_stream(tmp_path, seed):
    wl = workloads.CompileStream(seed, tmp_path)
    items = wl.items[:16]
    assert {i.kind for i in items} >= {"fig16", "random/unscheduled", "random/naive"}
    for item, res in zip(items, _serve(items)):
        assert res.ok, res.error
        for name, ref in item.expected.items():
            assert np.array_equal(res.value(name), ref), (item.kind, name)


@pytest.mark.skipif(not fork_available(), reason="mp backend requires fork")
def test_evaluator_is_bit_identical_to_the_executor_on_mp_remap(tmp_path):
    wl = workloads.MPRemap(0, tmp_path)
    try:
        for item, res in zip(wl.items, _serve(wl.items, processors=2)):
            assert res.ok, res.error
            assert res.result.mp is not None  # really ran on forked ranks
            assert np.array_equal(res.value("a"), item.expected["a"]), item.kind
    finally:
        wl.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_app_references_agree_with_the_executor_on_apps_warm(tmp_path, seed):
    wl = workloads.AppsWarm(seed, tmp_path)
    try:
        for item, res in zip(wl.items, _serve(wl.items)):
            assert res.ok, res.error
            assert item.matches(item.read(res)), item.kind
    finally:
        wl.close()


def test_a_corrupted_output_counts_as_failed(tmp_path):
    wl = workloads.AppsWarm(0, tmp_path)
    try:
        item = wl.items[0]
        res = wl.service.submit(item.request).result()
        assert reduce_result(item, 0.001, res).ok
        good = res.value
        res.value = lambda name: good(name) + 1e-6
        bad = reduce_result(item, 0.001, res)
        assert not bad.ok and bad.error
    finally:
        wl.close()


def test_a_wrong_reference_fails_the_run_and_the_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "lu_reference", lambda a0: np.zeros_like(a0))
    code = run.main(["--workload", "apps-warm", "--seed", "0", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def _boundaries() -> list:
    """What each wrapped boundary's owner holds under its own name now."""
    pairs = [(o, a) for o, a, _n in tracing.BOUNDARIES]
    pairs.append((tracing._service.CompileService, "_handle"))
    return [vars(owner).get(attr) for owner, attr in pairs]


def test_tracer_restores_every_patched_name():
    before = _boundaries()
    with tracing.LayerTracer():
        assert all(d is not b for d, b in zip(_boundaries(), before))
    assert all(a is b for a, b in zip(_boundaries(), before))


def test_tracer_restores_names_when_the_traced_run_raises():
    before = _boundaries()
    with pytest.raises(RuntimeError), tracing.LayerTracer():
        raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_boundaries(), before))


def test_traced_spans_belong_to_requests_and_nest(tmp_path):
    wl = workloads.AppsWarm(0, tmp_path)
    try:
        tracer = tracing.LayerTracer()
        with tracer:
            loop = closed_loop(wl, 0.3, tracer)
    finally:
        wl.close()
    by_request = tracer.by_request()
    assert {s.rid for s in loop.samples} == set(by_request)
    for rec in by_request.values():
        assert rec["calls"][tracing.ROOT] == 1
        assert rec["self"]["kernels"] > 0 and rec["self"]["redistribution"] > 0
        assert all(t >= 0 for t in rec["self"].values())


def _printed_metrics(capsys, trace: int) -> dict:
    code = run.main(
        ["--workload", "apps-warm", "--seed", "3", "--seconds", "0.6", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]


def test_every_printed_metric_is_declared_in_benchmark_json(capsys):
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    untraced = _printed_metrics(capsys, 0)
    assert {k: v["unit"] for k, v in untraced.items()} == e2e
    traced = _printed_metrics(capsys, 1)
    assert {k: v["unit"] for k, v in traced.items()} == layers


def test_catalogs_agree_with_benchmark_json():
    assert [
        {"name": k, "unit": u, "better": b} for k, (u, b) in END_TO_END.items()
    ] == [{k: m[k] for k in ("name", "unit", "better")} for m in BENCHMARK["end_to_end"]]
    catalog = load_layer_catalog()
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in catalog] == BENCHMARK[
        "per_layer"
    ]
    e2e = set(END_TO_END)
    for m in catalog:
        for move in m["moves"]:
            assert move["metric"] in e2e and move["workload"] in workloads.WORKLOADS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        cls.why for cls in workloads.WORKLOADS.values()
    ]


def test_items_are_drawn_from_the_seed(tmp_path):
    a = workloads.CompileStream(5, tmp_path).items
    b = workloads.CompileStream(5, tmp_path).items
    c = workloads.CompileStream(6, tmp_path).items
    assert [i.kind for i in a] == [i.kind for i in b]
    for x, y in zip(a, b):
        assert x.expected.keys() == y.expected.keys()
        assert all(np.array_equal(x.expected[k], y.expected[k]) for k in x.expected)
    assert not np.array_equal(a[0].request.inputs["a0"], c[0].request.inputs["a0"])
    # every fourth request is a Fig. 16 shape, each shape once per pass
    shapes = [(i.request.bindings["n"], i.request.processors) for i in a if i.kind == "fig16"]
    assert len(set(shapes)) == len(shapes) == len(a) // 4
