"""These tests spawn real benchmark runs; each takes a few seconds."""

import importlib
import json
import os
import time

import pytest

import run
import workloads
from spans import LAYERS, Tracer
from occufrac import graphs, polynomials

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_runs_of_one_invocation_have_distinct_processes():
    children = run.measure("oracle", 1, 0, trace=False, deadline=time.monotonic() + 120)
    pids = [c["pid"] for c in children]
    assert len(pids) == run.MIN_RUNS
    assert len(set(pids)) == len(pids)
    assert os.getpid() not in pids
    assert run.consistency_problems(children) == []
    assert all(c["failures"] == [] for c in children)


def test_shared_process_is_reported():
    children = [{"pid": 7, "digest": "x", "attempted": 1, "traced": False}] * 2
    assert run.consistency_problems(children) == ["two runs shared a process"]


@pytest.mark.parametrize("workload", ["certify", "oracle"])
def test_traced_runs_of_one_seed_repeat_their_counts(workload):
    first = run.spawn(workload, 2, traced=True)
    second = run.spawn(workload, 2, traced=True)
    assert first["pid"] != second["pid"]
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    key = "lp.solve.cells" if workload == "certify" else "polynomials.event_probability_oracle.states"
    assert first["counts"][key] > 0


def test_tracer_records_cross_layer_spans_and_restores_modules():
    original = polynomials.canonical_key
    tracer = Tracer()
    tracer.install(clients=[workloads])
    try:
        workloads.polynomials.independence_poly(graphs.cycle(7))
    finally:
        tracer.uninstall()
    assert polynomials.canonical_key is original
    assert tracer.calls["polynomials.independence_poly"] == 1
    assert tracer.calls["graphs.canonical_key"] > 0
    assert all(v >= 0 for v in tracer.self_s.values())
    assert set(tracer.module_self_s()) == {"graphs", "polynomials"}
    assert workloads.polynomials is polynomials


def test_every_per_layer_metric_names_a_layer_function():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for metric in spec["per_layer"]:
        layer, *rest = metric["name"].split(".")
        if layer == "trace":
            continue
        assert layer in LAYERS, metric["name"]
        module = importlib.import_module(f"occufrac.{layer}")
        if len(rest) == 2:
            assert callable(getattr(module, rest[0])), metric["name"]
