"""The benchmark's per-layer metrics stay measurable on the engine.

``perfbench/tracer.py`` wraps engine functions and methods by name, and
``perfbench/run.py`` reports a per-layer metric of BENCHMARK.json as absent
when a name it is built on is gone. This test traces two single-point
checks through ``scenarios.run`` and requires every traced name to be
found and every declared per-layer metric to be reported, so a refactor
that drops or renames a traced name fails here instead of producing a
malformed benchmark result. A third test reads the tracer's derivative
counters to require that symbolic checks of expression-backed inputs take
no stencils. It only reads ``perfbench/``.
"""

import importlib.util
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from poisson_ortho import scenarios
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, Grid
from random_metrics import random_metric_entries

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _single_point(name, kind=None):
    config = scenarios.load_scenario(name)
    changes = {"grid": Grid(config.grid.center, config.grid.half_width, 1)}
    if kind is not None:
        changes["scheme"] = DerivativeScheme(kind=kind, step=config.scheme.step)
    return replace(config, **changes)


def _timed_pass(configs) -> float:
    # scenarios.run is looked up at call time, so a traced pass goes
    # through the tracer's wrappers
    start = time.perf_counter()
    for config in configs:
        scenarios.run(config).json_text()
    return time.perf_counter() - start


def test_traced_names_and_per_layer_metrics_are_present():
    tracer_mod = _load("tracer")
    bench = _load("run")
    configs = [_single_point("euclid4"), _single_point("so3", CENTRAL_4)]
    plain = _timed_pass(configs)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        traced = _timed_pass(configs)
    assert tracer.missing == []

    workers = bench.environment(scenarios, np)["workers"]
    metrics, absent = bench.per_layer(tracer, [traced], [plain], workers)
    assert absent == []
    assert set(metrics) == set(bench.PER_LAYER)


def _multi_point(name, kind=None):
    # the single-point case above misses any path that runs only for n > 1
    config = _single_point(name, kind)
    return replace(config, grid=Grid(config.grid.center, config.grid.half_width, 2))


def test_multi_point_traced_names_and_per_layer_metrics_are_present():
    tracer_mod = _load("tracer")
    bench = _load("run")
    configs = [_multi_point("euclid4"), _multi_point("so3", CENTRAL_4)]
    assert [len(c.grid.sample()) for c in configs] == [16, 8]
    plain = _timed_pass(configs)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        traced = _timed_pass(configs)
    assert tracer.missing == []

    workers = bench.environment(scenarios, np)["workers"]
    metrics, absent = bench.per_layer(tracer, [traced], [plain], workers)
    assert absent == []
    assert set(metrics) == set(bench.PER_LAYER)


def test_symbolic_checks_take_no_stencils(tmp_path):
    # under symbolic every differentiated field of an expression-backed
    # check carries exact partials, so a multi-point check evaluates one
    # batch, the grid, and never differences
    doc = {
        "name": "random-metric",
        "dim": 4,
        "poisson": {"kind": "canonical", "rank": 2},
        "casimirs": ["x1", "x2"],
        "metric": {"kind": "matrix", "entries": random_metric_entries(
            np.random.default_rng(20260823), transversal_leaf=True)},
        "grid": {"center": [0.0] * 4, "half_width": 0.5, "points_per_axis": 2},
    }
    path = tmp_path / "random-metric.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    configs = [_multi_point("model4d-atan"), scenarios.load_scenario(str(path))]
    assert [len(c.grid.sample()) for c in configs] == [16, 16]
    tracer = _load("tracer").Tracer()
    with tracer.installed():
        _timed_pass(configs)
    assert tracer.missing == []
    counts = tracer.totals()["counts"]
    assert counts["partial.exact"] > 0
    assert counts.get("partial.stencil", 0) == 0
