"""The benchmark's per-layer metrics stay measurable on the engine.

``perfbench/tracer.py`` wraps engine functions and methods by name, and
``perfbench/run.py`` reports a per-layer metric of BENCHMARK.json as absent
when a name it is built on is gone. This test traces two single-point
checks through ``scenarios.run`` and requires every traced name to be
found and every declared per-layer metric to be reported, so a refactor
that drops or renames a traced name fails here instead of producing a
malformed benchmark result. It only reads ``perfbench/``.
"""

import importlib.util
import os
import sys
import time
from dataclasses import replace

import numpy as np

from poisson_ortho import scenarios
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, Grid

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
