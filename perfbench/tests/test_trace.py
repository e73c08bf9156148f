"""The traced run must not change what the engine reports."""

import json
import time

import numpy as np
import pytest

import run
import tracer as tracer_mod
import workloads
from poisson_ortho import context, geometry, metric, scenarios


def _jobs(tmp_path):
    doc = workloads.random_configs(seed=0, count=1)[0]
    doc["grid"] = {"center": [0.0] * 4, "half_width": 0.5, "points_per_axis": 2}
    path = tmp_path / "random.json"
    path.write_text(json.dumps(doc))
    shear = ((0.0,) * 4, 1.0, (1, 3, 1, 1))
    return [
        workloads.Job("so3", "so3"),
        workloads.Job("shear", "model4d-atan", grid=shear),
        workloads.Job("shear-fd", "model4d-atan", grid=shear, scheme="central-4"),
        workloads.Job("random", str(path)),
    ]


def _json_text(job):
    config = job.configure(scenarios.load_scenario(job.source))
    return scenarios.run(config).json_text()


def test_tracing_leaves_canonical_json_byte_identical(tmp_path):
    jobs = _jobs(tmp_path)
    plain = [_json_text(job) for job in jobs]
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        traced = [_json_text(job) for job in jobs]
    assert traced == plain

    totals = tracer.totals()
    assert totals["stats"]["integrability.verdict"][0] == len(jobs)
    assert totals["stats"]["dsl.evaluate"][0] > 0
    assert totals["counts"]["partial.exact"] > 0
    assert totals["counts"]["partial.stencil"] > 0
    assert not tracer.missing

    path = tmp_path / "spans.npz"
    rows = tracer.write(str(path))
    spans = np.load(path)
    assert spans["name"].size == rows > 0
    # a child span lies inside its parent, on the same thread
    child = np.flatnonzero(spans["parent"] >= 0)
    parent = spans["parent"][child]
    assert (spans["thread"][parent] == spans["thread"][child]).all()
    assert (spans["start"][parent] <= spans["start"][child]).all()
    assert (spans["end"][child] <= spans["end"][parent]).all()


def test_uninstall_restores_every_binding(tmp_path):
    originals = (geometry.jacobian, metric.jacobian, context.jacobian,
                 context.ChartContext.christoffel_at, geometry.TensorField.components)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        assert metric.jacobian is not originals[1]
        assert context.ChartContext.christoffel_at is not originals[3]
    assert (geometry.jacobian, metric.jacobian, context.jacobian,
            context.ChartContext.christoffel_at,
            geometry.TensorField.components) == originals


def test_missing_targets_read_as_absent(monkeypatch):
    spans = tuple(s for s in tracer_mod.SPANS if s[0] != "context") + (
        ("scenarios", "no_such_function", "scenarios.no_such_function"),
        ("context", "NoSuchClass.*", "context"),
    )
    monkeypatch.setattr(tracer_mod, "SPANS", spans)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        _json_text(workloads.Job("so3", "so3"))
        wall = time.perf_counter() - start
    assert "scenarios.no_such_function" in tracer.missing
    assert "context.NoSuchClass.*" in tracer.missing

    metrics, absent = run.per_layer(tracer, [wall], [wall], threads=None)
    assert "context.christoffel_at.hit_ratio" in absent
    assert "scenarios.threads" in absent
    assert metrics["integrability.verdict.self_s"][0] > 0
    assert metrics["liepoisson.validate_constants.calls"][0] >= 1


# only a random config's exit 2 is the known defect; a builtin's is wrong
@pytest.mark.parametrize("oracle, exit_code, status", [
    (True, 0, "ok"), (True, 1, "wrong"), (True, 2, "failed"),
    (False, 1, "wrong"), (False, 2, "wrong")])
def test_judge_separates_failed_from_wrong(oracle, exit_code, status):
    job = workloads.Job("check", "check", expected_exit=0, oracle=oracle)
    doc = {"verdict": {"disagreements": [{"kind": "canonical-chart"}]}}
    assert workloads.judge(job, exit_code, doc)[0] == status


def test_a_check_that_raises_is_wrong(tmp_path):
    job = workloads.Job("missing", str(tmp_path / "missing.json"), expected_exit=0)
    done = run.Runner([job], scenarios, workloads).check(job)
    assert (done.status, done.check_s) == ("wrong", None)


def test_tally_counts_each_check_once_with_its_worst_status():
    jobs = [workloads.Job(key, key) for key in ("a", "b", "c")]
    one_pass = [run.Execution(jobs[0]), run.Execution(jobs[1], status="failed"),
                run.Execution(jobs[2])]
    assert run.tally(jobs, one_pass) == (3, 1, 0)
    three_passes = one_pass * 3 + [run.Execution(jobs[2], status="wrong")]
    assert run.tally(jobs, three_passes) == (3, 2, 1)


def test_random_configs_follow_the_seed():
    assert workloads.random_configs(7) == workloads.random_configs(7)
    assert workloads.random_configs(7) != workloads.random_configs(8)
