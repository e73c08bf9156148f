"""Scenario registry, config files, run reports, CLI, determinism."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from poisson_ortho import cli, context, geometry, metric
from poisson_ortho.cli import main
from poisson_ortho.errors import ConfigError
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, Grid
from poisson_ortho.scenarios import (
    BUILTIN_SCENARIOS, canonical_json, load_scenario, run, thread_count,
)

INV_PI = 1.0 / np.pi


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def chart_config(**overrides):
    doc = {
        "name": "custom-shear",
        "dim": 4,
        "poisson": {"kind": "canonical", "rank": 2},
        "casimirs": ["x1", "x2"],
        "metric": {"kind": "matrix", "entries": [
            ["1", "0", "atan(x2)/pi", "0"],
            ["0", "1", "0", "0"],
            ["atan(x2) / pi", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]},
        "grid": {"center": [0.0, 0.0, 0.0, 0.0], "half_width": 0.5,
                 "points_per_axis": 2},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# registry

def test_builtin_scenarios_load():
    for name in BUILTIN_SCENARIOS:
        config = load_scenario(name)
        assert config.name == name
        assert config.structure.dim == config.metric.dim


def test_builtin_grid_defaults():
    euclid = load_scenario("euclid4")
    assert euclid.grid.center == (0.0,) * 4
    assert euclid.grid.half_width == (1.0,) * 4
    assert euclid.grid.points_per_axis == (3,) * 4
    se3 = load_scenario("se3")
    assert se3.grid.center == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert se3.algebra is not None


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="not a builtin scenario"):
        load_scenario("nonexistent-thing")


# ---------------------------------------------------------------------------
# config files

def test_config_file_roundtrip(tmp_path):
    path = write_config(tmp_path, chart_config())
    config = load_scenario(path)
    assert config.name == "custom-shear"
    assert config.dim == 4
    report = run(config)
    assert report.exit_code == 1  # the shear makes it non-integrable


def test_config_metric_whitespace_normalized(tmp_path):
    # "atan(x2)/pi" vs "atan(x2) / pi" already differ as raw text in the
    # default fixture; loading succeeded, so normalization worked
    path = write_config(tmp_path, chart_config())
    load_scenario(path)


def test_config_asymmetric_metric_rejected(tmp_path):
    doc = chart_config()
    doc["metric"]["entries"][0][1] = "x1"
    doc["metric"]["entries"][1][0] = "x2"
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="must be symmetric"):
        load_scenario(path)


def test_config_term_order_matters_for_symmetry(tmp_path):
    doc = chart_config()
    doc["metric"]["entries"][0][1] = "x1 + 1"
    doc["metric"]["entries"][1][0] = "1 + x1"
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="symmetric"):
        load_scenario(path)


def test_config_missing_fields(tmp_path):
    doc = chart_config()
    del doc["grid"]
    with pytest.raises(ConfigError, match="missing required field 'grid'"):
        load_scenario(write_config(tmp_path, doc))
    doc = chart_config()
    del doc["casimirs"]
    with pytest.raises(ConfigError, match="casimirs"):
        load_scenario(write_config(tmp_path, doc))


def test_config_field_validation(tmp_path):
    doc = chart_config()
    doc["grid"]["center"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="grid.center"):
        load_scenario(write_config(tmp_path, doc))

    doc = chart_config(scheme={"kind": "upwind"})
    with pytest.raises(ConfigError, match="scheme.kind"):
        load_scenario(write_config(tmp_path, doc))

    doc = chart_config(tol_zero=-1.0)
    with pytest.raises(ConfigError, match="tol_zero"):
        load_scenario(write_config(tmp_path, doc))


@pytest.mark.parametrize("field, value", [
    ("tol_zero", float("nan")), ("tol_zero", float("inf")),
    ("half_width", float("nan")), ("half_width", float("inf")),
    ("center", [float("nan"), 0.0, 0.0, 0.0]),
    ("half_width", 1e308),  # finite, but the box width overflows
])
def test_config_rejects_non_finite_numbers(tmp_path, field, value):
    # json.load reads NaN and Infinity, so a config file can carry them
    doc = chart_config()
    if field == "tol_zero":
        doc[field] = value
    else:
        doc["grid"][field] = value
    with pytest.raises(ConfigError, match="finite"):
        load_scenario(write_config(tmp_path, doc))


SE3_METRIC_CONFIG = {
    "name": "se3-metric",
    "dim": 6,
    "poisson": {"kind": "algebra", "name": "se3"},
    "metric": {"kind": "se3"},
    "grid": {"center": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
             "half_width": 0.25, "points_per_axis": 2},
}
HUGE = 10 ** 400  # json.load reads it as an int too large for a float


@pytest.mark.parametrize("doc", [
    chart_config(tol_zero=HUGE),
    chart_config(grid={"center": [HUGE, 0, 0, 0], "half_width": 0.5, "points_per_axis": 2}),
    chart_config(grid={"center": [0, 0, 0, 0], "half_width": HUGE, "points_per_axis": 2}),
    chart_config(grid={"center": [0, 0, 0, 0], "half_width": [1, HUGE, 1, 1],
                       "points_per_axis": 2}),
    chart_config(grid={"center": [0, 0, 0, 0], "half_width": 0.5, "points_per_axis": HUGE}),
    chart_config(scheme={"kind": "central-4", "step": HUGE}),
    {**SE3_METRIC_CONFIG, "metric": {"kind": "se3", "alpha": HUGE}},
    {**SE3_METRIC_CONFIG, "metric": {"kind": "se3", "beta": HUGE}},
], ids=["tol_zero", "center", "half_width", "half_width_list", "points_per_axis",
        "step", "alpha", "beta"])
def test_cli_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys, doc):
    assert main(["check", write_config(tmp_path, doc)]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_cli_grid_points_too_large_for_a_float_is_a_config_error(capsys):
    assert main(["check", "euclid4", "--grid-points", str(HUGE)]) == 3
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tol_zero", True), ("points_per_axis", True), ("center", ["0.5", 0, 0, 0]),
    ("center", [False, 0, 0, 0]), ("half_width", True), ("half_width", [True, 1, 1, 1]),
    ("scheme", {"kind": "central-4", "step": False}),
])
def test_config_rejects_booleans_and_strings_as_numbers(tmp_path, field, value):
    # JSON true and false load as bools, an int subclass, and float() reads a
    # numeric string: a true tol_zero would run with tolerance 1
    doc = chart_config()
    if field in ("tol_zero", "scheme"):
        doc[field] = value
    else:
        doc["grid"][field] = value
    with pytest.raises(ConfigError):
        load_scenario(write_config(tmp_path, doc))


def test_cli_boolean_tolerance_is_not_a_verdict(tmp_path, capsys):
    # the shear is non-integrable; a tolerance of 1 would pass it as exit 0
    assert main(["check", write_config(tmp_path, chart_config(tol_zero=True))]) == 3
    assert "tol_zero" in capsys.readouterr().err


@pytest.mark.parametrize("scales", [
    '["1 +", 1]', '[[1], 1]', '"ab"', '[1e400, 1]', '[1, "x9"]', '[true, 1]',
])
def test_cli_malformed_coframe_scales_are_a_config_error(tmp_path, capsys, scales):
    # the loader checks the list and each entry, so none of these reaches
    # the run, and a JSON true is not read as the number 1
    path = tmp_path / "scales.json"
    path.write_text(json.dumps(chart_config(coframe_scales="SCALES"))
                    .replace('"SCALES"', scales))
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "coframe_scales" in err and "unexpected" not in err


@pytest.mark.parametrize("params", [{"alpha": True}, {"beta": "1"}])
def test_config_se3_metric_parameters_are_numbers(tmp_path, params):
    doc = {**SE3_METRIC_CONFIG, "metric": {"kind": "se3", **params}}
    with pytest.raises(ConfigError, match="alpha and beta"):
        load_scenario(write_config(tmp_path, doc))


@pytest.mark.parametrize("rank", [3, 6])
def test_config_bad_canonical_rank_is_a_config_error(tmp_path, capsys, rank):
    path = write_config(tmp_path, chart_config(poisson={"kind": "canonical", "rank": rank}))
    with pytest.raises(ConfigError, match="rank"):
        load_scenario(path)
    assert main(["check", path]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_config_algebra_kind(tmp_path):
    doc = {
        "name": "se3-from-file",
        "dim": 6,
        "poisson": {"kind": "algebra", "name": "se3"},
        "metric": {"kind": "algebra-default"},
        "grid": {"center": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                 "half_width": 0.25, "points_per_axis": 2},
    }
    config = load_scenario(write_config(tmp_path, doc))
    assert config.algebra.name == "se3"
    assert run(config).exit_code == 0


def test_config_algebra_rejects_casimir_override(tmp_path):
    doc = {
        "name": "bad",
        "dim": 3,
        "poisson": {"kind": "algebra", "name": "so3"},
        "casimirs": ["x1"],
        "metric": {"kind": "algebra-default"},
        "grid": {"center": [0.0, 0.0, 1.0], "half_width": 0.25,
                 "points_per_axis": 2},
    }
    with pytest.raises(ConfigError, match="define their own invariants"):
        load_scenario(write_config(tmp_path, doc))


def test_config_matrix_poisson_needs_rank(tmp_path):
    doc = chart_config()
    doc["poisson"] = {"kind": "matrix", "entries": [
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
        ["-1", "0", "0", "0"],
        ["0", "-1", "0", "0"],
    ]}
    with pytest.raises(ConfigError, match="expected_rank"):
        load_scenario(write_config(tmp_path, doc))
    doc["expected_rank"] = 2
    doc["casimirs"] = ["x1", "x2"]  # wrong invariants for this bivector
    config = load_scenario(write_config(tmp_path, doc))
    assert config.structure.expected_rank == 2


def test_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="config file"):
        load_scenario(str(path))


# ---------------------------------------------------------------------------
# runs

def test_run_euclid_integrable():
    report = run(load_scenario("euclid4"))
    assert report.exit_code == 0
    assert report.validation.ok
    assert report.verdict.integrable and report.verdict.consistent
    assert report.extras is None


def test_run_model4d_nonintegrable_with_witness():
    report = run(load_scenario("model4d-atan"))
    assert report.exit_code == 1
    c3 = report.verdict.report("bivector-derivative")
    assert c3.max_residual == pytest.approx(INV_PI, abs=1e-9)
    assert c3.witness.coords[1] == 0.0


def test_run_se3_extras_gram_oracle():
    report = run(load_scenario("se3"))
    assert report.exit_code == 0
    extras = report.extras
    assert extras["killing_determinant"] == 0.0
    assert extras["casimir_bracket_abelian"]
    assert extras["integral_surface"]["holds"]
    assert extras["integral_surface"]["max_residual"] <= 1e-9
    for entry in extras["gram"]:
        x = np.array(entry["point"][:3])
        p = np.array(entry["point"][3:])
        want = [[2.0 * float(x @ p), float(p @ p)], [float(p @ p), 0.0]]
        assert np.allclose(entry["matrix"], want, atol=1e-12)


def test_run_invalid_structure_exits_two(tmp_path):
    doc = {
        "name": "broken-jacobi",
        "dim": 3,
        "poisson": {"kind": "matrix", "entries": [
            ["0", "1", "0"], ["-1", "0", "x2"], ["0", "-x2", "0"],
        ]},
        "casimirs": ["x3"],
        "expected_rank": 2,
        "metric": {"kind": "identity"},
        "grid": {"center": [0.0, 0.5, 0.0], "half_width": 0.25,
                 "points_per_axis": 2},
    }
    report = run(load_scenario(write_config(tmp_path, doc)))
    assert not report.validation.ok
    assert report.verdict is None
    assert report.exit_code == 2
    assert '"verdict":null' in report.json_text()


def test_report_surfaces():
    report = run(load_scenario("so3"))
    text = report.text()
    assert "wall time" in text
    assert "INTEGRABLE" in text
    payload = report.json_text()
    assert "wall" not in payload and "elapsed" not in payload  # timing text-only
    doc = json.loads(payload)
    assert doc["schema_version"] == 1
    assert doc["exit_code"] == 0
    assert doc["scenario"]["name"] == "so3"
    assert doc["verdict"]["integrable"] is True


# ---------------------------------------------------------------------------
# canonical serialization

def test_canonical_json_formatting():
    assert canonical_json({"b": 1, "a": [1.5, True, None]}) == \
        '{"a":[1.5,true,null],"b":1}'
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json(1.0) == "1"
    assert canonical_json(np.float64(0.5)) == "0.5"
    assert canonical_json(np.array([1.0, 2.0])) == "[1,2]"
    with pytest.raises(TypeError, match="non-string"):
        canonical_json({1: "x"})
    with pytest.raises(TypeError, match="deterministically"):
        canonical_json(object())


def test_run_deterministic_in_process():
    a = run(load_scenario("sl2r")).json_text()
    b = run(load_scenario("sl2r")).json_text()
    assert a == b


@pytest.mark.parametrize("name, exit_code",
                         [("model4d-atan", 1), ("so3", 0), ("se3", 0)])
def test_central_check_evaluates_one_context_batch(name, exit_code, monkeypatch):
    # a scheme differentiates only the input fields, so a run builds one
    # context over the grid and, for an algebra, one over the
    # integral-surface samples; g^-1 is built once per context, Christoffel
    # symbols once, and the bivector is differentiated once: a linear
    # bivector by one evaluation on the stacked stencils of every axis, a
    # constant one as dim exact zeros
    config = load_scenario(name)
    config = replace(config,
                     grid=Grid(config.grid.center, config.grid.half_width, 2),
                     scheme=DerivativeScheme(kind=CENTRAL_4, step=config.scheme.step))
    n = len(config.grid.sample())
    contexts, bivector_batches = [], []
    calls = {"inverse_metric": 0, "christoffel": 0, "bivector_partials": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(context, "inverse_metric")
    counted(metric, "inverse_metric")
    counted(context, "christoffel")
    init, partial = context.ChartContext.__init__, geometry.partial_derivative
    components = geometry.TensorField.components

    def built(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    def partial_of(field, *args):
        calls["bivector_partials"] += field is config.structure.bivector
        return partial(field, *args)

    def evaluated(self, coords):
        if self is config.structure.bivector:
            bivector_batches.append(len(coords))
        return components(self, coords)
    monkeypatch.setattr(context.ChartContext, "__init__", built)
    monkeypatch.setattr(geometry, "partial_derivative", partial_of)
    monkeypatch.setattr(geometry.TensorField, "components", evaluated)

    assert run(config).exit_code == exit_code
    expected = 1 if config.algebra is None else 2
    assert len(contexts) == expected
    assert np.array_equal(contexts[0].q, config.grid.sample().coords)
    stencils = [size for size in bivector_batches if size > n]
    if config.algebra is None:
        assert calls == {"inverse_metric": 1, "christoffel": 1,
                         "bivector_partials": config.dim}
        assert stencils == []
    else:
        assert calls == {"inverse_metric": 2, "christoffel": 1, "bivector_partials": 0}
        assert stencils == [config.dim * 4 * n]


def test_central_check_stencils_each_casimir_gradient_once(monkeypatch):
    # the scaled coframe and its partials come from the Casimir gradients,
    # their Hessians and the scales by the product rule, so no one-form is
    # stencilled; on the grid each Casimir is evaluated once for its
    # gradient and once per outer axis it reads for its Hessian
    config = load_scenario("se3")
    config = replace(config,
                     grid=Grid(config.grid.center, config.grid.half_width, 2),
                     scheme=DerivativeScheme(kind=CENTRAL_4, step=config.scheme.step))
    grid = config.grid.sample().coords
    casimirs = config.structure.casimirs
    evaluations = [0] * len(casimirs)
    stencilled = []
    components = geometry.TensorField.components
    partial = geometry.partial_derivative

    def on_grid(q):
        # a stencil batch of the grid: shifted copies of it, offset-major
        return (len(q) % len(grid) == 0
                and np.allclose(q.reshape(-1, *grid.shape), grid, rtol=0.0, atol=1e-3))

    def counted(field, coords):
        for i, casimir in enumerate(casimirs):
            evaluations[i] += field is casimir and on_grid(np.asarray(coords))
        return components(field, coords)

    def recorded(field, *args):
        stencilled.append(field.variance)
        return partial(field, *args)
    monkeypatch.setattr(geometry.TensorField, "components", counted)
    monkeypatch.setattr(geometry, "partial_derivative", recorded)

    assert run(config).exit_code == 0
    assert config.structure.coframe_scales is not None
    # x4^2 + x5^2 + x6^2 reads three of the six axes
    assert evaluations == [1 + len(c.reads) for c in casimirs] == [7, 4]
    assert stencilled and "l" not in stencilled


@pytest.mark.parametrize("scheme", ["symbolic", "central-2", "central-4"])
def test_cli_casimir_pole_on_the_grid_rows_is_a_domain_error(tmp_path, capsys, scheme):
    # the second Casimir reads only x2 and has a pole on the grid rows with
    # x2 = 0.5, which no central stencil reads; its stencils along x1, x3
    # and x4 would read the rows' values but are skipped, so the rows are
    # evaluated on their own
    doc = chart_config(
        casimirs=["x1", "x2 + 1/(x2 - 0.5)"],
        metric={"kind": "matrix", "entries": [
            ["1" if i == j else "0" for j in range(4)] for i in range(4)]},
        grid={"center": [0.0, 0.5, 0.0, 0.0], "half_width": 0.5, "points_per_axis": 3})
    assert main(["check", write_config(tmp_path, doc), "--scheme", scheme]) == 2
    assert capsys.readouterr().err.startswith(
        "invalid run: ExprDomainError: division by zero")


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("POISSON_ORTHO_THREADS", raising=False)
    assert thread_count() >= 1
    monkeypatch.setenv("POISSON_ORTHO_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("POISSON_ORTHO_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.setenv("POISSON_ORTHO_THREADS", "many")
    with pytest.raises(ConfigError):
        thread_count()


def test_warm_threads_do_not_change_output(monkeypatch):
    monkeypatch.setenv("POISSON_ORTHO_THREADS", "1")
    serial = run(load_scenario("model4d-atan")).json_text()
    monkeypatch.setenv("POISSON_ORTHO_THREADS", "4")
    parallel = run(load_scenario("model4d-atan")).json_text()
    assert serial == parallel


# ---------------------------------------------------------------------------
# CLI

def test_cli_check_json_out(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "euclid4", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 0


def test_cli_text_to_stdout(capsys):
    code = main(["check", "so3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "scenario: so3" in captured.out
    assert "verdict: INTEGRABLE" in captured.out


def test_cli_grid_override_speeds_up():
    # 2 points per axis skips x2 = 0 but the verdict is still non-integrable
    code = main(["check", "model4d-atan", "--grid-points", "2"])
    assert code == 1


def test_cli_usage_errors(capsys):
    assert main(["check", "no-such-scenario"]) == 3
    assert main(["check", "euclid4", "--grid-center", "1,2"]) == 3
    assert main(["check", "euclid4", "--grid-center", "a,b,c,d"]) == 3
    assert main(["check", "euclid4", "--tol", "-1"]) == 3
    assert main(["check", "euclid4", "--no-such-flag"]) == 3
    assert main([]) == 3
    capsys.readouterr()  # swallow argparse noise


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "inf"], ["--grid-center", "nan,0,0,0"],
    ["--grid-half-width", "nan"], ["--grid-half-width", "inf"],
])
def test_cli_non_finite_tolerance_or_grid_is_a_usage_error(capsys, flags):
    # a NaN tolerance makes every comparison false and an infinite one makes
    # every comparison true, so either would otherwise read as a verdict
    for name in ("euclid4", "model4d-atan"):
        assert main(["check", name, *flags]) == 3
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("name, center", [("euclid4", "0,0,0,0"),
                                          ("model4d-atan", "1e308,0,0,0")])
def test_cli_overflowing_grid_box_is_a_usage_error(capsys, name, center):
    # a finite center and half width whose box overflows: the grid would
    # sample inf and NaN coordinates
    flags = ["--grid-center", center, "--grid-half-width", "1e308", "--format", "json"]
    assert main(["check", name, *flags]) == 3
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("step", [5e-324, 1e-17])
def test_cli_step_below_the_coordinate_resolution_is_a_config_error(tmp_path, capsys, step):
    # 1 + step rounds to 1: the stencil could not move the coordinates, and
    # the run used to end in a gram DegeneracyError that named the wrong fault
    doc = chart_config(scheme={"kind": "central-4", "step": step})
    assert main(["check", write_config(tmp_path, doc)]) == 3
    assert "configuration error: scheme: " in capsys.readouterr().err
    assert main(["check", "euclid4", "--scheme", "central-4", "--fd-step", str(step)]) == 3
    assert "configuration error: scheme override: " in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["symbolic", "central-4"])
def test_cli_all_zero_metric_is_a_typed_degeneracy(tmp_path, capsys, scheme):
    doc = chart_config(metric={"kind": "matrix", "entries": [["0"] * 4] * 4})
    assert main(["check", write_config(tmp_path, doc), "--scheme", scheme]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid run: DegeneracyError: metric at ")
    assert "unexpected" not in err


def test_cli_degenerate_grid_exits_two(capsys):
    code = main(["check", "sl2r", "--grid-center", "0,1,0",
                 "--grid-half-width", "0", "--grid-points", "1"])
    assert code == 2
    assert "invalid run" in capsys.readouterr().err


def test_cli_overflowing_constant_is_not_a_verdict(tmp_path, capsys):
    # differentiating (1e-200)^-1 folds 1e-200 ** -2, past the float range;
    # an error escaping main would exit 1, the code of a non-integrable verdict
    doc = chart_config(metric={"kind": "matrix", "entries": [
        ["1 + x1*(1e-200)^-1*1e-200", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]})
    code = main(["check", write_config(tmp_path, doc)])
    assert code != 1
    assert code in (0, 2, 3)
    capsys.readouterr()


def test_cli_non_finite_function_argument_is_a_domain_error(tmp_path, capsys):
    # sin of an overflowed product used to escape as a bare ValueError
    doc = chart_config(metric={"kind": "matrix", "entries": [
        ["1 + sin(x1*1e200*1e200)/10", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]}, grid={"center": [1.0, 0.0, 0.0, 0.0], "half_width": 0.5,
              "points_per_axis": 2})
    assert main(["check", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid run: ExprDomainError: non-finite argument to sin")


def test_cli_unexpected_exception_exits_two(monkeypatch, capsys):
    def crash(config):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "run", crash)
    assert main(["check", "euclid4"]) == 2
    err = capsys.readouterr().err
    assert err == "invalid run: unexpected RuntimeError: boom second line\n"


def test_cli_scheme_override():
    code = main(["check", "euclid4", "--scheme", "central-4",
                 "--grid-points", "2"])
    assert code == 0


def test_cli_subprocess_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "poisson_ortho.cli", "check", "so3",
             "--format", "json", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
