"""Acceptance checks, one test per numbered criterion.

Each test prints a single PASS or FAIL line so the verbose run doubles as
a release checklist.  Expected values come from small independent
computations inside this file (rational arithmetic for the algebraic
objects, closed forms for the geometric ones), never from the code paths
under test.
"""

import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from poisson_ortho import dsl, scenarios
from poisson_ortho.context import ChartContext
from poisson_ortho.errors import DegeneracyError
from poisson_ortho.geometry import (CENTRAL_4, DerivativeScheme, Grid, matvec,
                                    partial_derivative)
from poisson_ortho.integrability import EQUIVALENCE_IDS, verdict
from poisson_ortho.liepoisson import (builtin_algebra, casimir_lie_bracket,
                                      killing_form, se3_metric,
                                      validate_constants,
                                      verify_integral_surface)
from poisson_ortho.metric import MetricField, inverse_metric
from poisson_ortho.poisson import PoissonStructure, canonical_bivector
from random_metrics import random_metric_entries

INV_PI = 1.0 / math.pi


def criterion(num, title):
    """Print one PASS/FAIL line per criterion, then defer to pytest."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:02d}: {title}")
                raise
            print(f"[PASS] criterion {num:02d}: {title}")

        return run

    return wrap


@pytest.fixture(scope="module")
def builtin_runs():
    """One full run per builtin scenario, shared across the criteria."""
    return {name: scenarios.run(scenarios.load_scenario(name))
            for name in scenarios.BUILTIN_SCENARIOS}


def _canonical4() -> PoissonStructure:
    return PoissonStructure(
        bivector=canonical_bivector(4, 2),
        casimirs=[dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        expected_rank=2)


def _pointwise_six_flags(v) -> list:
    """Per-point boolean verdicts, asserting the six conditions agree."""
    reps = [v.report(cid) for cid in EQUIVALENCE_IDS]
    n = len(reps[0].points)
    assert all(len(r.residuals) == n for r in reps)
    out = []
    for idx, flags in enumerate(zip(*(r.pointwise() for r in reps))):
        assert len(set(flags)) == 1, (idx, flags)
        out.append(flags[0])
    return out


# ---------------------------------------------------------------------------
# criterion 1: the shear scenario is flagged with the right defect


@criterion(1, "shear scenario: non-integrable with defect 1/pi on x2 = 0")
def test_criterion_01_shear_detection(builtin_runs):
    rep = builtin_runs["model4d-atan"]
    assert rep.exit_code == 1
    assert not rep.verdict.integrable and rep.verdict.consistent

    biv = rep.verdict.report("bivector-derivative")
    on_plane = [r for q, r in zip(biv.points, biv.residuals)
                if q.coords[1] == 0.0]
    off_plane = [r for q, r in zip(biv.points, biv.residuals)
                 if q.coords[1] != 0.0]
    assert on_plane and max(on_plane) == pytest.approx(INV_PI, abs=1e-6)
    # the defect peaks on the plane where the shear slope is steepest
    assert max(off_plane) < INV_PI - 1e-3

    # the curvature obstruction v([h xi_1, h xi_2]) points along the third
    # coordinate axis; on x2 = 0 the metric is the identity, xi_1 =
    # (d1 - f d3)/(1 - f^2) and xi_2 = d2, so in closed form it is
    # f'(0) d3 = (1/pi) d3
    cfg = scenarios.load_scenario("model4d-atan")
    ctx = ChartContext(cfg.structure, cfg.metric, cfg.scheme)
    w = rep.verdict.report("frobenius-curvature").witness
    assert w.coords[1] == 0.0
    q = w.coords[None, :]
    vec = matvec(ctx.projector_v(q), ctx.frame_bracket(0, 1, "h", "h", q))[0]
    assert np.allclose(vec, [0.0, 0.0, INV_PI, 0.0], atol=1e-9)

    # same detection under pure finite differences, looser tolerance
    fd = scenarios.run(replace(
        cfg, scheme=DerivativeScheme(CENTRAL_4),
        grid=Grid((0.0,) * 4, 1.0, (1, 3, 1, 1))))
    assert fd.exit_code == 1
    fd_max = fd.verdict.report("bivector-derivative").max_residual
    assert fd_max == pytest.approx(INV_PI, abs=1e-4)


# ---------------------------------------------------------------------------
# criterion 2: integrable baselines are clean across the whole suite


@criterion(2, "flat and block-diagonal scenarios: every condition at 1e-9")
def test_criterion_02_integrable_baselines(builtin_runs):
    for name in ("euclid4", "blockdiag4"):
        rep = builtin_runs[name]
        assert rep.exit_code == 0
        assert rep.verdict.integrable and rep.verdict.consistent
        for cond in rep.verdict.conditions:
            assert cond.max_residual <= 1e-9, (name, cond.condition)


# ---------------------------------------------------------------------------
# criterion 3: the six conditions agree pointwise, builtin and randomized

def _random_metric(rng) -> MetricField:
    return MetricField.from_entries(4, random_metric_entries(rng))


@pytest.fixture(scope="module")
def random_metric_runs():
    """Verdicts for the twenty seeded random metrics of criterion 3."""
    rng = np.random.default_rng(20260823)
    grid = Grid.cube([0.0] * 4, 0.5, 2)
    structure = _canonical4()
    runs = []
    for _ in range(20):
        m = _random_metric(rng)
        runs.append((m, verdict(structure, m, grid)))
    return runs


@criterion(3, "six characterizations agree pointwise on builtins "
              "and 20 random metrics")
def test_criterion_03_equivalence_suite(builtin_runs, random_metric_runs):
    for name, rep in builtin_runs.items():
        _pointwise_six_flags(rep.verdict)
        assert not [d for d in rep.verdict.disagreements
                    if d["kind"] == "equivalence"], name

    for case, (m, v) in enumerate(random_metric_runs):
        points = v.report(EQUIVALENCE_IDS[0]).points
        for q, lam in zip(points, np.linalg.eigvalsh(m.components(points.coords))):
            assert lam[0] > 0.5, (case, q)  # stay clearly nondegenerate
        _pointwise_six_flags(v)
        assert not [d for d in v.disagreements
                    if d["kind"] == "equivalence"], case


# ---------------------------------------------------------------------------
# criterion 4: the two co-vanishing routes never split a grid point


@criterion(4, "co-vanishing routes land in the same band at every point")
def test_criterion_04_covanishing(builtin_runs):
    for name, rep in builtin_runs.items():
        cov = rep.verdict.report("kernel-image-covanishing")
        route_a = cov.extras["bivector_route_norms"]
        route_b = cov.extras["torsion_route_norms"]
        assert len(route_a) == len(route_b) == len(cov.points), name
        for a, b in zip(route_a, route_b):
            both_small = a <= 1e-6 and b <= 1e-6
            both_large = a >= 1e-3 and b >= 1e-3
            assert both_small or both_large, (name, a, b)


# ---------------------------------------------------------------------------
# criterion 5: the canonical-chart criterion tracks the six when gated in


@criterion(5, "canonical-chart criterion matches the six wherever it applies")
def test_criterion_05_chart_cross_check(builtin_runs, random_metric_runs):
    charts = [(name, builtin_runs[name].verdict)
              for name in ("euclid4", "model4d-atan", "blockdiag4")]
    charts += [(f"random-{case}", v)
               for case, (_, v) in enumerate(random_metric_runs)]
    for name, v in charts:
        chart = v.report("christoffel-symmetry")
        assert chart.binding and chart.status is None, name
        assert chart.pointwise() == _pointwise_six_flags(v), name
        assert not [d for d in v.disagreements
                    if d["kind"] == "canonical-chart"], name
    for name in ("so3", "sl2r", "so3xso3", "se3"):
        chart = builtin_runs[name].verdict.report("christoffel-symmetry")
        assert chart.label == "skipped" and not chart.binding, name


# ---------------------------------------------------------------------------
# criterion 6: linear bivectors from structure constants validate exactly


@criterion(6, "structure constants and linear bivectors validate exactly")
def test_criterion_06_algebra_validity(builtin_runs):
    for name in ("so3", "sl2r", "so3xso3", "se3"):
        alg = builtin_algebra(name)
        exact = validate_constants(alg.constants)
        assert exact.ok, name
        assert exact.max_antisymmetry_residual == Fraction(0)
        assert exact.max_jacobi_residual == Fraction(0)

        val = builtin_runs[name].validation
        assert val.ok, name
        assert val.antisymmetry.max_residual == 0.0
        assert val.jacobi.max_residual == 0.0
        assert val.rank == alg.structure.expected_rank


# ---------------------------------------------------------------------------
# criterion 7: Killing forms against a rational double-sum oracle


def _killing_oracle(table) -> np.ndarray:
    d = len(table)
    out = np.zeros((d, d))
    for m in range(d):
        for n in range(d):
            acc = Fraction(0)
            for r in range(d):
                for t in range(d):
                    acc += Fraction(table[m][r][t]) * Fraction(table[n][t][r])
            out[m, n] = float(acc)
    return out


@criterion(7, "Killing forms match the rational oracle bit for bit")
def test_criterion_07_killing_forms():
    expected = {
        "so3": -2.0 * np.eye(3),
        "sl2r": np.array([[8.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 4.0, 0.0]]),
        "so3xso3": -2.0 * np.eye(6),
        "se3": np.diag([-4.0, -4.0, -4.0, 0.0, 0.0, 0.0]),
    }
    for name, want in expected.items():
        sc = builtin_algebra(name).constants
        got = killing_form(sc)
        assert np.array_equal(got, _killing_oracle(sc.table.tolist())), name
        assert np.array_equal(got, want), name
    # the translation block contributes nothing, so the form is singular
    assert np.linalg.det(killing_form(builtin_algebra("se3").constants)) == 0.0


# ---------------------------------------------------------------------------
# criterion 8: rigid-motion algebra closed forms


@criterion(8, "rigid-motion algebra: closed forms and integral surface")
def test_criterion_08_se3(builtin_runs):
    base = np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
    sharp = inverse_metric(se3_metric(0.0, 1.0), base)[0]
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.array_equal(sharp @ np.r_[a, b], np.r_[b, a])
        assert np.array_equal(sharp @ np.r_[np.zeros(3), b],
                              np.r_[b, np.zeros(3)])

    rep = builtin_runs["se3"]
    assert rep.exit_code == 0 and rep.verdict.integrable
    cfg = rep.scenario
    ctx = ChartContext(cfg.structure, cfg.metric, cfg.scheme)
    q = cfg.grid.sample().coords
    brackets = ctx.frame_bracket(0, 1, "plain", "plain", q)
    for coords, gram, bracket in zip(q, ctx.gram_at(q), brackets):
        x, p = coords[:3], coords[3:]
        want = np.array([[2.0 * float(x @ p), float(p @ p)],
                         [float(p @ p), 0.0]])
        assert np.allclose(gram, want, atol=1e-12)
        assert abs(np.linalg.det(gram) + float(p @ p) ** 2) <= 1e-12
        assert float(np.max(np.abs(bracket))) <= 1e-12

    # the exponential screw surface stays tangent to the orthogonal frame
    x0, p0 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

    def screw(s, t):
        return np.concatenate(
            [math.exp(s) * x0 + math.exp(t) * p0, math.exp(s) * p0])

    samples = [(float(s), float(t)) for s in np.linspace(-1.0, 1.0, 5)
               for t in np.linspace(-1.0, 1.0, 5)]
    surf = verify_integral_surface(screw, ctx, samples)
    assert surf.holds and surf.max_residual <= 1e-9

    # adding a rotational block shifts the spectrum to (1 +/- sqrt 5)/2
    lam = np.linalg.eigvalsh(inverse_metric(se3_metric(1.0, 1.0), base)[0])
    root = math.sqrt(5.0)
    want = np.sort([(1.0 - root) / 2.0] * 3 + [(1.0 + root) / 2.0] * 3)
    assert np.allclose(lam, want, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 9: compact algebras come out integrable and abelian


@criterion(9, "compact algebras: integrable with abelian coframe brackets")
def test_criterion_09_compact(builtin_runs):
    for name in ("so3", "so3xso3"):
        assert builtin_runs[name].exit_code == 0, name
        assert builtin_runs[name].verdict.integrable, name

    assert builtin_runs["so3xso3"].extras["casimir_bracket_max_abs"] == 0.0
    alg = builtin_algebra("so3xso3")
    cfg = builtin_runs["so3xso3"].scenario
    ctx = ChartContext(cfg.structure, cfg.metric, cfg.scheme)
    worst = float(np.max(np.abs(casimir_lie_bracket(
        alg.constants, ctx.coframe_at(cfg.grid.sample().coords)))))
    assert worst == 0.0

    surf = builtin_runs["so3"].extras["integral_surface"]
    assert surf["holds"] and surf["max_residual"] <= 1e-9


# ---------------------------------------------------------------------------
# criterion 10: degeneracies surface as typed errors, not crashes


@criterion(10, "degenerate pairing reported as a typed error, not a crash")
def test_criterion_10_degeneracy():
    alg = builtin_algebra("sl2r")
    # the coframe pairing drops rank on the zero level set of the invariant
    nilpotent = Grid.cube((0.0, 1.0, 0.0), 0.0, 1)
    with pytest.raises(DegeneracyError) as err:
        verdict(alg.structure, alg.metric, nilpotent)
    assert "degenerate" in str(err.value).lower()


# ---------------------------------------------------------------------------
# criterion 11: expression engine round trips and derivative cross-checks

_PROBES = np.array([
    (0.31, -0.74, 0.52, -0.18),
    (-0.63, 0.41, -0.27, 0.83),
    (0.12, 0.95, -0.49, 0.44),
])


def _random_source(rng, depth) -> str:
    if depth == 0:
        if rng.random() < 0.7:
            return f"x{int(rng.integers(1, 5))}"
        return str(rng.choice(("1", "2", "0.5", "pi", "0.25", "3")))
    roll = rng.random()
    a = _random_source(rng, depth - 1)
    if roll < 0.30:
        return f"({a} + {_random_source(rng, depth - 1)})"
    if roll < 0.50:
        return f"({a} - {_random_source(rng, depth - 1)})"
    if roll < 0.68:
        return f"({a}) * ({_random_source(rng, depth - 1)})"
    if roll < 0.76:
        # denominators bounded away from zero by construction
        return f"({a}) / (2 + ({_random_source(rng, depth - 1)})^2)"
    if roll < 0.84:
        return f"({a})^{int(rng.integers(2, 4))}"
    fn = str(rng.choice(("sin", "cos", "atan", "exp")))
    if fn == "exp":
        return f"exp(({a}) / 4)"
    return f"{fn}({a})"


@criterion(11, "expression engine: 200 round trips and derivative checks")
def test_criterion_11_expressions():
    rng = np.random.default_rng(20260823)
    fd = DerivativeScheme(CENTRAL_4)
    kept = 0
    attempts = 0
    while kept < 200:
        attempts += 1
        assert attempts < 4000, "generator rejected too many candidates"
        source = _random_source(rng, 3)
        expr = dsl.parse(source)
        vals = dsl.evaluate(expr, _PROBES)
        # keep magnitudes small so the stencil comparison stays clean
        if not all(math.isfinite(v) and abs(v) < 100.0 for v in vals):
            continue
        derivs = {}
        for axis in range(4):
            dexpr = dsl.differentiate(expr, axis)
            dvals = dsl.evaluate(dexpr, _PROBES)
            if all(math.isfinite(v) and abs(v) < 1e4 for v in dvals):
                derivs[axis] = dvals
        if len(derivs) < 4:
            continue

        text = dsl.to_text(expr)
        again = dsl.parse(text)
        assert dsl.to_text(again) == text, source
        for q, v, w in zip(_PROBES, vals, dsl.evaluate(again, _PROBES)):
            assert w == v, source

        field = dsl.scalar_field(source, 4)
        for axis in range(4):
            approxes = partial_derivative(field, _PROBES, axis, fd)
            for q, exact, approx in zip(_PROBES, derivs[axis], approxes):
                assert abs(approx - exact) <= 1e-7 * max(1.0, abs(exact)), \
                    (source, axis, q)
        kept += 1

    # the defining example of the shear scenario
    shear = dsl.parse("atan(x2) / pi")
    dshear = dsl.differentiate(shear, 1)
    for x2 in (-1.3, -0.4, 0.0, 0.7, 2.1):
        got = dsl.evaluate(dshear, np.array([(0.2, x2, -0.8, 0.5)]))[0]
        want = 1.0 / (math.pi * (1.0 + x2 * x2))
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 12: byte-identical reports on repeated runs


@criterion(12, "scenario runs serialize byte-identically across repeats")
def test_criterion_12_determinism(builtin_runs):
    for name, first in builtin_runs.items():
        second = scenarios.run(scenarios.load_scenario(name))
        assert second.json_text().encode() == first.json_text().encode(), name
        assert second.exit_code == first.exit_code, name
