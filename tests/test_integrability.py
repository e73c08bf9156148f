"""Condition suite: curvature, torsion, derivative conditions, verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ortho import dsl, integrability
from poisson_ortho.context import ChartContext
from poisson_ortho.errors import DegeneracyError, GeometryError
from poisson_ortho.geometry import CENTRAL_2, CENTRAL_4, DerivativeScheme, Grid, matvec
from poisson_ortho.integrability import (
    DEFAULT_TOL_FD, DEFAULT_TOL_SYMBOLIC, EQUIVALENCE_IDS, SUFFICIENT_IDS,
    canonical_block_form_ok, canonical_chart_symmetry, default_tolerance,
    equivalence_condition_values, verdict,
)
from poisson_ortho.metric import MetricField
from poisson_ortho.poisson import PoissonStructure, canonical_bivector
from poisson_ortho.scenarios import load_scenario, run

INV_PI = 1.0 / np.pi


def canonical4():
    return PoissonStructure(
        bivector=canonical_bivector(4, 2),
        casimirs=[dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        expected_rank=2)


def euclid_metric():
    return MetricField.from_contravariant(np.eye(4))


def shear_metric():
    f = "atan(x2) / pi"
    return MetricField.from_entries(4, [
        ["1", "0", f, "0"],
        ["0", "1", "0", "0"],
        [f, "0", "1", "0"],
        ["0", "0", "0", "1"],
    ])


def blockdiag_metric():
    # transversal block depends on leaf coordinates and vice versa, so the
    # metric is far from constant but the off blocks stay zero
    return MetricField.from_entries(4, [
        ["1", "x3/8", "0", "0"],
        ["x3/8", "1 + x4^2/8", "0", "0"],
        ["0", "0", "1 + x1^2/8", "x2/8"],
        ["0", "0", "x2/8", "1"],
    ])


def so3_structure():
    biv = dsl.expr_field(3, "uu", [
        ["0", "x3", "-x2"],
        ["-x3", "0", "x1"],
        ["x2", "-x1", "0"],
    ])
    return PoissonStructure(
        bivector=biv,
        casimirs=[dsl.scalar_field("x1^2 + x2^2 + x3^2", 3)],
        expected_rank=2)


def pt(*coords):
    """A batch of one point: the (1, dim) coordinate array."""
    return np.array([coords], dtype=float)


ORIGIN = pt(0.0, 0.0, 0.0, 0.0)


def single_point(p):
    return Grid(center=list(p[0]), half_width=0.0, points_per_axis=1)


def curvature(ctx, p, i=0, j=1):
    """v([h xi_i, h xi_j]) at the one point of the batch p: the vector the
    frobenius-curvature residual bounds."""
    return matvec(ctx.projector_v(p), ctx.frame_bracket(i, j, "h", "h", p))[0]


# ---------------------------------------------------------------------------
# Frobenius curvature

def test_frobenius_zero_for_flat_case():
    ctx = ChartContext(canonical4(), euclid_metric())
    assert np.max(np.abs(curvature(ctx, ORIGIN))) < 1e-12
    assert equivalence_condition_values(ctx, ORIGIN)["frobenius-curvature"][0] < 1e-12


def test_frobenius_shear_value_at_origin():
    # independent oracle: xi_1 = (1/(1-f^2))(d1 - f d3), xi_2 = d2, so
    # [xi_1, xi_2](0) = f'(0) d3 = (1/pi) d3 and v(0) = diag(0,0,1,1)
    ctx = ChartContext(canonical4(), shear_metric())
    assert np.allclose(curvature(ctx, ORIGIN), [0.0, 0.0, INV_PI, 0.0], atol=1e-8)
    vals = equivalence_condition_values(ctx, ORIGIN)
    assert vals["frobenius-curvature"][0] == pytest.approx(INV_PI, abs=1e-8)


def test_frobenius_antisymmetric_and_in_leaf_image():
    ctx = ChartContext(canonical4(), shear_metric())
    p = pt(0.2, 0.4, -0.1, 0.3)
    ab = curvature(ctx, p, 0, 1)
    ba = curvature(ctx, p, 1, 0)
    assert np.allclose(ab, -ba, atol=1e-9)
    assert np.allclose(ctx.projector_v(p)[0] @ ab, ab, atol=1e-9)


def test_frobenius_same_argument_vanishes():
    ctx = ChartContext(canonical4(), shear_metric())
    assert np.max(np.abs(curvature(ctx, ORIGIN, 0, 0))) == 0.0


def test_frobenius_scales_linearly():
    # a constant coframe gauge doubles xi_1, and the curvature is tensorial
    p = pt(0.1, 0.3, -0.2, 0.4)
    base = ChartContext(canonical4(), shear_metric())
    doubled_ps = PoissonStructure(
        canonical_bivector(4, 2),
        [dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        2, coframe_scales=[2.0, 1.0])
    doubled = ChartContext(doubled_ps, shear_metric())
    assert np.allclose(curvature(doubled, p), 2.0 * curvature(base, p), atol=1e-9)
    assert equivalence_condition_values(doubled, p)["frobenius-curvature"][0] == \
        pytest.approx(2.0 * equivalence_condition_values(base, p)["frobenius-curvature"][0],
                      abs=1e-9)


# ---------------------------------------------------------------------------
# Nijenhuis torsion

def test_nijenhuis_projector_flat_case():
    ctx = ChartContext(canonical4(), euclid_metric())
    assert equivalence_condition_values(ctx, ORIGIN)["nijenhuis-torsion"][0] < 1e-12


def test_nijenhuis_matches_frobenius_on_frame():
    # dual routes: the four-term torsion formula against v([h., h.])
    ctx = ChartContext(canonical4(), shear_metric())
    for coords in ([0.0] * 4, [0.1, 0.3, -0.2, 0.4]):
        vals = equivalence_condition_values(ctx, np.array([coords]))
        assert vals["nijenhuis-torsion"][0] == pytest.approx(
            vals["frobenius-curvature"][0], abs=1e-8)
        assert vals["nijenhuis-torsion"][0] > 0.1


# ---------------------------------------------------------------------------
# the six equivalent conditions

def test_equivalence_values_flat_case_all_zero():
    ctx = ChartContext(canonical4(), euclid_metric())
    vals = equivalence_condition_values(ctx, ORIGIN)
    assert set(vals) == set(EQUIVALENCE_IDS)
    for cid in EQUIVALENCE_IDS:
        assert vals[cid][0] == 0.0


def test_equivalence_values_shear_at_origin():
    ctx = ChartContext(canonical4(), shear_metric())
    vals = equivalence_condition_values(ctx, ORIGIN)
    for cid in EQUIVALENCE_IDS:
        assert vals[cid][0] == pytest.approx(INV_PI, abs=1e-7), cid


def test_equivalence_reports_single_point():
    v = verdict(canonical4(), shear_metric(), single_point(ORIGIN))
    reports = [rep for rep in v.conditions if rep.condition in EQUIVALENCE_IDS]
    assert [rep.condition for rep in reports] == list(EQUIVALENCE_IDS)
    for rep in reports:
        assert len(rep.points) == 1
        assert rep.label == "fails"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_coframe_vs_frame_derivative_identity(coords):
    # raising commutes with the connection, so the coframe-derivative and
    # frame-derivative contractions are the same number pointwise
    ctx = _SHEAR_CTX
    vals = equivalence_condition_values(ctx, np.array([coords]))
    assert vals["coframe-derivative"][0] == pytest.approx(
        vals["frame-derivative"][0], abs=1e-9)


_SHEAR_CTX = ChartContext(canonical4(), shear_metric())


def test_bivector_derivative_matches_antisymmetrized_parallel_route():
    # independent route: g^{la}(nabla_l P)^{ts}(w^i ^ w^j)_{sa} against
    # (nabla_{xi_j} P) w^i - (nabla_{xi_i} P) w^j, assembled by hand
    ctx = ChartContext(canonical4(), shear_metric())
    for coords in ([0.0] * 4, [0.3, -0.5, 0.2, 0.8], [0.1, 1.0, 0.0, -0.4]):
        p = np.array([coords])
        ginv = ctx.metric_inv_at(p)[0]
        nabla_P = ctx.nabla_bivector(p)[0]
        frame = ctx.frame_at(p)[0]
        coframe = ctx.coframe_at(p)[0]
        w_i, w_j = coframe[0], coframe[1]
        wedge = np.outer(w_i, w_j) - np.outer(w_j, w_i)
        route_one = np.einsum("la,lts,sa->t", ginv, nabla_P, wedge)
        directional_i = np.einsum("m,mts->ts", frame[:, 0], nabla_P)
        directional_j = np.einsum("m,mts->ts", frame[:, 1], nabla_P)
        route_two = directional_j @ w_i - directional_i @ w_j
        assert np.allclose(route_one, route_two, atol=1e-8)


def test_verdict_invariant_under_positive_coframe_rescale():
    grid = Grid.cube([0.0] * 4, 1 / 3, 2)
    base = verdict(canonical4(), shear_metric(), grid)
    scaled_ps = PoissonStructure(
        canonical_bivector(4, 2),
        [dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        2, coframe_scales=["1 + x1^2", "3"])
    scaled = verdict(scaled_ps, shear_metric(), grid)
    assert scaled.integrable == base.integrable
    assert scaled.consistent == base.consistent
    for rep_a, rep_b in zip(base.conditions, scaled.conditions):
        assert rep_a.condition == rep_b.condition
        assert rep_a.label == rep_b.label


# ---------------------------------------------------------------------------
# sufficient-only conditions

def test_sufficient_flat_case_holds():
    v = verdict(canonical4(), euclid_metric(), single_point(ORIGIN))
    reports = [rep for rep in v.conditions if rep.condition in SUFFICIENT_IDS]
    assert [rep.condition for rep in reports] == list(SUFFICIENT_IDS)
    for rep in reports:
        assert rep.label == "holds"
        assert not rep.binding


def test_sufficient_shear_inconclusive():
    v = verdict(canonical4(), shear_metric(), single_point(ORIGIN))
    for cid in SUFFICIENT_IDS:
        assert v.report(cid).label == "inconclusive"
    parallel = v.report("parallel-bivector-on-kernel")
    assert parallel.max_residual == pytest.approx(INV_PI / 2, abs=1e-8)
    coframe_rep = v.report("parallel-coframe")
    assert coframe_rep.extras["premise_max_residual"] > 1e-3


def test_sufficient_condition_holding_on_non_integrable_run_is_a_disagreement(monkeypatch):
    # a sufficient condition that holds implies integrability, so holding on
    # model4d-atan, which is not integrable, must make the run inconsistent
    evaluate = integrability.sufficient_condition_values

    def parallel_bivector_holds(ctx, q):
        vals = evaluate(ctx, q)
        vals["parallel-bivector-on-kernel"] = np.zeros(len(q))
        return vals

    monkeypatch.setattr(integrability, "sufficient_condition_values",
                        parallel_bivector_holds)
    report = run(load_scenario("model4d-atan"))
    v = report.verdict
    assert not v.integrable
    assert v.report("parallel-bivector-on-kernel").label == "holds"
    assert [d for d in v.disagreements if d["kind"] == "sufficient-vs-verdict"] == [
        {"kind": "sufficient-vs-verdict", "condition": "parallel-bivector-on-kernel",
         "max_residual": 0.0}]
    assert v.consistent is False
    assert report.exit_code == 2


def test_disagreement_list_order_kinds_points_and_residuals(monkeypatch):
    # euclid4 is flat, so every residual is an exact zero until one is raised
    evaluate = integrability.equivalence_condition_values
    grid = Grid.cube([0.0] * 4, 1.0, 2)
    closure_point, frame_point = 3, 10

    def raised(ctx, q):
        vals = evaluate(ctx, q)
        vals["coframe-bracket-closure"][closure_point] = 0.5
        vals["frame-derivative"][frame_point] = 0.25
        return vals

    monkeypatch.setattr(integrability, "equivalence_condition_values", raised)
    v = verdict(canonical4(), euclid_metric(), grid)
    zeros = dict.fromkeys(EQUIVALENCE_IDS, 0.0)
    closure_coords = [-1.0, -1.0, 1.0, 1.0]
    frame_coords = [1.0, -1.0, 1.0, -1.0]
    assert grid.sample().coords[[closure_point, frame_point]].tolist() == [
        closure_coords, frame_coords]
    assert v.disagreements == [
        {"kind": "equivalence", "point": closure_coords,
         "residuals": {**zeros, "coframe-bracket-closure": 0.5}},
        {"kind": "covanishing", "point": closure_coords,
         "residuals": {"bivector_route": 0.5, "torsion_route": 0.0}},
        {"kind": "canonical-chart", "point": closure_coords,
         "residuals": {"christoffel-symmetry": 0.0}},
        {"kind": "equivalence", "point": frame_coords,
         "residuals": {**zeros, "frame-derivative": 0.25}},
        {"kind": "canonical-chart", "point": frame_coords,
         "residuals": {"christoffel-symmetry": 0.0}},
    ] + [{"kind": "sufficient-vs-verdict", "condition": cid, "max_residual": 0.0}
         for cid in SUFFICIENT_IDS]
    # pointwise entries keep their key order, and the six residuals table order
    assert [list(d) for d in v.disagreements[:5]] == [["kind", "point", "residuals"]] * 5
    assert list(v.disagreements[0]["residuals"]) == list(EQUIVALENCE_IDS)
    assert all(type(c) is float for d in v.disagreements[:5] for c in d["point"])
    assert all(type(r) is float for d in v.disagreements[:5]
               for r in d["residuals"].values())
    assert not v.integrable and not v.consistent


# ---------------------------------------------------------------------------
# co-vanishing of the two leaf-component routes

def test_covanishing_flat_case():
    v = verdict(canonical4(), euclid_metric(), Grid.cube([0.0] * 4, 1.0, 2))
    rep = v.report("kernel-image-covanishing")
    assert rep.holds and not rep.binding
    assert max(rep.extras["bivector_route_norms"]) < 1e-9
    assert max(rep.extras["torsion_route_norms"]) < 1e-9


def test_covanishing_shear_both_routes_large():
    v = verdict(canonical4(), shear_metric(), Grid.cube([0.0] * 4, 1 / 3, 2))
    rep = v.report("kernel-image-covanishing")
    assert rep.holds  # both routes vanish or not together
    assert min(rep.extras["bivector_route_norms"]) > 1e-3
    assert min(rep.extras["torsion_route_norms"]) > 1e-3
    # the routes are the bracket-closure and torsion residuals themselves
    assert rep.extras["bivector_route_norms"] == \
        v.report("coframe-bracket-closure").residuals
    assert rep.extras["torsion_route_norms"] == \
        v.report("nijenhuis-torsion").residuals


# ---------------------------------------------------------------------------
# canonical-chart criterion

def test_block_form_gate():
    pat = canonical_bivector(4, 2).components(ORIGIN)[0]
    assert canonical_block_form_ok(pat, 2)
    assert canonical_block_form_ok(-pat, 2)
    assert not canonical_block_form_ok(pat, 4)
    almost = pat.copy()
    almost[2, 3] = 1.0 + 1e-15
    assert not canonical_block_form_ok(almost, 2)  # bit-exact comparison
    linear = so3_structure().bivector.components(pt(0.0, 0.0, 1.0))[0]
    assert not canonical_block_form_ok(linear, 2)


def test_chart_symmetry_flat_and_shear():
    assert canonical_chart_symmetry(
        ChartContext(canonical4(), euclid_metric()), ORIGIN)[0] == 0.0
    # hand expansion: Gamma_{102} - Gamma_{012} = -f'(0) and the frame is
    # the coordinate frame at the origin, so the residual is 1/pi
    residual = canonical_chart_symmetry(
        ChartContext(canonical4(), shear_metric()), ORIGIN)[0]
    assert residual == pytest.approx(INV_PI, abs=1e-12)
    assert residual > DEFAULT_TOL_SYMBOLIC


def test_chart_symmetry_refuses_noncanonical_bivector():
    half_metric = MetricField.from_contravariant(2.0 * np.eye(3))
    with pytest.raises(GeometryError, match="canonical"):
        canonical_chart_symmetry(ChartContext(so3_structure(), half_metric),
                                 pt(0.0, 0.0, 1.0))


_TRANSVERSAL_LEAF_ATOMS = ("1", "x1", "x2", "x3", "x4", "x1*x3", "x2*x4",
                           "sin(x2)", "cos(x1)", "atan(x3)")


@st.composite
def transversal_leaf_metrics(draw):
    """Diagonally dominant metrics with every g_{It} (I transversal, t leaf)
    nonzero, the case where coordinate-index Christoffel symmetry is not
    equivalent to integrability."""
    entries = [["0"] * 4 for _ in range(4)]
    for i in range(4):
        c = draw(st.floats(-0.2, 0.2))
        atom = draw(st.sampled_from(_TRANSVERSAL_LEAF_ATOMS[1:]))
        entries[i][i] = f"1 + {c!r}*({atom})"
    for i in range(4):
        for j in range(i + 1, 4):
            lo = 0.02 if i < 2 <= j else 0.0
            c = draw(st.floats(lo, 0.1)) * draw(st.sampled_from((-1.0, 1.0)))
            atom = draw(st.sampled_from(_TRANSVERSAL_LEAF_ATOMS))
            entries[i][j] = entries[j][i] = f"{c!r}*({atom})"
    return MetricField.from_entries(4, entries)


@settings(max_examples=30, deadline=None)
@given(transversal_leaf_metrics(),
       st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4))
def test_chart_symmetry_matches_bracket_closure(metric, coords):
    # in a canonical chart both residuals are max_t |theta_t([xi_1, xi_2])|
    # with theta_t = g(d_t, .), so they agree up to rounding at every point
    ctx = ChartContext(canonical4(), metric)
    p = np.array([coords])
    closure = equivalence_condition_values(ctx, p)["coframe-bracket-closure"][0]
    assert canonical_chart_symmetry(ctx, p)[0] == pytest.approx(
        closure, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# verdicts

def test_verdict_flat_case():
    v = verdict(canonical4(), euclid_metric(), Grid.cube([0.0] * 4, 1.0, 2))
    assert v.integrable and v.consistent
    assert v.tolerance == DEFAULT_TOL_SYMBOLIC
    assert v.report("christoffel-symmetry").binding
    for cid in EQUIVALENCE_IDS:
        assert v.report(cid).max_residual <= 1e-9


def test_verdict_blockdiag_integrable():
    v = verdict(canonical4(), blockdiag_metric(), Grid.cube([0.0] * 4, 1.0, 2))
    assert v.integrable and v.consistent
    for rep in v.conditions:
        if rep.binding:
            assert rep.max_residual <= 1e-9, rep.condition


def test_verdict_shear_nonintegrable():
    v = verdict(canonical4(), shear_metric(), Grid.cube([0.0] * 4, 1 / 3, 3))
    assert not v.integrable
    assert v.consistent
    c3 = v.report("bivector-derivative")
    assert c3.max_residual == pytest.approx(INV_PI, abs=1e-12)
    assert c3.witness.coords[1] == 0.0  # extremal along the shear axis
    assert v.report("christoffel-symmetry").binding  # canonical chart applies


def test_verdict_codimension_one_always_integrable():
    half_metric = MetricField.from_contravariant(2.0 * np.eye(3))
    v = verdict(so3_structure(), half_metric,
                Grid(center=[0.0, 0.0, 1.0], half_width=0.25, points_per_axis=2))
    assert v.integrable and v.consistent
    assert v.report("christoffel-symmetry").label == "skipped"
    assert not v.report("christoffel-symmetry").binding


def test_verdict_degeneracy_propagates():
    biv = dsl.expr_field(3, "uu", [
        ["0", "2*x2", "-2*x3"],
        ["-2*x2", "0", "x1"],
        ["2*x3", "-x1", "0"],
    ])
    ps = PoissonStructure(
        biv, [dsl.scalar_field("x1^2/8 + x2*x3/2", 3)], expected_rank=2)
    killing = MetricField.from_contravariant(
        np.array([[8.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 4.0, 0.0]]))
    nilpotent_grid = Grid(center=[0.0, 1.0, 0.0], half_width=0.0,
                          points_per_axis=1)
    with pytest.raises(DegeneracyError):
        verdict(ps, killing, nilpotent_grid)


def test_verdict_report_lookup():
    v = verdict(canonical4(), euclid_metric(), Grid.cube([0.0] * 4, 0.5, 1))
    with pytest.raises(KeyError):
        v.report("no-such-condition")
    d = v.to_dict()
    assert set(d) == {"integrable", "consistent", "tolerance", "conditions",
                      "disagreements"}


def test_verdict_fd_scheme_agrees():
    grid = Grid.cube([0.0] * 4, 1 / 3, 2)
    fd = DerivativeScheme(kind=CENTRAL_4)
    for metric in (shear_metric(), blockdiag_metric()):
        sym = verdict(canonical4(), metric, grid)
        num = verdict(canonical4(), metric, grid, scheme=fd)
        assert num.tolerance == DEFAULT_TOL_FD
        assert num.integrable == sym.integrable
        assert num.consistent and sym.consistent


def test_default_tolerance_by_scheme():
    assert default_tolerance(DerivativeScheme()) == DEFAULT_TOL_SYMBOLIC
    assert default_tolerance(DerivativeScheme(kind=CENTRAL_4)) == DEFAULT_TOL_FD
    assert default_tolerance(DerivativeScheme(kind=CENTRAL_2)) == DEFAULT_TOL_FD


def test_verdict_rejects_a_context_built_for_another_scheme():
    ps, m = canonical4(), shear_metric()
    grid = Grid.cube([0.0] * 4, 0.5, 1)
    fd = DerivativeScheme(kind=CENTRAL_4)
    with pytest.raises(ValueError, match="scheme"):
        verdict(ps, m, grid, ctx=ChartContext(ps, m, fd))
    with pytest.raises(ValueError, match="structure"):
        verdict(ps, m, grid, ctx=ChartContext(canonical4(), m))
    with pytest.raises(ValueError, match="metric"):
        verdict(ps, m, grid, ctx=ChartContext(ps, shear_metric()))
    assert verdict(ps, m, grid, fd, ctx=ChartContext(ps, m, fd)).tolerance == DEFAULT_TOL_FD
