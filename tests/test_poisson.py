"""Poisson structure validation, orthogonal frames, and projectors.

Frames and projectors are read from ``ChartContext``; the reference values
are closed forms or small numpy constructions written out in the tests.
"""

import numpy as np
import pytest

from poisson_ortho import dsl
from poisson_ortho.context import ChartContext
from poisson_ortho.errors import DegeneracyError, RegularityError
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, Grid, TensorField
from poisson_ortho.metric import MetricField
from poisson_ortho.poisson import (
    PoissonStructure, bivector_rank, canonical_bivector, coframe_fields,
    independent_column_mask, validate_poisson,
)
from poisson_ortho.scenarios import ScenarioConfig, run


def pt(*coords):
    """A batch of one point: the (1, dim) coordinate array."""
    return np.array([coords], dtype=float)


def canonical4():
    return PoissonStructure(
        bivector=canonical_bivector(4, 2),
        casimirs=[dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        expected_rank=2)


def shear_metric():
    f = "atan(x2) / pi"
    return MetricField.from_entries(4, [
        ["1", "0", f, "0"],
        ["0", "1", "0", "0"],
        [f, "0", "1", "0"],
        ["0", "0", "0", "1"],
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


def sl2r_structure():
    biv = dsl.expr_field(3, "uu", [
        ["0", "2*x2", "-2*x3"],
        ["-2*x2", "0", "x1"],
        ["2*x3", "-x1", "0"],
    ])
    return PoissonStructure(
        bivector=biv,
        casimirs=[dsl.scalar_field("x1^2/8 + x2*x3/2", 3)],
        expected_rank=2)


def sl2r_killing_metric():
    # contravariant metric = the Killing form of this basis
    K = np.array([[8.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    return MetricField.from_contravariant(K)


def se3_structure():
    # basis (rotations e1..e3, translations e4..e6); invariants x.p and p.p
    def pbracket():
        rows = [["0"] * 6 for _ in range(6)]
        eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for (i, j), k in eps.items():
            lam = f"x{k + 1}"
            mom = f"x{k + 4}"
            rows[i][j] = lam
            rows[j][i] = f"-({lam})"
            rows[i][3 + j] = mom
            rows[3 + j][i] = f"-({mom})"
            rows[j][3 + i] = f"-({mom})"
            rows[3 + i][j] = mom
        return dsl.expr_field(6, "uu", rows)

    return PoissonStructure(
        bivector=pbracket(),
        casimirs=[
            dsl.scalar_field("x1*x4 + x2*x5 + x3*x6", 6),
            dsl.scalar_field("x4^2 + x5^2 + x6^2", 6),
        ],
        expected_rank=4,
        coframe_scales=[1, 0.5])


# ---------------------------------------------------------------------------
# structure declaration

def test_structure_validation():
    biv = canonical_bivector(4, 2)
    cas = [dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)]
    with pytest.raises(ValueError, match="even"):
        PoissonStructure(biv, cas, expected_rank=3)
    with pytest.raises(ValueError, match="invariant functions"):
        PoissonStructure(biv, cas[:1], expected_rank=2)
    with pytest.raises(ValueError, match="complement"):
        PoissonStructure(biv, [], expected_rank=4)
    with pytest.raises(ValueError, match="coframe_scales"):
        PoissonStructure(biv, cas, expected_rank=2, coframe_scales=[1.0])
    ps = canonical4()
    assert ps.dim == 4 and ps.codim == 2


def test_canonical_bivector_layout():
    P = canonical_bivector(6, 4).components(np.zeros((1, 6)))[0]
    assert P[2, 4] == 1.0 and P[3, 5] == 1.0
    assert P[4, 2] == -1.0 and P[5, 3] == -1.0
    assert np.count_nonzero(P) == 4
    assert np.array_equal(P, -P.T)


# ---------------------------------------------------------------------------
# coframe construction

def test_coframe_plain_gradients():
    ws = coframe_fields(canonical4())
    p = pt(0.3, -0.7, 2.0, 5.0)
    assert np.allclose(ws[0].components(p)[0], [1, 0, 0, 0])
    assert np.allclose(ws[1].components(p)[0], [0, 1, 0, 0])


def test_coframe_scales_se3_gauge():
    ws = coframe_fields(se3_structure())
    x = np.array([0.2, -1.0, 0.4])
    mom = np.array([1.5, 0.3, -0.6])
    p = np.concatenate([x, mom])[None, :]
    assert np.allclose(ws[0].components(p)[0], np.concatenate([mom, x]))
    assert np.allclose(ws[1].components(p)[0], np.concatenate([np.zeros(3), mom]))
    # exact-derivative backing must survive the rescaling
    assert isinstance(ws[0], dsl.ExprTensorField)
    assert isinstance(ws[1], dsl.ExprTensorField)


def test_coframe_scale_expression_and_field():
    base = canonical4()
    scaled = PoissonStructure(
        base.bivector, base.casimirs, 2, coframe_scales=["x2", 2.0])
    ws = coframe_fields(scaled)
    p = pt(1.0, 3.0, 0.0, 0.0)
    assert np.allclose(ws[0].components(p)[0], [3, 0, 0, 0])
    assert np.allclose(ws[1].components(p)[0], [0, 2, 0, 0])
    assert isinstance(ws[0], dsl.ExprTensorField)

    # a plain numeric scale field forces the closure path but same values
    half = TensorField(4, "", lambda q: np.full(len(q), 0.5))
    scaled2 = PoissonStructure(
        base.bivector, base.casimirs, 2, coframe_scales=[half, half])
    ws2 = coframe_fields(scaled2)
    assert np.allclose(ws2[0].components(p)[0], [0.5, 0, 0, 0])


def _canonical_config(casimirs) -> ScenarioConfig:
    structure = PoissonStructure(
        canonical_bivector(4, 2),
        [dsl.scalar_field(c, 4) for c in casimirs], 2)
    return ScenarioConfig(
        name="casimir-check", structure=structure,
        metric=MetricField.from_contravariant(np.eye(4)),
        grid=Grid.cube([1.0, 1.0, 0.0, 0.0], 0.5, 2))


def test_casimir_coframe_checks_annihilation():
    # x3 is not invariant: the run is invalid through casimir-annihilation
    report = run(_canonical_config(["x1", "x3"]))
    assert report.exit_code == 2
    assert report.verdict is None
    assert not report.validation.casimir_annihilation.holds
    assert report.validation.antisymmetry.holds and report.validation.jacobi.holds


def test_casimir_coframe_checks_independence():
    with pytest.raises(DegeneracyError, match="degenerate"):
        run(_canonical_config(["x1", "2*x1"]))


def test_casimir_coframe_values_so3():
    ctx = ChartContext(so3_structure(), MetricField.from_contravariant(np.eye(3)))
    assert np.allclose(ctx.coframe_at(pt(0.1, -0.2, 1.0))[0], [[0.2, -0.4, 2.0]])


# ---------------------------------------------------------------------------
# orthogonal frame

def test_orthogonal_frame_shear_metric():
    # raising dx1 through the sheared metric tilts the frame into -x3
    ctx = ChartContext(canonical4(), shear_metric())
    p = pt(0.0, 1.0, 0.0, 0.0)  # f = atan(1)/pi = 1/4 here
    frame = ctx.frame_at(p)[0]
    assert frame.shape == (4, 2)
    assert np.allclose(frame[:, 0], [16 / 15, 0.0, -4 / 15, 0.0])
    assert np.allclose(frame[:, 1], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(ctx.gram_at(p)[0], [[16 / 15, 0.0], [0.0, 1.0]])
    assert ctx.coframe_at(p)[0].shape == (2, 4)


def test_frame_is_metric_orthogonal_to_leaf():
    m = shear_metric()
    ctx = ChartContext(canonical4(), m)
    p = pt(0.4, -0.3, 1.0, 2.0)
    P = ctx.bivector_at(p)[0]
    B = P[:, independent_column_mask(P)]
    assert np.max(np.abs(B.T @ m.components(p)[0] @ ctx.frame_at(p)[0])) < 1e-12


def test_orthogonal_frame_degenerate_gram():
    # indefinite metric: the frame gram collapses on the cone x1^2/8+x2*x3/2=0
    ctx = ChartContext(sl2r_structure(), sl2r_killing_metric())
    with pytest.raises(DegeneracyError, match="degenerate"):
        ctx.gram_inv_at(pt(0.0, 1.0, 0.0))


def test_orthogonal_frame_sl2r_generic_point():
    ctx = ChartContext(sl2r_structure(), sl2r_killing_metric())
    p = pt(1.0, 0.0, 0.0)
    # frame vector is 2*lambda and the gram is 4x the invariant function
    assert np.allclose(ctx.frame_at(p)[0][:, 0], [2.0, 0.0, 0.0])
    assert np.allclose(ctx.gram_at(p)[0], [[0.5]])


# ---------------------------------------------------------------------------
# leaf operator, column selection, projectors

def test_independent_columns_deterministic():
    mat = np.array([
        [1.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.flatnonzero(independent_column_mask(mat)).tolist() == [0, 3]
    assert not independent_column_mask(np.zeros((3, 3))).any()
    # near-duplicate column is dropped relative to overall scale
    near = np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]])
    assert np.flatnonzero(independent_column_mask(near)).tolist() == [0]


def test_leaf_basis_canonical():
    P = canonical4().bivector.components(pt(0.0, 0.0, 0.0, 0.0))[0]
    cols = np.flatnonzero(independent_column_mask(P)).tolist()
    assert cols == [2, 3]
    assert np.allclose(P[:, 2], [0, 0, 0, -1])
    assert np.allclose(P[:, 3], [0, 0, 1, 0])


def test_leaf_operator_kernel_and_image():
    # A = P g: kernel the orthogonal distribution, image the leaf tangent
    ctx = ChartContext(canonical4(), shear_metric())
    p = pt(0.2, 0.5, -1.0, 3.0)
    A = ctx.bivector_at(p)[0] @ ctx.metric_at(p)[0]
    assert np.max(np.abs(A @ ctx.frame_at(p)[0])) < 1e-12
    assert bivector_rank(A) == 2


def test_projectors_split_identity():
    m = shear_metric()
    ctx = ChartContext(canonical4(), m)
    p = pt(0.1, 0.8, 0.0, -2.0)
    v, h = ctx.projector_v(p)[0], ctx.projector_h(p)[0]
    assert np.allclose(v + h, np.eye(4))
    assert np.allclose(v @ v, v)
    assert np.allclose(h @ h, h)
    # v fixes the bivector columns, h kills them; the opposite for the frame
    P = ctx.bivector_at(p)[0]
    assert np.allclose(v @ P, P)
    assert np.max(np.abs(h @ P)) < 1e-12
    frame = ctx.frame_at(p)[0]
    assert np.allclose(h @ frame, frame)
    assert np.max(np.abs(v @ frame)) < 1e-12
    # g-self-adjoint: g v = (g v)^T
    g = m.components(p)[0]
    assert np.allclose(g @ v, (g @ v).T)
    assert np.allclose(g @ h, (g @ h).T)


def test_projectors_rank_mismatch():
    ps = PoissonStructure(
        dsl.expr_field(4, "uu", [
            ["0", "x1", "0", "0"],
            ["-x1", "0", "0", "0"],
            ["0", "0", "0", "0"],
            ["0", "0", "0", "0"],
        ]),
        [dsl.scalar_field("x3", 4), dsl.scalar_field("x4", 4)],
        expected_rank=2)
    at_zero = Grid(center=[0.0, 5.0, 0.0, 0.0], half_width=0.0, points_per_axis=1)
    with pytest.raises(RegularityError) as err:
        validate_poisson(ps, at_zero)
    assert "rank 0" in str(err.value)
    assert len(err.value.points) == 1
    # fine away from the degeneracy locus
    ctx = ChartContext(ps, MetricField.constant(np.eye(4)))
    p = pt(2.0, 5.0, 0.0, 0.0)
    assert np.allclose(ctx.projector_v(p)[0] + ctx.projector_h(p)[0], np.eye(4))
    assert np.allclose(ctx.projector_v(p)[0], np.diag([1.0, 1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# grid validation

def test_validate_poisson_canonical():
    report = validate_poisson(canonical4(), Grid.cube([0.0] * 4, 1.0, 3))
    assert report.ok
    assert report.rank == 2
    assert report.antisymmetry.max_residual == 0.0
    assert report.jacobi.max_residual < 1e-9
    assert report.casimir_annihilation.max_residual == 0.0
    assert len(report.antisymmetry.points) == 81


def test_validate_poisson_so3():
    report = validate_poisson(
        so3_structure(), Grid(center=[0.0, 0.0, 1.0], half_width=0.25,
                              points_per_axis=3))
    assert report.ok
    assert report.rank == 2
    assert report.jacobi.max_residual < 1e-9


def test_validate_poisson_se3():
    report = validate_poisson(
        se3_structure(),
        Grid(center=[1.0, 0.0, 0.0, 0.0, 1.0, 0.0], half_width=0.25,
             points_per_axis=2))
    assert report.ok
    assert report.rank == 4


def test_validate_poisson_jacobi_failure():
    # 3d bivector dual to the covector a = (x2, 0, 1): a . curl a = -1, so
    # the cyclic contraction has unit-size entries everywhere
    biv = dsl.expr_field(3, "uu", [
        ["0", "1", "0"],
        ["-1", "0", "x2"],
        ["0", "-x2", "0"],
    ])
    ps = PoissonStructure(biv, [dsl.scalar_field("x3", 3)], expected_rank=2)
    report = validate_poisson(ps, Grid.cube([0.0] * 3, 0.5, 2))
    assert not report.ok
    assert report.jacobi.max_residual == pytest.approx(1.0, abs=1e-9)
    assert not report.casimir_annihilation.holds  # x3 is not invariant here


def test_validate_poisson_rank_error():
    biv = dsl.expr_field(4, "uu", [
        ["0", "x1", "0", "0"],
        ["-x1", "0", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "0", "0"],
    ])
    ps = PoissonStructure(
        biv, [dsl.scalar_field("x3", 4), dsl.scalar_field("x4", 4)],
        expected_rank=2)
    with pytest.raises(RegularityError, match="rank 0"):
        validate_poisson(ps, Grid.cube([0.0] * 4, 1.0, 3))  # grid crosses x1 = 0


def test_validate_poisson_fd_scheme():
    scheme = DerivativeScheme(kind=CENTRAL_4)
    report = validate_poisson(so3_structure(),
                              Grid(center=[0.0, 0.0, 1.0], half_width=0.25,
                                   points_per_axis=2),
                              scheme=scheme, tol=1e-8)
    assert report.ok


def test_validate_poisson_reads_a_matching_context():
    ps = so3_structure()
    grid = Grid(center=[0.0, 0.0, 1.0], half_width=0.25, points_per_axis=2)
    fd = DerivativeScheme(kind=CENTRAL_4)
    ctx = ChartContext(ps, MetricField.constant(np.eye(3)), fd)
    with pytest.raises(ValueError, match="scheme"):
        validate_poisson(ps, grid, ctx=ctx)
    with pytest.raises(ValueError, match="structure"):
        validate_poisson(so3_structure(), grid, fd, ctx=ctx)
    report = validate_poisson(ps, grid, fd, ctx=ctx)
    assert report.to_dict() == validate_poisson(ps, grid, fd).to_dict()


# ---------------------------------------------------------------------------
# chart context

def test_context_matches_pointwise_constructions():
    # reference: the leaf projector from a column-pivoted leaf basis B of P,
    # v = B (B^T g B)^{-1} B^T g, and the frame g^{-1} dc^i of x1, x2
    ps = canonical4()
    m = shear_metric()
    ctx = ChartContext(ps, m)
    p = pt(0.3, 0.9, -0.4, 1.1)
    P = ps.bivector.components(p)[0]
    g = m.components(p)[0]
    B = P[:, independent_column_mask(P)]
    v = B @ np.linalg.inv(B.T @ g @ B) @ B.T @ g
    assert np.allclose(ctx.projector_v(p)[0], v, atol=1e-12)
    assert np.allclose(ctx.projector_h(p)[0], np.eye(4) - v, atol=1e-12)
    frame = np.linalg.inv(g)[:, :2]
    assert np.allclose(ctx.frame_at(p)[0], frame)
    assert np.allclose(ctx.gram_at(p)[0], frame.T @ g @ frame)
    assert np.allclose(ctx.metric_inv_at(p)[0] @ ctx.metric_at(p)[0], np.eye(4),
                       atol=1e-12)


def test_context_memoizes_values():
    ctx = ChartContext(canonical4(), shear_metric())
    p = pt(0.0, 0.5, 0.0, 0.0)
    first = ctx.projector_h(p)
    assert ctx.projector_h(p) is first
    assert ctx.projector_h(pt(0.0, 0.5, 0.0, 0.0)) is first  # same coords
    other = ctx.projector_h(pt(0.0, 0.6, 0.0, 0.0))
    assert other is not first


def test_context_frame_keeps_exact_derivatives():
    ctx = ChartContext(canonical4(), MetricField.from_contravariant(np.eye(4)))
    p = pt(0.0, 0.0, 0.0, 0.0)
    jac = ctx.frame_jacobian(0, p)[0]
    assert np.array_equal(jac, np.zeros((4, 4)))
    # the bracket reads the frame's exact jet, not a stencil of the frame
    assert np.array_equal(ctx._frame_variant(0, "plain", p)[1], ctx.frame_jacobian(0, p))
    assert np.array_equal(ctx.frame_bracket(0, 1, "plain", "plain", p)[0], np.zeros(4))


def test_context_gram_degeneracy_propagates():
    ctx = ChartContext(sl2r_structure(), sl2r_killing_metric())
    with pytest.raises(DegeneracyError):
        ctx.projector_h(pt(0.0, 1.0, 0.0))


def test_context_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        ChartContext(so3_structure(), MetricField.constant(np.eye(4)))
