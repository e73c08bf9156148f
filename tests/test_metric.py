import math

import numpy as np
import pytest

from poisson_ortho import dsl
from poisson_ortho.errors import DegeneracyError
from poisson_ortho.geometry import (
    DEFAULT_SCHEME, DerivativeScheme, Grid, TensorField, jacobian, matvec,
)
from poisson_ortho.metric import (
    MetricField, christoffel, covariant_derivative_bivector,
    covariant_derivative_oneform, inverse_metric, laplacian,
    lie_derivative_metric, sharp_field,
)

FD4 = DerivativeScheme(kind="central-4th-order")


def pt(*coords):
    """A batch of one point: the (1, dim) coordinate array."""
    return np.array([coords], dtype=float)


def sharp(m, covector, p):
    """g^{mu nu} w_nu at the one point of the batch p."""
    return matvec(inverse_metric(m, p)[0], np.asarray(covector, dtype=float))


def connection(m, p, scheme=DEFAULT_SCHEME):
    """Christoffel symbols of m at the batch p from g^-1 and the partials of g."""
    return christoffel(inverse_metric(m, p), jacobian(m.field, p, scheme))


def nabla_oneform(m, w, p):
    """(nabla w) at the batch p for a one-form field w."""
    return covariant_derivative_oneform(w.components(p), jacobian(w, p),
                                        connection(m, p))


def nabla_bivector(m, P, p):
    """(nabla P) at the batch p for a bivector field P."""
    return covariant_derivative_bivector(P.components(p), jacobian(P, p),
                                         connection(m, p))


def lie_of(m, x_field, p):
    """(L_X g) at the batch p for a vector field X."""
    return lie_derivative_metric(m.components(p), x_field.components(p),
                                 jacobian(x_field, p), connection(m, p))


def laplacian_of(m, scalar, p):
    """Laplace-Beltrami of a scalar field at the one point of the batch p."""
    grad_sharp = sharp_field(m, dsl.gradient_field(scalar))
    return laplacian(m.components(p), inverse_metric(m, p), grad_sharp.components(p),
                     jacobian(grad_sharp, p), connection(m, p))[0]


def shear_metric():
    # 4d metric with an atan shear coupling axes 1 and 3
    f = "(1/pi)*atan(x2)"
    return MetricField.from_entries(4, [
        ["1", "0", f, "0"],
        ["0", "1", "0", "0"],
        [f, "0", "1", "0"],
        ["0", "0", "0", "1"],
    ])


def polar_metric():
    return MetricField.from_entries(2, [["1", "0"], ["0", "x1^2"]])


# ---------------------------------------------------------------------------
# inversion

def test_inverse_of_identity():
    m = MetricField.constant(np.eye(3))
    assert np.allclose(inverse_metric(m, pt(0.0, 0.0, 0.0))[0], np.eye(3))


def test_inverse_of_shear_metric_closed_form():
    # the (1,3) block [[1,f],[f,1]] inverts to [[1,-f],[-f,1]]/(1-f^2);
    # at x2=1, f = atan(1)/pi = 1/4
    m = shear_metric()
    p = pt(0.0, 1.0, 0.0, 0.0)
    ginv = inverse_metric(m, p)[0]
    assert ginv[0, 0] == pytest.approx(16.0 / 15.0, rel=1e-12)
    assert ginv[0, 2] == pytest.approx(-4.0 / 15.0, rel=1e-12)
    assert ginv[1, 1] == pytest.approx(1.0, rel=1e-12)
    assert ginv[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_inverse_identity_check_on_grid():
    m = shear_metric()
    q = Grid(center=(0.0,) * 4, half_width=1.0, points_per_axis=2).sample().coords
    for g, ginv in zip(m.components(q), inverse_metric(m, q)):
        assert np.max(np.abs(ginv @ g - np.eye(4))) < 1e-10


def test_singular_metric_raises_degeneracy_error():
    m = MetricField.constant([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegeneracyError) as err:
        inverse_metric(m, pt(0.0, 0.0))
    assert "condition number" in str(err.value)


def test_shear_metric_eigenvalues():
    # spectrum is {1, 1, 1+f, 1-f}
    m = shear_metric()
    p = pt(0.0, 1.0, 0.0, 0.0)
    f = math.atan(1.0) / math.pi
    eig = np.sort(np.linalg.eigvalsh(m.components(p)[0]))
    assert np.allclose(eig, sorted([1.0, 1.0, 1.0 + f, 1.0 - f]), atol=1e-12)


def test_from_contravariant_exchange_matrix_is_self_inverse():
    G = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    m = MetricField.from_contravariant(G)
    p = np.arange(1.0, 7.0)[None, :]
    assert np.array_equal(inverse_metric(m, p)[0], G)
    assert np.allclose(m.components(p)[0], G)


def test_from_contravariant_rejects_wrong_inverse():
    with pytest.raises(ValueError):
        MetricField.from_contravariant(np.eye(2), covariant=2 * np.eye(2))


# ---------------------------------------------------------------------------
# Christoffel symbols

def test_christoffel_vanishes_for_constant_metric():
    m = MetricField.constant(np.diag([1.0, 2.0, 3.0]))
    ch = connection(m, pt(0.5, 0.5, 0.5))
    assert np.allclose(ch.second_kind, 0.0)
    assert np.allclose(ch.first_kind, 0.0)


def test_christoffel_polar_values():
    m = polar_metric()
    ch = connection(m, pt(2.0, 0.7))
    second, first = ch.second_kind[0], ch.first_kind[0]
    assert second[0, 1, 1] == pytest.approx(-2.0, rel=1e-12)
    assert second[1, 0, 1] == pytest.approx(0.5, rel=1e-12)
    assert second[1, 1, 0] == pytest.approx(0.5, rel=1e-12)
    # first kind lowers the first slot with g
    assert first[0, 1, 1] == pytest.approx(-2.0, rel=1e-12)
    assert first[1, 0, 1] == pytest.approx(2.0, rel=1e-12)


def test_christoffel_symmetric_in_last_two_slots():
    m = shear_metric()
    ch = connection(m, pt(0.3, -0.4, 1.0, 0.2))
    assert np.allclose(ch.second_kind, np.swapaxes(ch.second_kind, 2, 3), atol=1e-12)
    assert np.allclose(ch.first_kind, np.swapaxes(ch.first_kind, 2, 3), atol=1e-12)


def test_christoffel_symbolic_vs_stencil():
    m = shear_metric()
    p = pt(0.1, 0.6, -0.3, 0.9)
    exact = connection(m, p)
    fd = connection(m, p, FD4)
    assert np.allclose(exact.second_kind, fd.second_kind, atol=1e-9)


def test_metric_compatibility():
    # nabla_l g_{sn} = d_l g_{sn} - Gamma^g_{ls} g_{gn} - Gamma^g_{ln} g_{sg} = 0
    m = shear_metric()
    for coords in ([0.0, 0.5, 0.0, 0.0], [1.0, -0.8, 0.3, 0.2]):
        p = np.array([coords])
        dg = jacobian(m.field, p)[0]
        g = m.components(p)[0]
        g2 = connection(m, p).second_kind[0]
        nabla = (dg - np.einsum("gls,gn->lsn", g2, g)
                 - np.einsum("gln,sg->lsn", g2, g))
        assert np.max(np.abs(nabla)) < 1e-12


# ---------------------------------------------------------------------------
# covariant derivatives

def test_covariant_oneform_flat_reduces_to_jacobian():
    m = MetricField.constant(np.eye(2))
    w = dsl.expr_field(2, "l", ["x2", "x1*x2"])
    p = pt(1.0, 2.0)
    got = nabla_oneform(m, w, p)[0]
    assert np.allclose(got, [[0.0, 2.0], [1.0, 1.0]])


def test_covariant_oneform_polar():
    m = polar_metric()
    p = pt(2.0, 0.7)
    dtheta = TensorField.constant(2, "l", [0.0, 1.0])
    got = nabla_oneform(m, dtheta, p)[0]
    # (nabla dtheta)_{ls} = -Gamma^2_{ls}
    assert got[0, 1] == pytest.approx(-0.5, rel=1e-12)
    assert got[1, 0] == pytest.approx(-0.5, rel=1e-12)
    assert got[0, 0] == pytest.approx(0.0, abs=1e-14)
    dr = TensorField.constant(2, "l", [1.0, 0.0])
    got_r = nabla_oneform(m, dr, p)[0]
    # (nabla dr)_{22} = -Gamma^1_{22} = x1
    assert got_r[1, 1] == pytest.approx(2.0, rel=1e-12)


def test_covariant_bivector_linear_on_flat_chart():
    # flat metric, linear bivector: nabla P = dP, whose entries are the
    # coefficients of the linear components
    m = MetricField.constant(2.0 * np.eye(3))
    P = dsl.expr_field(3, "uu", [
        ["0", "x3", "-x2"],
        ["-x3", "0", "x1"],
        ["x2", "-x1", "0"],
    ])
    p = pt(0.4, -1.0, 2.0)
    got = nabla_bivector(m, P, p)[0]
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    # d_l P^{ts} = eps_{t s l}
    assert np.allclose(got, np.einsum("tsl->lts", eps))


def test_covariant_bivector_leibniz_against_connection_terms():
    # constant bivector on a curved metric: nabla P is pure connection terms
    m = shear_metric()
    P = TensorField.constant(4, "uu", np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]))
    p = pt(0.2, 0.9, -0.1, 0.5)
    got = nabla_bivector(m, P, p)[0]
    g2 = connection(m, p).second_kind[0]
    Pm = P.components(p)[0]
    expect = np.einsum("tlm,ms->lts", g2, Pm) + np.einsum("slm,tm->lts", g2, Pm)
    assert np.allclose(got, expect, atol=1e-13)


# ---------------------------------------------------------------------------
# musical isomorphisms

def test_sharp_of_first_coordinate_covector_in_shear_metric():
    m = shear_metric()
    p = pt(0.0, 1.0, 0.0, 0.0)  # f = 1/4 here
    xi = sharp(m, [1.0, 0.0, 0.0, 0.0], p)
    u = 1.0 / (1.0 - 0.25 ** 2)
    assert np.allclose(xi, [u, 0.0, -0.25 * u, 0.0], rtol=1e-12)


def test_sharp_flat_roundtrip():
    m = shear_metric()
    rng = np.random.default_rng(7)
    p = pt(0.3, -0.6, 0.8, 0.1)
    for _ in range(5):
        w = rng.normal(size=4)
        # lowering is contraction with the covariant components
        assert np.allclose(m.components(p)[0] @ sharp(m, w, p), w, atol=1e-10)


def test_sharp_with_exchange_matrix_swaps_blocks():
    G = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    m = MetricField.from_contravariant(G)
    p = np.zeros((1, 6))
    x = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(sharp(m, np.concatenate([q, x]), p), np.concatenate([x, q]))


def test_sharp_field_expression_path_is_exact():
    G = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    m = MetricField.from_contravariant(G)
    # w = (p, x) as expressions over coords (x1..x3, x4..x6)
    w = dsl.expr_field(6, "l", ["x4", "x5", "x6", "x1", "x2", "x3"])
    xi = sharp_field(m, w)
    assert xi.has_exact_derivative
    p = pt(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert np.array_equal(xi.components(p)[0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_sharp_field_numeric_path_matches_pointwise_sharp():
    m = shear_metric()
    w = dsl.expr_field(4, "l", ["x2", "0", "x1", "1"])
    xi = sharp_field(m, w)
    p = pt(0.4, 0.8, -0.2, 0.6)
    assert np.allclose(xi.components(p)[0], sharp(m, w.components(p)[0], p), atol=1e-14)


# ---------------------------------------------------------------------------
# Lie derivative of the metric, Laplacian

def test_rotation_is_killing_for_euclidean_plane():
    m = MetricField.constant(np.eye(2))
    rot = dsl.expr_field(2, "u", ["-x2", "x1"])
    p = pt(0.7, -0.4)
    lie = lie_of(m, rot, p)
    assert np.allclose(lie, 0.0, atol=1e-12)


def test_scaling_field_lie_derivative():
    m = MetricField.constant(np.eye(2))
    stretch = dsl.expr_field(2, "u", ["x1", "0"])
    p = pt(0.3, 0.9)
    lie = lie_of(m, stretch, p)[0]
    assert np.allclose(lie, np.diag([2.0, 0.0]), atol=1e-12)


def test_euler_field_is_conformal_not_killing():
    # L_X g = 2 g for the identity (Euler) field on any constant metric
    g0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = MetricField.constant(g0)
    euler = dsl.expr_field(2, "u", ["x1", "x2"])
    p = pt(0.5, -1.2)
    lie = lie_of(m, euler, p)[0]
    assert np.allclose(lie, 2.0 * g0, atol=1e-12)


def test_laplacian_of_square_norm_is_twice_dim():
    m = MetricField.constant(np.eye(3))
    c = dsl.scalar_field("x1^2+x2^2+x3^2", 3)
    assert laplacian_of(m, c, pt(0.3, -0.2, 0.9)) == pytest.approx(6.0, abs=1e-9)


def test_laplacian_of_harmonic_function_vanishes():
    m = MetricField.constant(np.eye(2))
    c = dsl.scalar_field("x1^2-x2^2", 2)
    assert laplacian_of(m, c, pt(1.0, 2.0)) == pytest.approx(0.0, abs=1e-9)


def test_laplacian_in_polar_coordinates():
    # f = r^2 has flat-plane laplacian 4, computed here in the polar chart
    m = polar_metric()
    c = dsl.scalar_field("x1^2", 2)
    assert laplacian_of(m, c, pt(1.5, 0.4)) == pytest.approx(4.0, abs=1e-8)


def test_variance_validation():
    with pytest.raises(ValueError):
        MetricField(dsl.expr_field(2, "uu", [["1", "0"], ["0", "1"]]))
    m = MetricField.constant(np.eye(2))
    with pytest.raises(ValueError, match="one-form"):
        sharp_field(m, dsl.expr_field(2, "u", ["1", "0"]))
