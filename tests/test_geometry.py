import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from poisson_ortho import dsl
from poisson_ortho.errors import EvaluationError, ExprDomainError
from poisson_ortho.geometry import (
    CENTRAL_2, CENTRAL_4, SCHEME_KINDS, DerivativeScheme, Grid, Point, Points, TensorField,
    jacobian, lie_bracket, partial_derivative, pointwise_max_abs, stencil_hessian,
)
from test_dsl import _exprs


def pt(*coords):
    """A batch of one point: the (1, dim) coordinate array."""
    return np.array([coords], dtype=float)


def vec(dim, sources):
    return dsl.expr_field(dim, "u", sources)


def bracket(x, y, p):
    """[X, Y] of two vector fields, from their values and jacobians."""
    return lie_bracket(x.components(p), jacobian(x, p), y.components(p), jacobian(y, p))


# ---------------------------------------------------------------------------
# points and schemes

def test_point_basics():
    p = Point([1.0, 2.0])
    assert p == Point([1.0, 2.0])
    assert hash(p) == hash(Point([1.0, 2.0]))
    assert p.coords[1] == 2.0
    with pytest.raises(ValueError):
        p.coords[0] = 9.0


def test_scheme_validation():
    with pytest.raises(ValueError):
        DerivativeScheme(kind="forward")
    with pytest.raises(ValueError):
        DerivativeScheme(step=0.0)


@pytest.mark.parametrize("step", [5e-324, 1e-17])
def test_scheme_rejects_a_step_below_the_coordinate_resolution(step):
    with pytest.raises(ValueError, match="resolution"):
        DerivativeScheme(kind=CENTRAL_4, step=step)


def test_point_batch_is_not_empty():
    with pytest.raises(ValueError, match="empty point batch"):
        Points(np.zeros((0, 4)))
    assert len(Points(np.zeros((1, 4)))) == 1


def test_scheme_step_scales_with_coordinate_magnitude():
    s = DerivativeScheme(step=1e-5)
    assert s.step_for(0.0) == 1e-5
    assert s.step_for(-0.5) == 1e-5
    assert s.step_for(1e12) == 1e7


# ---------------------------------------------------------------------------
# tensor fields

def test_constant_field_and_zero_derivative():
    f = TensorField.constant(3, "ll", np.eye(3))
    p = pt(4.0, 5.0, 6.0)
    assert np.array_equal(f.components(p)[0], np.eye(3))
    assert f.is_constant
    d = partial_derivative(f, p, 2)[0]
    assert np.array_equal(d, np.zeros((3, 3)))


def test_fields_and_maxima_take_a_batch_of_no_points():
    no_points = np.zeros((0, 3))
    expr = dsl.expr_field(3, "ll", [["x1", "0", "0"], ["0", "1", "0"], ["0", "0", "x3"]])
    for field in (expr, TensorField.constant(3, "u", [1.0, 2.0, 3.0]),
                  dsl.scalar_field("x1*x2", 3)):
        values = field.components(no_points)
        assert values.shape == (0,) + field.shape
        assert pointwise_max_abs(values).shape == (0,)


def test_field_shape_mismatch_rejected():
    f = TensorField(2, "u", lambda q: np.zeros((len(q), 3)))
    with pytest.raises(ValueError):
        f.components(pt(0.0, 0.0))


def test_non_finite_value_raises_with_point():
    f = TensorField(2, "", lambda q: np.full(len(q), np.inf))
    with pytest.raises(EvaluationError) as err:
        f.components(pt(1.0, 2.0))
    assert err.value.point == Point([1.0, 2.0])


def test_point_dimension_checked_against_field():
    f = TensorField.constant(3, "u", np.ones(3))
    with pytest.raises(ValueError):
        f.components(pt(1.0, 2.0))


def test_components_reject_a_coordinate_vector():
    f = TensorField.constant(2, "u", np.ones(2))
    with pytest.raises(ValueError, match=r"want \(n, 2\)"):
        f.components(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# partial derivatives

def test_partial_of_square_is_two_x():
    f = dsl.scalar_field("x2^2", 2)
    got = partial_derivative(f, pt(0.0, 1.0), 1)
    assert got[0] == pytest.approx(2.0, abs=1e-12)


def test_fourth_order_stencil_exact_on_quartics():
    # the 4-point central stencil differentiates degree <= 4 exactly
    f = TensorField(1, "", lambda q: q[:, 0] ** 4)
    scheme = DerivativeScheme(kind="central-4th-order", step=1e-2)
    got = partial_derivative(f, pt(1.5), 0, scheme)
    assert got[0] == pytest.approx(4.0 * 1.5 ** 3, rel=1e-11)


def test_second_order_stencil():
    f = TensorField(1, "", lambda q: np.sin(q[:, 0]))
    scheme = DerivativeScheme(kind="central-2nd-order", step=1e-5)
    got = partial_derivative(f, pt(0.4), 0, scheme)
    assert got[0] == pytest.approx(math.cos(0.4), abs=1e-9)


def test_symbolic_scheme_falls_back_to_stencil_for_numeric_fields():
    f = TensorField(1, "", lambda q: np.exp(q[:, 0]))
    got = partial_derivative(f, pt(0.2), 0)  # default symbolic-when-available
    assert got[0] == pytest.approx(math.exp(0.2), abs=1e-9)


def test_symbolic_scheme_uses_exact_derivative_when_present():
    f = dsl.scalar_field("atan(x1)", 1)
    got = partial_derivative(f, pt(1e12), 0)
    # stencil would lose this entirely; exact path gives ~1/x^2
    assert got[0] == pytest.approx(1.0 / (1.0 + 1e24), rel=1e-12)


def test_forced_fd_scheme_ignores_exact_derivative():
    f = dsl.scalar_field("x1^3", 1)
    scheme = DerivativeScheme(kind="central-4th-order", step=1e-3)
    got = partial_derivative(f, pt(2.0), 0, scheme)
    assert got[0] == pytest.approx(12.0, rel=1e-10)


def test_axis_out_of_range():
    f = dsl.scalar_field("x1", 1)
    with pytest.raises(ValueError):
        partial_derivative(f, pt(0.0), 1)


def test_jacobian_stacks_axis_first():
    f = vec(2, ["x1*x2", "x2^2"])
    jac = jacobian(f, pt(2.0, 3.0))[0]
    # jac[axis, component]
    assert np.allclose(jac, [[3.0, 0.0], [2.0, 6.0]])


def per_offset_partial(field, p, axis, scheme):
    """The central stencil evaluated one shifted batch at a time, in the
    order its arithmetic reads them: the oracle of the stacked stencil."""
    h = scheme.step_for(p[:, axis])

    def at(delta):
        shifted = p.copy()
        shifted[:, axis] += delta
        return field.components(shifted)

    h_out = h.reshape((-1,) + (1,) * len(field.variance))
    if scheme.kind == CENTRAL_2:
        return (at(+h) - at(-h)) / (2.0 * h_out)
    fm2, fm1, fp1, fp2 = at(-2.0 * h), at(-h), at(+h), at(+2.0 * h)
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h_out)


STENCIL_ATOMS = ("x1", "x2*x3", "sin(x1)*x2", "atan(x3)", "exp(x2/4)",
                 "x1^3 - x2*x3", "sqrt(1 + x1^2)", "cos(x1*x3)", "1/(2 + x2^2)")


def _numeric_vector(q):
    x, y, z = q.T
    return np.stack([np.sin(x * y), np.exp(-z * z) + x, np.arctan(y) * z], axis=1)


# each entry builds a 3-d field for a scheme: expression fields, a plain
# numeric closure, and a gradient closure that nests a stencil of its own
STENCIL_FIELDS = st.one_of(
    st.sampled_from(STENCIL_ATOMS).map(
        lambda src: lambda scheme: dsl.scalar_field(src, 3)),
    st.lists(st.sampled_from(STENCIL_ATOMS), min_size=3, max_size=3).map(
        lambda srcs: lambda scheme: vec(3, srcs)),
    st.just(lambda scheme: TensorField(3, "u", _numeric_vector)),
    st.sampled_from(STENCIL_ATOMS).map(
        lambda src: lambda scheme: dsl.gradient_field(
            TensorField(3, "", dsl.scalar_field(src, 3).components), scheme)),
)


@settings(max_examples=80, deadline=None)
@given(STENCIL_FIELDS,
       st.sampled_from((CENTRAL_2, CENTRAL_4)),
       st.sampled_from((1e-5, 1e-3)),
       st.integers(0, 2),
       st.lists(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_stacked_stencil_is_bit_identical_to_per_offset_evaluation(
        build, kind, step, axis, coords):
    # coordinates beyond |x| = 1 exercise the scaled step
    scheme = DerivativeScheme(kind=kind, step=step)
    field = build(scheme)
    p = np.array(coords)
    batches = []

    def evaluate(q):
        batches.append(len(q))
        return field.components(q)

    counted = TensorField(3, field.variance, evaluate)
    got = partial_derivative(counted, p, axis, scheme)
    assert np.array_equal(got, per_offset_partial(field, p, axis, scheme))
    assert batches == [(2 if kind == CENTRAL_2 else 4) * len(p)]


@pytest.mark.parametrize("kind", [CENTRAL_2, CENTRAL_4])
def test_stacked_stencil_reports_the_oracles_non_finite_point(kind):
    # the field is non-finite only at x + h on axis 1 of the second point
    scheme = DerivativeScheme(kind=kind, step=1e-3)
    p = np.array([[0.5, -1.0], [3.0, 2.0]])
    bad = p[1, 1] + scheme.step_for(p[1, 1])

    def evaluate(q):
        out = np.sin(q[:, 0]) + q[:, 1]
        out[q[:, 1] == bad] = np.nan
        return out

    field = TensorField(2, "", evaluate)
    points = []
    for differentiate in (partial_derivative, per_offset_partial):
        with pytest.raises(EvaluationError) as err:
            differentiate(field, p, 1, scheme)
        points.append(err.value.point)
    assert points[0] == points[1] == Point([3.0, bad])


# Casimirs as the flat stencils meet them: powers, sin, exp and atan
CASIMIR_ATOMS = ("x1^3 - x2*x3", "sin(x1)*x2", "exp(x2/4)*x3", "atan(x3)*x1",
                 "x1^2*x2^2", "exp(x1)*atan(x2*x3)", "sin(x1*x3)")
COORDS = st.lists(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
                  min_size=1, max_size=4)


def per_axis_gradient(scalar, scheme):
    """The gradient closure of per-axis stencils, one ``partial_derivative``
    per axis: the reference of the flat gradient."""
    return TensorField(scalar.dim, "l", lambda q: np.stack(
        [partial_derivative(scalar, q, s, scheme) for s in range(scalar.dim)], axis=1))


def nested_hessian(scalar, p, scheme):
    """The per-axis stencils of the per-axis gradient closure: the
    reference of the flat Hessian, meeting points in the nested order."""
    gradient = per_axis_gradient(scalar, scheme)
    return np.stack([partial_derivative(gradient, p, l, scheme)
                     for l in range(scalar.dim)], axis=1)


@contextlib.contextmanager
def evaluations_of(field):
    """The batch sizes of every evaluation of field inside the block."""
    batches = []
    components = TensorField.components

    def counted(self, coords):
        if self is field:
            batches.append(len(coords))
        return components(self, coords)

    with mock.patch.object(TensorField, "components", counted):
        yield batches


def closure(field):
    """The field as a numeric closure with its derivative hook: its reads
    are unknown, so it is differentiated along every axis."""
    return TensorField(field.dim, field.variance, field.components,
                       partial=field.partial_field)


def is_plus_zero(values):
    return np.array_equal(values, np.zeros_like(values)) and not np.signbit(values).any()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(CASIMIR_ATOMS), min_size=1, max_size=2).map(" + ".join),
       st.sampled_from((CENTRAL_2, CENTRAL_4)),
       st.sampled_from((1e-5, 1e-3)),
       COORDS)
def test_flat_casimir_stencils_are_bit_identical_to_per_axis_and_nested_ones(
        source, kind, step, coords):
    # coordinates beyond |x| = 1 scale the step, so on the diagonal the inner
    # step step_for(x_l + a h_l) differs from the outer one
    scheme = DerivativeScheme(kind=kind, step=step)
    scalar = dsl.scalar_field(source, 3)
    reference = closure(scalar)
    read = sorted(scalar.reads)
    unread = [a for a in range(3) if a not in scalar.reads]
    p = np.array(coords)
    m = 2 if kind == CENTRAL_2 else 4

    per_axis = np.stack([partial_derivative(reference, p, s, scheme) for s in range(3)], axis=1)
    with evaluations_of(scalar) as batches:
        gradient = jacobian(scalar, p, scheme)
    assert np.array_equal(gradient[:, read], per_axis[:, read])
    assert is_plus_zero(gradient[:, unread])
    # one evaluation: the read axes' stencils, then the rows of p if any is skipped
    assert batches == [(len(read) * m + (1 if unread else 0)) * len(p)]

    with evaluations_of(scalar) as batches:
        hessian = stencil_hessian(scalar, p, scheme)
    assert np.array_equal(hessian[:, read][:, :, read],
                          nested_hessian(reference, p, scheme)[:, read][:, :, read])
    assert is_plus_zero(hessian[:, unread]) and is_plus_zero(hessian[:, :, unread])
    # one evaluation per read outer axis l, covering the read inner axes s >= l
    assert batches == [(len(read) - i) * m * m * len(p) for i in range(len(read))]


@settings(max_examples=150, deadline=None)
@given(st.lists(_exprs(max_axis=3), min_size=4, max_size=4),
       st.sampled_from(SCHEME_KINDS),
       st.lists(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_unread_axes_give_exact_zeros_and_read_axes_the_full_derivatives(entries, kind, coords):
    # four entries on a 4-d chart that reference x1..x3 only: x4 and any
    # axis no entry references are unread; the reference is the same field
    # with its reads unknown, so it is differentiated along every axis
    scheme = DerivativeScheme(kind=kind)
    vector, scalar = vec(4, entries), dsl.scalar_field(entries[0], 4)
    p = np.array(coords)
    with np.errstate(all="ignore"):
        try:
            want = ([partial_derivative(closure(vector), p, a, scheme) for a in range(4)],
                    jacobian(closure(scalar), p, scheme),
                    stencil_hessian(closure(scalar), p, scheme))
        except (EvaluationError, ExprDomainError):
            assume(False)
        got = ([partial_derivative(vector, p, a, scheme) for a in range(4)],
               jacobian(scalar, p, scheme),
               stencil_hessian(scalar, p, scheme))
    # the axes some entry references, as the test reads them
    vector_reads = set().union(*map(dsl.variables_used, entries))
    for a in range(4):
        if a in vector_reads:
            assert np.array_equal(got[0][a], want[0][a])
        else:
            assert is_plus_zero(got[0][a])
    read = sorted(dsl.variables_used(entries[0]))
    unread = [a for a in range(4) if a not in read]
    assert np.array_equal(got[1][:, read], want[1][:, read])
    assert is_plus_zero(got[1][:, unread])
    assert np.array_equal(got[2][:, read][:, :, read], want[2][:, read][:, :, read])
    assert is_plus_zero(got[2][:, unread]) and is_plus_zero(got[2][:, :, unread])


def _outcome(compute):
    """The array compute returns, or the point of its EvaluationError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return compute()
    except EvaluationError as err:
        return err.point


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((CENTRAL_2, CENTRAL_4)), COORDS, st.data())
def test_flat_casimir_stencils_fail_at_the_nested_stencils_point(kind, coords, data):
    # some of the points the reference stencils read get a NaN, or a finite
    # value whose difference overflows into a non-finite gradient; with
    # several, the first fault in the nested stencils' order must win
    scheme = DerivativeScheme(kind=kind, step=1e-3)
    p = np.array(coords)
    read = []

    def smooth(q):
        read.append(q.copy())
        return np.sin(q[:, 0]) * q[:, 1] + q[:, 2]

    clean = TensorField(3, "", smooth)
    per_axis_gradient(clean, scheme).components(p)
    nested_hessian(clean, p, scheme)
    read = np.concatenate(read)
    picks = st.tuples(st.sampled_from(range(len(read))), st.sampled_from((math.nan, 1e308)))
    bad = [(read[i], value) for i, value in data.draw(st.lists(picks, min_size=1, max_size=3))]

    def poisoned(q):
        out = np.sin(q[:, 0]) * q[:, 1] + q[:, 2]
        for point, value in bad:
            out[(q == point).all(axis=1)] = value
        return out

    scalar = TensorField(3, "", poisoned)
    for flat, reference in (
            (jacobian, lambda: per_axis_gradient(scalar, scheme).components(p)),
            (stencil_hessian, lambda: nested_hessian(scalar, p, scheme))):
        got, want = _outcome(lambda: flat(scalar, p, scheme)), _outcome(reference)
        assert type(got) is type(want)
        if isinstance(want, Point):
            assert got == want
        else:
            assert np.array_equal(got, want, equal_nan=True)


def per_axis_jacobian(field, p, scheme):
    """The per-axis stencils of a field, one shifted batch at a time in the
    order they meet points, zeros on its unread axes, then its rows of p
    when it skips an axis and a non-finite partial's row: the reference of
    the flat jacobian."""
    read = field.reads
    partials = [per_offset_partial(field, p, a, scheme) if a in read
                else np.zeros((len(p),) + field.shape) for a in range(field.dim)]
    if len(read) < field.dim:
        field.components(p)
    out = np.stack(partials, axis=1)
    finite = np.isfinite(out.reshape(len(p), -1)).all(axis=1)
    if not finite.all():
        bad = Point(p[int(np.argmin(finite))])
        raise EvaluationError(f"non-finite partial at {bad!r}", point=bad)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("u", "ll")).flatmap(lambda variance: st.tuples(
           st.just(variance),
           st.lists(_exprs(max_axis=3), min_size=3 ** len(variance),
                    max_size=3 ** len(variance)))),
       st.sampled_from((CENTRAL_2, CENTRAL_4)),
       st.lists(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.data())
def test_jacobian_is_one_evaluation_of_the_per_axis_stencils(field_entries, kind, coords, data):
    # random vector and matrix expression fields on a 3-d chart: an entry
    # may read any subset of x1..x3, so some fields skip axes and some not
    variance, entries = field_entries
    scheme = DerivativeScheme(kind=kind, step=1e-3)
    entries = np.array(entries, dtype=object).reshape((3,) * len(variance))
    p = np.array(coords)
    m = 2 if kind == CENTRAL_2 else 4

    def build(fault=None):
        field = dsl.expr_field(3, variance, entries)
        if fault is not None:
            evaluate = field._evaluate
            field._evaluate = lambda q: fault(q, evaluate(q))
        return field

    field = build()
    read = sorted(field.reads)
    unread = [a for a in range(3) if a not in field.reads]
    with np.errstate(all="ignore"):
        try:
            want = per_axis_jacobian(build(), p, scheme)
        except (EvaluationError, ExprDomainError):
            assume(False)
        with evaluations_of(field) as batches:
            got = jacobian(field, p, scheme)
    assert np.array_equal(got[:, read], want[:, read])
    assert is_plus_zero(got[:, unread])
    # one evaluation: the read axes' stencils, then the rows of p if any is skipped
    assert batches == [(len(read) * m + (1 if unread else 0)) * len(p)]

    # NaNs, or finite values whose difference overflows, at some of the
    # points the stencils read: the first fault the per-axis stencils meet wins
    met = []
    with np.errstate(all="ignore"):
        per_axis_jacobian(build(lambda q, values: met.append(q.copy()) or values), p, scheme)
    met = np.concatenate(met)
    picks = st.tuples(st.sampled_from(range(len(met))), st.sampled_from((math.nan, 1e308)))
    bad = [(met[i], value) for i, value in data.draw(st.lists(picks, min_size=1, max_size=3))]

    def poison(q, values):
        values = np.array(values)
        for point, value in bad:
            values[(q == point).all(axis=1)] = value
        return values

    with np.errstate(all="ignore"):
        got = _outcome(lambda: jacobian(build(poison), p, scheme))
        want = _outcome(lambda: per_axis_jacobian(build(poison), p, scheme))
    assert type(got) is type(want)
    if isinstance(want, Point):
        assert got == want
    else:
        assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# Lie bracket

def test_bracket_of_coordinate_fields_vanishes():
    x = vec(2, ["1", "0"])
    y = vec(2, ["0", "1"])
    assert np.allclose(bracket(x, y, pt(0.3, -0.8)), 0.0)


def test_bracket_shear_example():
    # X = d1 + f d3 with f = (1/pi) atan(x2), Y = d2:
    # [X, Y] = -(d2 f) d3, so at the origin the value is (0,0,-1/pi,0)
    x = vec(4, ["1", "0", "(1/pi)*atan(x2)", "0"])
    y = vec(4, ["0", "1", "0", "0"])
    got = bracket(x, y, pt(0.0, 0.0, 0.0, 0.0))[0]
    assert np.allclose(got, [0.0, 0.0, -1.0 / math.pi, 0.0], atol=1e-12)


def test_bracket_antisymmetry():
    x = vec(2, ["x2^2", "x1"])
    y = vec(2, ["x1*x2", "x2"])
    p = pt(1.2, -0.7)
    assert np.allclose(bracket(x, y, p), -bracket(y, x, p), atol=1e-12)


def test_bracket_with_self_vanishes():
    x = vec(2, ["x2^2", "sin(x1)"])
    assert np.allclose(bracket(x, x, pt(0.4, 1.1)), 0.0, atol=1e-12)


def test_bracket_rotation_and_radial():
    # rotation field and Euler field commute in the plane
    rot = vec(2, ["-x2", "x1"])
    euler = vec(2, ["x1", "x2"])
    assert np.allclose(bracket(rot, euler, pt(0.6, 0.8)), 0.0, atol=1e-12)


def test_bracket_jacobi_identity():
    x = vec(2, ["x2^2", "x1"])
    y = vec(2, ["x1*x2", "x2"])
    z = vec(2, ["1", "x1^2"])
    p = pt(0.5, 0.25)

    def bracket_field(a, b):
        return TensorField(2, "u", lambda q: bracket(a, b, q))

    total = (
        bracket(x, bracket_field(y, z), p)
        + bracket(y, bracket_field(z, x), p)
        + bracket(z, bracket_field(x, y), p)
    )
    assert np.allclose(total, 0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# grids

def test_single_point_axis_collapses_to_center():
    g = Grid(center=(2.0,), half_width=(1.0,), points_per_axis=(1,))
    assert np.allclose(g.axis_values(0), [2.0])


def test_sample_order_is_lexicographic_by_axis():
    g = Grid(center=(0.0, 0.0), half_width=1.0, points_per_axis=2)
    pts = [tuple(p.coords) for p in g.sample()]
    assert pts == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_grid_broadcasting_and_validation():
    g = Grid(center=(0.0, 0.0, 0.0), half_width=0.5, points_per_axis=3)
    assert g.half_width == (0.5, 0.5, 0.5)
    assert len(g.sample()) == 27
    with pytest.raises(ValueError):
        Grid(center=(0.0, 0.0), half_width=(1.0, 1.0, 1.0), points_per_axis=2)
    with pytest.raises(ValueError):
        Grid(center=(0.0,), half_width=-1.0, points_per_axis=2)
    with pytest.raises(ValueError):
        Grid(center=(0.0,), half_width=1.0, points_per_axis=0)


@pytest.mark.parametrize("center, half_width", [
    ((math.nan, 0.0), 1.0), ((0.0, math.inf), 1.0), ((0.0, -math.inf), 1.0),
    ((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf), ((0.0, 0.0), (1.0, math.nan)),
    # finite inputs whose box width, or an end, overflows
    ((0.0, 0.0), 1e308), ((1e308, 0.0), 1e308), ((-1e308, 0.0), (1e308, 1.0)),
])
def test_grid_rejects_non_finite_center_and_half_width(center, half_width):
    with pytest.raises(ValueError, match="finite"):
        Grid(center=center, half_width=half_width, points_per_axis=2)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_grid_points_lie_in_box(dim, per_axis, hw):
    center = tuple(float(i) for i in range(dim))
    g = Grid(center=center, half_width=hw, points_per_axis=per_axis)
    pts = g.sample()
    assert len(pts) == per_axis ** dim
    for p in pts:
        assert np.all(np.abs(p.coords - np.array(center)) <= hw + 1e-12)
    # deterministic ordering
    again = [tuple(p.coords) for p in g.sample()]
    assert again == [tuple(p.coords) for p in pts]
