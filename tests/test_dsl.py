import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poisson_ortho import dsl
from poisson_ortho.dsl import (
    BinOp, Call, Lit, Neg, Pi, Pow, Var,
    differentiate, evaluate, expr_field, fold, gradient_field, parse,
    scalar_field, to_text, variables_used,
)
from poisson_ortho.errors import ExprDomainError, ExprSyntaxError
from poisson_ortho.geometry import DerivativeScheme, partial_derivative


def pt(*coords):
    """A batch of one point: the (1, dim) coordinate array."""
    return np.array([coords], dtype=float)


# ---------------------------------------------------------------------------
# parsing

def test_parse_sum_of_products_structure():
    e = parse("x1+2*x2")
    assert e == BinOp("+", Var(0), BinOp("*", Lit(2.0), Var(1)))


def test_precedence_unary_minus_binds_looser_than_power():
    assert parse("-x1^2") == Neg(Pow(Var(0), 2))


def test_precedence_unary_minus_binds_tighter_than_product():
    assert parse("-x1*x2") == BinOp("*", Neg(Var(0)), Var(1))


def test_left_associative_subtraction():
    e = parse("x1-x2-x3")
    assert e == BinOp("-", BinOp("-", Var(0), Var(1)), Var(2))


def test_power_chain_is_right_associative():
    # 2^3^2 = 2^(3^2): the exponent chain folds before attaching to the base
    assert parse("x1^2^3") == Pow(Var(0), 8)
    assert evaluate(parse("2^3^2"), pt())[0] == 512.0


def test_negative_integer_exponents():
    assert parse("x1^-2") == Pow(Var(0), -2)
    assert parse("x1^(-2)") == Pow(Var(0), -2)


def test_parse_pi_and_functions():
    e = parse("sin(pi*x1)")
    assert e == Call("sin", BinOp("*", Pi(), Var(0)))


def test_parse_number_forms():
    assert parse("2") == Lit(2.0)
    assert parse("0.5") == Lit(0.5)
    assert parse(".5") == Lit(0.5)
    assert parse("1e-3") == Lit(1e-3)
    assert parse("2.5E2") == Lit(250.0)


def test_parens_override_precedence():
    assert parse("(x1+x2)*x3") == BinOp("*", BinOp("+", Var(0), Var(1)), Var(2))


@pytest.mark.parametrize("source, offset", [
    ("x1 + )", 5),
    ("@", 0),
    ("x1 x2", 3),
    ("sin 3", 4),
    ("x1^0.5", 3),
    ("x1^x2", 3),
    ("(x1", 3),
    ("x1 +", 4),
    ("x1 + 1e999", 5),  # a literal past the float range
])
def test_syntax_error_offsets(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(source)
    assert err.value.offset == offset


def test_unknown_identifier_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("y + 1")
    with pytest.raises(ExprSyntaxError):
        parse("tan(x1)")


def test_zero_indexed_variable_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x0")


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_basics():
    assert evaluate(parse("1+2*3"), pt())[0] == 7.0
    assert evaluate(parse("x1*x2"), pt(3.0, 4.0))[0] == 12.0
    assert evaluate(parse("pi"), pt())[0] == math.pi
    assert evaluate(parse("x2^-1"), pt(0.0, 4.0))[0] == 0.25


def test_evaluate_atan_saturates_far_from_origin():
    # (1/pi)*atan approaches 1/2 for large argument
    value = evaluate(parse("(1/pi)*atan(x2)"), pt(0.0, 1e12))[0]
    assert abs(value - 0.5) < 1e-9


def test_division_by_zero_raises_domain_error():
    with pytest.raises(ExprDomainError) as err:
        evaluate(parse("1/(x1-1)"), pt(1.0))
    assert "division by zero" in str(err.value)


def test_sqrt_of_negative_raises_domain_error():
    with pytest.raises(ExprDomainError):
        evaluate(parse("sqrt(x1)"), pt(-2.0))


def test_zero_to_negative_power_raises_domain_error():
    with pytest.raises(ExprDomainError):
        evaluate(parse("x1^-2"), pt(0.0))


@pytest.mark.parametrize("func", ["sin", "cos", "exp", "atan", "sqrt"])
def test_non_finite_function_argument_raises_domain_error(func):
    # math.sin(inf) raises a bare ValueError and atan(inf) returns pi/2
    with pytest.raises(ExprDomainError, match=f"non-finite argument to {func}") as err:
        evaluate(parse(f"1 + {func}(1e200*1e200)"), pt())
    assert err.value.where == f"{func}(1e+200*1e+200)"


def test_variable_beyond_chart_dimension_raises():
    with pytest.raises(ExprDomainError):
        evaluate(parse("x5"), pt(1.0, 2.0))


# ---------------------------------------------------------------------------
# differentiation

def test_differentiate_atan_quotient():
    df = differentiate(parse("(1/pi)*atan(x2)"), 1)
    got = evaluate(df, pt(0.0, 0.0))[0]
    assert got == pytest.approx(1.0 / math.pi, abs=1e-15)
    got_at_1 = evaluate(df, pt(0.0, 1.0))[0]
    assert got_at_1 == pytest.approx(1.0 / (math.pi * 2.0), abs=1e-15)


def test_differentiate_product_rule():
    df = differentiate(parse("x1*sin(x1)"), 0)
    x = 0.7
    assert evaluate(df, pt(x))[0] == pytest.approx(math.sin(x) + x * math.cos(x), abs=1e-14)


def test_differentiate_quotient_rule():
    df = differentiate(parse("x1/x2"), 1)
    assert evaluate(df, pt(3.0, 2.0))[0] == pytest.approx(-3.0 / 4.0, abs=1e-14)


def test_differentiate_sqrt_and_exp():
    assert evaluate(differentiate(parse("sqrt(x1)"), 0), pt(4.0))[0] == pytest.approx(0.25)
    assert evaluate(differentiate(parse("exp(2*x1)"), 0), pt(0.5))[0] == pytest.approx(
        2.0 * math.exp(1.0), abs=1e-12)


def test_differentiate_negative_power():
    df = differentiate(parse("x1^-2"), 0)
    assert evaluate(df, pt(2.0))[0] == pytest.approx(-2.0 / 8.0, abs=1e-14)


def test_differentiate_unrelated_axis_is_zero():
    df = differentiate(parse("sin(x1)*exp(x1)"), 2)
    assert evaluate(df, pt(0.3, 0.0, 0.0))[0] == 0.0


def test_derivative_output_stays_in_language():
    # closure under differentiation: result is an AST that prints and reparses
    e = parse("sqrt(1+x1^2)*atan(x2/(1+x1))")
    for axis in (0, 1):
        d = differentiate(e, axis)
        assert parse(to_text(d)) == d


# ---------------------------------------------------------------------------
# folding

def test_fold_constant_subtree():
    assert fold(parse("2*3+x1")) == BinOp("+", Lit(6.0), Var(0))


def test_fold_keeps_nonconstant_structure():
    e = parse("x1*(2+3)")
    assert fold(e) == BinOp("*", Var(0), Lit(5.0))


def test_fold_pi_products():
    assert fold(parse("2*pi")) == Lit(2.0 * math.pi)
    assert fold(parse("pi")) == Pi()


def test_fold_preserves_division_by_zero_fault():
    e = parse("1/0")
    folded = fold(e)
    with pytest.raises(ExprDomainError):
        evaluate(folded, pt())


def test_fold_keeps_overflowing_power():
    # 1e-200 ** -2 leaves the float range: the node stays a Pow, and
    # evaluating it reports the overflow as a domain error
    folded = fold(parse("(1e-200)^-2"))
    assert folded == Pow(Lit(1e-200), -2)
    with pytest.raises(ExprDomainError):
        evaluate(folded, pt())
    assert fold(parse("(1e-200)^-1")) == Lit(1e200)
    # differentiating a constant power folds 1e-200 ** -2 on the way
    assert evaluate(differentiate(Pow(Lit(1e-200), -1), 0), pt())[0] == 0.0


# products and quotients of literals that leave the float range stay
# unfolded, so the folded form still prints as text the parser accepts
OVERFLOWING_CONSTANTS = ["1e200*1e200", "1e300/1e-300"]


@pytest.mark.parametrize("source", OVERFLOWING_CONSTANTS)
def test_fold_keeps_overflowing_constant_operations(source):
    e = parse(source)
    folded = fold(e)
    assert folded == e
    assert parse(to_text(folded)) == e
    with pytest.raises(ExprDomainError, match="not finite"):
        evaluate(folded, pt())


# ---------------------------------------------------------------------------
# printing round trips

ROUND_TRIP_SOURCES = [
    "x1", "pi", "2.5", "-x1", "--x1", "x1+x2+x3", "x1-(x2-x3)",
    "x1/x2/x3", "x1/(x2/x3)", "(-x1)^2", "-x1^2", "sin(x1)^2+cos(x1)^2",
    "x1^-3*x2", "(x1+x2)^2", "exp(-x1^2/2)", "1/(1+x2^2)",
    "sqrt(x1^2+x2^2)", "atan(x2)/pi", "x1*-x2",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_round_trip_fixed_cases(source):
    e = parse(source)
    assert parse(to_text(e)) == e


def _exprs(max_axis=3):
    # raw-node generator mirroring what the parser can produce: literals are
    # non-negative, exponents are integers
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(lambda v: Lit(float(v))),
        st.just(Pi()),
        st.integers(0, max_axis - 1).map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            st.tuples(children, st.integers(-4, 4)).map(lambda t: Pow(t[0], t[1])),
            st.tuples(st.sampled_from(dsl.FUNCTIONS), children).map(
                lambda t: Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs())
@example(fold(parse(OVERFLOWING_CONSTANTS[0])))
@example(fold(parse(OVERFLOWING_CONSTANTS[1])))
@example(fold(parse("-1*0")))  # folds to 0.0, not -0.0, which prints as Neg
def test_round_trip_random_asts(e):
    assert parse(to_text(e)) == e


# ---------------------------------------------------------------------------
# symbolic derivative vs stencil

@settings(max_examples=60, deadline=None)
@given(_exprs(max_axis=2), st.integers(0, 1))
@example(Pow(Lit(1.66e-285), -1), 0)  # folding 1.66e-285 ** -2 overflows
def test_symbolic_derivative_matches_coarse_stencil(e, axis):
    # tolerance = truncation term (10*step^4, tame 5th derivative assumed)
    # plus a cancellation-roundoff term eps*|f|/step for huge function values
    from hypothesis import assume

    coords = pt(0.4, 0.7)
    step = 0.05
    try:
        exact = evaluate(differentiate(e, axis), coords)[0]
        d5 = e
        for _ in range(5):
            d5 = differentiate(d5, axis)
        fifth = evaluate(d5, coords)[0]
        values = [evaluate(e, coords + np.eye(2)[axis] * t)[0]
                  for t in (-2 * step, -step, step, 2 * step)]
    except ExprDomainError:
        assume(False)
        return
    assume(abs(exact) < 1e3 and abs(fifth) <= 300.0 * max(1.0, abs(exact)))
    stencil = (values[0] - 8 * values[1] + 8 * values[2] - values[3]) / (12 * step)
    tol = (10.0 * step ** 4 * max(1.0, abs(exact))
           + 100.0 * np.finfo(float).eps * max(map(abs, values)) / step)
    assert abs(stencil - exact) <= tol


# ---------------------------------------------------------------------------
# misc helpers and fields

def test_variables_used():
    assert variables_used(parse("x1*sin(x3)+pi")) == {0, 2}


def test_expr_field_evaluate_and_exact_partial():
    f = expr_field(2, "u", ["x1^2", "x1*x2"])
    p = pt(3.0, 5.0)
    assert np.allclose(f.components(p)[0], [9.0, 15.0])
    d0 = partial_derivative(f, p, 0)[0]
    assert np.allclose(d0, [6.0, 5.0])


def test_expr_field_shape_validation():
    with pytest.raises(ValueError):
        expr_field(3, "u", ["x1", "x2"])


def test_expr_field_rejects_variable_beyond_dimension():
    with pytest.raises(ValueError):
        expr_field(2, "", "x3")


def test_scalar_field_roundtrip_evaluation():
    f = scalar_field("exp(x1)*cos(x2)", 2)
    p = pt(0.5, 1.0)
    assert f.components(p)[0] == pytest.approx(math.exp(0.5) * math.cos(1.0))


def test_gradient_field_symbolic_path():
    f = scalar_field("x1^2+x2^2+x3^2", 3)
    grad = gradient_field(f)
    p = pt(1.0, -2.0, 0.5)
    assert np.allclose(grad.components(p)[0], [2.0, -4.0, 1.0])
    assert grad.has_exact_derivative
    # second derivatives through the gradient's own partial hook
    d0 = partial_derivative(grad, p, 0)[0]
    assert np.allclose(d0, [2.0, 0.0, 0.0])


def test_gradient_field_fd_path():
    scheme = DerivativeScheme(kind="central-4th-order")
    f = scalar_field("sin(x1)*x2", 2)
    grad = gradient_field(f, scheme)
    p = pt(0.3, 2.0)
    expect = np.array([math.cos(0.3) * 2.0, math.sin(0.3)])
    assert np.allclose(grad.components(p)[0], expect, atol=1e-9)
