"""First-derivative jets of the context's composed fields.

The context differentiates only its input fields (g, P, the coframe and the
Casimir gradients) and builds every other first derivative from their
partials: the frame xi_i and the raised Casimir gradients by
d(g^-1 w) = g^-1 (dw - (dg) g^-1 w), the projected frames h xi_i and
v xi_i by the product rule on h = Xi G^-1 Omega, and the bivector columns
as slices of dP. Each jet must agree with a 4th-order central stencil of
the same composite's values, under ``symbolic`` (exact input partials) and
under ``central-4`` (stencilled input partials). The scaled coframe
s_i dc^i is built the same way, by the product rule on the scales and the
Casimir gradients and Hessians.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ortho import dsl
from poisson_ortho.context import ChartContext
from poisson_ortho.geometry import (
    CENTRAL_4, DEFAULT_SCHEME, DerivativeScheme, TensorField, jacobian,
)
from poisson_ortho.metric import MetricField
from poisson_ortho.poisson import PoissonStructure
from random_metrics import random_atom, random_metric_entries

FD4 = DerivativeScheme(kind=CENTRAL_4)
# stencil rounding is about eps / step = 1e-11 relative; a wrong jet term is
# of the order of the metric's variation, 1e-2 and more
JET_RTOL = 1e-7
# under central-4 the coframe's partials come from the Casimir Hessians, a
# stencil of the Casimirs' stencilled gradients. That nested stencil rounds at 1.5^2 eps / step^2
# = 5e-6 relative (1.5 is the sum of |weights| of each stencil), and the
# stencil of a composite carries the same noise. Linearity of the stencil
# makes the two cancel (measured below 1e-10 on 300 seeds), but the bound
# does not rely on it: it allows the noise of both sides, added
NESTED_RTOL = 2 * 1.5 ** 2 * np.finfo(float).eps / FD4.step ** 2


def _structure(rng) -> PoissonStructure:
    """Casimirs x1 + a x2^2 and x2 + b x1^2 with non-constant coframe
    scales, and the bivector f(x) d3 ^ d4 as a plain field with an
    exact-derivative hook, so the Casimir Hessians, the coframe and the
    bivector columns all vary."""
    f = f"1 + {rng.uniform(0.1, 0.3):.3f}*({random_atom(rng)})"
    expr = dsl.expr_field(4, "uu", [["0", "0", "0", "0"],
                                    ["0", "0", "0", "0"],
                                    ["0", "0", "0", f],
                                    ["0", "0", f"-({f})", "0"]])
    bivector = TensorField(4, "uu", expr.components, partial=expr.partial_field)
    casimirs = [f"x1 + {rng.uniform(0.1, 0.3):.3f}*x2^2",
                f"x2 + {rng.uniform(0.1, 0.3):.3f}*x1^2"]
    scales = [f"1 + {rng.uniform(0.05, 0.2):.3f}*({random_atom(rng)})"
              for _ in range(2)]
    return PoissonStructure(
        bivector=bivector,
        casimirs=[dsl.scalar_field(c, 4) for c in casimirs],
        expected_rank=2, coframe_scales=scales)


def _assert_jet_matches_stencil(value, jet, q, rtol, what):
    stencil = jacobian(TensorField(4, "u", value), q, FD4)
    scale = max(1.0, float(np.max(np.abs(stencil))))
    assert np.max(np.abs(jet - stencil)) <= rtol * scale, what


def _assert_jets_match(structure, metric, scheme, q, rtol):
    def at(q):
        """A context over q: the checked points or a stencil's shifted copies."""
        return ChartContext(structure, metric, q, scheme)

    ctx = at(q)
    for i in range(ctx.codim):
        # the values and jets a frame bracket consumes
        for mode, what in (("plain", f"xi_{i}"), ("h", f"h xi_{i}"), ("v", f"v xi_{i}")):
            _assert_jet_matches_stencil(
                lambda q, i=i, mode=mode: at(q)._frame_variant(i, mode)[0],
                ctx._frame_variant(i, mode)[1], q, rtol, what)
        _assert_jet_matches_stencil(
            lambda q, i=i: at(q).casimir_sharp_at()[..., i],
            ctx.casimir_sharp_jacobian_at()[..., i], q, rtol,
            f"raised gradient of casimir {i}")
    for col in (2, 3):
        _assert_jet_matches_stencil(
            lambda q, col=col: at(q).bivector_at()[..., col],
            ctx.bivector_jacobian_at()[..., col], q, rtol, f"bivector column {col}")


def _example(seed, coords):
    rng = np.random.default_rng(seed)
    metric = MetricField.from_entries(
        4, random_metric_entries(rng, transversal_leaf=True))
    return _structure(rng), metric, np.array(coords)


EXAMPLES = (st.integers(0, 2**32 - 1),
            st.lists(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
                     min_size=1, max_size=3))


@settings(max_examples=25, deadline=None)
@given(*EXAMPLES)
def test_exact_jets_match_central_stencil(seed, coords):
    structure, metric, q = _example(seed, coords)
    _assert_jets_match(structure, metric, DEFAULT_SCHEME, q, JET_RTOL)


@settings(max_examples=25, deadline=None)
@given(*EXAMPLES)
def test_stencilled_input_jets_match_central_stencil(seed, coords):
    structure, metric, q = _example(seed, coords)
    _assert_jets_match(structure, metric, FD4, q, NESTED_RTOL)


PRODUCT_SCALES = ("1 + x3^2/4", "2 - x1*x4/8")
# the product rule and the expression derivative of s dc may round differently
PRODUCT_RTOL = 1e-13


@settings(max_examples=25, deadline=None)
@given(*EXAMPLES)
def test_scaled_coframe_is_the_product_rule_on_its_scales(seed, coords):
    structure, metric, q = _example(seed, coords)
    structure = replace(structure, coframe_scales=list(PRODUCT_SCALES))
    scaled = [dsl.expr_field(4, "l", [dsl.mul(dsl.parse(s), dsl.differentiate(c.exprs[()], a))
                                      for a in range(4)])
              for s, c in zip(PRODUCT_SCALES, structure.casimirs)]
    want = np.stack([w.components(q) for w in scaled], axis=1)
    want_jacobian = np.stack([jacobian(w, q) for w in scaled], axis=2)
    for scheme, rtol in ((DEFAULT_SCHEME, PRODUCT_RTOL), (FD4, NESTED_RTOL)):
        ctx = ChartContext(structure, metric, q, scheme)
        for what, got, expected in (
                ("coframe", ctx.coframe_at(), want),
                ("coframe partials", ctx.coframe_jacobian_at(), want_jacobian)):
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= rtol * scale, (what, scheme.kind)
