"""Exact first-derivative jets of the context's composed fields.

Under the symbolic scheme the projected frames h xi_i and v xi_i, the
raised Casimir gradients and the bivector columns carry exact partials
(product rule on h = Xi G^-1 Omega, d(g^-1 w) = g^-1 (dw - (dg) g^-1 w),
and the bivector's own partials). Each must agree with a 4th-order central
stencil of the same field.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ortho import dsl
from poisson_ortho.context import ChartContext
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, TensorField, jacobian
from poisson_ortho.metric import MetricField
from poisson_ortho.poisson import PoissonStructure
from random_metrics import random_atom, random_metric_entries

FD4 = DerivativeScheme(kind=CENTRAL_4)
# stencil rounding is about eps / step = 1e-11 relative; a wrong jet term is
# of the order of the metric's variation, 1e-2 and more
JET_RTOL = 1e-7


def _structure(rng) -> PoissonStructure:
    """x1, x2 Casimirs with non-constant coframe scales, and the bivector
    f(x) d3 ^ d4 as a plain field with an exact-derivative hook, so its
    columns vary and take the hook path."""
    f = f"1 + {rng.uniform(0.1, 0.3):.3f}*({random_atom(rng)})"
    expr = dsl.expr_field(4, "uu", [["0", "0", "0", "0"],
                                    ["0", "0", "0", "0"],
                                    ["0", "0", "0", f],
                                    ["0", "0", f"-({f})", "0"]])
    bivector = TensorField(4, "uu", expr.components, partial=expr.partial_field)
    scales = [f"1 + {rng.uniform(0.05, 0.2):.3f}*({random_atom(rng)})"
              for _ in range(2)]
    return PoissonStructure(
        bivector=bivector,
        casimirs=[dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        expected_rank=2, coframe_scales=scales)


def _assert_jet_matches_stencil(field, q, what):
    assert field.has_exact_derivative, what
    exact = jacobian(field, q)
    stencil = jacobian(field, q, FD4)
    scale = max(1.0, float(np.max(np.abs(stencil))))
    assert np.max(np.abs(exact - stencil)) <= JET_RTOL * scale, what


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_exact_jets_match_central_stencil(seed, coords):
    rng = np.random.default_rng(seed)
    metric = MetricField.from_entries(
        4, random_metric_entries(rng, transversal_leaf=True))
    ctx = ChartContext(_structure(rng), metric)
    q = np.array(coords)
    for i in range(ctx.codim):
        for which in ("h", "v"):
            _assert_jet_matches_stencil(ctx.projected_frame_field(i, which), q,
                                        f"{which} xi_{i}")
        _assert_jet_matches_stencil(ctx.casimir_sharp_field(i), q,
                                    f"raised gradient of casimir {i}")
    for col in (2, 3):
        _assert_jet_matches_stencil(ctx.bivector_column_field(col), q,
                                    f"bivector column {col}")
