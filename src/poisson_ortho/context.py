"""Shared per-chart evaluation context with batch memoization.

The integrability conditions all consume the same handful of objects
(bivector, metric and its inverse, connection coefficients, the
orthogonal coframe/frame and their derivatives, projectors). They are
evaluated over a whole batch of points at once, an (n, dim) coordinate
array. The context is the single owner of every value of a batch: it
builds g, g^-1, the partials of g, the frame and the projectors once per
batch, keyed by the batch's coordinates, and the metric functions take
them as arrays.

The derivative scheme decides one thing only: how the partials of the
input fields are obtained, that is of g, P, each Casimir gradient and each
coframe scale. Under ``symbolic`` an expression or constant input is
differentiated exactly; under the ``central-*`` schemes, or for a plain
numeric field, the input is differenced by one stencil over the batch,
which is one evaluation of the input over the stacked shifted copies of
the batch. A Casimir gradient is then itself a stencil of its Casimir, so
its partials, the Casimir Hessian, are a stencil of a stencil.
The context keeps those partials once per batch and builds every other
derivative from them by the product rule:

* the coframe omega^i = s_i dc^i and its partials
  d(s_i dc^i) = ds_i (x) dc^i + s_i d(dc^i), from the Casimir gradients and
  Hessians and the scales s_i (omega^i = dc^i when there are none);
* the frame xi_i = g^-1 omega^i and the raised Casimir gradients, by
  d(g^-1 w) = g^-1 (dw - (dg) g^-1 w);
* the projected frames h xi_i and v xi_i, by the product rule on
  h = Xi G^-1 Omega with G = Omega Xi the frame gram matrix;
* the bivector columns, as slices of dP;
* nabla omega, nabla P and the Laplacian, from these;
* the frame brackets [A xi_i, B xi_j] with A, B in {1, h, v}, from the
  values and jets of their two arguments by ``geometry.lie_bracket``.

Every composite derivative is thus an array cached once per batch.

The jets read only g, g^-1, dg, the coframe, the frame and their
partials, never the Christoffel symbols or nabla omega, so the
coframe-derivative route stays independent of the bracket routes. The
projected frames go through dh even though h xi = xi, so an error in the
projector still shows up as a disagreement between the conditions. A
check therefore evaluates one batch, the grid, under every scheme. The
projectors are built from the orthogonal frame, which varies smoothly
with the point; a column-pivoted leaf basis of P gives the same operator,
but its pivot choice can jump between neighbouring points.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .geometry import DEFAULT_SCHEME, DerivativeScheme, jacobian, lie_bracket, matvec
from .metric import (
    Christoffel, MetricField, christoffel, covariant_derivative_bivector,
    covariant_derivative_oneform, inverse_metric, laplacian,
    lie_derivative_metric,
)
from .poisson import PoissonStructure, _scale_field, check_gram_nondegenerate


def _rows(fields, q) -> np.ndarray:
    """Fields evaluated as rows: (..., k, dim) for one-forms, (..., k) for
    scalars."""
    return np.stack([w.components(q) for w in fields], axis=1)


def _row_partials(fields, q, scheme) -> np.ndarray:
    """Partials of fields as rows: d_l w^i_s of one-forms as [..., l, i, s],
    d_l s_i of scalars as [..., l, i]."""
    return np.stack([jacobian(w, q, scheme) for w in fields], axis=2)


class ChartContext:
    """Bundles a Poisson structure and metric over one chart.

    ``gradients`` are the input one-form fields, the Casimir gradients dc^i,
    and ``scales`` the scalar fields s_i of the coframe omega^i = s_i dc^i
    (None when the structure has no coframe scales, and then
    omega^i = dc^i). The coframe is no field of its own: its values and
    partials are built from those of the gradients and scales by the
    product rule, so each Casimir is differentiated once per batch.
    Values should be read through the ``*_at`` accessors, which
    memoize per batch. Each accessor takes an (n, dim) coordinate array and
    gives arrays with a leading point axis.
    """

    def __init__(self, structure: PoissonStructure, metric: MetricField,
                 scheme: DerivativeScheme = DEFAULT_SCHEME):
        if structure.dim != metric.dim:
            raise ValueError(
                f"bivector dimension {structure.dim} != metric dimension {metric.dim}")
        self.structure = structure
        self.metric = metric
        self.scheme = scheme
        self.dim = structure.dim
        self.codim = structure.codim
        self._batches: dict = {}
        self.gradients = [dsl.gradient_field(c, scheme) for c in structure.casimirs]
        self.scales = (None if structure.coframe_scales is None
                       else [_scale_field(s, self.dim) for s in structure.coframe_scales])

    def _cached(self, tag, q, build):
        values = self._batches.setdefault(q.tobytes(), {})
        value = values.get(tag)
        if value is None:
            value = values[tag] = build(q)
        return value

    # -- inputs and their partials: the only derivatives a scheme takes --

    def bivector_at(self, p) -> np.ndarray:
        return self._cached("P", p, self.structure.bivector.components)

    def bivector_jacobian_at(self, p) -> np.ndarray:
        """d_l P^{ts} as [..., l, t, s]; column c's partials are [..., c]."""
        return self._cached(
            "dP", p, lambda q: jacobian(self.structure.bivector, q, self.scheme))

    def metric_at(self, p) -> np.ndarray:
        return self._cached("g", p, self.metric.components)

    def metric_inv_at(self, p) -> np.ndarray:
        return self._cached("ginv", p, lambda q: inverse_metric(self.metric, q))

    def metric_jacobian_at(self, p) -> np.ndarray:
        """d_l g_{ab} as [..., l, a, b]."""
        return self._cached(
            "dg", p, lambda q: jacobian(self.metric.field, q, self.scheme))

    def gradient_at(self, p) -> np.ndarray:
        """Casimir gradient rows dc^i, (..., codim, dim): the coframe
        without its scales."""
        return self._cached("gradient", p, lambda q: _rows(self.gradients, q))

    def gradient_jacobian_at(self, p) -> np.ndarray:
        """Casimir Hessians d_l (dc^i)_s as [..., l, i, s]."""
        return self._cached(
            "dgradient", p, lambda q: _row_partials(self.gradients, q, self.scheme))

    def _scale_at(self, q) -> np.ndarray:
        """Coframe scales s_i as (..., codim)."""
        return self._cached("scale", q, lambda q: _rows(self.scales, q))

    def _scale_jacobian_at(self, q) -> np.ndarray:
        """d_l s_i as [..., l, i]."""
        return self._cached(
            "dscale", q, lambda q: _row_partials(self.scales, q, self.scheme))

    def coframe_at(self, p) -> np.ndarray:
        """Coframe rows omega^i = s_i dc^i, shape (..., codim, dim)."""
        if self.scales is None:
            return self.gradient_at(p)
        return self._cached(
            "coframe", p, lambda q: self._scale_at(q)[..., None] * self.gradient_at(q))

    def coframe_jacobian_at(self, p) -> np.ndarray:
        """d_l omega^i_s as [..., l, i, s]: ds_i (x) dc^i + s_i d(dc^i)."""
        if self.scales is None:
            return self.gradient_jacobian_at(p)
        return self._cached(
            "dcoframe", p,
            lambda q: (self._scale_jacobian_at(q)[..., None] * self.gradient_at(q)[:, None]
                       + self._scale_at(q)[:, None, :, None] * self.gradient_jacobian_at(q)))

    def christoffel_at(self, p) -> Christoffel:
        return self._cached(
            "gamma", p,
            lambda q: christoffel(self.metric_inv_at(q), self.metric_jacobian_at(q)))

    # -- frame ----------------------------------------------------------

    def frame_at(self, p) -> np.ndarray:
        """Frame vectors as columns, shape (..., dim, codim): raised coframe rows."""
        return self._cached(
            "frame", p,
            lambda q: self.metric_inv_at(q) @ self.coframe_at(q).swapaxes(1, 2))

    def gram_at(self, p) -> np.ndarray:
        return self._cached(
            "gram", p, lambda q: self.coframe_at(q) @ self.frame_at(q))

    def gram_inv_at(self, p) -> np.ndarray:
        def build(q):
            gram = self.gram_at(q)
            check_gram_nondegenerate(gram, q)
            return np.linalg.inv(gram)
        return self._cached("gram_inv", p, build)

    def _raised_jet(self, dw, raised, q) -> np.ndarray:
        """d_l (g^-1 w) = g^-1 (d_l w - (d_l g) g^-1 w) for covectors w
        stacked as columns: dw [..., l, s, i] and raised = g^-1 w [..., m, i]
        give [..., l, m, i]."""
        return self.metric_inv_at(q)[:, None] @ (
            dw - self.metric_jacobian_at(q) @ raised[:, None])

    def _frame_jet(self, q) -> np.ndarray:
        """d_l xi_i^m as [..., l, m, i] from the partials of g and omega."""
        return self._cached(
            "frame_jet", q,
            lambda q: self._raised_jet(self.coframe_jacobian_at(q).swapaxes(-1, -2),
                                       self.frame_at(q), q))

    def frame_jacobian(self, i: int, p) -> np.ndarray:
        """d_l xi_i^mu as [..., l, mu]."""
        return self._frame_jet(p)[..., i]

    def nabla_coframe(self, i: int, p) -> np.ndarray:
        """(nabla_l omega^i)_s as [..., l, s]."""
        return self._cached(
            ("nabla_omega", i), p,
            lambda q: covariant_derivative_oneform(
                self.coframe_at(q)[:, i], self.coframe_jacobian_at(q)[:, :, i],
                self.christoffel_at(q)))

    def nabla_bivector(self, p) -> np.ndarray:
        """(nabla_l P)^{ts} as [..., l, t, s]."""
        return self._cached(
            "nabla_P", p,
            lambda q: covariant_derivative_bivector(
                self.bivector_at(q), self.bivector_jacobian_at(q),
                self.christoffel_at(q)))

    # -- projectors -----------------------------------------------------

    def projector_h(self, p) -> np.ndarray:
        """g-orthogonal projector onto the orthogonal distribution."""
        return self._cached(
            "h", p,
            lambda q: self.frame_at(q) @ self.gram_inv_at(q) @ self.coframe_at(q))

    def projector_v(self, p) -> np.ndarray:
        """g-orthogonal projector onto the leaf tangent (complement of h)."""
        return self._cached(
            "v", p, lambda q: np.eye(self.dim) - self.projector_h(q))

    def _projector_jet(self, q) -> np.ndarray:
        """d_l h as [..., l, m, n] by the product rule on h = Xi G^-1 Omega:
        dG = (d Omega) Xi + Omega d Xi and d(G^-1) = -G^-1 (dG) G^-1."""
        def build(q):
            coframe = self.coframe_at(q)[:, None]
            frame = self.frame_at(q)[:, None]
            gram_inv = self.gram_inv_at(q)[:, None]
            dcoframe = self.coframe_jacobian_at(q)
            dframe = self._frame_jet(q)
            dgram_inv = -gram_inv @ (dcoframe @ frame + coframe @ dframe) @ gram_inv
            return (dframe @ gram_inv @ coframe + frame @ dgram_inv @ coframe
                    + frame @ gram_inv @ dcoframe)
        return self._cached("dh", q, build)

    def _projected_frame_jet(self, which: str, q) -> np.ndarray:
        """d_l (A xi_i)^m as [..., l, m, i] for A = h or v:
        d(h xi) = (dh) xi + h d xi and d(v xi) = d xi - d(h xi)."""
        def build(q):
            dframe = self._frame_jet(q)
            dh_frame = (self._projector_jet(q) @ self.frame_at(q)[:, None]
                        + self.projector_h(q)[:, None] @ dframe)
            return dh_frame if which == "h" else dframe - dh_frame
        return self._cached(("projected_frame_jet", which), q, build)

    # -- frame brackets -------------------------------------------------

    def _frame_variant(self, i: int, mode: str, q):
        """(A xi_i, d(A xi_i)) for A = identity, h or v by mode: the values
        (..., m) and the jet [..., l, m] a bracket consumes."""
        if mode == "plain":
            return self.frame_at(q)[..., i], self._frame_jet(q)[..., i]
        matrix_at = {"h": self.projector_h, "v": self.projector_v}[mode]
        return (matvec(matrix_at(q), self.frame_at(q)[..., i]),
                self._projected_frame_jet(mode, q)[..., i])

    def frame_bracket(self, i: int, j: int, mode_i: str, mode_j: str, p) -> np.ndarray:
        """[A xi_i, B xi_j] at each row of p with A, B in {identity, h, v} by
        mode, from the values and jets of both arguments."""
        return self._cached(
            ("bracket", i, j, mode_i, mode_j), p,
            lambda q: lie_bracket(*self._frame_variant(i, mode_i, q),
                                  *self._frame_variant(j, mode_j, q)))

    # -- second-order scalars on casimirs and frame ---------------------

    def casimir_sharp_at(self, p) -> np.ndarray:
        """Raised Casimir gradients g^-1 dc^i as columns, (..., dim, codim)."""
        return self._cached(
            "casimir_sharp", p,
            lambda q: self.metric_inv_at(q) @ self.gradient_at(q).swapaxes(1, 2))

    def casimir_sharp_jacobian_at(self, p) -> np.ndarray:
        """d_l (g^-1 dc^i)^m as [..., l, m, i]."""
        return self._cached(
            "casimir_sharp_jet", p,
            lambda q: self._raised_jet(self.gradient_jacobian_at(q).swapaxes(-1, -2),
                                       self.casimir_sharp_at(q), q))

    def casimir_laplacian(self, idx: int, p):
        return self._cached(
            ("laplacian", idx), p,
            lambda q: laplacian(self.metric_at(q), self.metric_inv_at(q),
                                self.casimir_sharp_at(q)[..., idx],
                                self.casimir_sharp_jacobian_at(q)[..., idx],
                                self.christoffel_at(q)))

    def frame_metric_lie_derivative(self, i: int, p) -> np.ndarray:
        """(L_{xi_i} g)_{sl} at each row of p."""
        return self._cached(
            ("frame_lie_g", i), p,
            lambda q: lie_derivative_metric(
                self.metric_at(q), self.frame_at(q)[..., i],
                self.frame_jacobian(i, q), self.christoffel_at(q)))
