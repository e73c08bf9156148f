"""Shared per-chart evaluation context with batch memoization.

The integrability conditions all consume the same handful of objects
(bivector, metric and its inverse, connection coefficients, the
orthogonal coframe/frame and their derivatives, projectors). They are
evaluated over a whole batch of points at once, an (n, dim) coordinate
array. The context is the single owner of every value of a batch: it
builds g, g^-1, the partials of g, the frame and the projectors once per
batch, keyed by the batch's coordinates, and the metric functions take
them as arrays.

Under the ``symbolic`` scheme, when g and the coframe are expressions,
every field the conditions differentiate carries exact first derivatives:

* the frame xi_i = g^-1 omega^i and the raised Casimir gradients, by
  d(g^-1 w) = g^-1 (dw - (dg) g^-1 w);
* the projected frames h xi_i and v xi_i, by the product rule on
  h = Xi G^-1 Omega with G = Omega Xi the frame gram matrix;
* the bivector columns, from the bivector's own partials.

These jets read only g, g^-1, dg, the coframe, the frame and their
partials, never the Christoffel symbols or nabla omega, so the
coframe-derivative route stays independent of the bracket routes. The
projected frames go through dh even though h xi = xi, so an error in the
projector still shows up as a disagreement between the conditions. A
symbolic check therefore evaluates one batch, the grid. Otherwise (the
``central-*`` schemes, or a metric or coframe that is not an expression)
the fields are differenced, and each stencil-shifted copy of the grid is
one more batch whose values are cached the same way. The projectors are
built from the orthogonal frame, which varies smoothly with the point;
a column-pivoted leaf basis of P gives the same operator, but its pivot
choice can jump between neighbouring stencil points.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .geometry import (
    DEFAULT_SCHEME, DerivativeScheme, TensorField, jacobian, lie_bracket, matvec,
)
from .metric import (
    Christoffel, MetricField, christoffel, covariant_derivative_bivector,
    covariant_derivative_oneform, inverse_metric, laplacian,
    lie_derivative_metric, sharp_field,
)
from .poisson import (
    PoissonStructure, check_gram_nondegenerate, coframe_fields,
)


class ChartContext:
    """Bundles a Poisson structure and metric over one chart.

    ``coframe`` and ``frame`` keep the underlying fields (including any
    exact-derivative backing); values should be read through the ``*_at``
    accessors, which memoize per batch. Each accessor takes an (n, dim)
    coordinate array and gives arrays with a leading point axis.
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
        self._fields: dict = {}
        self.coframe = coframe_fields(structure, scheme)
        self.frame = [sharp_field(metric, w) for w in self.coframe]
        # a numerically raised coframe reads frame_at instead, so every
        # stencil over a shifted grid shares one frame evaluation; under
        # symbolic, with exact g and coframe, it is differentiated by _frame_jet
        exact = (metric.field.has_exact_derivative
                 and all(w.has_exact_derivative for w in self.coframe))
        for i, f in enumerate(self.frame):
            if not isinstance(f, dsl.ExprTensorField):
                self.frame[i] = self._batch_field(
                    lambda q, i=i: self.frame_at(q)[..., i],
                    (lambda q, i=i: self._frame_jet(q)[..., i]) if exact else None)
        # the projected-frame jets differentiate every coframe and frame field
        self._exact_frames = all(f.has_exact_derivative
                                 for f in self.coframe + self.frame)

    def _cached(self, tag, q, build):
        values = self._batches.setdefault(q.tobytes(), {})
        value = values.get(tag)
        if value is None:
            value = values[tag] = build(q)
        return value

    def _field(self, key, build):
        f = self._fields.get(key)
        if f is None:
            f = build()
            self._fields[key] = f
        return f

    def _batch_field(self, value, jet=None) -> TensorField:
        """A vector field with values ``value(q)``.

        ``jet`` maps a batch to the exact partials [..., l, m], read from
        the batch cache, and becomes the field's derivative hook; without
        it the field is differenced.
        """
        partial = None
        if jet is not None:
            def partial(axis):
                return TensorField(self.dim, "u", lambda q: jet(q)[:, axis])
        return TensorField(self.dim, "u", value, partial=partial)

    # -- raw objects ----------------------------------------------------

    def bivector_at(self, p) -> np.ndarray:
        return self._cached("P", p, self.structure.bivector.components)

    def bivector_jacobian_at(self, p) -> np.ndarray:
        """d_l P^{ts} as [..., l, t, s]."""
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

    def christoffel_at(self, p) -> Christoffel:
        return self._cached(
            "gamma", p,
            lambda q: christoffel(self.metric_inv_at(q), self.metric_jacobian_at(q)))

    # -- frame ----------------------------------------------------------

    def coframe_at(self, p) -> np.ndarray:
        """Coframe rows, shape (..., codim, dim)."""
        return self._cached(
            "coframe", p,
            lambda q: np.stack([w.components(q) for w in self.coframe], axis=1))

    def coframe_jacobian_at(self, p) -> np.ndarray:
        """d_l omega^i_s as [..., l, i, s]."""
        return self._cached(
            "dcoframe", p,
            lambda q: np.stack([jacobian(w, q, self.scheme) for w in self.coframe],
                               axis=2))

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
        """Exact d_l (g^-1 w) = g^-1 (d_l w - (d_l g) g^-1 w) for covectors w
        stacked as columns: dw [..., l, s, i] and raised = g^-1 w [..., m, i]
        give [..., l, m, i]."""
        return self.metric_inv_at(q)[:, None] @ (
            dw - self.metric_jacobian_at(q) @ raised[:, None])

    def _frame_jet(self, q) -> np.ndarray:
        """Exact d_l xi_i^m as [..., l, m, i] from the partials of g and omega."""
        return self._cached(
            "frame_jet", q,
            lambda q: self._raised_jet(self.coframe_jacobian_at(q).swapaxes(-1, -2),
                                       self.frame_at(q), q))

    def frame_jacobian(self, i: int, p) -> np.ndarray:
        """d_l xi_i^mu as [..., l, mu]."""
        return self._cached(
            ("dframe", i), p, lambda q: jacobian(self.frame[i], q, self.scheme))

    def nabla_coframe(self, i: int, p) -> np.ndarray:
        """(nabla_l omega^i)_s as [..., l, s]."""
        return self._cached(
            ("nabla_omega", i), p,
            lambda q: covariant_derivative_oneform(
                self.coframe[i], q, self.christoffel_at(q), self.scheme))

    def nabla_bivector(self, p) -> np.ndarray:
        """(nabla_l P)^{ts} as [..., l, t, s]."""
        return self._cached(
            "nabla_P", p,
            lambda q: covariant_derivative_bivector(
                self.structure.bivector, q, self.christoffel_at(q), self.scheme))

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

    def _frame_jacobians(self, q) -> np.ndarray:
        """d_l xi_i^m as [..., l, m, i]."""
        return self._cached(
            "dframes", q,
            lambda q: np.stack([self.frame_jacobian(i, q) for i in range(self.codim)],
                               axis=-1))

    def _projector_jet(self, q) -> np.ndarray:
        """Exact d_l h as [..., l, m, n] by the product rule on h = Xi G^-1 Omega:
        dG = (d Omega) Xi + Omega d Xi and d(G^-1) = -G^-1 (dG) G^-1."""
        def build(q):
            coframe = self.coframe_at(q)[:, None]
            frame = self.frame_at(q)[:, None]
            gram_inv = self.gram_inv_at(q)[:, None]
            dcoframe = self.coframe_jacobian_at(q)
            dframe = self._frame_jacobians(q)
            dgram_inv = -gram_inv @ (dcoframe @ frame + coframe @ dframe) @ gram_inv
            return (dframe @ gram_inv @ coframe + frame @ dgram_inv @ coframe
                    + frame @ gram_inv @ dcoframe)
        return self._cached("dh", q, build)

    def _projected_frame_jet(self, which: str, q) -> np.ndarray:
        """d_l (A xi_i)^m as [..., l, m, i] for A = h or v:
        d(h xi) = (dh) xi + h d xi and d(v xi) = d xi - d(h xi)."""
        def build(q):
            dframe = self._frame_jacobians(q)
            dh_frame = (self._projector_jet(q) @ self.frame_at(q)[:, None]
                        + self.projector_h(q)[:, None] @ dframe)
            return dh_frame if which == "h" else dframe - dh_frame
        return self._cached(("projected_frame_jet", which), q, build)

    # -- derived fields for bracket arguments ---------------------------

    def projected_frame_field(self, i: int, which: str) -> TensorField:
        """h xi_i or v xi_i by ``which``."""
        def build():
            matrix_at = {"h": self.projector_h, "v": self.projector_v}[which]
            return self._batch_field(
                lambda q: matvec(matrix_at(q), self.frame_at(q)[..., i]),
                (lambda q: self._projected_frame_jet(which, q)[..., i])
                if self._exact_frames else None)
        return self._field(("projected_frame", i, which), build)

    def _frame_variant(self, i: int, mode: str) -> TensorField:
        if mode == "plain":
            return self.frame[i]
        return self.projected_frame_field(i, mode)

    def frame_bracket(self, i: int, j: int, mode_i: str, mode_j: str, p) -> np.ndarray:
        """[A xi_i, B xi_j] at each row of p with A, B in {identity, h, v} by mode."""
        return self._cached(
            ("bracket", i, j, mode_i, mode_j), p,
            lambda q: lie_bracket(self._frame_variant(i, mode_i),
                                  self._frame_variant(j, mode_j),
                                  q, self.scheme))

    # -- leaf-tangent column fields -------------------------------------

    def bivector_column_field(self, col: int) -> TensorField:
        """The bivector's column ``col`` as a vector field (leaf tangent)."""
        def build():
            biv = self.structure.bivector
            if isinstance(biv, dsl.ExprTensorField):
                return dsl.expr_field(
                    self.dim, "u", [biv.exprs[(mu, col)] for mu in range(self.dim)])
            return self._batch_field(
                lambda q: self.bivector_at(q)[..., col],
                (lambda q: self.bivector_jacobian_at(q)[..., col])
                if biv.has_exact_derivative else None)
        return self._field(("P_col", col), build)

    def bivector_column_jacobian(self, col: int, p) -> np.ndarray:
        return self._cached(
            ("dP_col", col), p,
            lambda q: jacobian(self.bivector_column_field(col), q, self.scheme))

    # -- second-order scalars on casimirs and frame ---------------------

    def casimir_sharp_field(self, idx: int) -> TensorField:
        """Raised gradient of the idx-th declared invariant (unscaled)."""
        def build():
            grad = dsl.gradient_field(self.structure.casimirs[idx], self.scheme)
            if (isinstance(grad, dsl.ExprTensorField)
                    and self.metric.contravariant_constant is not None):
                return sharp_field(self.metric, grad)

            def value(q):
                return matvec(self.metric_inv_at(q), grad.components(q))

            def jet(q):
                return self._cached(
                    ("casimir_sharp_jet", idx), q,
                    lambda q: self._raised_jet(
                        jacobian(grad, q, self.scheme)[..., None],
                        value(q)[..., None], q)[..., 0])

            exact = (self.metric.field.has_exact_derivative
                     and grad.has_exact_derivative)
            return self._batch_field(value, jet if exact else None)
        return self._field(("casimir_sharp", idx), build)

    def casimir_laplacian(self, idx: int, p):
        def build(q):
            field = self.casimir_sharp_field(idx)
            return laplacian(self.metric_at(q), self.metric_inv_at(q),
                             field.components(q), jacobian(field, q, self.scheme),
                             self.christoffel_at(q))
        return self._cached(("laplacian", idx), p, build)

    def frame_metric_lie_derivative(self, i: int, p) -> np.ndarray:
        """(L_{xi_i} g)_{sl} at each row of p."""
        return self._cached(
            ("frame_lie_g", i), p,
            lambda q: lie_derivative_metric(
                self.metric_at(q), self.frame_at(q)[..., i],
                self.frame_jacobian(i, q), self.christoffel_at(q)))
