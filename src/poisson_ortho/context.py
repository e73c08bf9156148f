"""Shared per-chart evaluation context with batch memoization.

The integrability conditions all consume the same handful of objects
(bivector, metric and its inverse, connection coefficients, the
orthogonal coframe/frame and their derivatives, projectors). They are
evaluated over a whole batch of points at once: the grid, or one of the
stencil-shifted copies of it that finite differences visit. The context
caches every value once per batch, keyed by the batch's coordinates, and
the fields it hands to derivatives read through that cache, so each
shifted grid evaluates the metric, frame and projectors once however many
stencils pass over it.

Two deliberate exceptions to the caching:

* expression-backed frame fields are differentiated directly (their
  derivatives are exact, and reading them through the cache would lose
  that);
* projectors are built from the orthogonal frame, h = Xi G^{-1} Xi^T g
  with G the frame gram matrix, which varies smoothly with the point. A
  construction from a column-pivoted leaf basis of P is algebraically the
  same operator, but its pivot choice can jump between neighbouring
  stencil points, which would poison finite differences.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .geometry import (
    DEFAULT_SCHEME, DerivativeScheme, TensorField, as_batch, jacobian,
    lie_bracket, matvec, unbatch,
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
    accessors, which memoize per batch. Each accessor takes a point, giving
    arrays without a point axis, or a batch of points (``Points`` or an
    (n, dim) array), giving arrays with a leading point axis.
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
        self.coframe = coframe_fields(structure, scheme)
        self.frame = [sharp_field(metric, w, scheme) for w in self.coframe]
        # a numerically raised coframe reads frame_at instead, so every
        # stencil over a shifted grid shares one frame evaluation; when g and
        # the coframe carry exact derivatives, so does the frame (_frame_jet)
        exact = metric.field.has_exact_derivative
        for i, f in enumerate(self.frame):
            if isinstance(f, dsl.ExprTensorField):
                continue
            partial = None
            if exact and self.coframe[i].has_exact_derivative:
                partial = (lambda axis, i=i: self._field(
                    ("frame_partial", i, axis),
                    lambda: self._batch_field(
                        lambda q: self._frame_jet(i, q)[:, axis])))
            self.frame[i] = TensorField(
                self.dim, "u", lambda q, i=i: self.frame_at(q)[..., i],
                partial=partial)
        self._batches: dict = {}
        self._fields: dict = {}

    def _cached(self, tag, p, build):
        coords, single = as_batch(p)
        values = self._batches.setdefault((coords.tobytes(), single), {})
        value = values.get(tag)
        if value is None:
            value = values[tag] = unbatch(build(coords), single)
        return value

    def _field(self, key, build):
        f = self._fields.get(key)
        if f is None:
            f = build()
            self._fields[key] = f
        return f

    def _batch_field(self, evaluate) -> TensorField:
        return TensorField(self.dim, "u", evaluate)

    # -- raw objects ----------------------------------------------------

    def bivector_at(self, p) -> np.ndarray:
        return self._cached("P", p, self.structure.bivector.components)

    def metric_at(self, p) -> np.ndarray:
        return self._cached("g", p, self.metric.components)

    def metric_inv_at(self, p) -> np.ndarray:
        return self._cached("ginv", p, lambda q: inverse_metric(self.metric, q))

    def christoffel_at(self, p) -> Christoffel:
        return self._cached("gamma", p,
                            lambda q: christoffel(self.metric, q, self.scheme))

    # -- frame ----------------------------------------------------------

    def coframe_at(self, p) -> np.ndarray:
        """Coframe rows, shape (..., codim, dim)."""
        return self._cached(
            "coframe", p,
            lambda q: np.stack([w.components(q) for w in self.coframe], axis=1))

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

    def _frame_jet(self, i: int, q) -> np.ndarray:
        """Exact d_l xi_i^m as [..., l, m] from the partials of g and omega:
        d_l xi = g^-1 (d_l omega - (d_l g) xi).

        It reads neither the Christoffel symbols nor nabla omega, so the
        frame-derivative and bracket-closure conditions stay independent
        of the coframe-derivative one.
        """
        def build(q):
            dg = self._cached(
                "dg", q, lambda q: jacobian(self.metric.field, q, self.scheme))
            domega = jacobian(self.coframe[i], q, self.scheme)
            lowered = domega - np.einsum("...lkc,...c->...lk", dg,
                                         self.frame_at(q)[..., i])
            return np.einsum("...mk,...lk->...lm", self.metric_inv_at(q), lowered)
        return self._cached(("frame_jet", i), q, build)

    def frame_jacobian(self, i: int, p) -> np.ndarray:
        """d_l xi_i^mu as [..., l, mu]."""
        return self._cached(
            ("dframe", i), p, lambda q: jacobian(self.frame[i], q, self.scheme))

    def nabla_coframe(self, i: int, p) -> np.ndarray:
        """(nabla_l omega^i)_s as [..., l, s]."""
        return self._cached(
            ("nabla_omega", i), p,
            lambda q: covariant_derivative_oneform(
                self.metric, self.coframe[i], q, self.scheme,
                gamma=self.christoffel_at(q)))

    def nabla_bivector(self, p) -> np.ndarray:
        """(nabla_l P)^{ts} as [..., l, t, s]."""
        return self._cached(
            "nabla_P", p,
            lambda q: covariant_derivative_bivector(
                self.metric, self.structure.bivector, q, self.scheme,
                gamma=self.christoffel_at(q)))

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

    # -- derived fields for bracket arguments ---------------------------

    def projected_frame_field(self, i: int, which: str) -> TensorField:
        matrix_at = {"h": self.projector_h, "v": self.projector_v}[which]
        return self._field(
            ("projected_frame", i, which),
            lambda: self._batch_field(
                lambda q: matvec(matrix_at(q), self.frame_at(q)[..., i])))

    def _frame_variant(self, i: int, mode: str) -> TensorField:
        if mode == "plain":
            return self.frame[i]
        return self.projected_frame_field(i, mode)

    def frame_bracket(self, i: int, j: int, mode_i: str, mode_j: str, p) -> np.ndarray:
        """[A xi_i, B xi_j] at p with A, B in {identity, h, v} by mode."""
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
            return self._batch_field(lambda q: self.bivector_at(q)[..., col])
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
                return sharp_field(self.metric, grad, self.scheme)
            return self._batch_field(
                lambda q: matvec(self.metric_inv_at(q), grad.components(q)))
        return self._field(("casimir_sharp", idx), build)

    def casimir_laplacian(self, idx: int, p):
        return self._cached(
            ("laplacian", idx), p,
            lambda q: laplacian(self.metric, self.structure.casimirs[idx], q,
                                self.scheme, gamma=self.christoffel_at(q),
                                gradient_sharp=self.casimir_sharp_field(idx)))

    def frame_metric_lie_derivative(self, i: int, p) -> np.ndarray:
        """(L_{xi_i} g)_{sl} at p."""
        return self._cached(
            ("frame_lie_g", i), p,
            lambda q: lie_derivative_metric(
                self.metric, self.frame[i], q,
                self.scheme, gamma=self.christoffel_at(q)))
