"""Shared per-chart evaluation context with pointwise memoization.

The integrability conditions all consume the same handful of pointwise
objects (bivector, metric and its inverse, connection coefficients, the
orthogonal coframe/frame and their derivatives, projectors). Stencil-based
derivatives revisit the same sample points many times, so the context
caches every pointwise value under a (tag, coordinates) key, and the
bracket arguments it hands out evaluate through those caches.

Two deliberate exceptions to the caching:

* expression-backed frame fields are differentiated directly (their
  derivatives are exact, and wrapping them would lose that);
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
    DEFAULT_SCHEME, DerivativeScheme, Point, TensorField, as_point, jacobian,
    lie_bracket,
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
    exact-derivative backing); pointwise values should be read through the
    ``*_at`` accessors, which memoize.
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
        self._cache: dict = {}
        self._fields: dict = {}

    def _cached(self, tag, p: Point, build):
        key = (tag, p.coords.tobytes())
        hit = self._cache.get(key)
        if hit is None:
            hit = build(p)
            self._cache[key] = hit
        return hit

    def _field(self, key, build):
        f = self._fields.get(key)
        if f is None:
            f = build()
            self._fields[key] = f
        return f

    # -- pointwise raw objects ------------------------------------------

    def bivector_at(self, p) -> np.ndarray:
        return self._cached("P", as_point(p), self.structure.bivector.components)

    def metric_at(self, p) -> np.ndarray:
        return self._cached("g", as_point(p), self.metric.components)

    def metric_inv_at(self, p) -> np.ndarray:
        return self._cached("ginv", as_point(p),
                            lambda q: inverse_metric(self.metric, q))

    def christoffel_at(self, p) -> Christoffel:
        return self._cached("gamma", as_point(p),
                            lambda q: christoffel(self.metric, q, self.scheme))

    # -- frame ----------------------------------------------------------

    def coframe_at(self, p) -> np.ndarray:
        """Coframe rows, shape (codim, dim)."""
        return self._cached(
            "coframe", as_point(p),
            lambda q: np.array([w.components(q) for w in self.coframe]))

    def frame_at(self, p) -> np.ndarray:
        """Frame vectors as columns, shape (dim, codim): raised coframe rows."""
        return self._cached(
            "frame", as_point(p),
            lambda q: self.metric_inv_at(q) @ self.coframe_at(q).T)

    def gram_at(self, p) -> np.ndarray:
        return self._cached(
            "gram", as_point(p),
            lambda q: self.coframe_at(q) @ self.frame_at(q))

    def gram_inv_at(self, p) -> np.ndarray:
        def build(q):
            gram = self.gram_at(q)
            check_gram_nondegenerate(gram, q)
            return np.linalg.inv(gram)
        return self._cached("gram_inv", as_point(p), build)

    def _memo_frame_field(self, i: int) -> TensorField:
        return self._field(
            ("frame_memo", i),
            lambda: TensorField(self.dim, "u",
                                lambda q: self.frame_at(q)[:, i]))

    def _differentiable_frame_field(self, i: int) -> TensorField:
        """The frame field best suited as a derivative argument.

        Expression-backed frames carry exact partials and are returned
        as-is; numeric ones are wrapped so stencil evaluations share the
        pointwise caches.
        """
        if isinstance(self.frame[i], dsl.ExprTensorField):
            return self.frame[i]
        return self._memo_frame_field(i)

    def frame_jacobian(self, i: int, p) -> np.ndarray:
        """d_l xi_i^mu as [l, mu]."""
        return self._cached(
            ("dframe", i), as_point(p),
            lambda q: jacobian(self._differentiable_frame_field(i), q, self.scheme))

    def nabla_coframe(self, i: int, p) -> np.ndarray:
        """(nabla_l omega^i)_s as [l, s]."""
        return self._cached(
            ("nabla_omega", i), as_point(p),
            lambda q: covariant_derivative_oneform(
                self.metric, self.coframe[i], q, self.scheme,
                gamma=self.christoffel_at(q)))

    def nabla_bivector(self, p) -> np.ndarray:
        """(nabla_l P)^{ts} as [l, t, s]."""
        return self._cached(
            "nabla_P", as_point(p),
            lambda q: covariant_derivative_bivector(
                self.metric, self.structure.bivector, q, self.scheme,
                gamma=self.christoffel_at(q)))

    # -- projectors -----------------------------------------------------

    def projector_h(self, p) -> np.ndarray:
        """g-orthogonal projector onto the orthogonal distribution."""
        def build(q):
            frame = self.frame_at(q)
            return frame @ self.gram_inv_at(q) @ self.coframe_at(q)
        return self._cached("h", as_point(p), build)

    def projector_v(self, p) -> np.ndarray:
        """g-orthogonal projector onto the leaf tangent (complement of h)."""
        return self._cached(
            "v", as_point(p),
            lambda q: np.eye(self.dim) - self.projector_h(q))

    # -- derived fields for bracket arguments ---------------------------

    def projected_frame_field(self, i: int, which: str) -> TensorField:
        matrix_at = {"h": self.projector_h, "v": self.projector_v}[which]
        return self._field(
            ("projected_frame", i, which),
            lambda: TensorField(self.dim, "u",
                                lambda q: matrix_at(q) @ self.frame_at(q)[:, i]))

    def _frame_variant(self, i: int, mode: str) -> TensorField:
        if mode == "plain":
            return self._differentiable_frame_field(i)
        return self.projected_frame_field(i, mode)

    def frame_bracket(self, i: int, j: int, mode_i: str, mode_j: str, p) -> np.ndarray:
        """[A xi_i, B xi_j] at p with A, B in {identity, h, v} by mode."""
        return self._cached(
            ("bracket", i, j, mode_i, mode_j), as_point(p),
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
            return TensorField(
                self.dim, "u",
                lambda q: self._cached("P", q, biv.components)[:, col])
        return self._field(("P_col", col), build)

    def bivector_column_jacobian(self, col: int, p) -> np.ndarray:
        return self._cached(
            ("dP_col", col), as_point(p),
            lambda q: jacobian(self.bivector_column_field(col), q, self.scheme))

    # -- second-order scalars on casimirs and frame ---------------------

    def casimir_sharp_field(self, idx: int) -> TensorField:
        """Raised gradient of the idx-th declared invariant (unscaled)."""
        def build():
            grad = dsl.gradient_field(self.structure.casimirs[idx], self.scheme)
            if (isinstance(grad, dsl.ExprTensorField)
                    and self.metric.contravariant_constant is not None):
                return sharp_field(self.metric, grad, self.scheme)
            return TensorField(self.dim, "u",
                               lambda q: self.metric_inv_at(q) @ grad.components(q))
        return self._field(("casimir_sharp", idx), build)

    def casimir_laplacian(self, idx: int, p) -> float:
        return self._cached(
            ("laplacian", idx), as_point(p),
            lambda q: laplacian(self.metric, self.structure.casimirs[idx], q,
                                self.scheme, gamma=self.christoffel_at(q),
                                gradient_sharp=self.casimir_sharp_field(idx)))

    def frame_metric_lie_derivative(self, i: int, p) -> np.ndarray:
        """(L_{xi_i} g)_{sl} at p."""
        return self._cached(
            ("frame_lie_g", i), as_point(p),
            lambda q: lie_derivative_metric(
                self.metric, self._differentiable_frame_field(i), q,
                self.scheme, gamma=self.christoffel_at(q)))
