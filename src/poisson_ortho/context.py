"""Shared evaluation context of one batch of chart points, with memoization.

The integrability conditions all consume the same handful of objects
(bivector, metric and its inverse, connection coefficients, the
orthogonal coframe/frame and their derivatives, projectors). They are
evaluated over a whole batch of points at once, an (n, dim) coordinate
array. A context is bound to one batch, its ``points``, and is the single
owner of every value there: it builds g, g^-1, the partials of g, the
frame and the projectors once, memoized by name, and the metric functions
take them as arrays. Values at other points need another context. The
inputs are read as the structure and the metric hold them: no context
parses or converts an input.

The derivative scheme decides one thing only: how the partials of the
input fields are obtained, that is of g, P, each Casimir gradient and each
coframe scale. An input's partial along an axis outside its ``reads``
(the variables of an expression input, none of a constant one) is an
exact zero under every scheme. Along the others, under ``symbolic`` an
expression or constant input is differentiated exactly; under the
``central-*`` schemes, or for a plain numeric field, whose reads are
unknown, the input is differenced by ``geometry.jacobian``: one
evaluation of the input over the shifted copies of the batch for every
read axis stacked, with the batch itself stacked last when an axis is
skipped, so a domain fault there still raises. A differenced Casimir's
gradient is that jacobian; its Hessian takes one evaluation per read
outer axis (``geometry.stencil_hessian``). The context keeps those
partials and builds every other derivative from them by the product
rule:

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

Every composite derivative is thus an array built once per context.

The jets read only g, g^-1, dg, the coframe, the frame and their
partials, never the Christoffel symbols or nabla omega, so the
coframe-derivative route stays independent of the bracket routes. The
projected frames go through dh even though h xi = xi, so an error in the
projector still shows up as a disagreement between the conditions. A
check therefore builds one context, over the grid, under every scheme,
and one more per integral surface it verifies. The projectors are built
from the orthogonal frame, which varies smoothly with the point; a
column-pivoted leaf basis of P gives the same operator, but its pivot
choice can jump between neighbouring points.
"""

from __future__ import annotations

import numpy as np

from . import dsl
from .geometry import (
    DEFAULT_SCHEME, DerivativeScheme, Points, is_exact, jacobian, lie_bracket,
    matvec, stencil_hessian,
)
from .metric import (
    Christoffel, MetricField, christoffel, covariant_derivative_bivector,
    covariant_derivative_oneform, inverse_metric, laplacian,
    lie_derivative_metric,
)
from .poisson import PoissonStructure, check_gram_nondegenerate


def _casimir_derivatives(casimir, scheme):
    """(gradient, hessian) of a Casimir: q -> dc as (n, dim) and
    q -> d_l (dc)_s as [n, l, s]. An exact Casimir's gradient is an exact
    field; a differenced one is its jacobian, and its Hessian the flat
    stencils of ``stencil_hessian``."""
    if is_exact(casimir, scheme):
        gradient = dsl.gradient_field(casimir, scheme)
        return gradient.components, lambda q: jacobian(gradient, q, scheme)
    return (lambda q: jacobian(casimir, q, scheme),
            lambda q: stencil_hessian(casimir, q, scheme))


class ChartContext:
    """Bundles a Poisson structure and metric over one batch of chart points.

    ``points`` is the batch (a ``geometry.Points``, or an (n, dim) array
    that becomes one) and ``q`` its coordinates. The input one-forms are
    the Casimir gradients dc^i, and the structure's ``coframe_scales``, as
    built, the scalar fields s_i of the coframe omega^i = s_i dc^i (None
    when there are none, and then omega^i = dc^i). The coframe is no field
    of its own: its values and partials are built from those of the
    gradients and scales by the product rule, so each Casimir is
    differentiated once. Values should be read through the accessors, which
    take no coordinates, memoize each value on first use and give arrays
    with a leading point axis.
    """

    def __init__(self, structure: PoissonStructure, metric: MetricField, points,
                 scheme: DerivativeScheme = DEFAULT_SCHEME):
        if structure.dim != metric.dim:
            raise ValueError(
                f"bivector dimension {structure.dim} != metric dimension {metric.dim}")
        self.structure = structure
        self.metric = metric
        self.points = points if isinstance(points, Points) else Points(points)
        self.q = self.points.coords
        self.scheme = scheme
        self.dim = structure.dim
        self.codim = structure.codim
        self._values: dict = {}
        self._casimirs = [_casimir_derivatives(c, scheme) for c in structure.casimirs]

    def _cached(self, tag, build):
        value = self._values.get(tag)
        if value is None:
            value = self._values[tag] = build()
        return value

    # -- inputs and their partials: the only derivatives a scheme takes --

    def bivector_at(self) -> np.ndarray:
        return self._cached("P", lambda: self.structure.bivector.components(self.q))

    def bivector_jacobian_at(self) -> np.ndarray:
        """d_l P^{ts} as [..., l, t, s]; column c's partials are [..., c]."""
        return self._cached(
            "dP", lambda: jacobian(self.structure.bivector, self.q, self.scheme))

    def metric_at(self) -> np.ndarray:
        return self._cached("g", lambda: self.metric.components(self.q))

    def metric_inv_at(self) -> np.ndarray:
        return self._cached("ginv", lambda: inverse_metric(self.metric, self.q))

    def metric_jacobian_at(self) -> np.ndarray:
        """d_l g_{ab} as [..., l, a, b]."""
        return self._cached(
            "dg", lambda: jacobian(self.metric.field, self.q, self.scheme))

    def gradient_at(self) -> np.ndarray:
        """Casimir gradient rows dc^i, (..., codim, dim): the coframe
        without its scales."""
        return self._cached(
            "gradient",
            lambda: np.stack([gradient(self.q) for gradient, _ in self._casimirs], axis=1))

    def gradient_jacobian_at(self) -> np.ndarray:
        """Casimir Hessians d_l (dc^i)_s as [..., l, i, s]."""
        return self._cached(
            "dgradient",
            lambda: np.stack([hessian(self.q) for _, hessian in self._casimirs], axis=2))

    def _scale_at(self) -> np.ndarray:
        """Coframe scales s_i as (..., codim)."""
        return self._cached(
            "scale",
            lambda: np.stack([s.components(self.q) for s in self.structure.coframe_scales],
                             axis=1))

    def _scale_jacobian_at(self) -> np.ndarray:
        """d_l s_i as [..., l, i]."""
        return self._cached(
            "dscale",
            lambda: np.stack([jacobian(s, self.q, self.scheme)
                              for s in self.structure.coframe_scales], axis=2))

    def coframe_at(self) -> np.ndarray:
        """Coframe rows omega^i = s_i dc^i, shape (..., codim, dim)."""
        if self.structure.coframe_scales is None:
            return self.gradient_at()
        return self._cached(
            "coframe", lambda: self._scale_at()[..., None] * self.gradient_at())

    def coframe_jacobian_at(self) -> np.ndarray:
        """d_l omega^i_s as [..., l, i, s]: ds_i (x) dc^i + s_i d(dc^i)."""
        if self.structure.coframe_scales is None:
            return self.gradient_jacobian_at()
        return self._cached(
            "dcoframe",
            lambda: (self._scale_jacobian_at()[..., None] * self.gradient_at()[:, None]
                     + self._scale_at()[:, None, :, None] * self.gradient_jacobian_at()))

    def christoffel_at(self) -> Christoffel:
        return self._cached(
            "gamma", lambda: christoffel(self.metric_inv_at(), self.metric_jacobian_at()))

    # -- frame ----------------------------------------------------------

    def frame_at(self) -> np.ndarray:
        """Frame vectors as columns, shape (..., dim, codim): raised coframe rows."""
        return self._cached(
            "frame", lambda: self.metric_inv_at() @ self.coframe_at().swapaxes(1, 2))

    def gram_at(self) -> np.ndarray:
        return self._cached("gram", lambda: self.coframe_at() @ self.frame_at())

    def gram_inv_at(self) -> np.ndarray:
        def build():
            gram = self.gram_at()
            check_gram_nondegenerate(gram, self.q)
            return np.linalg.inv(gram)
        return self._cached("gram_inv", build)

    def _raised_jet(self, dw, raised) -> np.ndarray:
        """d_l (g^-1 w) = g^-1 (d_l w - (d_l g) g^-1 w) for covectors w
        stacked as columns: dw [..., l, s, i] and raised = g^-1 w [..., m, i]
        give [..., l, m, i]."""
        return self.metric_inv_at()[:, None] @ (
            dw - self.metric_jacobian_at() @ raised[:, None])

    def _frame_jet(self) -> np.ndarray:
        """d_l xi_i^m as [..., l, m, i] from the partials of g and omega."""
        return self._cached(
            "frame_jet",
            lambda: self._raised_jet(self.coframe_jacobian_at().swapaxes(-1, -2),
                                     self.frame_at()))

    def frame_jacobian(self, i: int) -> np.ndarray:
        """d_l xi_i^mu as [..., l, mu]."""
        return self._frame_jet()[..., i]

    def nabla_coframe(self, i: int) -> np.ndarray:
        """(nabla_l omega^i)_s as [..., l, s]."""
        return self._cached(
            ("nabla_omega", i),
            lambda: covariant_derivative_oneform(
                self.coframe_at()[:, i], self.coframe_jacobian_at()[:, :, i],
                self.christoffel_at()))

    def nabla_bivector(self) -> np.ndarray:
        """(nabla_l P)^{ts} as [..., l, t, s]."""
        return self._cached(
            "nabla_P",
            lambda: covariant_derivative_bivector(
                self.bivector_at(), self.bivector_jacobian_at(), self.christoffel_at()))

    # -- projectors -----------------------------------------------------

    def projector_h(self) -> np.ndarray:
        """g-orthogonal projector onto the orthogonal distribution."""
        return self._cached(
            "h", lambda: self.frame_at() @ self.gram_inv_at() @ self.coframe_at())

    def projector_v(self) -> np.ndarray:
        """g-orthogonal projector onto the leaf tangent (complement of h)."""
        return self._cached("v", lambda: np.eye(self.dim) - self.projector_h())

    def _projector_jet(self) -> np.ndarray:
        """d_l h as [..., l, m, n] by the product rule on h = Xi G^-1 Omega:
        dG = (d Omega) Xi + Omega d Xi and d(G^-1) = -G^-1 (dG) G^-1."""
        def build():
            coframe = self.coframe_at()[:, None]
            frame = self.frame_at()[:, None]
            gram_inv = self.gram_inv_at()[:, None]
            dcoframe = self.coframe_jacobian_at()
            dframe = self._frame_jet()
            dgram_inv = -gram_inv @ (dcoframe @ frame + coframe @ dframe) @ gram_inv
            return (dframe @ gram_inv @ coframe + frame @ dgram_inv @ coframe
                    + frame @ gram_inv @ dcoframe)
        return self._cached("dh", build)

    def _projected_frame_jet(self, which: str) -> np.ndarray:
        """d_l (A xi_i)^m as [..., l, m, i] for A = h or v:
        d(h xi) = (dh) xi + h d xi and d(v xi) = d xi - d(h xi)."""
        def build():
            dframe = self._frame_jet()
            dh_frame = (self._projector_jet() @ self.frame_at()[:, None]
                        + self.projector_h()[:, None] @ dframe)
            return dh_frame if which == "h" else dframe - dh_frame
        return self._cached(("projected_frame_jet", which), build)

    # -- frame brackets -------------------------------------------------

    def _frame_variant(self, i: int, mode: str):
        """(A xi_i, d(A xi_i)) for A = identity, h or v by mode: the values
        (..., m) and the jet [..., l, m] a bracket consumes."""
        if mode == "plain":
            return self.frame_at()[..., i], self._frame_jet()[..., i]
        matrix_at = {"h": self.projector_h, "v": self.projector_v}[mode]
        return (matvec(matrix_at(), self.frame_at()[..., i]),
                self._projected_frame_jet(mode)[..., i])

    def frame_bracket(self, i: int, j: int, mode_i: str, mode_j: str) -> np.ndarray:
        """[A xi_i, B xi_j] at each point with A, B in {identity, h, v} by
        mode, from the values and jets of both arguments."""
        return self._cached(
            ("bracket", i, j, mode_i, mode_j),
            lambda: lie_bracket(*self._frame_variant(i, mode_i),
                                *self._frame_variant(j, mode_j)))

    # -- second-order scalars on casimirs and frame ---------------------

    def casimir_sharp_at(self) -> np.ndarray:
        """Raised Casimir gradients g^-1 dc^i as columns, (..., dim, codim):
        the frame when there are no coframe scales."""
        if self.structure.coframe_scales is None:
            return self.frame_at()
        return self._cached(
            "casimir_sharp", lambda: self.metric_inv_at() @ self.gradient_at().swapaxes(1, 2))

    def casimir_sharp_jacobian_at(self) -> np.ndarray:
        """d_l (g^-1 dc^i)^m as [..., l, m, i]: the frame's jet when there
        are no coframe scales."""
        if self.structure.coframe_scales is None:
            return self._frame_jet()
        return self._cached(
            "casimir_sharp_jet",
            lambda: self._raised_jet(self.gradient_jacobian_at().swapaxes(-1, -2),
                                     self.casimir_sharp_at()))

    def casimir_laplacian(self, idx: int):
        return self._cached(
            ("laplacian", idx),
            lambda: laplacian(self.metric_at(), self.metric_inv_at(),
                              self.casimir_sharp_at()[..., idx],
                              self.casimir_sharp_jacobian_at()[..., idx],
                              self.christoffel_at()))

    def frame_metric_lie_derivative(self, i: int) -> np.ndarray:
        """(L_{xi_i} g)_{sl} at each point."""
        return self._cached(
            ("frame_lie_g", i),
            lambda: lie_derivative_metric(
                self.metric_at(), self.frame_at()[..., i],
                self.frame_jacobian(i), self.christoffel_at()))
