"""Metric, Levi-Civita connection, and musical isomorphisms.

Index conventions (0-based axes, einsum letters in comments):

    gamma2[s, b, c] = Gamma^s_{bc} = 1/2 g^{sd} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    gamma1[a, b, c] = Gamma_{abc} = g_{as} Gamma^s_{bc}
    (nabla_l w)_s   = d_l w_s - Gamma^g_{ls} w_g          (one-forms)
    (nabla_l P)^{ts} = d_l P^{ts} + Gamma^t_{lm} P^{ms} + Gamma^s_{lm} P^{tm}

Both Christoffel arrays are symmetric in their last two slots (torsion-free)
and metric compatibility nabla g = 0 holds by construction. Every function
takes a point or a batch of points (see ``geometry``); over a batch the
arrays gain a leading point axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError
from .geometry import (
    DEFAULT_SCHEME, DerivativeScheme, Point, TensorField, as_batch, jacobian,
    matvec, unbatch,
)

INVERSE_CHECK_TOL = 1e-10
DET_FLOOR_FACTOR = 1e-12


class MetricField:
    """A pseudo-Riemannian metric: symmetric covariant 2-tensor field.

    ``contravariant_constant`` covers the case where a constant matrix is
    handed over as the raising map itself (its inverse is the covariant
    metric); keeping the original matrix makes sharp exact instead of
    round-tripping through a numeric inversion.
    """

    __slots__ = ("field", "contravariant_constant")

    def __init__(self, field: TensorField, contravariant_constant=None):
        if field.variance != "ll":
            raise ValueError("metric components must form a covariant 2-tensor")
        self.field = field
        if contravariant_constant is not None:
            contravariant_constant = np.array(contravariant_constant, dtype=float)
            contravariant_constant.flags.writeable = False
        self.contravariant_constant = contravariant_constant

    @property
    def dim(self) -> int:
        return self.field.dim

    def components(self, p) -> np.ndarray:
        return self.field.components(p)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "MetricField":
        """Entries are expression source texts (or Expr nodes), row-major."""
        return cls(dsl.expr_field(dim, "ll", entries))

    @classmethod
    def constant(cls, matrix) -> "MetricField":
        matrix = np.asarray(matrix, dtype=float)
        return cls(TensorField.constant(matrix.shape[0], "ll", matrix))

    @classmethod
    def from_contravariant(cls, matrix, covariant=None) -> "MetricField":
        """Interpret ``matrix`` as the constant raising map g^{mu nu}.

        The covariant metric is its inverse: supplied in closed form when
        available, otherwise computed numerically once.
        """
        matrix = np.asarray(matrix, dtype=float)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim):
            raise ValueError("contravariant metric must be square")
        if covariant is None:
            reject_singular(matrix, "contravariant metric")
            covariant = np.linalg.inv(matrix)
        covariant = np.asarray(covariant, dtype=float)
        if np.max(np.abs(covariant @ matrix - np.eye(dim))) > INVERSE_CHECK_TOL:
            raise ValueError("supplied covariant matrix is not the inverse")
        return cls(TensorField.constant(dim, "ll", covariant),
                   contravariant_constant=matrix)


def reject_singular(matrix, what):
    """Raise DegeneracyError if the matrix, or one of a stack, is singular.

    ``what`` names the matrix; for a stack it may be a function of the index
    of the first singular one.
    """
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    n = stack.shape[-1]
    scale = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1e-300)
    det = np.linalg.det(stack)
    singular = np.flatnonzero(np.abs(det) < DET_FLOOR_FACTOR * scale ** n)
    if singular.size:
        k = singular[0]
        cond = float(np.linalg.cond(stack[k]))
        name = what(k) if callable(what) else what
        raise DegeneracyError(
            f"{name} is numerically singular (|det| = {abs(det[k]):.3e}, "
            f"condition number {cond:.3e})",
            detail={"det": float(det[k]), "cond": cond, "matrix": stack[k].copy()})


def inverse_metric(m: MetricField, p) -> np.ndarray:
    """g^{mu nu} at p; raises DegeneracyError when g is singular there."""
    coords, single = as_batch(p)
    if m.contravariant_constant is not None:
        shape = (len(coords),) + m.contravariant_constant.shape
        return unbatch(np.broadcast_to(m.contravariant_constant, shape), single)
    g = m.components(coords)
    reject_singular(g, lambda k: f"metric at {Point(coords[k])!r}")
    ginv = np.linalg.inv(g)
    off = np.max(np.abs(ginv @ g - np.eye(m.dim)), axis=(1, 2))
    failed = np.flatnonzero(off > INVERSE_CHECK_TOL)
    if failed.size:
        k = failed[0]
        cond = float(np.linalg.cond(g[k]))
        raise DegeneracyError(
            f"metric inversion at {Point(coords[k])!r} failed the identity check "
            f"(condition number {cond:.3e})",
            detail={"cond": cond, "matrix": g[k].copy()})
    return unbatch(ginv, single)


@dataclass(frozen=True)
class Christoffel:
    """Connection coefficients at a point or over a batch, both kinds."""

    first_kind: np.ndarray   # [..., a, b, c] = Gamma_{abc}
    second_kind: np.ndarray  # [..., s, b, c] = Gamma^s_{bc}

    def __getitem__(self, index) -> "Christoffel":
        """The coefficients at point ``index`` of a batch."""
        return Christoffel(self.first_kind[index], self.second_kind[index])


def christoffel(m: MetricField, p, scheme: DerivativeScheme = DEFAULT_SCHEME) -> Christoffel:
    coords, single = as_batch(p)
    dg = jacobian(m.field, coords, scheme)  # dg[..., b, d, c] = d_b g_{dc}
    first = 0.5 * (np.einsum("...bac->...abc", dg) + np.einsum("...cab->...abc", dg)
                   - dg)
    ginv = inverse_metric(m, coords)
    second = np.einsum("...ad,...dbc->...abc", ginv, first)
    return unbatch(Christoffel(first_kind=first, second_kind=second), single)


def covariant_derivative_oneform(m: MetricField, omega: TensorField, p,
                                 scheme: DerivativeScheme = DEFAULT_SCHEME,
                                 gamma: Christoffel | None = None) -> np.ndarray:
    """(nabla_l w)_s as the array [l, s]."""
    if omega.variance != "l":
        raise ValueError("expected a one-form field")
    dw = jacobian(omega, p, scheme)  # [..., l, s]
    g2 = (gamma or christoffel(m, p, scheme)).second_kind
    return dw - np.einsum("...gls,...g->...ls", g2, omega.components(p))


def covariant_derivative_bivector(m: MetricField, biv: TensorField, p,
                                  scheme: DerivativeScheme = DEFAULT_SCHEME,
                                  gamma: Christoffel | None = None) -> np.ndarray:
    """(nabla_l P)^{ts} as the array [l, t, s]."""
    if biv.variance != "uu":
        raise ValueError("expected a contravariant 2-tensor field")
    dP = jacobian(biv, p, scheme)  # [..., l, t, s]
    g2 = (gamma or christoffel(m, p, scheme)).second_kind
    P = biv.components(p)
    correction = (np.einsum("...tlm,...ms->...lts", g2, P)
                  + np.einsum("...slm,...tm->...lts", g2, P))
    return dP + correction


def sharp(m: MetricField, covector, p) -> np.ndarray:
    """Raise an index: component vector g^{mu nu} w_nu at p."""
    covector = np.asarray(covector, dtype=float)
    return matvec(inverse_metric(m, p), covector)


def sharp_field(m: MetricField, omega: TensorField,
                scheme: DerivativeScheme = DEFAULT_SCHEME) -> TensorField:
    """The vector field x -> g^{-1}(x) w(x) for a one-form field w.

    When the raising map is an exact constant matrix and the one-form is
    expression-backed, the result is expression-backed too (exact brackets
    and derivatives); otherwise it is a numeric composition.
    """
    if omega.variance != "l":
        raise ValueError("expected a one-form field")
    dim = omega.dim
    G = m.contravariant_constant
    if G is not None and isinstance(omega, dsl.ExprTensorField):
        entries = []
        for mu in range(dim):
            acc = dsl.lit(0.0)
            for nu in range(dim):
                acc = dsl.add(acc, dsl.mul(dsl.lit(G[mu, nu]), omega.exprs[(nu,)]))
            entries.append(acc)
        return dsl.expr_field(dim, "u", entries)

    def evaluate_at(coords):
        return matvec(inverse_metric(m, coords), omega.components(coords))

    return TensorField(dim, "u", evaluate_at)


def lie_derivative_metric(m: MetricField, x_field: TensorField, p,
                          scheme: DerivativeScheme = DEFAULT_SCHEME,
                          gamma: Christoffel | None = None) -> np.ndarray:
    """(L_X g)_{sl} = g_{gl} nabla_s X^g + g_{sg} nabla_l X^g at p."""
    if x_field.variance != "u":
        raise ValueError("expected a vector field")
    g = m.components(p)
    dX = jacobian(x_field, p, scheme)  # [..., s, g] = d_s X^g
    g2 = (gamma or christoffel(m, p, scheme)).second_kind
    # nabla_s X^g
    covX = dX + np.einsum("...gsm,...m->...sg", g2, x_field.components(p))
    return (np.einsum("...gl,...sg->...sl", g, covX)
            + np.einsum("...sg,...lg->...sl", g, covX))


def laplacian(m: MetricField, scalar: TensorField, p,
              scheme: DerivativeScheme = DEFAULT_SCHEME,
              gamma: Christoffel | None = None,
              gradient_sharp: TensorField | None = None):
    """Laplace-Beltrami of a scalar via 1/2 g^{lm} (L_{grad^sharp} g)_{lm}.

    ``gradient_sharp`` may supply a precomputed raised-gradient field of
    the scalar (callers that evaluate on many nearby points pass a cached
    one); it must agree with sharp(d scalar).
    """
    if scalar.variance != "":
        raise ValueError("expected a scalar field")
    if gradient_sharp is None:
        grad = dsl.gradient_field(scalar, scheme)
        gradient_sharp = sharp_field(m, grad, scheme)
    lie = lie_derivative_metric(m, gradient_sharp, p, scheme, gamma=gamma)
    return 0.5 * np.einsum("...lm,...lm->...", inverse_metric(m, p), lie)
