"""Metric, Levi-Civita connection, and musical isomorphisms.

Index conventions (0-based axes, einsum letters in comments):

    gamma2[s, b, c] = Gamma^s_{bc} = 1/2 g^{sd} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    gamma1[a, b, c] = Gamma_{abc} = g_{as} Gamma^s_{bc}
    (nabla_l w)_s   = d_l w_s - Gamma^g_{ls} w_g          (one-forms)
    (nabla_l P)^{ts} = d_l P^{ts} + Gamma^t_{lm} P^{ms} + Gamma^s_{lm} P^{tm}

Both Christoffel arrays are symmetric in their last two slots (torsion-free)
and metric compatibility nabla g = 0 holds by construction. A metric is held
by g alone; ``inverse_metric`` computes g^-1 from it. Every function works
on a batch of points (see ``geometry``) and returns arrays with a leading
point axis. The derivative functions take g, g^-1, the Christoffel symbols
and the differentiated tensor with its first partials as arrays of the
same points, which callers (``context.ChartContext``) compute once and share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError
# jacobian is unused here, but the benchmark's tracer (perfbench/) wraps it
# in every module that binds it and its tests require this binding
from .geometry import Point, TensorField, jacobian, matvec  # noqa: F401

INVERSE_CHECK_TOL = 1e-10
DET_FLOOR_FACTOR = 1e-12


class MetricField:
    """A pseudo-Riemannian metric: symmetric covariant 2-tensor field.

    ``field`` holds g_{ab} and is the metric's only representation: the
    raising map g^{ab} is computed from it by ``inverse_metric``, also for
    a metric given by its constant raising map (``from_contravariant``).
    """

    __slots__ = ("field",)

    def __init__(self, field: TensorField):
        if field.variance != "ll":
            raise ValueError("metric components must form a covariant 2-tensor")
        self.field = field

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
        """The constant metric whose raising map g^{mu nu} is ``matrix``.

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
        return cls.constant(covariant)


def reject_singular(matrix, what):
    """Raise DegeneracyError if the matrix, or one of a stack, is singular.

    A matrix A is singular when |det(A/s)| falls below ``DET_FLOOR_FACTOR``,
    with s its largest |entry|; an all-zero matrix is singular. Dividing
    first keeps the determinant finite however large the entries are.
    ``what`` names the matrix; for a stack it may be a function of the index
    of the first singular one.
    """
    stack = matrix.reshape((-1,) + matrix.shape[-2:])
    scale = np.max(np.abs(stack), axis=(1, 2))
    det = np.linalg.det(stack / np.where(scale > 0.0, scale, 1.0)[:, None, None])
    singular = np.flatnonzero(np.abs(det) < DET_FLOOR_FACTOR)
    if singular.size:
        k = singular[0]
        cond = float(np.linalg.cond(stack[k]))
        name = what(k) if callable(what) else what
        raise DegeneracyError(
            f"{name} is numerically singular (|det(A/s)| = {abs(det[k]):.3e} "
            f"with s = max |entry| = {scale[k]:.3e}, condition number {cond:.3e})",
            detail={"det": float(det[k]), "cond": cond, "matrix": stack[k].copy()})


def inverse_metric(m: MetricField, p) -> np.ndarray:
    """g^{mu nu} at each row of p; raises DegeneracyError where g is singular.

    A metric that reads no coordinate is checked and inverted at the first
    row only, and the result broadcast over the batch."""
    constant = m.field.reads == frozenset()
    rows = p[:1] if constant else p
    g = m.components(rows)
    reject_singular(g, lambda k: f"metric at {Point(rows[k])!r}")
    ginv = np.linalg.inv(g)
    off = np.max(np.abs(ginv @ g - np.eye(m.dim)), axis=(1, 2))
    failed = np.flatnonzero(off > INVERSE_CHECK_TOL)
    if failed.size:
        k = failed[0]
        cond = float(np.linalg.cond(g[k]))
        raise DegeneracyError(
            f"metric inversion at {Point(rows[k])!r} failed the identity check "
            f"(condition number {cond:.3e})",
            detail={"cond": cond, "matrix": g[k].copy()})
    return np.broadcast_to(ginv, (len(p),) + ginv.shape[1:]) if constant else ginv


@dataclass(frozen=True)
class Christoffel:
    """Connection coefficients over a batch of points, both kinds."""

    first_kind: np.ndarray   # [k, a, b, c] = Gamma_{abc} at point k
    second_kind: np.ndarray  # [k, s, b, c] = Gamma^s_{bc} at point k


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> Christoffel:
    """Both kinds from g^{-1} [k, a, d] and dg[k, b, d, c] = d_b g_{dc}."""
    first = 0.5 * (np.einsum("...bac->...abc", dg) + np.einsum("...cab->...abc", dg)
                   - dg)
    second = np.einsum("...ad,...dbc->...abc", ginv, first)
    return Christoffel(first_kind=first, second_kind=second)


def covariant_derivative_oneform(w: np.ndarray, dw: np.ndarray,
                                 gamma: Christoffel) -> np.ndarray:
    """(nabla_l w)_s as the array [k, l, s], from w_s [k, s] and its
    partials dw[k, l, s] = d_l w_s."""
    return dw - np.einsum("...gls,...g->...ls", gamma.second_kind, w)


def covariant_derivative_bivector(P: np.ndarray, dP: np.ndarray,
                                  gamma: Christoffel) -> np.ndarray:
    """(nabla_l P)^{ts} as the array [k, l, t, s], from P^{ts} [k, t, s] and
    its partials dP[k, l, t, s] = d_l P^{ts}."""
    g2 = gamma.second_kind
    correction = (np.einsum("...tlm,...ms->...lts", g2, P)
                  + np.einsum("...slm,...tm->...lts", g2, P))
    return dP + correction


def sharp_field(m: MetricField, omega: TensorField) -> TensorField:
    """The vector field x -> g^{-1}(x) w(x) for a one-form field w, as a
    numeric composition of ``inverse_metric`` and w."""
    if omega.variance != "l":
        raise ValueError("expected a one-form field")

    def evaluate_at(coords):
        return matvec(inverse_metric(m, coords), omega.components(coords))

    return TensorField(omega.dim, "u", evaluate_at)


def lie_derivative_metric(g: np.ndarray, x: np.ndarray, dx: np.ndarray,
                          gamma: Christoffel) -> np.ndarray:
    """(L_X g)_{sl} = g_{gl} nabla_s X^g + g_{sg} nabla_l X^g at each point,
    from X^m [k, m] and its partials dx[k, s, g] = d_s X^g."""
    # nabla_s X^g
    covX = dx + np.einsum("...gsm,...m->...sg", gamma.second_kind, x)
    return (np.einsum("...gl,...sg->...sl", g, covX)
            + np.einsum("...sg,...lg->...sl", g, covX))


def laplacian(g: np.ndarray, ginv: np.ndarray, x: np.ndarray, dx: np.ndarray,
              gamma: Christoffel):
    """Laplace-Beltrami of a scalar c at each point, given its raised
    gradient X = grad^sharp c and the partials of X: 1/2 g^{lm} (L_X g)_{lm}."""
    lie = lie_derivative_metric(g, x, dx, gamma)
    return 0.5 * np.einsum("...lm,...lm->...", ginv, lie)
