"""Poisson bivector, its Casimir coframe, and structure validation.

The regular leaves are the integral surfaces of the image of the bivector;
the object under study is the complementary distribution picked out by a
metric: the g-orthogonal complement of the leaf tangent, spanned by the
raised Casimir differentials xi_i = (dc^i)^sharp (built in
``context.ChartContext``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError, RegularityError
from .geometry import (
    DEFAULT_SCHEME, DerivativeScheme, Point, TensorField, matvec,
    pointwise_max_abs,
)
from .reports import ConditionReport, PoissonValidationReport

RANK_SVD_FACTOR = 1e-9
ANNIHILATION_TOL = 1e-9
GRAM_DET_FACTOR = 1e-12


@dataclass
class PoissonStructure:
    """A bivector field with declared invariant functions and expected rank.

    ``casimirs`` are scalar fields whose differentials are annihilated by
    the bivector; there must be dim - expected_rank of them. Optional
    ``coframe_scales`` rescale each differential (a nonvanishing gauge
    choice; entries may be numbers, expression text, Expr nodes, or scalar
    fields).
    """

    bivector: TensorField
    casimirs: list
    expected_rank: int
    coframe_scales: list | None = None

    def __post_init__(self):
        if self.bivector.variance != "uu":
            raise ValueError("bivector must be a contravariant 2-tensor field")
        n = self.bivector.dim
        if self.expected_rank <= 0 or self.expected_rank % 2 != 0:
            raise ValueError("expected rank must be a positive even integer")
        if self.expected_rank >= n:
            raise ValueError("expected rank must leave a nonzero complement")
        for c in self.casimirs:
            if c.variance != "" or c.dim != n:
                raise ValueError("casimirs must be scalar fields on the same chart")
        if len(self.casimirs) != n - self.expected_rank:
            raise ValueError(
                f"need dim - rank = {n - self.expected_rank} invariant functions, "
                f"got {len(self.casimirs)}")
        if self.coframe_scales is not None and len(self.coframe_scales) != len(self.casimirs):
            raise ValueError("coframe_scales must match the number of casimirs")

    @property
    def dim(self) -> int:
        return self.bivector.dim

    @property
    def codim(self) -> int:
        return self.dim - self.expected_rank


def _scale_field(scale, dim: int) -> TensorField:
    if isinstance(scale, TensorField):
        if scale.variance != "":
            raise ValueError("coframe scale must be a scalar field")
        return scale
    if isinstance(scale, str) or isinstance(scale, dsl.Expr):
        return dsl.expr_field(dim, "", scale)
    return dsl.expr_field(dim, "", dsl.lit(float(scale)))


def coframe_fields(ps: PoissonStructure,
                   scheme: DerivativeScheme = DEFAULT_SCHEME) -> list:
    """One-form fields omega^i: the (optionally rescaled) Casimir gradients.

    ``context.ChartContext`` does not use them: it builds the coframe and
    its partials from the Casimir gradients and the scales."""
    out = []
    for i, c in enumerate(ps.casimirs):
        grad = dsl.gradient_field(c, scheme)
        if ps.coframe_scales is None:
            out.append(grad)
            continue
        scale = _scale_field(ps.coframe_scales[i], ps.dim)
        if (isinstance(grad, dsl.ExprTensorField)
                and isinstance(scale, dsl.ExprTensorField)):
            s = scale.exprs[()]
            out.append(dsl.expr_field(
                ps.dim, "l", [dsl.mul(s, grad.exprs[(a,)]) for a in range(ps.dim)]))
        else:
            def evaluate_at(coords, grad=grad, scale=scale):
                return scale.components(coords)[:, None] * grad.components(coords)

            out.append(TensorField(ps.dim, "l", evaluate_at))
    return out


def check_gram_nondegenerate(gram: np.ndarray, p) -> None:
    """Raise DegeneracyError at the first row of p, (n, dim), whose frame
    gram matrix is degenerate."""
    stack = gram.reshape((-1,) + gram.shape[-2:])
    d = stack.shape[-1]
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    det = np.linalg.det(stack)
    degenerate = np.flatnonzero(np.abs(det) < GRAM_DET_FACTOR * scale ** d)
    if degenerate.size:
        k = degenerate[0]
        raise DegeneracyError(
            f"frame gram matrix is degenerate at {Point(p[k])!r} "
            f"(|det| = {abs(det[k]):.3e}; pseudo-Riemannian metrics can be "
            f"degenerate on the orthogonal distribution even where the leaf "
            f"is regular)",
            detail={"det": float(det[k]), "gram": stack[k].copy()})


def independent_column_mask(matrix: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Maximal independent column set of a matrix, or of each in a stack,
    as a boolean mask over the columns, scanning left to right.

    Deterministic: each column is orthogonalized against the already chosen
    ones and kept when its remainder is non-negligible.
    """
    scale = np.maximum(np.max(np.abs(matrix), axis=(-2, -1), initial=0.0), 1e-300)
    chosen = []
    ortho = []  # unit columns, zero where a column was not chosen
    for col in range(matrix.shape[-1]):
        c = matrix[..., :, col].astype(float)
        for q in ortho:
            c -= q * np.einsum("...i,...i->...", q, c)[..., None]
        nrm = np.linalg.norm(c, axis=-1)
        keep = nrm > rel_tol * scale
        with np.errstate(all="ignore"):
            ortho.append(np.where(keep[..., None], c / nrm[..., None], 0.0))
        chosen.append(keep)
    return np.stack(chosen, axis=-1)


def bivector_rank(P: np.ndarray):
    """Numerical rank of P, or of each matrix in a stack."""
    singulars = np.linalg.svd(P, compute_uv=False)
    top = singulars[..., :1]
    return np.sum(singulars > RANK_SVD_FACTOR * top, axis=-1)


def validate_poisson(ctx, tol: float = ANNIHILATION_TOL) -> PoissonValidationReport:
    """Antisymmetry, Jacobi, Casimir annihilation, and rank over a batch.

    ``ctx`` is the check's ``context.ChartContext``, bound to the grid's
    points: P, its partials and the Casimir gradients are read from it, so
    a check differentiates the bivector once; the metric is not read.
    Raises RegularityError naming the first point whose bivector rank
    differs from the declared one; rank jumps across the grid are a
    special case of that.
    """
    ps, points = ctx.structure, ctx.points
    P = ctx.bivector_at()
    dP = ctx.bivector_jacobian_at()  # [..., l, t, s]
    contraction = (np.einsum("...lm,...lns->...mns", P, dP)
                   + np.einsum("...ln,...lsm->...mns", P, dP)
                   + np.einsum("...ls,...lmn->...mns", P, dP))
    annihilation = pointwise_max_abs(matvec(P[:, None], ctx.gradient_at()))

    ranks = bivector_rank(P)
    wrong = np.flatnonzero(ranks != ps.expected_rank)
    if wrong.size:
        k = wrong[0]
        raise RegularityError(
            f"bivector rank {ranks[k]} at {points[k]!r}, expected "
            f"{ps.expected_rank}", points=[points[k]])

    def report(cid, formula, residuals):
        return ConditionReport(cid, formula, tol, points=points,
                               residuals=residuals.tolist())

    return PoissonValidationReport(
        antisymmetry=report("bivector-antisymmetry", "P^{mn} + P^{nm} = 0",
                            pointwise_max_abs(P + P.swapaxes(1, 2))),
        jacobi=report(
            "bivector-jacobi",
            "P^{lm} d_l P^{ns} + P^{ln} d_l P^{sm} + P^{ls} d_l P^{mn} = 0",
            pointwise_max_abs(contraction)),
        casimir_annihilation=report(
            "casimir-annihilation", "P^{ts} (dc^i)_s = 0", annihilation),
        rank=int(ranks[0]))


def canonical_bivector(dim: int, rank: int) -> TensorField:
    """Constant block bivector: zero transversal block, then the standard
    symplectic pairing on the last ``rank`` coordinates."""
    if rank % 2 != 0 or not (0 < rank <= dim):
        raise ValueError("rank must be even and between 2 and dim")
    k = rank // 2
    d = dim - rank
    P = np.zeros((dim, dim))
    for a in range(k):
        P[d + a, d + k + a] = 1.0
        P[d + k + a, d + a] = -1.0
    return TensorField.constant(dim, "uu", P)
