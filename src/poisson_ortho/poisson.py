"""Poisson bivector, its Casimir coframe, and structure validation.

The regular leaves are the integral surfaces of the image of the bivector;
the object under study is the complementary distribution picked out by a
metric: the g-orthogonal complement of the leaf tangent, spanned by the
raised Casimir differentials xi_i = (dc^i)^sharp (built in
``context.ChartContext``). The Casimirs and coframe scales enter through
``PoissonStructure``, which turns each into a scalar field once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DegeneracyError, ExprError, RegularityError
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
    choice), one per Casimir. An entry of either list may be a scalar
    field, expression text, an ``Expr`` or a number; construction turns
    each into a checked scalar field, so both lists hold fields and
    ``dataclasses.replace`` keeps them.
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
        self.casimirs = _scalar_fields(self.casimirs, n, "casimirs")
        if len(self.casimirs) != n - self.expected_rank:
            raise ValueError(
                f"need dim - rank = {n - self.expected_rank} invariant functions, "
                f"got {len(self.casimirs)}")
        if self.coframe_scales is not None:
            if len(self.coframe_scales) != len(self.casimirs):
                raise ValueError("coframe_scales must match the number of casimirs")
            self.coframe_scales = _scalar_fields(self.coframe_scales, n, "coframe_scales")

    @property
    def dim(self) -> int:
        return self.bivector.dim

    @property
    def codim(self) -> int:
        return self.dim - self.expected_rank


def _scalar_fields(entries, dim: int, name: str) -> list:
    """Each entry as a checked scalar field on a chart of dimension dim."""
    fields = []
    for i, field in enumerate(entries):
        try:
            if not isinstance(field, TensorField):
                source = field if isinstance(field, (str, dsl.Expr)) else dsl.lit(float(field))
                field = dsl.expr_field(dim, "", source)
            if field.variance != "" or field.dim != dim:
                raise ValueError(f"expected a scalar field in dimension {dim}")
        except (ExprError, TypeError, ValueError) as exc:
            raise ValueError(f"{name}[{i}]: {exc}") from exc
        fields.append(field)
    return fields


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
        scale = ps.coframe_scales[i]
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
    gram matrix G is degenerate: |det(G/s)| < GRAM_DET_FACTOR with
    s = max(1, max |G_ij|), a determinant that cannot overflow."""
    stack = gram.reshape((-1,) + gram.shape[-2:])
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    det = np.linalg.det(stack / scale[:, None, None])
    degenerate = np.flatnonzero(np.abs(det) < GRAM_DET_FACTOR)
    if degenerate.size:
        k = degenerate[0]
        raise DegeneracyError(
            f"frame gram matrix is degenerate at {Point(p[k])!r} "
            f"(|det(G/s)| = {abs(det[k]):.3e} with s = {scale[k]:.3e}; "
            f"pseudo-Riemannian metrics can be degenerate on the orthogonal "
            f"distribution even where the leaf is regular)",
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
