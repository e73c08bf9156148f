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
    DEFAULT_SCHEME, DerivativeScheme, Grid, TensorField, as_point, jacobian,
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
    """One-form fields omega^i: the (optionally rescaled) Casimir gradients."""
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
            def evaluate_at(p, grad=grad, scale=scale):
                return scale.components(p)[()] * grad.components(p)

            out.append(TensorField(ps.dim, "l", evaluate_at))
    return out


def check_gram_nondegenerate(gram: np.ndarray, p) -> None:
    d = gram.shape[0]
    scale = max(1.0, float(np.max(np.abs(gram))))
    det = float(np.linalg.det(gram))
    if abs(det) < GRAM_DET_FACTOR * scale ** d:
        raise DegeneracyError(
            f"frame gram matrix is degenerate at {as_point(p)!r} "
            f"(|det| = {abs(det):.3e}; pseudo-Riemannian metrics can be "
            f"degenerate on the orthogonal distribution even where the leaf "
            f"is regular)",
            detail={"det": det, "gram": gram.copy()})


def independent_columns(matrix: np.ndarray, rel_tol: float = 1e-9) -> list:
    """Indices of a maximal independent column set, scanning left to right.

    Deterministic: each column is orthogonalized against the already chosen
    ones and kept when its remainder is non-negligible.
    """
    scale = max(float(np.max(np.abs(matrix), initial=0.0)), 1e-300)
    chosen = []
    ortho = []
    for col in range(matrix.shape[1]):
        c = matrix[:, col].astype(float).copy()
        for q in ortho:
            c -= q * (q @ c)
        nrm = float(np.linalg.norm(c))
        if nrm > rel_tol * scale:
            ortho.append(c / nrm)
            chosen.append(col)
    return chosen


def bivector_rank(P: np.ndarray) -> int:
    singulars = np.linalg.svd(P, compute_uv=False)
    if singulars.size == 0 or singulars[0] == 0.0:
        return 0
    return int(np.sum(singulars > RANK_SVD_FACTOR * singulars[0]))


def validate_poisson(ps: PoissonStructure, grid: Grid,
                     scheme: DerivativeScheme = DEFAULT_SCHEME,
                     tol: float = ANNIHILATION_TOL) -> PoissonValidationReport:
    """Antisymmetry, Jacobi, Casimir annihilation, and rank over a grid.

    Raises RegularityError naming the first sampled point whose bivector
    rank differs from the declared one; rank jumps across the grid are a
    special case of that.
    """
    antisym = ConditionReport(
        "bivector-antisymmetry", "P^{mn} + P^{nm} = 0", tol)
    jacobi = ConditionReport(
        "bivector-jacobi",
        "P^{lm} d_l P^{ns} + P^{ln} d_l P^{sm} + P^{ls} d_l P^{mn} = 0", tol)
    annihilation = ConditionReport(
        "casimir-annihilation", "P^{ts} (dc^i)_s = 0", tol)

    grads = [dsl.gradient_field(c, scheme) for c in ps.casimirs]
    points = grid.sample()
    ranks = []
    for p in points:
        P = ps.bivector.components(p)
        antisym.add(p, np.max(np.abs(P + P.T)))
        dP = jacobian(ps.bivector, p, scheme)  # [l, t, s]
        contraction = (np.einsum("lm,lns->mns", P, dP)
                       + np.einsum("ln,lsm->mns", P, dP)
                       + np.einsum("ls,lmn->mns", P, dP))
        jacobi.add(p, np.max(np.abs(contraction)))
        annihilation.add(
            p, max((float(np.max(np.abs(P @ gf.components(p)))) for gf in grads),
                   default=0.0))
        ranks.append(bivector_rank(P))

    for i, rank in enumerate(ranks):
        if rank != ps.expected_rank:
            raise RegularityError(
                f"bivector rank {rank} at {points[i]!r}, expected "
                f"{ps.expected_rank}", points=[points[i]])

    return PoissonValidationReport(
        antisymmetry=antisym, jacobi=jacobi, casimir_annihilation=annihilation,
        rank=ranks[0] if ranks else 0)


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
