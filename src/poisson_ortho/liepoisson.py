"""Linear Poisson structures on the dual of a Lie algebra.

A set of structure constants determines a linear bivector on the dual
space, whose symplectic leaves are the coadjoint orbits.  This module
validates structure constants exactly (rational arithmetic), builds the
linear bivector as an expression-backed field, computes Killing forms,
ships the built-in algebras used by the scenario runner, and verifies
parametrized integral surfaces of the orthogonal distribution.

Index convention for constants: ``c[mu, nu, sigma]`` is the coefficient
of basis vector ``e_sigma`` in ``[e_mu, e_nu]`` (upper index stored
last), so the bivector reads ``P^{mu nu}(lam) = sum_sigma c[mu, nu,
sigma] lam_sigma``.

Covectors at a point of the dual space are canonically elements of the
algebra itself, which is what lets Casimir differentials be bracketed
against each other (``casimir_lie_bracket``) and lets constant matrices
on the dual act as contravariant metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import dsl
from .context import ChartContext
from .errors import ConfigError, ConsistencyError, DegeneracyError, RegularityError
from .geometry import CENTRAL_4, central_stencil
from .integrability import default_tolerance
from .metric import MetricField
from .poisson import PoissonStructure
from .reports import ConditionReport

BUILTIN_NAMES = ("so3", "sl2r", "so3xso3", "se3")


@dataclass(frozen=True)
class StructureConstants:
    """Structure constants of a finite-dimensional Lie algebra basis."""

    dim: int
    table: np.ndarray  # shape (dim, dim, dim), c[mu, nu, sigma]

    def __post_init__(self):
        arr = np.array(self.table, dtype=float)
        if arr.shape != (self.dim,) * 3:
            raise ConfigError(
                f"structure constants have shape {arr.shape}, "
                f"want {(self.dim,) * 3}")
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @cached_property
    def validation(self) -> "ConstantsValidation":
        """``validate_constants`` of this table, computed once.

        The table is read-only, so the O(n^5) exact check never needs to
        run twice for one set of constants.
        """
        return validate_constants(self)


@dataclass
class ConstantsValidation:
    """Exact validation outcome for a structure-constant table."""

    antisymmetry_violations: list = field(default_factory=list)
    jacobi_violations: list = field(default_factory=list)
    max_antisymmetry_residual: Fraction = Fraction(0)
    max_jacobi_residual: Fraction = Fraction(0)

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "antisymmetry_violations": [list(v) for v in self.antisymmetry_violations],
            "jacobi_violations": [list(v) for v in self.jacobi_violations],
            "max_antisymmetry_residual": float(self.max_antisymmetry_residual),
            "max_jacobi_residual": float(self.max_jacobi_residual),
        }


def _integer_table(sc: StructureConstants):
    """(C, den): the table times the lcm ``den`` of its entries'
    denominators, as an object array of Python ints.

    float64 -> Fraction is exact, so integer and dyadic-rational inputs
    validate with zero roundoff, and Python ints never overflow.
    """
    exact = [Fraction(v) for v in sc.table.ravel().tolist()]
    den = math.lcm(*(f.denominator for f in exact))
    ints = np.array([f.numerator * (den // f.denominator) for f in exact],
                    dtype=object)
    return ints.reshape(sc.table.shape), den


def validate_constants(sc: StructureConstants) -> ConstantsValidation:
    """Check antisymmetry and the Jacobi identity in exact arithmetic.

    Violations are collected with their index triples (antisymmetry, m <= u)
    or quadruples (Jacobi) in lexicographic order; residuals are exact
    Fractions, so a report with ``ok`` True means identically zero, not
    merely small. The sums run on the table scaled to integers, so the
    residuals are the integer sums divided by den (antisymmetry) or den^2
    (Jacobi).
    """
    c, den = _integer_table(sc)
    out = ConstantsValidation()
    antisymmetry = c + c.transpose(1, 0, 2)
    for m, u, s in np.argwhere(antisymmetry != 0).tolist():
        if u >= m:
            out.antisymmetry_violations.append((m, u, s))
            out.max_antisymmetry_residual = max(
                out.max_antisymmetry_residual,
                Fraction(abs(antisymmetry[m, u, s]), den))
    jacobi = (np.einsum("mur,rst->must", c, c)
              + np.einsum("usr,rmt->must", c, c)
              + np.einsum("smr,rut->must", c, c))
    for m, u, s, t in np.argwhere(jacobi != 0).tolist():
        out.jacobi_violations.append((m, u, s, t))
        out.max_jacobi_residual = max(
            out.max_jacobi_residual, Fraction(abs(jacobi[m, u, s, t]), den ** 2))
    return out


def require_valid(sc: StructureConstants) -> None:
    report = sc.validation
    if report.antisymmetry_violations:
        where = report.antisymmetry_violations[0]
        raise ConsistencyError(
            f"structure constants are not antisymmetric at indices {where}: "
            f"residual {report.max_antisymmetry_residual}")
    if report.jacobi_violations:
        where = report.jacobi_violations[0]
        raise ConsistencyError(
            f"structure constants violate the Jacobi identity at indices "
            f"{where}: residual {report.max_jacobi_residual}")


def killing_form(sc: StructureConstants) -> np.ndarray:
    """Trace form K[m, n] = sum_{r,s} c[m,r,s] c[n,s,r].

    Exact for integer tables (the sums stay well inside float precision).
    The ad-invariance identity is re-checked on all basis triples as a
    guard against mislabeled index conventions in caller-supplied tables.
    """
    require_valid(sc)
    c = sc.table
    k = np.einsum("mrs,nsr->mn", c, c)
    invariance = (np.einsum("rmt,tn->rmn", c, k)
                  + np.einsum("rnt,mt->rmn", c, k))
    if np.max(np.abs(invariance)) != 0.0:
        raise ConsistencyError(
            "Killing form is not ad-invariant; structure-constant table "
            "does not follow the documented index convention")
    return k


def linear_poisson_bivector(sc: StructureConstants) -> dsl.ExprTensorField:
    """The linear bivector P^{mu nu}(lam) = sum_sigma c[mu,nu,sigma] lam_sigma."""
    n = sc.dim
    entries = []
    for m in range(n):
        row = []
        for u in range(n):
            e = dsl.lit(0)
            for s in range(n):
                coeff = sc.table[m, u, s]
                if coeff != 0.0:
                    e = dsl.add(e, dsl.mul(dsl.lit(coeff), dsl.varx(s)))
            row.append(e)
        entries.append(row)
    return dsl.expr_field(n, "uu", entries)


def linear_poisson(sc: StructureConstants, casimirs, expected_rank: int,
                   coframe_scales=None) -> PoissonStructure:
    """Assemble a PoissonStructure from validated constants plus Casimir data.

    The bivector Jacobi identity follows from the algebra Jacobi identity,
    so validate_poisson on the result reports zero cyclic residual.
    """
    require_valid(sc)
    return PoissonStructure(
        bivector=linear_poisson_bivector(sc),
        casimirs=[dsl.scalar_field(c, sc.dim) if isinstance(c, str) else c
                  for c in casimirs],
        expected_rank=expected_rank,
        coframe_scales=coframe_scales)


def se3_metric(alpha: float, beta: float) -> MetricField:
    """Constant block metric [[alpha I, beta I], [beta I, 0]] on the dual.

    The matrix is the contravariant tensor (it acts on covectors in
    sharp); its inverse [[0, I/beta], [I/beta, -alpha/beta^2 I]] is
    supplied in closed form.  Eigenvalues are (alpha +- sqrt(alpha^2 +
    4 beta^2))/2, each threefold, so the signature is (3, 3) and the
    metric is degenerate exactly when beta = 0.
    """
    if beta == 0.0:
        raise DegeneracyError(
            "the block pairing metric is degenerate when beta = 0",
            detail="eigenvalue product per block pair is -beta^2")
    eye = np.eye(3)
    upper = np.block([[alpha * eye, beta * eye], [beta * eye, 0.0 * eye]])
    lower = np.block([[0.0 * eye, eye / beta],
                      [eye / beta, -(alpha / beta ** 2) * eye]])
    return MetricField.from_contravariant(upper, covariant=lower)


def _epsilon() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


def _so3_constants() -> StructureConstants:
    return StructureConstants(3, _epsilon())


def _sl2r_constants() -> StructureConstants:
    # basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 2.0, -2.0
    c[0, 2, 2], c[2, 0, 2] = -2.0, 2.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    return StructureConstants(3, c)


def _so3xso3_constants() -> StructureConstants:
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = _epsilon()
    c[3:, 3:, 3:] = _epsilon()
    return StructureConstants(6, c)


def _se3_constants() -> StructureConstants:
    # rotations e_1..e_3, translations f_1..f_3:
    # [e_i, e_j] = eps_ijk e_k, [e_i, f_j] = eps_ijk f_k, [f_i, f_j] = 0
    eps = _epsilon()
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = eps
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i, 3 + j, 3 + k] = eps[i, j, k]
                c[3 + j, i, 3 + k] = -eps[i, j, k]
    return StructureConstants(6, c)


@dataclass(frozen=True)
class BuiltinAlgebra:
    """A ready-to-run Lie-Poisson setup: constants, Casimirs, metric, domain."""

    name: str
    constants: StructureConstants
    structure: PoissonStructure
    metric: MetricField
    regular: object  # coords array -> bool, True on the regular domain
    default_center: tuple
    default_half_width: float
    extension: bool = False  # artifact addition, not a literature example


def _make_so3() -> BuiltinAlgebra:
    sc = _so3_constants()
    return BuiltinAlgebra(
        name="so3",
        constants=sc,
        structure=linear_poisson(sc, ["x1^2 + x2^2 + x3^2"], expected_rank=2),
        metric=MetricField.from_contravariant(2.0 * np.eye(3),
                                              covariant=0.5 * np.eye(3)),
        regular=lambda lam: float(lam @ lam) > 0.0,
        default_center=(0.0, 0.0, 1.0),
        default_half_width=0.25)


def _sl2r_casimir_value(lam) -> float:
    return lam[0] ** 2 / 8.0 + lam[1] * lam[2] / 2.0


def _make_sl2r() -> BuiltinAlgebra:
    sc = _sl2r_constants()
    killing = np.array([[8.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    return BuiltinAlgebra(
        name="sl2r",
        constants=sc,
        # Casimir is the inverse-Killing quadratic; zero level set is the
        # nilpotent cone where the frame gram degenerates
        structure=linear_poisson(sc, ["x1^2/8 + x2*x3/2"], expected_rank=2),
        metric=MetricField.from_contravariant(killing),
        regular=lambda lam: _sl2r_casimir_value(lam) != 0.0,
        default_center=(1.0, 0.0, 0.0),
        default_half_width=0.25)


def _make_so3xso3() -> BuiltinAlgebra:
    sc = _so3xso3_constants()
    return BuiltinAlgebra(
        name="so3xso3",
        constants=sc,
        structure=linear_poisson(
            sc, ["x1^2 + x2^2 + x3^2", "x4^2 + x5^2 + x6^2"], expected_rank=4),
        metric=MetricField.from_contravariant(2.0 * np.eye(6),
                                              covariant=0.5 * np.eye(6)),
        regular=lambda lam: float(lam[:3] @ lam[:3]) > 0.0
        and float(lam[3:] @ lam[3:]) > 0.0,
        default_center=(0.0, 0.0, 1.0, 0.0, 0.0, 1.0),
        default_half_width=0.25,
        extension=True)


def _make_se3(alpha: float = 0.0, beta: float = 1.0) -> BuiltinAlgebra:
    sc = _se3_constants()
    return BuiltinAlgebra(
        name="se3",
        constants=sc,
        # second coframe covector is p rather than the raw gradient 2p
        structure=linear_poisson(
            sc, ["x1*x4 + x2*x5 + x3*x6", "x4^2 + x5^2 + x6^2"],
            expected_rank=4, coframe_scales=[1, 0.5]),
        metric=se3_metric(alpha, beta),
        regular=lambda lam: float(lam[3:] @ lam[3:]) != 0.0,
        default_center=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
        default_half_width=0.25)


_BUILTIN_FACTORIES = {
    "so3": _make_so3,
    "sl2r": _make_sl2r,
    "so3xso3": _make_so3xso3,
    "se3": _make_se3,
}


def builtin_algebra(name: str, **params) -> BuiltinAlgebra:
    """Look up a built-in algebra; se3 accepts metric parameters alpha, beta."""
    if name not in _BUILTIN_FACTORIES:
        raise ConfigError(
            f"unknown algebra {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    if params and name != "se3":
        raise ConfigError(f"algebra {name!r} takes no metric parameters")
    return _BUILTIN_FACTORIES[name](**params)


def ensure_regular_grid(alg: BuiltinAlgebra, points) -> None:
    """Reject a grid's points, a ``geometry.Points`` batch, when one touches
    the non-regular locus, before any run starts."""
    for p in points:
        if not alg.regular(p.coords):
            raise RegularityError(
                f"grid point {p!r} lies outside the regular domain of "
                f"{alg.name}", points=[p])


def casimir_lie_bracket(sc: StructureConstants, coframe: np.ndarray) -> np.ndarray:
    """Bracket table of the coframe covectors viewed as algebra elements.

    On the dual space a covector is itself an algebra element, so the
    coframe rows at each point, (n, d, dim) as ``ChartContext.coframe_at``
    gives them, can be bracketed entrywise under the structure constants:
    out[k, i, j, :] = [w^i, w^j] at point k.  An all-zero table is the
    abelian criterion for the span of the Casimir differentials there.
    """
    d = coframe.shape[1]
    out = np.zeros(coframe.shape[:2] + (d, sc.dim))
    # the bracket is antisymmetric identically, so fill one triangle and
    # mirror; summing the full contraction would leave roundoff on the
    # diagonal where exact zeros are expected
    for i in range(d):
        for j in range(i + 1, d):
            out[..., i, j, :] = np.einsum("...m,...n,mns->...s",
                                          coframe[:, i], coframe[:, j], sc.table)
            out[..., j, i, :] = -out[..., i, j, :]
    return out


def verify_integral_surface(surface, ctx: ChartContext, samples,
                            tol: float | None = None) -> ConditionReport:
    """Check that a parametrized surface is tangent to the orthogonal frame.

    ``surface`` maps k parameter arrays of length m (k >= 1) to the (m, dim)
    chart points, and ``samples`` holds the m parameter tuples, an (m, k)
    array (or m numbers when k = 1). The surface is evaluated once at the
    samples and once for all the tangents, the 4th-order central stencils
    along every parameter stacked, with the derivative scheme's step rule.
    At each sample the tangents are decomposed against the frame columns
    by one least-squares solve; the residual is the norm of the out-of-span
    component (maximum over the tangent directions). A rank-deficient frame along the surface
    makes the decomposition meaningless and raises instead, naming the
    first such sample. The frame is read from a context of its own over the
    surface points, built from ``ctx``'s structure, metric and scheme.
    """
    if tol is None:
        tol = default_tolerance(ctx.scheme)
    params = np.array(samples, dtype=float).reshape(len(samples), -1)

    def at(q):
        return np.asarray(surface(*q.T), dtype=float)

    on_surface = ChartContext(ctx.structure, ctx.metric, at(params), ctx.scheme)
    frames = on_surface.frame_at()
    # tangents[k, :, j]: d surface / d param j at sample k
    tangents = central_stencil(at, params, range(params.shape[1]),
                               ctx.scheme.step_for(params), CENTRAL_4).swapaxes(1, 2)
    sigma = np.linalg.svd(frames, compute_uv=False)
    degenerate = sigma[:, -1] <= 1e-9 * sigma[:, 0]
    if degenerate.any():
        k = int(np.argmax(degenerate))
        raise DegeneracyError(
            f"orthogonal frame is rank-deficient on the surface at "
            f"parameters {tuple(params[k].tolist())}",
            detail=f"singular values {sigma[k]}")
    residuals = []
    for frame, tangent in zip(frames, tangents):
        coeffs = np.linalg.lstsq(frame, tangent, rcond=None)[0]
        # one vector norm per direction: norm(..., axis=0) rounds differently
        norms = [float(np.linalg.norm(t - frame @ c)) for t, c in zip(tangent.T, coeffs.T)]
        residuals.append(max(0.0, *norms))
    return ConditionReport(
        "integral-surface", "|| (1 - Xi Xi^+) d surface / d param ||", tol,
        binding=False, points=on_surface.points, residuals=residuals)
