"""Integrability conditions for the metric-orthogonal distribution.

Everything here asks one question about a regular Poisson bivector P and a
metric g: is the g-orthogonal complement of the symplectic leaves closed
under Lie brackets?  ``verdict`` answers it several independent ways:

* four first-order conditions contracting covariant derivatives of the
  coframe, the frame, or the bivector against P;
* the Frobenius curvature v([h., h.]) of the projector pair;
* the Nijenhuis torsion of the leaf projector restricted to the frame;
* a Christoffel-form Frobenius test available only in charts where P is
  the exact canonical constant block matrix.

All of these must agree; disagreement marks the run invalid (it can only
come from numerics, not from the geometry).  The co-vanishing check of
the bivector route P g [xi, xi] against the torsion route is derived from
the six values already computed at each point, not evaluated again.
Sufficient-only conditions (parallel bivector, leaf parallel transport,
parallel coframe) are reported as well but never flip the verdict: when
they fail they are merely inconclusive.

Every condition is evaluated once over the whole grid: the value
functions take an (n, dim) coordinate array and give one residual per
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .context import ChartContext
from .errors import GeometryError
from .geometry import (
    DEFAULT_SCHEME, SYMBOLIC, DerivativeScheme, Grid, Point, matvec,
    pointwise_max_abs,
)
from .metric import MetricField
from .poisson import (
    PoissonStructure, canonical_bivector, check_gram_nondegenerate,
    independent_column_mask,
)
from .reports import ConditionReport

DEFAULT_TOL_SYMBOLIC = 1e-6
DEFAULT_TOL_FD = 1e-4

# the six equivalent characterizations checked at every grid point
EQUIVALENCE_IDS = (
    "coframe-derivative",
    "bivector-derivative",
    "frame-derivative",
    "coframe-bracket-closure",
    "frobenius-curvature",
    "nijenhuis-torsion",
)

FORMULAS = {
    "coframe-derivative":
        "P^{ts} (nabla_{xi_i} omega^j - nabla_{xi_j} omega^i)_s",
    "bivector-derivative":
        "g^{la} (nabla_l P)^{ts} (omega^i ^ omega^j)_{sa}",
    "frame-derivative":
        "P^{ts} g_{sl} (nabla_{xi_i} xi_j - nabla_{xi_j} xi_i)^l",
    "coframe-bracket-closure":
        "P^{ts} (flat [xi_i, xi_j])_s",
    "frobenius-curvature":
        "v([h xi_i, h xi_j])",
    "nijenhuis-torsion":
        "[v xi_i, v xi_j] - v[v xi_i, xi_j] - v[xi_i, v xi_j] + v v [xi_i, xi_j]",
    "kernel-image-covanishing":
        "|P g [xi_i, xi_j]| <= tol  iff  |N_v(xi_i, xi_j)| <= tol",
    "christoffel-symmetry":
        "xi_I^a xi_J^b (Gamma_{bat} - Gamma_{abt}), frame pairs I < J, leaf t",
    "parallel-bivector-on-kernel":
        "(nabla_{xi_i} P)^{ts} omega^j_s",
    "leaf-parallel-transport":
        "omega^j(nabla_{xi_i} t_a) over a leaf basis t_a of bivector columns",
    "parallel-coframe":
        "nabla omega^i = 0, then |L_{xi_i} g| and |Laplacian c^i|",
}

SUFFICIENT_IDS = (
    "parallel-bivector-on-kernel",
    "leaf-parallel-transport",
    "parallel-coframe",
)


def default_tolerance(scheme: DerivativeScheme) -> float:
    """Residual floor: exact derivatives leave only rounding, stencils leave
    second-derivative noise."""
    return DEFAULT_TOL_SYMBOLIC if scheme.kind == SYMBOLIC else DEFAULT_TOL_FD


def _pairs(codim: int):
    return [(i, j) for i in range(codim) for j in range(i + 1, codim)]


class _Maxima(dict):
    """Running per-point maxima of residuals, one array per condition."""

    def __init__(self, keys, n: int):
        super().__init__((key, np.zeros(n)) for key in keys)

    def record(self, key, values):
        """Fold in max |values| per point (over all but the point axis)."""
        self[key] = np.maximum(self[key], pointwise_max_abs(values))


# ---------------------------------------------------------------------------
# the six equivalent conditions, evaluated on the frame

def _frame_torsion(ctx: ChartContext, i: int, j: int, q) -> np.ndarray:
    """Nijenhuis torsion of the leaf projector on (xi_i, xi_j)."""
    v = ctx.projector_v(q)
    t1 = ctx.frame_bracket(i, j, "v", "v", q)
    t2 = matvec(v, ctx.frame_bracket(i, j, "v", "plain", q))
    t3 = matvec(v, ctx.frame_bracket(i, j, "plain", "v", q))
    t4 = matvec(v, matvec(v, ctx.frame_bracket(i, j, "plain", "plain", q)))
    return t1 - t2 - t3 + t4


def _vecmat(vector, matrix):
    return np.einsum("...l,...lm->...m", vector, matrix)


def equivalence_condition_values(ctx: ChartContext, q) -> dict:
    """Max-abs residual of each of the six conditions at each row of q."""
    P = ctx.bivector_at(q)
    g = ctx.metric_at(q)
    ginv = ctx.metric_inv_at(q)
    frame = ctx.frame_at(q)
    coframe = ctx.coframe_at(q)
    g2 = ctx.christoffel_at(q).second_kind
    nabla_P = ctx.nabla_bivector(q)
    d = ctx.codim
    nabla_w = [ctx.nabla_coframe(i, q) for i in range(d)]
    jacs = [ctx.frame_jacobian(i, q) for i in range(d)]
    # nabla_l xi_i^s, including the connection term
    cov_frame = [jacs[i] + np.einsum("...slm,...m->...ls", g2, frame[..., i])
                 for i in range(d)]

    vals = _Maxima(EQUIVALENCE_IDS, len(q))
    for i, j in _pairs(d):
        xi_i, xi_j = frame[..., i], frame[..., j]
        w_i, w_j = coframe[:, i], coframe[:, j]

        covector = _vecmat(xi_i, nabla_w[j]) - _vecmat(xi_j, nabla_w[i])
        vals.record("coframe-derivative", matvec(P, covector))

        wedge = (np.einsum("...s,...a->...sa", w_i, w_j)
                 - np.einsum("...s,...a->...sa", w_j, w_i))
        vals.record("bivector-derivative",
                    np.einsum("...la,...lts,...sa->...t", ginv, nabla_P, wedge))

        diff = _vecmat(xi_i, cov_frame[j]) - _vecmat(xi_j, cov_frame[i])
        vals.record("frame-derivative", matvec(P, matvec(g, diff)))

        bracket = _vecmat(xi_i, jacs[j]) - _vecmat(xi_j, jacs[i])
        vals.record("coframe-bracket-closure", matvec(P, matvec(g, bracket)))

        vals.record("frobenius-curvature", matvec(
            ctx.projector_v(q), ctx.frame_bracket(i, j, "h", "h", q)))

        vals.record("nijenhuis-torsion", _frame_torsion(ctx, i, j, q))
    return vals


# ---------------------------------------------------------------------------
# sufficient-only conditions

def sufficient_condition_values(ctx: ChartContext, q) -> dict:
    """Raw residuals of the three sufficient conditions at each row of q.

    Returns condition id -> residual, plus the premise residual for the
    parallel-coframe condition under the key "parallel-coframe-premise".
    """
    P = ctx.bivector_at(q)
    coframe = ctx.coframe_at(q)
    frame = ctx.frame_at(q)
    dP = ctx.bivector_jacobian_at(q)
    g2 = ctx.christoffel_at(q).second_kind
    nabla_P = ctx.nabla_bivector(q)
    d = ctx.codim
    vals = _Maxima(SUFFICIENT_IDS + ("parallel-coframe-premise",), len(q))

    # parallel bivector: (nabla_{xi_i} P) omega^j over all ordered pairs
    for i in range(d):
        directional = np.einsum("...m,...mts->...ts", frame[..., i], nabla_P)
        for j in range(d):
            vals.record("parallel-bivector-on-kernel",
                        matvec(directional, coframe[:, j]))

    # leaf transport: omega^j(nabla_{xi_i} t_a) for bivector-column basis t_a,
    # where each point has its own column basis
    cols = independent_column_mask(P)
    for col in np.flatnonzero(cols.any(axis=0)).tolist():
        cov_t = dP[..., col] + np.einsum("...slm,...m->...ls", g2, P[..., col])  # [l, s]
        for i in range(d):
            derivative = _vecmat(frame[..., i], cov_t)
            for j in range(d):
                transport = np.einsum("...s,...s->...", coframe[:, j], derivative)
                vals.record("leaf-parallel-transport",
                            np.where(cols[:, col], transport, 0.0))

    # parallel coframe: premise nabla omega = 0; conclusions Killing + harmonic
    for i in range(d):
        vals.record("parallel-coframe-premise", ctx.nabla_coframe(i, q))
        vals.record("parallel-coframe", ctx.frame_metric_lie_derivative(i, q))
    for idx in range(len(ctx.structure.casimirs)):
        vals.record("parallel-coframe", ctx.casimir_laplacian(idx, q))
    return vals


# ---------------------------------------------------------------------------
# co-vanishing of the bivector route and the torsion route

def covanishing_values(vals: dict) -> tuple:
    """(bivector-route norm, torsion-route norm) from the six values.

    The bivector route max |P g [xi_i, xi_j]| is the coframe-bracket-closure
    residual and the torsion route is the Nijenhuis residual, so both are
    read from ``equivalence_condition_values`` instead of being evaluated a
    second time. The two measure the leaf component of frame brackets
    through unrelated operators (P g versus the projector torsion), so they
    must vanish together.
    """
    return vals["coframe-bracket-closure"], vals["nijenhuis-torsion"]


# ---------------------------------------------------------------------------
# canonical-chart Christoffel criterion

def canonical_block_form_ok(P: np.ndarray, rank: int) -> bool:
    """True when P, or every matrix of a stack, is exactly the constant
    canonical block matrix.

    Transversal coordinates first (zero block), then the standard
    symplectic pairing on the trailing ``rank`` coordinates; both sign
    orientations of the pairing are accepted. Comparison is bit-exact:
    this criterion only means anything in a chart where the bivector has
    already been put in normal form, so approximate matches are refused.
    """
    return bool(np.all(_canonical_points(P, rank)))


def _canonical_points(P: np.ndarray, rank: int) -> np.ndarray:
    """Per matrix of a stack: is it the canonical block matrix (either sign)."""
    pattern = canonical_bivector(P.shape[-1], rank).constant_components
    return (np.all(P == pattern, axis=(-2, -1))
            | np.all(P == -pattern, axis=(-2, -1)))


def canonical_chart_symmetry(ctx: ChartContext, q) -> np.ndarray:
    """Christoffel-form Frobenius residual in a canonical chart at each row of q.

    With the bivector in canonical block form the leaf coordinates t index
    the 1-forms theta_t = g(d_t, .), which span the annihilator of the
    orthogonal distribution, and d theta_t(d_a, d_b) = Gamma_{bat} -
    Gamma_{abt} in first-kind symbols. By Frobenius the distribution is
    integrable exactly when xi_I^a xi_J^b (Gamma_{bat} - Gamma_{abt})
    vanishes for every frame pair I < J and leaf t. The coordinate-index
    symmetry Gamma_{JIt} = Gamma_{IJt} alone is equivalent only where the
    metric has no transversal-leaf entries g_{It}.
    """
    off = np.flatnonzero(~_canonical_points(ctx.bivector_at(q),
                                            ctx.structure.expected_rank))
    if off.size:
        raise GeometryError(
            f"bivector at {Point(q[off[0]])!r} is not the canonical constant block "
            "form; the Christoffel-symmetry criterion is specific to such charts")
    leaf = ctx.christoffel_at(q).first_kind[..., ctx.codim:]
    dtheta = leaf.swapaxes(1, 2) - leaf  # [k, a, b, t] = d theta_t(d_a, d_b)
    frame = ctx.frame_at(q)
    residual = _Maxima(("chart",), len(q))
    for i, j in _pairs(ctx.codim):
        residual.record("chart", np.einsum(
            "...a,...b,...abt->...t", frame[..., i], frame[..., j], dtheta))
    return residual["chart"]


# ---------------------------------------------------------------------------
# aggregation

@dataclass
class Verdict:
    """Outcome of the full condition suite over a grid.

    ``integrable`` reflects the binding conditions only. ``consistent``
    is false when any two characterizations disagree (pointwise verdicts
    of the six conditions, co-vanishing routes, the canonical-chart
    criterion, or a sufficient condition that holds despite a negative
    verdict); an inconsistent run is invalid rather than meaningful.
    """

    integrable: bool
    consistent: bool
    tolerance: float
    conditions: list = field(default_factory=list)
    disagreements: list = field(default_factory=list)

    def report(self, condition_id: str) -> ConditionReport:
        for rep in self.conditions:
            if rep.condition == condition_id:
                return rep
        raise KeyError(condition_id)

    def to_dict(self) -> dict:
        return {
            "integrable": self.integrable,
            "consistent": self.consistent,
            "tolerance": self.tolerance,
            "conditions": [rep.to_dict() for rep in self.conditions],
            "disagreements": self.disagreements,
        }


def verdict(ps: PoissonStructure, m: MetricField, grid: Grid,
            scheme: DerivativeScheme = DEFAULT_SCHEME,
            tol: float | None = None,
            ctx: ChartContext | None = None,
            points=None) -> Verdict:
    """Run every condition over the grid and aggregate.

    The six equivalent conditions decide ``integrable``; the canonical
    chart criterion joins them when the bivector has the exact block form
    at every grid point. Sufficient conditions and the co-vanishing check
    ride along and only influence the consistency flag. ``points`` passes
    the grid's sampled points when the caller has them, and ``ctx`` a
    context built from this structure, metric and scheme (ValueError
    otherwise).
    """
    if ctx is None:
        ctx = ChartContext(ps, m, scheme)
    elif ctx.structure is not ps or ctx.metric is not m or ctx.scheme != scheme:
        raise ValueError(
            "ctx was built from another structure, metric or scheme than the "
            "one passed to verdict")
    tol = default_tolerance(ctx.scheme) if tol is None else tol
    points = grid.sample() if points is None else points
    q = points.coords

    chart_ok = canonical_block_form_ok(ctx.bivector_at(q), ps.expected_rank)
    # the orthogonal frame is only defined where the gram matrix is
    # invertible; catch degenerate points even when there are no frame
    # pairs (codimension one)
    check_gram_nondegenerate(ctx.gram_at(q), q)
    vals = equivalence_condition_values(ctx, q)
    suff = sufficient_condition_values(ctx, q)
    ra, rn = covanishing_values(vals)

    def report(cid, residuals, threshold=tol, binding=True):
        return ConditionReport(cid, FORMULAS[cid], threshold, binding,
                               points=points, residuals=residuals.tolist())

    equivalence = [report(cid, vals[cid]) for cid in EQUIVALENCE_IDS]
    sufficient = {cid: report(cid, suff[cid], binding=False)
                  for cid in SUFFICIENT_IDS}
    agree = (ra <= tol) == (rn <= tol)
    covanish = report("kernel-image-covanishing", np.where(agree, 0.0, 1.0), 0.5,
                      binding=False)
    covanish.extras.update(bivector_route_norms=ra.tolist(),
                           torsion_route_norms=rn.tolist(), vanishing_tolerance=tol)
    if chart_ok:
        chart = report("christoffel-symmetry", canonical_chart_symmetry(ctx, q))
    else:
        chart = ConditionReport("christoffel-symmetry", FORMULAS["christoffel-symmetry"],
                                tol, binding=False, status="skipped")

    disagreements = []
    holds = np.column_stack([vals[cid] <= tol for cid in EQUIVALENCE_IDS])
    for k, coords in enumerate(q.tolist()):
        if holds[k].any() and not holds[k].all():
            disagreements.append({
                "kind": "equivalence",
                "point": coords,
                "residuals": {cid: float(vals[cid][k]) for cid in EQUIVALENCE_IDS},
            })
        if not agree[k]:
            disagreements.append({
                "kind": "covanishing",
                "point": coords,
                "residuals": {"bivector_route": float(ra[k]),
                              "torsion_route": float(rn[k])},
            })
        if chart_ok and chart.holds_at(k) != holds[k].all():
            disagreements.append({
                "kind": "canonical-chart",
                "point": coords,
                "residuals": {"christoffel-symmetry": chart.residuals[k]},
            })

    premise_max = float(np.max(suff["parallel-coframe-premise"], initial=0.0))
    sufficient["parallel-coframe"].extras["premise_max_residual"] = premise_max
    if premise_max > tol:
        sufficient["parallel-coframe"].status = "inconclusive"
    for rep in sufficient.values():
        if rep.status is None and not rep.holds:
            rep.status = "inconclusive"

    binding = equivalence + ([chart] if chart_ok else [])
    integrable = all(rep.holds for rep in binding)

    for cid, rep in sufficient.items():
        if rep.label == "holds" and not integrable:
            disagreements.append({
                "kind": "sufficient-vs-verdict",
                "condition": cid,
                "max_residual": rep.max_residual,
            })

    conditions = equivalence + [chart, covanish] + list(sufficient.values())
    return Verdict(
        integrable=integrable,
        consistent=not disagreements,
        tolerance=tol,
        conditions=conditions,
        disagreements=disagreements,
    )
