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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .context import ChartContext
from .errors import GeometryError
from .geometry import (
    DEFAULT_SCHEME, SYMBOLIC, DerivativeScheme, Grid, Point, as_point,
)
from .metric import MetricField
from .poisson import (
    PoissonStructure, canonical_bivector, check_gram_nondegenerate,
    independent_columns,
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


def _amax(values) -> float:
    return float(np.max(np.abs(values), initial=0.0))


# ---------------------------------------------------------------------------
# the six equivalent conditions, evaluated on the frame at one point

def _frame_torsion(ctx: ChartContext, i: int, j: int, p: Point) -> np.ndarray:
    """Nijenhuis torsion of the leaf projector on (xi_i, xi_j)."""
    v = ctx.projector_v(p)
    t1 = ctx.frame_bracket(i, j, "v", "v", p)
    t2 = v @ ctx.frame_bracket(i, j, "v", "plain", p)
    t3 = v @ ctx.frame_bracket(i, j, "plain", "v", p)
    t4 = v @ (v @ ctx.frame_bracket(i, j, "plain", "plain", p))
    return t1 - t2 - t3 + t4


def equivalence_condition_values(ctx: ChartContext, p) -> dict:
    """Max-abs residual of each of the six conditions at one point."""
    p = as_point(p)
    P = ctx.bivector_at(p)
    g = ctx.metric_at(p)
    ginv = ctx.metric_inv_at(p)
    frame = ctx.frame_at(p)
    coframe = ctx.coframe_at(p)
    g2 = ctx.christoffel_at(p).second_kind
    nabla_P = ctx.nabla_bivector(p)
    d = ctx.codim
    nabla_w = [ctx.nabla_coframe(i, p) for i in range(d)]
    jacs = [ctx.frame_jacobian(i, p) for i in range(d)]
    # nabla_l xi_i^s, including the connection term
    cov_frame = [jacs[i] + np.einsum("slm,m->ls", g2, frame[:, i])
                 for i in range(d)]

    vals = {cid: 0.0 for cid in EQUIVALENCE_IDS}
    for i, j in _pairs(d):
        xi_i, xi_j = frame[:, i], frame[:, j]
        w_i, w_j = coframe[i], coframe[j]

        covector = xi_i @ nabla_w[j] - xi_j @ nabla_w[i]
        vals["coframe-derivative"] = max(
            vals["coframe-derivative"], _amax(P @ covector))

        wedge = np.outer(w_i, w_j) - np.outer(w_j, w_i)  # [s, a]
        contracted = np.einsum("la,lts,sa->t", ginv, nabla_P, wedge)
        vals["bivector-derivative"] = max(
            vals["bivector-derivative"], _amax(contracted))

        diff = xi_i @ cov_frame[j] - xi_j @ cov_frame[i]
        vals["frame-derivative"] = max(
            vals["frame-derivative"], _amax(P @ (g @ diff)))

        bracket = xi_i @ jacs[j] - xi_j @ jacs[i]
        vals["coframe-bracket-closure"] = max(
            vals["coframe-bracket-closure"], _amax(P @ (g @ bracket)))

        curvature = ctx.projector_v(p) @ ctx.frame_bracket(i, j, "h", "h", p)
        vals["frobenius-curvature"] = max(
            vals["frobenius-curvature"], _amax(curvature))

        vals["nijenhuis-torsion"] = max(
            vals["nijenhuis-torsion"], _amax(_frame_torsion(ctx, i, j, p)))
    return vals


# ---------------------------------------------------------------------------
# sufficient-only conditions

def sufficient_condition_values(ctx: ChartContext, p) -> dict:
    """Raw residuals of the three sufficient conditions at one point.

    Returns condition id -> residual, plus the premise residual for the
    parallel-coframe condition under the key "parallel-coframe-premise".
    """
    p = as_point(p)
    P = ctx.bivector_at(p)
    coframe = ctx.coframe_at(p)
    frame = ctx.frame_at(p)
    g2 = ctx.christoffel_at(p).second_kind
    nabla_P = ctx.nabla_bivector(p)
    d = ctx.codim

    # parallel bivector: (nabla_{xi_i} P) omega^j over all ordered pairs
    parallel_biv = 0.0
    for i in range(d):
        directional = np.einsum("m,mts->ts", frame[:, i], nabla_P)
        for j in range(d):
            parallel_biv = max(parallel_biv, _amax(directional @ coframe[j]))

    # leaf transport: omega^j(nabla_{xi_i} t_a) for bivector-column basis t_a
    cols = independent_columns(P)
    transport = 0.0
    for col in cols:
        t_val = P[:, col]
        jac_t = ctx.bivector_column_jacobian(col, p)
        cov_t = jac_t + np.einsum("slm,m->ls", g2, t_val)  # [l, s]
        for i in range(d):
            derivative = frame[:, i] @ cov_t
            for j in range(d):
                transport = max(transport, abs(float(coframe[j] @ derivative)))

    # parallel coframe: premise nabla omega = 0; conclusions Killing + harmonic
    premise = max((_amax(ctx.nabla_coframe(i, p)) for i in range(d)), default=0.0)
    killing = max(
        (_amax(ctx.frame_metric_lie_derivative(i, p)) for i in range(d)),
        default=0.0)
    harmonic = max(
        (abs(float(ctx.casimir_laplacian(idx, p)))
         for idx in range(len(ctx.structure.casimirs))),
        default=0.0)

    return {
        "parallel-bivector-on-kernel": parallel_biv,
        "leaf-parallel-transport": transport,
        "parallel-coframe": max(killing, harmonic),
        "parallel-coframe-premise": premise,
    }


# ---------------------------------------------------------------------------
# co-vanishing of the bivector route and the torsion route

def covanishing_values(vals: dict) -> tuple:
    """(bivector-route norm, torsion-route norm) from one point's six values.

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
    """True when P is exactly the constant canonical block matrix.

    Transversal coordinates first (zero block), then the standard
    symplectic pairing on the trailing ``rank`` coordinates; both sign
    orientations of the pairing are accepted. Comparison is bit-exact:
    this criterion only means anything in a chart where the bivector has
    already been put in normal form, so approximate matches are refused.
    """
    dim = P.shape[0]
    pattern = canonical_bivector(dim, rank).components(Point(np.zeros(dim)))
    return np.array_equal(P, pattern) or np.array_equal(P, -pattern)


def canonical_chart_symmetry(ctx: ChartContext, p) -> float:
    """Christoffel-form Frobenius residual in a canonical chart at one point.

    With the bivector in canonical block form the leaf coordinates t index
    the 1-forms theta_t = g(d_t, .), which span the annihilator of the
    orthogonal distribution, and d theta_t(d_a, d_b) = Gamma_{bat} -
    Gamma_{abt} in first-kind symbols. By Frobenius the distribution is
    integrable exactly when xi_I^a xi_J^b (Gamma_{bat} - Gamma_{abt})
    vanishes for every frame pair I < J and leaf t. The coordinate-index
    symmetry Gamma_{JIt} = Gamma_{IJt} alone is equivalent only where the
    metric has no transversal-leaf entries g_{It}.
    """
    p = as_point(p)
    if not canonical_block_form_ok(ctx.bivector_at(p), ctx.structure.expected_rank):
        raise GeometryError(
            f"bivector at {p!r} is not the canonical constant block form; "
            "the Christoffel-symmetry criterion is specific to such charts")
    leaf = ctx.christoffel_at(p).first_kind[:, :, ctx.codim:]
    dtheta = leaf.swapaxes(0, 1) - leaf  # [a, b, t] = d theta_t(d_a, d_b)
    frame = ctx.frame_at(p)
    residual = 0.0
    for i, j in _pairs(ctx.codim):
        residual = max(residual, _amax(
            np.einsum("a,b,abt->t", frame[:, i], frame[:, j], dtheta)))
    return residual


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
            ctx: ChartContext | None = None) -> Verdict:
    """Run every condition over the grid and aggregate.

    The six equivalent conditions decide ``integrable``; the canonical
    chart criterion joins them when the bivector has the exact block form
    at every grid point. Sufficient conditions and the co-vanishing check
    ride along and only influence the consistency flag.
    """
    ctx = ctx or ChartContext(ps, m, scheme)
    tol = default_tolerance(ctx.scheme) if tol is None else tol
    points = grid.sample()

    equivalence = {cid: ConditionReport(cid, FORMULAS[cid], tol)
                   for cid in EQUIVALENCE_IDS}
    sufficient = {cid: ConditionReport(cid, FORMULAS[cid], tol, binding=False)
                  for cid in SUFFICIENT_IDS}
    covanish = ConditionReport(
        "kernel-image-covanishing", FORMULAS["kernel-image-covanishing"], 0.5,
        binding=False)
    covanish.extras["bivector_route_norms"] = []
    covanish.extras["torsion_route_norms"] = []
    covanish.extras["vanishing_tolerance"] = tol

    chart_ok = all(
        canonical_block_form_ok(ctx.bivector_at(p), ps.expected_rank)
        for p in points)
    chart = ConditionReport(
        "christoffel-symmetry", FORMULAS["christoffel-symmetry"], tol,
        binding=chart_ok)
    if not chart_ok:
        chart.status = "skipped"

    disagreements = []
    premise_max = 0.0
    for p in points:
        # the orthogonal frame is only defined where the gram matrix is
        # invertible; catch degenerate points even when the pair loops below
        # are empty (codimension one)
        check_gram_nondegenerate(ctx.gram_at(p), p)
        vals = equivalence_condition_values(ctx, p)
        for cid in EQUIVALENCE_IDS:
            equivalence[cid].add(p, vals[cid])
        flags = [vals[cid] <= tol for cid in EQUIVALENCE_IDS]
        if any(flags) and not all(flags):
            disagreements.append({
                "kind": "equivalence",
                "point": [float(c) for c in p.coords],
                "residuals": {cid: vals[cid] for cid in EQUIVALENCE_IDS},
            })

        suff = sufficient_condition_values(ctx, p)
        for cid in SUFFICIENT_IDS:
            sufficient[cid].add(p, suff[cid])
        premise_max = max(premise_max, suff["parallel-coframe-premise"])

        ra, rn = covanishing_values(vals)
        covanish.extras["bivector_route_norms"].append(ra)
        covanish.extras["torsion_route_norms"].append(rn)
        agree = (ra <= tol) == (rn <= tol)
        covanish.add(p, 0.0 if agree else 1.0)
        if not agree:
            disagreements.append({
                "kind": "covanishing",
                "point": [float(c) for c in p.coords],
                "residuals": {"bivector_route": ra, "torsion_route": rn},
            })

        if chart_ok:
            residual = canonical_chart_symmetry(ctx, p)
            chart.add(p, residual)
            if chart.holds_at(len(chart.points) - 1) != all(flags):
                disagreements.append({
                    "kind": "canonical-chart",
                    "point": [float(c) for c in p.coords],
                    "residuals": {"christoffel-symmetry": residual},
                })

    sufficient["parallel-coframe"].extras["premise_max_residual"] = premise_max
    if premise_max > tol:
        sufficient["parallel-coframe"].status = "inconclusive"
    for cid in SUFFICIENT_IDS:
        rep = sufficient[cid]
        if rep.status is None and not rep.holds:
            rep.status = "inconclusive"

    binding = list(equivalence.values()) + ([chart] if chart_ok else [])
    integrable = all(rep.holds for rep in binding)

    for cid in SUFFICIENT_IDS:
        if sufficient[cid].label == "holds" and not integrable:
            disagreements.append({
                "kind": "sufficient-vs-verdict",
                "condition": cid,
                "max_residual": sufficient[cid].max_residual,
            })

    conditions = (list(equivalence.values()) + [chart, covanish]
                  + list(sufficient.values()))
    return Verdict(
        integrable=integrable,
        consistent=not disagreements,
        tolerance=tol,
        conditions=conditions,
        disagreements=disagreements,
    )
