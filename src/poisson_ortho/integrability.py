"""Integrability conditions for the metric-orthogonal distribution.

Everything here asks one question about a regular Poisson bivector P and a
metric g: is the g-orthogonal complement of the symplectic leaves closed
under Lie brackets?  ``verdict`` answers it several independent ways.
``CONDITIONS`` names each once, as a row (id, role, formula) in report
order, and the role alone decides how a row is classified:

* ``equivalence``: six conditions that each decide the question. Four
  contract covariant derivatives of the coframe, the frame, or the
  bivector against P; then the Frobenius curvature v([h., h.]) of the
  projector pair and the Nijenhuis torsion of the leaf projector on the
  frame. They are binding.
* ``chart``: a Christoffel-form Frobenius test, binding where P is the
  exact canonical constant block matrix at every point, skipped elsewhere.
* ``cross-check``: the bivector route P g [xi, xi] and the torsion route
  must vanish together. Both are read from the six values already
  computed, not evaluated again.
* ``sufficient``: parallel bivector, leaf parallel transport, parallel
  coframe. They never flip the verdict; when they or their premise fail
  they are merely inconclusive.

The binding conditions must agree at every point, the two routes must
vanish together, and no sufficient condition may hold on a non-integrable
run; any disagreement marks the run invalid (it can only come from
numerics, not from the geometry).

Every condition is evaluated once over the whole grid: the value
functions take the check's ``ChartContext``, bound to the grid's points,
and give one residual per point. They stay module functions that
``verdict`` calls by name, not entries of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .context import ChartContext
from .errors import GeometryError
from .geometry import SYMBOLIC, DerivativeScheme, matvec, pointwise_max_abs
from .poisson import canonical_bivector, independent_column_mask
from .reports import ConditionReport

DEFAULT_TOL_SYMBOLIC = 1e-6
DEFAULT_TOL_FD = 1e-4

# every condition once, in report order: (id, role, formula)
CONDITIONS = (
    ("coframe-derivative", "equivalence",
     "P^{ts} (nabla_{xi_i} omega^j - nabla_{xi_j} omega^i)_s"),
    ("bivector-derivative", "equivalence",
     "g^{la} (nabla_l P)^{ts} (omega^i ^ omega^j)_{sa}"),
    ("frame-derivative", "equivalence",
     "P^{ts} g_{sl} (nabla_{xi_i} xi_j - nabla_{xi_j} xi_i)^l"),
    ("coframe-bracket-closure", "equivalence",
     "P^{ts} (flat [xi_i, xi_j])_s"),
    ("frobenius-curvature", "equivalence",
     "v([h xi_i, h xi_j])"),
    ("nijenhuis-torsion", "equivalence",
     "[v xi_i, v xi_j] - v[v xi_i, xi_j] - v[xi_i, v xi_j] + v v [xi_i, xi_j]"),
    ("christoffel-symmetry", "chart",
     "xi_I^a xi_J^b (Gamma_{bat} - Gamma_{abt}), frame pairs I < J, leaf t"),
    ("kernel-image-covanishing", "cross-check",
     "|P g [xi_i, xi_j]| <= tol  iff  |N_v(xi_i, xi_j)| <= tol"),
    ("parallel-bivector-on-kernel", "sufficient",
     "(nabla_{xi_i} P)^{ts} omega^j_s"),
    ("leaf-parallel-transport", "sufficient",
     "omega^j(nabla_{xi_i} t_a) over a leaf basis t_a of bivector columns"),
    ("parallel-coframe", "sufficient",
     "nabla omega^i = 0, then |L_{xi_i} g| and |Laplacian c^i|"),
)

EQUIVALENCE_IDS = tuple(cid for cid, role, _ in CONDITIONS if role == "equivalence")
SUFFICIENT_IDS = tuple(cid for cid, role, _ in CONDITIONS if role == "sufficient")


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

def _frame_torsion(ctx: ChartContext, i: int, j: int) -> np.ndarray:
    """Nijenhuis torsion of the leaf projector on (xi_i, xi_j)."""
    v = ctx.projector_v()
    t1 = ctx.frame_bracket(i, j, "v", "v")
    t2 = matvec(v, ctx.frame_bracket(i, j, "v", "plain"))
    t3 = matvec(v, ctx.frame_bracket(i, j, "plain", "v"))
    t4 = matvec(v, matvec(v, ctx.frame_bracket(i, j, "plain", "plain")))
    return t1 - t2 - t3 + t4


def _vecmat(vector, matrix):
    return np.einsum("...l,...lm->...m", vector, matrix)


def equivalence_condition_values(ctx: ChartContext) -> dict:
    """Max-abs residual of each of the six conditions at each point of ctx."""
    P = ctx.bivector_at()
    g = ctx.metric_at()
    ginv = ctx.metric_inv_at()
    frame = ctx.frame_at()
    coframe = ctx.coframe_at()
    g2 = ctx.christoffel_at().second_kind
    nabla_P = ctx.nabla_bivector()
    d = ctx.codim
    nabla_w = [ctx.nabla_coframe(i) for i in range(d)]
    jacs = [ctx.frame_jacobian(i) for i in range(d)]
    # nabla_l xi_i^s, including the connection term
    cov_frame = [jacs[i] + np.einsum("...slm,...m->...ls", g2, frame[..., i])
                 for i in range(d)]

    vals = _Maxima(EQUIVALENCE_IDS, len(ctx.q))
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

        vals.record("coframe-bracket-closure",
                    matvec(P, matvec(g, ctx.frame_bracket(i, j, "plain", "plain"))))

        vals.record("frobenius-curvature", matvec(
            ctx.projector_v(), ctx.frame_bracket(i, j, "h", "h")))

        vals.record("nijenhuis-torsion", _frame_torsion(ctx, i, j))
    return vals


# ---------------------------------------------------------------------------
# sufficient-only conditions

def sufficient_condition_values(ctx: ChartContext) -> dict:
    """Raw residuals of the three sufficient conditions at each point of ctx.

    Returns condition id -> residual, plus the premise residual for the
    parallel-coframe condition under the key "parallel-coframe-premise".
    """
    P = ctx.bivector_at()
    coframe = ctx.coframe_at()
    frame = ctx.frame_at()
    dP = ctx.bivector_jacobian_at()
    g2 = ctx.christoffel_at().second_kind
    nabla_P = ctx.nabla_bivector()
    d = ctx.codim
    vals = _Maxima(SUFFICIENT_IDS + ("parallel-coframe-premise",), len(ctx.q))

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
        vals.record("parallel-coframe-premise", ctx.nabla_coframe(i))
        vals.record("parallel-coframe", ctx.frame_metric_lie_derivative(i))
    for idx in range(len(ctx.structure.casimirs)):
        vals.record("parallel-coframe", ctx.casimir_laplacian(idx))
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


def canonical_chart_symmetry(ctx: ChartContext) -> np.ndarray:
    """Christoffel-form Frobenius residual in a canonical chart at each point of ctx.

    With the bivector in canonical block form the leaf coordinates t index
    the 1-forms theta_t = g(d_t, .), which span the annihilator of the
    orthogonal distribution, and d theta_t(d_a, d_b) = Gamma_{bat} -
    Gamma_{abt} in first-kind symbols. By Frobenius the distribution is
    integrable exactly when xi_I^a xi_J^b (Gamma_{bat} - Gamma_{abt})
    vanishes for every frame pair I < J and leaf t. The coordinate-index
    symmetry Gamma_{JIt} = Gamma_{IJt} alone is equivalent only where the
    metric has no transversal-leaf entries g_{It}.
    """
    off = np.flatnonzero(~_canonical_points(ctx.bivector_at(),
                                            ctx.structure.expected_rank))
    if off.size:
        raise GeometryError(
            f"bivector at {ctx.points[off[0]]!r} is not the canonical constant block "
            "form; the Christoffel-symmetry criterion is specific to such charts")
    leaf = ctx.christoffel_at().first_kind[..., ctx.codim:]
    dtheta = leaf.swapaxes(1, 2) - leaf  # [k, a, b, t] = d theta_t(d_a, d_b)
    frame = ctx.frame_at()
    residual = _Maxima(("chart",), len(ctx.q))
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


def verdict(ctx: ChartContext, tol: float | None = None) -> Verdict:
    """Run every condition over the context's points and aggregate.

    ``ctx`` holds the structure, metric, scheme and points of the check,
    the grid's for a scenario run; ``tol`` defaults to the scheme's. Every
    row of ``CONDITIONS`` becomes one report, classified by its role: the
    binding rows decide ``integrable``, the others only the consistency
    flag.
    """
    tol = default_tolerance(ctx.scheme) if tol is None else tol
    points, q = ctx.points, ctx.q

    chart_ok = canonical_block_form_ok(ctx.bivector_at(), ctx.structure.expected_rank)
    # the orthogonal frame is only defined where the gram matrix is
    # invertible; catch degenerate points even when there are no frame
    # pairs (codimension one), in the context's one checked inversion
    ctx.gram_inv_at()
    vals = equivalence_condition_values(ctx)
    suff = sufficient_condition_values(ctx)
    ra, rn = covanishing_values(vals)
    agree = (ra <= tol) == (rn <= tol)
    residuals = {**vals, **suff, "kernel-image-covanishing": np.where(agree, 0.0, 1.0)}
    if chart_ok:
        residuals["christoffel-symmetry"] = canonical_chart_symmetry(ctx)
    extras = {
        "kernel-image-covanishing": dict(
            bivector_route_norms=ra.tolist(), torsion_route_norms=rn.tolist(),
            vanishing_tolerance=tol),
        "parallel-coframe": {"premise_max_residual": float(
            np.max(suff["parallel-coframe-premise"], initial=0.0))},
    }

    conditions = []
    for cid, role, formula in CONDITIONS:
        if role == "chart" and not chart_ok:
            conditions.append(ConditionReport(cid, formula, tol, binding=False,
                                              status="skipped"))
            continue
        rep = ConditionReport(
            cid, formula, 0.5 if role == "cross-check" else tol,
            binding=role in ("equivalence", "chart"), points=points,
            residuals=residuals[cid].tolist(), extras=extras.get(cid, {}))
        # a sufficient condition proves nothing when it or its premise fails
        if role == "sufficient" and (
                not rep.holds or rep.extras.get("premise_max_residual", 0.0) > tol):
            rep.status = "inconclusive"
        conditions.append(rep)
    integrable = all(rep.holds for rep in conditions if rep.binding)

    # pointwise disagreements: one mask per kind, entries for flagged points
    # only, points ascending and the kinds in this order within a point
    six = np.column_stack([vals[cid] <= tol for cid in EQUIVALENCE_IDS])
    all_six = six.all(axis=1)
    kinds = [("equivalence", six.any(axis=1) & ~all_six,
              {cid: vals[cid] for cid in EQUIVALENCE_IDS}),
             ("covanishing", ~agree, {"bivector_route": ra, "torsion_route": rn})]
    if chart_ok:
        chart = residuals["christoffel-symmetry"]
        kinds.append(("canonical-chart", (chart <= tol) != all_six,
                      {"christoffel-symmetry": chart}))
    flagged = np.column_stack([mask for _, mask, _ in kinds])
    disagreements = []
    for k, c in zip(*np.nonzero(flagged)):  # row-major: by point, then kind
        kind, _, named = kinds[c]
        disagreements.append({
            "kind": kind,
            "point": q[k].tolist(),
            "residuals": {name: float(r[k]) for name, r in named.items()},
        })
    disagreements += [
        {"kind": "sufficient-vs-verdict", "condition": rep.condition,
         "max_residual": rep.max_residual}
        for rep in conditions
        if not integrable and rep.condition in SUFFICIENT_IDS and rep.label == "holds"]

    return Verdict(
        integrable=integrable,
        consistent=not disagreements,
        tolerance=tol,
        conditions=conditions,
        disagreements=disagreements,
    )
