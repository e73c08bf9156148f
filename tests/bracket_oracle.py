"""Independent sympy oracle for the bracket obstruction P g [xi_i, xi_j]
and the leaf-parallel-transport residual omega^j(nabla_{xi_i} t_a).

The g-orthogonal complement of the symplectic leaves is spanned by
xi_i = g^{-1} omega^i with omega^i = s_i dc^i, where c^i are the declared
Casimirs and s_i the optional coframe scales. It is integrable exactly
when P g [xi_i, xi_j] vanishes for every pair i < j. This module evaluates
max over pairs of |P g [xi_i, xi_j]|, and the sufficient condition's
max |omega^j(nabla_{xi_i} t_a)| over leaf-tangent columns t_a of P, at
given points from expression text alone: sympy parses and differentiates,
and numpy does the linear algebra with the closed-form derivative
d(g^{-1}) = -g^{-1} (dg) g^{-1}. It imports nothing from poisson_ortho, so
it shares no code with the engine under test.
"""

from __future__ import annotations

import numpy as np
import sympy


def _parse(text, xs):
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    names.update(sin=sympy.sin, cos=sympy.cos, atan=sympy.atan,
                 exp=sympy.exp, sqrt=sympy.sqrt, pi=sympy.pi)
    return sympy.sympify(str(text).replace("^", "**"), locals=names)


def _jets(points, bivector, casimirs, metric, raising, scales):
    """Per point: P, d_k P, g, g^{-1}, d_k g, d_k g^{-1}, omega and d_k omega.

    Derivative arrays put the differentiation index k first: dP[k, a, b] =
    d_k P^ab, dG[k, a, b] = d_k g_ab, dW[i, k, a] = d_k omega^i_a.
    """
    if (metric is None) == (raising is None):
        raise ValueError("give exactly one of metric and raising")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    xs = sympy.symbols(f"x1:{points.shape[1] + 1}")
    rows = metric if metric is not None else raising
    M = [[_parse(e, xs) for e in row] for row in rows]
    P = [[_parse(e, xs) for e in row] for row in bivector]
    scales = scales if scales is not None else [1] * len(casimirs)
    omega = [[_parse(s, xs) * sympy.diff(_parse(c, xs), x) for x in xs]
             for c, s in zip(casimirs, scales)]
    domega = [[[sympy.diff(w, x) for w in row] for x in xs] for row in omega]
    dM = [[[sympy.diff(e, x) for e in row] for row in M] for x in xs]
    dP = [[[sympy.diff(e, x) for e in row] for row in P] for x in xs]
    values = sympy.lambdify(xs, [P, dP, M, dM, omega, domega], modules="math")
    for point in points:
        Pv, dPv, Mv, dMv, W, dW = (np.array(v, dtype=float) for v in values(*point))
        inv = np.linalg.inv(Mv)
        d_inv = -np.einsum("ab,kbc,cd->kad", inv, dMv, inv)
        if metric is not None:
            yield Pv, dPv, Mv, inv, dMv, d_inv, W, dW
        else:
            yield Pv, dPv, inv, Mv, d_inv, dMv, W, dW


def bracket_obstruction(points, bivector, casimirs, metric=None, raising=None,
                        scales=None) -> np.ndarray:
    """max over pairs i < j of |P g [xi_i, xi_j]| at each point.

    ``bivector`` holds the rows of P^{ab} as expression text. Exactly one of
    ``metric`` (covariant g_{ab}) and ``raising`` (contravariant g^{ab}) is
    given, also as rows of text. ``scales`` has one expression per Casimir.
    """
    pairs = [(i, j) for i in range(len(casimirs)) for j in range(i + 1, len(casimirs))]
    out = []
    for Pv, _, G, Ginv, _, dGinv, W, dW in _jets(points, bivector, casimirs,
                                                  metric, raising, scales):
        xi = W @ Ginv.T  # xi[i, a] = g^{ab} omega^i_b
        dxi = (np.einsum("kab,ib->ika", dGinv, W)
               + np.einsum("ab,ikb->ika", Ginv, dW))
        worst = 0.0
        for i, j in pairs:
            bracket = xi[i] @ dxi[j] - xi[j] @ dxi[i]
            worst = max(worst, float(np.max(np.abs(Pv @ G @ bracket))))
        out.append(worst)
    return np.array(out)


def leaf_transport(points, bivector, casimirs, metric=None, raising=None,
                   scales=None) -> np.ndarray:
    """max over i, j and a of |omega^j(nabla_{xi_i} t_a)| at each point.

    The t_a are the columns of P that raise its rank when taken left to
    right, and nabla_l t^s = d_l t^s + Gamma^s_{lm} t^m with the
    Levi-Civita symbols Gamma^s_{lm} = 1/2 g^{sd} (d_l g_dm + d_m g_dl -
    d_d g_lm). Arguments as for ``bracket_obstruction``.
    """
    out = []
    for Pv, dPv, _, Ginv, dG, _, W, _ in _jets(points, bivector, casimirs,
                                               metric, raising, scales):
        lowered = 0.5 * (np.einsum("ldm->dlm", dG) + np.einsum("mdl->dlm", dG)
                         - dG)  # lowered[d, l, m] = Gamma_{dlm}
        gamma = np.einsum("sd,dlm->slm", Ginv, lowered)
        xi = W @ Ginv.T
        columns = []
        for a in range(Pv.shape[1]):
            if np.linalg.matrix_rank(Pv[:, columns + [a]]) > len(columns):
                columns.append(a)
        worst = 0.0
        for a in columns:
            nabla_t = dPv[:, :, a] + np.einsum("slm,m->ls", gamma, Pv[:, a])  # [l, s]
            transport = W @ (xi @ nabla_t).T  # [j, i] = omega^j(nabla_{xi_i} t_a)
            worst = max(worst, float(np.max(np.abs(transport))))
        out.append(worst)
    return np.array(out)
