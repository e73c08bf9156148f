"""Independent sympy oracle for the bracket obstruction P g [xi_i, xi_j].

The g-orthogonal complement of the symplectic leaves is spanned by
xi_i = g^{-1} omega^i with omega^i = s_i dc^i, where c^i are the declared
Casimirs and s_i the optional coframe scales. It is integrable exactly
when P g [xi_i, xi_j] vanishes for every pair i < j. This module evaluates
max over pairs of |P g [xi_i, xi_j]| at given points from expression text
alone: sympy parses and differentiates, and numpy does the linear algebra
with the closed-form derivative d(g^{-1}) = -g^{-1} (dg) g^{-1}. It imports
nothing from poisson_ortho, so it shares no code with the engine under test.
"""

from __future__ import annotations

import numpy as np
import sympy


def _parse(text, xs):
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    names.update(sin=sympy.sin, cos=sympy.cos, atan=sympy.atan,
                 exp=sympy.exp, sqrt=sympy.sqrt, pi=sympy.pi)
    return sympy.sympify(str(text).replace("^", "**"), locals=names)


def bracket_obstruction(points, bivector, casimirs, metric=None, raising=None,
                        scales=None) -> np.ndarray:
    """max over pairs i < j of |P g [xi_i, xi_j]| at each point.

    ``bivector`` holds the rows of P^{ab} as expression text. Exactly one of
    ``metric`` (covariant g_{ab}) and ``raising`` (contravariant g^{ab}) is
    given, also as rows of text. ``scales`` has one expression per Casimir.
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
    values = sympy.lambdify(xs, [P, M, dM, omega, domega], modules="math")

    pairs = [(i, j) for i in range(len(casimirs)) for j in range(i + 1, len(casimirs))]
    out = []
    for point in points:
        # dM[k, a, b] = d_k M_ab, W[i, a] = omega^i_a, dW[i, k, a] = d_k omega^i_a
        Pv, Mv, dMv, W, dW = (np.array(v, dtype=float) for v in values(*point))
        if metric is not None:
            G, Ginv = Mv, np.linalg.inv(Mv)
            dGinv = -np.einsum("ab,kbc,cd->kad", Ginv, dMv, Ginv)
        else:
            G, Ginv = np.linalg.inv(Mv), Mv
            dGinv = dMv
        xi = W @ Ginv.T  # xi[i, a] = g^{ab} omega^i_b
        dxi = (np.einsum("kab,ib->ika", dGinv, W)
               + np.einsum("ab,ikb->ika", Ginv, dW))
        worst = 0.0
        for i, j in pairs:
            bracket = xi[i] @ dxi[j] - xi[j] @ dxi[i]
            worst = max(worst, float(np.max(np.abs(Pv @ G @ bracket))))
        out.append(worst)
    return np.array(out)
