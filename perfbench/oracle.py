"""Independent integrability oracle for canonical-chart configs, built on sympy.

When the Poisson structure is the canonical block bivector P and the
distribution is spanned by xi_i = g^{-1} dc^i, the distribution is
integrable exactly when P g [xi_i, xi_j] vanishes for every pair i < j.
This module evaluates that quantity from the config text alone: sympy
parses and differentiates the expressions, and numpy does the linear
algebra with the closed-form derivative d(g^{-1}) = -g^{-1} (dg) g^{-1}.
It shares no code with the engine.

As a script it reads config files and prints one JSON object:

    python3 perfbench/oracle.py A.json B.json
    {"A.json": {"max_bracket": ..., "points": 81}, ...}
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np


def grid_points(grid: dict) -> np.ndarray:
    """Grid points in the engine's order: axis 0 varies slowest."""
    center = [float(c) for c in grid["center"]]
    dim = len(center)
    half = grid["half_width"]
    half = list(half) if isinstance(half, (list, tuple)) else [half] * dim
    counts = grid["points_per_axis"]
    counts = list(counts) if isinstance(counts, (list, tuple)) else [counts] * dim
    axes = [np.array([c]) if int(m) == 1 else np.linspace(c - w, c + w, int(m))
            for c, w, m in zip(center, half, counts)]
    return np.array(list(itertools.product(*axes)), dtype=float)


def canonical_bivector(dim: int, rank: int) -> np.ndarray:
    """Zero transversal block, then the symplectic pairing on the last coords."""
    k, d = rank // 2, dim - rank
    P = np.zeros((dim, dim))
    for a in range(k):
        P[d + a, d + k + a] = 1.0
        P[d + k + a, d + a] = -1.0
    return P


def _parse(text, xs):
    import sympy

    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    names.update(sin=sympy.sin, cos=sympy.cos, atan=sympy.atan,
                 exp=sympy.exp, sqrt=sympy.sqrt, pi=sympy.pi)
    return sympy.sympify(str(text).replace("^", "**"), locals=names)


def bracket_residuals(doc: dict) -> np.ndarray:
    """max |P g [xi_i, xi_j]| over pairs, at each grid point of the config."""
    # imported here: the benchmark process imports grid_points, and sympy
    # would add tens of MB to the peak RSS it measures
    import sympy

    dim = int(doc["dim"])
    poisson = doc["poisson"]
    if poisson.get("kind") != "canonical":
        raise ValueError("the oracle covers canonical Poisson structures only")
    P = canonical_bivector(dim, int(poisson["rank"]))
    xs = sympy.symbols(f"x1:{dim + 1}")
    metric = doc["metric"]
    if metric["kind"] == "identity":
        g = sympy.eye(dim)
    elif metric["kind"] == "matrix":
        g = sympy.Matrix([[_parse(e, xs) for e in row] for row in metric["entries"]])
    else:
        raise ValueError(f"the oracle does not cover metric kind {metric['kind']!r}")
    casimirs = [_parse(c, xs) for c in doc["casimirs"]]
    omega = [[sympy.diff(c, x) for x in xs] for c in casimirs]
    domega = [[[sympy.diff(w, x) for w in row] for x in xs] for row in omega]
    dg = [[[sympy.diff(e, x) for e in row] for row in g.tolist()] for x in xs]
    values = sympy.lambdify(xs, [g.tolist(), dg, omega, domega], modules="math")

    pairs = [(i, j) for i in range(len(casimirs)) for j in range(i + 1, len(casimirs))]
    out = []
    for point in grid_points(doc["grid"]):
        G, dG, W, dW = (np.array(v, dtype=float) for v in values(*point))
        Ginv = np.linalg.inv(G)
        xi = W @ Ginv.T                      # xi[i] = g^{-1} omega^i
        # dxi[i, k] = d_k xi_i = -g^{-1} (d_k g) g^{-1} omega^i + g^{-1} d_k omega^i
        dxi = (-np.einsum("ab,kbc,ic->ika", Ginv, dG, xi)
               + np.einsum("ab,ikb->ika", Ginv, dW))
        worst = 0.0
        for i, j in pairs:
            bracket = xi[i] @ dxi[j] - xi[j] @ dxi[i]
            worst = max(worst, float(np.max(np.abs(P @ G @ bracket))))
        out.append(worst)
    return np.array(out)


def main(paths) -> int:
    result = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            residuals = bracket_residuals(json.load(fh))
        result[path] = {"max_bracket": float(residuals.max()),
                        "points": int(residuals.size)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
