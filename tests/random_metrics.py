"""Acceptance criterion 3's random-metric recipe, shared by the tests."""

METRIC_ATOMS = ("x1", "x2", "x3", "x4", "x1*x2", "x1*x3", "x1*x4", "x2*x3",
                "x2*x4", "x3*x4", "x1^2", "x2^2", "x3^2", "x4^2",
                "sin(x1)", "sin(x2)", "sin(x3)", "sin(x4)",
                "cos(x1)", "cos(x2)", "atan(x3)", "atan(x4)")


def random_atom(rng) -> str:
    return METRIC_ATOMS[rng.integers(len(METRIC_ATOMS))]


def random_metric_entries(rng, transversal_leaf: bool = False) -> list:
    """Row-major entry texts of a random 4x4 metric on the box [-1, 1]^4.

    Diagonally dominant there: every atom is bounded by 1, diagonal
    perturbations stay under 0.25 and each row carries at most 0.15 of
    off-diagonal mass, so the matrix stays definite. Each off-diagonal
    entry is nonzero with probability 1/2; with ``transversal_leaf`` every
    transversal-leaf entry g_{It} (I in x1, x2; t in x3, x4) is nonzero.
    """
    entries = [["0"] * 4 for _ in range(4)]
    for i in range(4):
        c = rng.uniform(0.05, 0.25) * rng.choice((-1.0, 1.0))
        entries[i][i] = f"1 + {c:.3f}*({random_atom(rng)})"
    for i in range(4):
        for j in range(i + 1, 4):
            if (transversal_leaf and i < 2 <= j) or rng.random() < 0.5:
                c = rng.uniform(0.01, 0.05) * rng.choice((-1.0, 1.0))
                entries[i][j] = entries[j][i] = f"{c:.3f}*({random_atom(rng)})"
    return entries
