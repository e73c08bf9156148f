"""The engine's bracket conditions against the independent sympy oracle.

``bracket_oracle`` computes max |P g [xi_i, xi_j]| from expression text
alone. The first four of the six equivalent conditions are that same
quantity (the connection terms cancel because the Levi-Civita connection
is metric and torsion-free), so they must match the oracle pointwise; the
Frobenius and Nijenhuis forms measure another vector and must vanish at
the same points.
"""

import json

import numpy as np
import pytest

from bracket_oracle import bracket_obstruction, leaf_transport
from poisson_ortho.context import ChartContext
from poisson_ortho.geometry import Grid
from poisson_ortho.integrability import EQUIVALENCE_IDS, verdict
from poisson_ortho.liepoisson import builtin_algebra, linear_poisson, se3_metric
from poisson_ortho.metric import MetricField
from poisson_ortho.scenarios import load_scenario, run

BRACKET_IDS = EQUIVALENCE_IDS[:4]


def _rows(matrix):
    return [[repr(float(v)) for v in row] for row in np.asarray(matrix)]


def _zeros(n):
    return [["0"] * n for _ in range(n)]


def _canonical4():
    rows = _zeros(4)
    rows[2][3], rows[3][2] = "1", "-1"
    return rows


def _so3(offset=0, dim=3):
    x = [f"x{offset + k + 1}" for k in range(3)]
    rows = _zeros(dim)
    for (i, j), k in {(0, 1): 2, (1, 2): 0, (2, 0): 1}.items():
        rows[offset + i][offset + j] = x[k]
        rows[offset + j][offset + i] = f"-{x[k]}"
    return rows


def _se3():
    # rotations x1..x3, translations x4..x6: {e_i, e_j} = eps_ijk x_k,
    # {e_i, f_j} = eps_ijk p_k, {f_i, f_j} = 0
    rows = _zeros(6)
    for (i, j), k in {(0, 1): 2, (1, 2): 0, (2, 0): 1}.items():
        lam, mom = f"x{k + 1}", f"x{k + 4}"
        rows[i][j], rows[j][i] = lam, f"-{lam}"
        rows[i][3 + j], rows[3 + j][i] = mom, f"-{mom}"
        rows[j][3 + i], rows[3 + i][j] = f"-{mom}", mom
    return rows


def _so3xso3():
    rows = _so3(0, 6)
    for i, row in enumerate(_so3(3, 6)):
        for j, e in enumerate(row):
            if e != "0":
                rows[i][j] = e
    return rows


SHEAR = [["1", "0", "atan(x2)/pi", "0"], ["0", "1", "0", "0"],
         ["atan(x2)/pi", "0", "1", "0"], ["0", "0", "0", "1"]]
BLOCKDIAG = [["1", "1/8", "0", "0"], ["1/8", "1", "0", "0"],
             ["0", "0", "1 + x3^2/8", "x3*x4/8"], ["0", "0", "x3*x4/8", "1"]]
SE3_RAISING = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])

# oracle inputs written out by hand for each builtin scenario
BUILTINS = {
    "euclid4": dict(bivector=_canonical4(), casimirs=["x1", "x2"],
                    raising=_rows(np.eye(4))),
    "model4d-atan": dict(bivector=_canonical4(), casimirs=["x1", "x2"], metric=SHEAR),
    "blockdiag4": dict(bivector=_canonical4(), casimirs=["x1", "x2"], metric=BLOCKDIAG),
    "so3": dict(bivector=_so3(), casimirs=["x1^2 + x2^2 + x3^2"],
                raising=_rows(2.0 * np.eye(3))),
    "sl2r": dict(bivector=[["0", "2*x2", "-2*x3"], ["-2*x2", "0", "x1"],
                           ["2*x3", "-x1", "0"]],
                 casimirs=["x1^2/8 + x2*x3/2"],
                 raising=[["8", "0", "0"], ["0", "0", "4"], ["0", "4", "0"]]),
    "so3xso3": dict(bivector=_so3xso3(),
                    casimirs=["x1^2 + x2^2 + x3^2", "x4^2 + x5^2 + x6^2"],
                    raising=_rows(2.0 * np.eye(6))),
    "se3": dict(bivector=_se3(),
                casimirs=["x1*x4 + x2*x5 + x3*x6", "x4^2 + x5^2 + x6^2"],
                scales=["1", "0.5"], raising=_rows(SE3_RAISING)),
}


def _assert_matches_oracle(v, expected):
    for cid in BRACKET_IDS:
        got = np.array(v.report(cid).residuals)
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9), cid
    zero = expected <= v.tolerance
    for cid in EQUIVALENCE_IDS:
        assert v.report(cid).pointwise() == list(zero), cid


def _coords(grid):
    return [p.coords for p in grid.sample()]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_bracket_conditions_match_oracle(name):
    config = load_scenario(name)
    expected = bracket_obstruction(_coords(config.grid), **BUILTINS[name])
    v = verdict(ChartContext(config.structure, config.metric, config.grid.sample()))
    _assert_matches_oracle(v, expected)
    assert v.integrable == (name != "model4d-atan")


def test_lie_poisson_generic_metric_and_scales_match_oracle():
    # so3 x so3 with a constant raising map coupling the two factors and
    # non-constant coframe scales: the distribution is not integrable
    alg = builtin_algebra("so3xso3")
    rng = np.random.default_rng(11)
    coupling = rng.uniform(-0.2, 0.2, size=(6, 6))
    raising = 2.0 * np.eye(6) + coupling + coupling.T
    scales = ["1 + x1^2/4", "2 - x6"]
    casimirs = ["x1^2 + x2^2 + x3^2", "x4^2 + x5^2 + x6^2"]
    structure = linear_poisson(alg.constants, casimirs, 4, coframe_scales=scales)
    grid = Grid.cube(list(alg.default_center), alg.default_half_width, 2)
    expected = bracket_obstruction(_coords(grid), bivector=_so3xso3(),
                                   casimirs=casimirs, raising=_rows(raising),
                                   scales=scales)
    assert expected.min() > 1e-3
    metric = MetricField.from_contravariant(raising)
    v = verdict(ChartContext(structure, metric, grid.sample()))
    _assert_matches_oracle(v, expected)
    assert not v.integrable and v.consistent


def test_se3_metric_family_matches_oracle():
    alg = builtin_algebra("se3", alpha=0.7, beta=1.5)
    upper = np.block([[0.7 * np.eye(3), 1.5 * np.eye(3)],
                      [1.5 * np.eye(3), np.zeros((3, 3))]])
    grid = Grid.cube(list(alg.default_center), alg.default_half_width, 2)
    expected = bracket_obstruction(_coords(grid), bivector=_se3(),
                                   casimirs=BUILTINS["se3"]["casimirs"],
                                   raising=_rows(upper), scales=["1", "0.5"])
    v = verdict(ChartContext(alg.structure, se3_metric(0.7, 1.5), grid.sample()))
    _assert_matches_oracle(v, expected)


def test_matrix_bivector_config_matches_oracle(tmp_path):
    # P = X ^ Y with X = d3 + x3 d2 and Y = d4 commuting, so P is Poisson
    # with Casimirs x1 and x2 - x3^2/2; the leaves are curved in the chart
    bivector = _zeros(4)
    bivector[1][3], bivector[3][1] = "x3", "-x3"
    bivector[2][3], bivector[3][2] = "1", "-1"
    metric = [["1", "0.1*x3", "0.05*x4", "0"],
              ["0.1*x3", "1 + 0.1*sin(x1)", "0", "0.1*x1"],
              ["0.05*x4", "0", "1", "0"],
              ["0", "0.1*x1", "0", "1 + 0.1*x2^2"]]
    casimirs = ["x1", "x2 - x3^2/2"]
    scales = ["1 + x4^2", "3"]
    doc = {"name": "curved-leaves", "dim": 4,
           "poisson": {"kind": "matrix", "entries": bivector},
           "expected_rank": 2, "casimirs": casimirs, "coframe_scales": scales,
           "metric": {"kind": "matrix", "entries": metric},
           "grid": {"center": [0.0, 0.0, 0.0, 0.0], "half_width": 0.5,
                    "points_per_axis": 2}}
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(doc))
    report = run(load_scenario(str(path)))
    expected = bracket_obstruction(_coords(report.scenario.grid), bivector=bivector,
                                   casimirs=casimirs, metric=metric, scales=scales)
    assert expected.min() > 1e-3
    _assert_matches_oracle(report.verdict, expected)
    assert report.exit_code == 1


def test_so3_leaf_transport_matches_oracle_pointwise():
    # a curved metric on so3, so the connection term of nabla_{xi_i} t_a is
    # neither zero nor a constant-column shift that max-abs could hide
    alg = builtin_algebra("so3")
    metric = [["1 + x1^2/4", "0.1*x3", "0"], ["0.1*x3", "1", "0"],
              ["0", "0", "1 + x2^2/8"]]
    grid = Grid.cube(list(alg.default_center), alg.default_half_width, 3)
    expected = leaf_transport(_coords(grid), bivector=_so3(),
                              casimirs=BUILTINS["so3"]["casimirs"], metric=metric)
    assert expected.max() > 0.1
    v = verdict(ChartContext(alg.structure, MetricField.from_entries(3, metric),
                             grid.sample()))
    got = np.array(v.report("leaf-parallel-transport").residuals)
    assert np.max(np.abs(got - expected)) <= 1e-9


def test_oracle_needs_exactly_one_metric():
    with pytest.raises(ValueError):
        bracket_obstruction([[0.0] * 4], _canonical4(), ["x1", "x2"])
