"""The sympy oracle against the builtin charts' known answers."""

import math

import pytest

import oracle

GRID = {"center": [0.0] * 4, "half_width": 1.0, "points_per_axis": 3}
SHEAR = "atan(x2) / pi"

# the metrics of the euclid4, blockdiag4 and model4d-atan builtins, as text
CHARTS = {
    "euclid4": {"kind": "identity"},
    "blockdiag4": {"kind": "matrix", "entries": [
        ["1", "1/8", "0", "0"],
        ["1/8", "1", "0", "0"],
        ["0", "0", "1 + x3^2/8", "x3*x4/8"],
        ["0", "0", "x3*x4/8", "1"]]},
    "model4d-atan": {"kind": "matrix", "entries": [
        ["1", "0", SHEAR, "0"],
        ["0", "1", "0", "0"],
        [SHEAR, "0", "1", "0"],
        ["0", "0", "0", "1"]]},
}


def _doc(name):
    return {"name": name, "dim": 4, "poisson": {"kind": "canonical", "rank": 2},
            "casimirs": ["x1", "x2"], "metric": CHARTS[name], "grid": GRID}


@pytest.mark.parametrize("name", ["euclid4", "blockdiag4"])
def test_integrable_charts(name):
    residuals = oracle.bracket_residuals(_doc(name))
    assert residuals.size == 81
    assert residuals.max() <= 1e-12


def test_shear_peaks_at_one_over_pi_on_the_x2_plane():
    residuals = oracle.bracket_residuals(_doc("model4d-atan"))
    x2 = oracle.grid_points(GRID)[:, 1]
    on_plane = residuals[x2 == 0.0]
    assert on_plane.size == 27
    assert on_plane.max() == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert residuals[x2 != 0.0].max() < 1.0 / math.pi - 1e-3


def test_grid_points_follow_the_engine_order():
    from poisson_ortho.geometry import Grid

    grid = {"center": [0.0, 1.0, 0.0], "half_width": [1.0, 0.5, 2.0],
            "points_per_axis": [3, 1, 2]}
    engine = Grid((0.0, 1.0, 0.0), (1.0, 0.5, 2.0), (3, 1, 2)).sample()
    assert oracle.grid_points(grid).tolist() == [p.coords.tolist() for p in engine]
