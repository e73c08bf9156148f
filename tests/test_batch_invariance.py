"""A grid run gives each point the residuals a run at that point alone gives.

Conditions are evaluated over the whole grid at once, so a contraction
that mixes the point axis with a tensor axis, or a stencil step that is
not taken per point, would make a point's residual depend on the rest of
the grid. Each builtin runs on 2 points per axis under both schemes; at
three of those points every report must match a one-point run there.
"""

from dataclasses import replace

import pytest

from poisson_ortho import scenarios
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, Grid

REL = 1e-12


def _residuals(report) -> dict:
    out = {f"validation.{key}": getattr(report.validation, key).residuals
           for key in ("antisymmetry", "jacobi", "casimir_annihilation")}
    out.update((rep.condition, rep.residuals) for rep in report.verdict.conditions)
    return out


@pytest.mark.parametrize("scheme", ["symbolic", "central-4"])
@pytest.mark.parametrize("name", scenarios.BUILTIN_SCENARIOS)
def test_grid_residuals_match_one_point_runs(name, scheme):
    config = scenarios.load_scenario(name)
    changes = {"grid": Grid(config.grid.center, config.grid.half_width, 2)}
    if scheme == "central-4":
        changes["scheme"] = DerivativeScheme(kind=CENTRAL_4, step=config.scheme.step)
    config = replace(config, **changes)
    grid_run = scenarios.run(config)
    grid_residuals = _residuals(grid_run)

    points = config.grid.sample()
    for k in (0, len(points) // 2, len(points) - 1):
        alone = scenarios.run(replace(
            config, grid=Grid(points.coords[k], 0.0, 1)))
        assert alone.exit_code == grid_run.exit_code, k
        for cid, residuals in _residuals(alone).items():
            batch = grid_residuals[cid]
            if not residuals:  # a skipped criterion has no residuals
                assert not batch, cid
                continue
            assert residuals[0] == pytest.approx(batch[k], rel=REL, abs=0.0), (cid, k)
