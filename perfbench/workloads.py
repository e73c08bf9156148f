"""The benchmark's workloads: which checks each runs, and their known answers.

A check is one pass of the library path the CLI uses: ``load_scenario``,
grid and scheme overrides through ``dataclasses.replace``, ``run`` and
``RunReport.json_text``. Every check carries a known answer; ``judge``
compares the canonical JSON against it. The seed drives only the random
configs of ``chart-sym``.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from oracle import grid_points
from poisson_ortho.geometry import CENTRAL_4, DerivativeScheme, Grid

INV_PI = 1.0 / math.pi

# 5 points on the transversal axes x1, x2 (odd, so x2 = 0 is sampled, where
# model4d-atan's shear peaks) and 3 on the leaf axes: 225 points, finer than
# the 81-point default while one chart-sym pass stays within 13 to 17 s
CHART_GRID = ((0.0,) * 4, 1.0, (5, 5, 3, 3))

RANDOM_CONFIGS = 8
RANDOM_TOL = 1e-6
RANDOM_GRID = {"center": [0.0] * 4, "half_width": 0.5, "points_per_axis": 3}

# the random-metric recipe of acceptance criterion 3 (tests/test_acceptance.py)
METRIC_ATOMS = ("x1", "x2", "x3", "x4", "x1*x2", "x1*x3", "x1*x4", "x2*x3",
                "x2*x4", "x3*x4", "x1^2", "x2^2", "x3^2", "x4^2",
                "sin(x1)", "sin(x2)", "sin(x3)", "sin(x4)",
                "cos(x1)", "cos(x2)", "atan(x3)", "atan(x4)")

@dataclass
class Job:
    """One check of a workload and its known answer."""

    key: str                       # row label
    source: str                    # builtin name or config path
    scheme: str = "symbolic"
    grid: tuple | None = None      # Grid(center, half_width, points) override
    expected_exit: int | None = None
    peak_tol: float | None = None  # 1/pi peak of bivector-derivative on x2 = 0
    algebra: bool = False
    compact: bool = False          # compact algebras have abelian bracket tables
    oracle: bool = False           # expected_exit comes from oracle.py

    def configure(self, config, single_point: bool = False):
        """Apply the grid and scheme overrides as the CLI does."""
        changes = {}
        grid = Grid(*self.grid) if self.grid else config.grid
        if single_point:
            grid = Grid(grid.center, grid.half_width, 1)
        if grid is not config.grid:
            changes["grid"] = grid
        if self.scheme == "central-4":
            changes["scheme"] = DerivativeScheme(kind=CENTRAL_4, step=config.scheme.step)
        return replace(config, **changes) if changes else config


def random_metric_entries(rng) -> list:
    # diagonally dominant on the sample box: every atom is bounded by 1
    # there, so the metric stays definite
    entries = [["0"] * 4 for _ in range(4)]
    for i in range(4):
        c = rng.uniform(0.05, 0.25) * rng.choice((-1.0, 1.0))
        atom = METRIC_ATOMS[rng.integers(len(METRIC_ATOMS))]
        entries[i][i] = f"1 + {c:.3f}*({atom})"
    for i in range(4):
        for j in range(i + 1, 4):
            if rng.random() < 0.5:
                c = rng.uniform(0.01, 0.05) * rng.choice((-1.0, 1.0))
                atom = METRIC_ATOMS[rng.integers(len(METRIC_ATOMS))]
                entries[i][j] = entries[j][i] = f"{c:.3f}*({atom})"
    return entries


def random_configs(seed: int, count: int = RANDOM_CONFIGS) -> list:
    """Config documents for the canonical 4-d structure with random metrics."""
    rng = np.random.default_rng(seed)
    return [{
        "name": f"random-{k:02d}",
        "dim": 4,
        "poisson": {"kind": "canonical", "rank": 2},
        "casimirs": ["x1", "x2"],
        "metric": {"kind": "matrix", "entries": random_metric_entries(rng)},
        "grid": RANDOM_GRID,
        "tol_zero": RANDOM_TOL,
    } for k in range(count)]


def build(workload: str, seed: int, workdir: str) -> list:
    """The jobs of one workload; random configs are written under workdir."""
    if workload == "chart-sym":
        jobs = [
            Job("euclid4", "euclid4", grid=CHART_GRID, expected_exit=0),
            Job("model4d-atan", "model4d-atan", grid=CHART_GRID, expected_exit=1,
                peak_tol=1e-6),
            Job("blockdiag4", "blockdiag4", grid=CHART_GRID, expected_exit=0),
        ]
        for doc in random_configs(seed):
            path = os.path.join(workdir, doc["name"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            jobs.append(Job(doc["name"], path, oracle=True))
        return jobs
    if workload == "fd4":
        # so3, small and compact, keeps the abelian bracket-table check and
        # gives a pass one check per size cluster, so the median falls in
        # the model4d-atan cluster and the 90th percentile in the se3 one
        return [
            Job("model4d-atan", "model4d-atan", scheme="central-4", expected_exit=1,
                peak_tol=1e-4),
            Job("se3", "se3", scheme="central-4", expected_exit=0, algebra=True),
            Job("so3", "so3", scheme="central-4", expected_exit=0, algebra=True,
                compact=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def expect_from_oracle(jobs, oracle_result: dict) -> None:
    """Expected exit 0 when P g [xi_1, xi_2] vanishes at every point, else 1."""
    for job in jobs:
        if job.oracle:
            job.expected_exit = int(oracle_result[job.source]["max_bracket"] > RANDOM_TOL)


def _condition(doc, cid):
    for cond in doc["verdict"]["conditions"]:
        if cond["id"] == cid:
            return cond
    raise KeyError(cid)


def _known_answer_problems(job: Job, doc: dict) -> list:
    problems = []
    if job.peak_tol is not None:
        residuals = _condition(doc, "bivector-derivative")["residuals"]
        on_plane = [r for r, x in zip(residuals, grid_points(doc["scenario"]["grid"])[:, 1])
                    if x == 0.0]
        peak = max(on_plane, default=float("nan"))
        if not abs(peak - INV_PI) <= job.peak_tol:
            problems.append(f"bivector-derivative peak on x2 = 0 is {peak!r}, "
                            f"not 1/pi within {job.peak_tol:g}")
    if job.algebra:
        extras = doc["extras"] or {}
        if not extras.get("constants_validation", {}).get("ok"):
            problems.append("structure constants do not validate")
        if job.compact and not extras.get("casimir_bracket_abelian"):
            problems.append("compact algebra's bracket table is not abelian")
        if not extras.get("integral_surface", {}).get("holds"):
            problems.append("integral surface does not hold")
    return problems


def _disagreements(doc: dict) -> str:
    verdict = doc.get("verdict") or {}
    kinds = Counter(d.get("kind", "?") for d in verdict.get("disagreements", []))
    return ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items())) or "invalid"


def judge(job: Job, exit_code: int, doc: dict) -> tuple:
    """(status, detail): status is ok, failed or wrong.

    failed is kept for the known defect alone: a random config, judged by
    the oracle, that exits 2. Every other wrong exit, exit 2 of a builtin
    included, and every wrong known answer is wrong.
    """
    if exit_code != job.expected_exit:
        detail = f"exit {exit_code}, expected {job.expected_exit}"
        if exit_code == 2:
            detail += f" ({_disagreements(doc)})"
        return ("failed" if exit_code == 2 and job.oracle else "wrong"), detail
    problems = _known_answer_problems(job, doc)
    if problems:
        return "wrong", "; ".join(problems)
    return "ok", ""
