"""Scenario registry, JSON configs, run orchestration, and reports.

A scenario bundles everything one check needs: a Poisson structure, a
metric, a grid, a derivative scheme, and a zero tolerance.  Seven
built-ins cover the canonical charts (euclid4, model4d-atan, blockdiag4)
and the Lie-Poisson duals (so3, sl2r, so3xso3, se3); arbitrary setups
load from JSON files whose leaf values are expression strings.

``run`` validates the bivector, evaluates the full condition suite, and
attaches algebra extras (Killing form, coframe bracket table, gram
matrices, an integral-surface check) when the scenario is Lie-Poisson.
The JSON serialization is canonical: sorted keys, floats printed with 17
significant digits, no whitespace variation, and no timing data, so two
runs of the same config are byte-identical.  Wall time appears on the
text surface only.

``run`` samples the grid once and evaluates every check over all of its
points at once, in one thread: numpy does the per-point arithmetic, and
the chart context computes each quantity once per grid, so there is no
per-point work left to spread over threads.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import dsl
from .context import ChartContext
from .errors import ConfigError
from .geometry import (
    DEFAULT_SCHEME, SCHEME_KINDS, SCHEME_NAMES, DerivativeScheme, Grid,
)
from .integrability import Verdict, default_tolerance, verdict
from .liepoisson import (
    BuiltinAlgebra, builtin_algebra, casimir_lie_bracket, ensure_regular_grid,
    killing_form, se3_metric, verify_integral_surface,
)
from .metric import MetricField
from .poisson import PoissonStructure, canonical_bivector, validate_poisson
from .reports import PoissonValidationReport

SCHEMA_VERSION = 1
TOOL_NAME = "poisson-ortho"
TOOL_VERSION = "0.1.0"

BUILTIN_SCENARIOS = (
    "euclid4", "model4d-atan", "blockdiag4", "so3", "sl2r", "so3xso3", "se3",
)


@dataclass
class ScenarioConfig:
    """A fully constructed, runnable scenario."""

    name: str
    structure: PoissonStructure
    metric: MetricField
    grid: Grid
    scheme: DerivativeScheme = DEFAULT_SCHEME
    tol: float | None = None  # None means scheme default
    algebra: BuiltinAlgebra | None = None
    source: dict | None = None  # echo of the originating description

    @property
    def dim(self) -> int:
        return self.structure.dim


def _canonical_structure() -> PoissonStructure:
    return PoissonStructure(
        bivector=canonical_bivector(4, 2),
        casimirs=[dsl.scalar_field("x1", 4), dsl.scalar_field("x2", 4)],
        expected_rank=2)


def _shear_metric() -> MetricField:
    f = "atan(x2) / pi"
    return MetricField.from_entries(4, [
        ["1", "0", f, "0"],
        ["0", "1", "0", "0"],
        [f, "0", "1", "0"],
        ["0", "0", "0", "1"],
    ])


def _blockdiag_metric() -> MetricField:
    # constant transversal block, leaf block varying in leaf coordinates:
    # every condition in the suite, advisory ones included, vanishes exactly
    return MetricField.from_entries(4, [
        ["1", "1/8", "0", "0"],
        ["1/8", "1", "0", "0"],
        ["0", "0", "1 + x3^2/8", "x3*x4/8"],
        ["0", "0", "x3*x4/8", "1"],
    ])


def _make_chart_scenario(name: str, metric: MetricField) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        structure=_canonical_structure(),
        metric=metric,
        grid=Grid.cube([0.0] * 4, 1.0, 3),
        source={"builtin": name})


def _make_algebra_scenario(name: str) -> ScenarioConfig:
    alg = builtin_algebra(name)
    points = 3 if alg.constants.dim == 3 else 2
    return ScenarioConfig(
        name=name,
        structure=alg.structure,
        metric=alg.metric,
        grid=Grid.cube(list(alg.default_center), alg.default_half_width, points),
        algebra=alg,
        source={"builtin": name})


def load_scenario(source: str) -> ScenarioConfig:
    """Resolve a builtin name or load and validate a JSON config file."""
    if source == "euclid4":
        return _make_chart_scenario(
            "euclid4", MetricField.from_contravariant(np.eye(4)))
    if source == "model4d-atan":
        return _make_chart_scenario("model4d-atan", _shear_metric())
    if source == "blockdiag4":
        return _make_chart_scenario("blockdiag4", _blockdiag_metric())
    if source in ("so3", "sl2r", "so3xso3", "se3"):
        return _make_algebra_scenario(source)
    if os.path.exists(source):
        return _load_config_file(source)
    raise ConfigError(
        f"{source!r} is not a builtin scenario "
        f"({', '.join(BUILTIN_SCENARIOS)}) and no such file exists")


# ---------------------------------------------------------------------------
# JSON config files

def _is_number(value) -> bool:
    """An int or a float; JSON true and false load as bools, which are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        raise ConfigError(
            f"{where}.{key}: expected {getattr(kinds, '__name__', kinds)}, "
            f"got {type(value).__name__}")
    return value


def _string_matrix(entries, dim: int, where: str):
    if (not isinstance(entries, list) or len(entries) != dim
            or any(not isinstance(row, list) or len(row) != dim
                   for row in entries)):
        raise ConfigError(f"{where}: expected a {dim}x{dim} array of strings")
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if not isinstance(cell, (str, int, float)):
                raise ConfigError(
                    f"{where}[{i}][{j}]: expected an expression string")
    return [[str(cell) for cell in row] for row in entries]


def _check_symmetric_text(entries, where: str):
    # symmetry is decided on normalized ASTs: whitespace, redundant parens
    # and foldable constants are ignored, but terms are not reordered, so
    # "x1+1" matches "x1 + 1" and not "1 + x1"
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a = dsl.to_text(dsl.fold(dsl.parse(entries[i][j])))
            b = dsl.to_text(dsl.fold(dsl.parse(entries[j][i])))
            if a != b:
                raise ConfigError(
                    f"{where}: entry ({i}, {j}) = {a!r} does not match "
                    f"({j}, {i}) = {b!r}; metric must be symmetric")


def _parse_grid(doc, dim: int) -> Grid:
    center = _require(doc, "center", list, "grid")
    if len(center) != dim or not all(map(_is_number, center)):
        raise ConfigError(f"grid.center: expected {dim} numbers, got {center!r}")
    half_width = _require(doc, "half_width", (int, float, list), "grid")
    widths = half_width if isinstance(half_width, list) else [half_width]
    if not all(map(_is_number, widths)):
        raise ConfigError(f"grid.half_width: expected a number or a list of "
                          f"numbers, got {half_width!r}")
    points = _require(doc, "points_per_axis", int, "grid")
    try:
        return Grid(center=center, half_width=half_width, points_per_axis=points)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid: {exc}") from None


def _parse_scheme(doc) -> DerivativeScheme:
    kind = doc.get("kind", "symbolic")
    if kind not in SCHEME_NAMES and kind not in SCHEME_KINDS:
        raise ConfigError(
            f"scheme.kind: unknown kind {kind!r}; choose from "
            f"symbolic, central-4, central-2")
    step = doc.get("step", DEFAULT_SCHEME.step)
    if not _is_number(step):
        raise ConfigError("scheme.step: expected a number")
    try:
        return DerivativeScheme(kind=SCHEME_NAMES.get(kind, kind), step=float(step))
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from None


def _parse_poisson(doc: dict, dim: int, raw: dict):
    """Returns (structure, algebra-or-None)."""
    kind = _require(doc, "kind", str, "poisson")
    if kind == "algebra":
        name = _require(doc, "name", str, "poisson")
        params = {k: doc[k] for k in ("alpha", "beta") if k in doc}
        alg = builtin_algebra(name, **params)
        if alg.constants.dim != dim:
            raise ConfigError(
                f"poisson: algebra {name!r} lives in dim "
                f"{alg.constants.dim}, config says {dim}")
        if "casimirs" in raw:
            raise ConfigError(
                "casimirs: built-in algebras define their own invariants; "
                "remove this field")
        return alg.structure, alg

    casimirs = _require(raw, "casimirs", list, "config")
    if not all(isinstance(c, str) for c in casimirs):
        raise ConfigError("casimirs: expected a list of expression strings")
    scales = raw.get("coframe_scales")

    if kind == "canonical":
        expected = _require(doc, "rank", int, "poisson")
    elif kind == "matrix":
        entries = _string_matrix(
            _require(doc, "entries", list, "poisson"), dim, "poisson.entries")
        bivector = dsl.expr_field(dim, "uu", entries)
        expected = _require(raw, "expected_rank", int, "config")
    else:
        raise ConfigError(
            f"poisson.kind: unknown kind {kind!r}; choose from "
            f"canonical, matrix, algebra")
    try:
        if kind == "canonical":
            bivector = canonical_bivector(dim, expected)
        structure = PoissonStructure(
            bivector=bivector,
            casimirs=[dsl.scalar_field(c, dim) for c in casimirs],
            expected_rank=expected,
            coframe_scales=scales)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"poisson: {exc}") from None
    return structure, None


def _parse_metric(doc: dict, dim: int, algebra) -> MetricField:
    kind = _require(doc, "kind", str, "metric")
    if kind == "identity":
        return MetricField.from_contravariant(np.eye(dim))
    if kind == "matrix":
        entries = _string_matrix(
            _require(doc, "entries", list, "metric"), dim, "metric.entries")
        _check_symmetric_text(entries, "metric.entries")
        return MetricField.from_entries(dim, entries)
    if kind == "se3":
        if dim != 6:
            raise ConfigError("metric: the se3 block metric requires dim 6")
        alpha = doc.get("alpha", 0.0)
        beta = doc.get("beta", 1.0)
        if not (_is_number(alpha) and _is_number(beta)):
            raise ConfigError("metric: alpha and beta must be numbers")
        return se3_metric(float(alpha), float(beta))
    if kind == "algebra-default":
        if algebra is None:
            raise ConfigError(
                "metric: algebra-default requires poisson.kind == algebra")
        return algebra.metric
    raise ConfigError(
        f"metric.kind: unknown kind {kind!r}; choose from identity, matrix, "
        f"se3, algebra-default")


def _load_config_file(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")

    name = _require(raw, "name", str, "config")
    dim = _require(raw, "dim", int, "config")
    if dim < 2:
        raise ConfigError("config.dim: must be at least 2")
    structure, algebra = _parse_poisson(
        _require(raw, "poisson", dict, "config"), dim, raw)
    metric = _parse_metric(_require(raw, "metric", dict, "config"), dim, algebra)
    if metric.dim != dim:
        raise ConfigError(f"metric: dimension {metric.dim} != config dim {dim}")
    grid = _parse_grid(_require(raw, "grid", dict, "config"), dim)
    scheme = _parse_scheme(raw.get("scheme", {}))
    tol = raw.get("tol_zero")
    if tol is not None:
        if not (_is_number(tol) and math.isfinite(tol) and tol > 0):
            raise ConfigError("tol_zero: must be a positive finite number")
        tol = float(tol)
    return ScenarioConfig(name=name, structure=structure, metric=metric,
                          grid=grid, scheme=scheme, tol=tol, algebra=algebra,
                          source=raw)


# ---------------------------------------------------------------------------
# worker count

def thread_count() -> int:
    """POISSON_ORTHO_THREADS: absent or 0 = auto, <= 1 = serial.

    ``run`` does not read this: evaluation is serial and batched over the
    grid. It stays only because the benchmark (``perfbench/run.py``)
    records it as its ``scenarios.threads`` metric, and it is deleted
    together with the benchmark change that retires that metric (ROADMAP.md,
    item 11).
    """
    raw = os.environ.get("POISSON_ORTHO_THREADS", "").strip()
    if not raw:
        workers = 0
    else:
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(
                "POISSON_ORTHO_THREADS must be an integer") from None
    if workers == 0:
        workers = min(8, os.cpu_count() or 1)
    return workers


# ---------------------------------------------------------------------------
# algebra extras

def _integral_surface_setup(name: str, center):
    center = np.asarray(center, dtype=float)
    line = [float(s) for s in np.linspace(-1.0, 1.0, 9)]
    box = [(float(s), float(t)) for s in np.linspace(-1.0, 1.0, 5)
           for t in np.linspace(-1.0, 1.0, 5)]
    if name in ("so3", "sl2r"):
        return (lambda s: np.exp(s) * center), line
    if name == "so3xso3":
        a, b = center[:3], center[3:]

        def torus_scaling(s, t):
            return np.concatenate([np.exp(s) * a, np.exp(t) * b])

        return torus_scaling, box
    if name == "se3":
        x0, p0 = center[:3], center[3:]

        def screw(s, t):
            return np.concatenate(
                [np.exp(s) * x0 + np.exp(t) * p0, np.exp(s) * p0])

        return screw, box
    return None, None


def _algebra_extras(config: ScenarioConfig, ctx: ChartContext, points) -> dict:
    alg = config.algebra
    killing = killing_form(alg.constants)

    table = casimir_lie_bracket(alg.constants, ctx.coframe_at(points.coords))
    bracket_max = float(np.max(np.abs(table), initial=0.0))
    grams = [{"point": coords, "matrix": gram}
             for coords, gram in zip(points.coords.tolist(), ctx.gram_at(points.coords).tolist())]

    extras = {
        "algebra": alg.name,
        "extension": alg.extension,
        "constants_validation": alg.constants.validation.to_dict(),
        "killing_form": [[float(v) for v in row] for row in killing],
        "killing_determinant": float(np.linalg.det(killing)),
        "casimir_bracket_max_abs": bracket_max,
        "casimir_bracket_abelian": bracket_max == 0.0,
        "gram": grams,
    }

    surface, samples = _integral_surface_setup(alg.name, alg.default_center)
    if surface is not None:
        rep = verify_integral_surface(surface, ctx, samples)
        extras["integral_surface"] = {
            "samples": len(samples),
            "max_residual": rep.max_residual,
            "holds": rep.holds,
        }
    return extras


# ---------------------------------------------------------------------------
# run and report

@dataclass
class RunReport:
    """Everything one scenario run produced, ready to serialize."""

    scenario: ScenarioConfig
    validation: PoissonValidationReport
    verdict: Verdict | None
    extras: dict | None
    tolerance: float
    elapsed_seconds: float

    @property
    def exit_code(self) -> int:
        """0 integrable, 1 non-integrable, 2 invalid or inconsistent."""
        if self.verdict is None or not self.validation.ok:
            return 2
        if not self.verdict.consistent:
            return 2
        return 0 if self.verdict.integrable else 1

    def to_dict(self) -> dict:
        grid = self.scenario.grid
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "scenario": {
                "name": self.scenario.name,
                "dim": self.scenario.dim,
                "source": self.scenario.source,
                "grid": {
                    "center": [float(c) for c in grid.center],
                    "half_width": [float(h) for h in grid.half_width],
                    "points_per_axis": [int(m) for m in grid.points_per_axis],
                    "point_count": math.prod(grid.points_per_axis),
                },
                "scheme": {"kind": self.scenario.scheme.kind,
                           "step": self.scenario.scheme.step},
            },
            "tolerance": self.tolerance,
            "validation": self.validation.to_dict(),
            "verdict": None if self.verdict is None else self.verdict.to_dict(),
            "extras": self.extras,
            "exit_code": self.exit_code,
        }

    def json_text(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

    def text(self) -> str:
        lines = []
        grid = self.scenario.grid
        lines.append(f"scenario: {self.scenario.name} (dim {self.scenario.dim})")
        lines.append(
            f"grid: {math.prod(grid.points_per_axis)} points, center "
            f"{[float(c) for c in grid.center]}, half width "
            f"{[float(h) for h in grid.half_width]}, "
            f"{list(grid.points_per_axis)} per axis")
        lines.append(f"scheme: {self.scenario.scheme.kind} "
                     f"(step {self.scenario.scheme.step:g})")
        lines.append(f"zero tolerance: {self.tolerance:g}")
        v = self.validation
        lines.append(
            f"structure validation: {'ok' if v.ok else 'FAILED'} "
            f"(antisymmetry {v.antisymmetry.max_residual:.3g}, "
            f"jacobi {v.jacobi.max_residual:.3g}, "
            f"casimir annihilation {v.casimir_annihilation.max_residual:.3g}, "
            f"rank {v.rank})")
        if self.verdict is None:
            lines.append("verdict: INVALID (structure validation failed; "
                         "conditions not evaluated)")
        else:
            word = "INTEGRABLE" if self.verdict.integrable else "NON-INTEGRABLE"
            if not self.verdict.consistent:
                word += " (INCONSISTENT RUN)"
            lines.append(f"verdict: {word}")
            lines.append("conditions:")
            for rep in self.verdict.conditions:
                role = "binding" if rep.binding else "advisory"
                head = (f"  [{role:<8}] {rep.condition:<28} {rep.label:<12} "
                        f"max {rep.max_residual:.6g}")
                if rep.witness is not None and rep.label == "fails":
                    head += f" at {[float(c) for c in rep.witness.coords]}"
                lines.append(head)
                lines.append(f"             {rep.formula}")
            if self.verdict.disagreements:
                lines.append("disagreements:")
                for item in self.verdict.disagreements:
                    lines.append(f"  {item}")
            else:
                lines.append("disagreements: none")
        if self.extras is not None:
            lines.append(f"algebra extras ({self.extras['algebra']}):")
            lines.append(
                f"  killing form det {self.extras['killing_determinant']:.6g}")
            lines.append(
                f"  coframe bracket table max "
                f"{self.extras['casimir_bracket_max_abs']:.3g} "
                f"(abelian: {self.extras['casimir_bracket_abelian']})")
            if "integral_surface" in self.extras:
                surf = self.extras["integral_surface"]
                lines.append(
                    f"  integral surface: max residual "
                    f"{surf['max_residual']:.3g} over {surf['samples']} "
                    f"samples (holds: {surf['holds']})")
            first = self.extras["gram"][0]
            lines.append(f"  gram at {first['point']}: {first['matrix']}")
        lines.append(f"wall time: {self.elapsed_seconds:.3f} s")
        return "\n".join(lines) + "\n"


def run(config: ScenarioConfig) -> RunReport:
    """Validate the structure, evaluate every condition, collect extras."""
    started = time.perf_counter()
    points = config.grid.sample()
    if config.algebra is not None:
        ensure_regular_grid(config.algebra, config.grid, points)
    tol = config.tol if config.tol is not None else default_tolerance(config.scheme)
    ctx = ChartContext(config.structure, config.metric, config.scheme)
    validation = validate_poisson(config.structure, config.grid, config.scheme,
                                  points=points, ctx=ctx)
    result = None
    extras = None
    if validation.ok:
        result = verdict(config.structure, config.metric, config.grid,
                         config.scheme, tol, ctx=ctx, points=points)
        if config.algebra is not None:
            extras = _algebra_extras(config, ctx, points)
    return RunReport(
        scenario=config,
        validation=validation,
        verdict=result,
        extras=extras,
        tolerance=tol,
        elapsed_seconds=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# canonical JSON

def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, '.17g' floats, minimal whitespace."""
    # exact builtin types first, floats and float lists (the residual
    # arrays) foremost; subclasses and numpy scalars take the general path
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is list or kind is tuple:
        if all(type(v) is float for v in value):
            return "[" + ",".join([format(v, ".17g") for v in value]) + "]"
        return "[" + ",".join([canonical_json(v) for v in value]) + "]"
    if kind is dict:
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            parts.append(f"{json.dumps(key)}:{canonical_json(value[key])}")
        return "{" + ",".join(parts) + "}"
    if kind is str:
        return json.dumps(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join([canonical_json(v) for v in value]) + "]"
    if isinstance(value, dict):
        return canonical_json(dict(value))
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")
