"""Per-condition residual reports shared by the checking modules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ConditionReport:
    """Residuals of one scalar condition over a set of points.

    ``residuals[i]`` is the max-abs residual over all free indices of the
    condition at ``points[i]``; ``points`` is the evaluated batch (a
    ``geometry.Points``) and ``residuals`` a list of floats. ``binding`` marks conditions that decide the
    overall verdict (the sufficient-only checks report with binding=False).
    ``status`` overrides the residual-derived label, e.g. "inconclusive" for
    a sufficient condition whose premise fails, or "skipped" when a
    precondition gate refuses the check entirely.
    """

    condition: str
    formula: str
    threshold: float
    binding: bool = True
    points: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    status: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def witness(self):
        """Point of the largest residual (first among ties); None if empty."""
        if not self.residuals:
            return None
        return self.points[int(np.argmax(self.residuals))]

    def pointwise(self) -> list:
        return [r <= self.threshold for r in self.residuals]

    @property
    def holds(self) -> bool:
        return self.max_residual <= self.threshold

    @property
    def label(self) -> str:
        if self.status is not None:
            return self.status
        return "holds" if self.holds else "fails"

    def to_dict(self) -> dict:
        witness = self.witness
        return {
            "id": self.condition,
            "formula": self.formula,
            "threshold": self.threshold,
            "binding": self.binding,
            "label": self.label,
            "max_residual": self.max_residual,
            "witness": None if witness is None else [float(c) for c in witness.coords],
            "residuals": [float(r) for r in self.residuals],
            "extras": self.extras,
        }


@dataclass
class PoissonValidationReport:
    """Structural checks of a bivector over a grid."""

    antisymmetry: ConditionReport
    jacobi: ConditionReport
    casimir_annihilation: ConditionReport
    rank: int

    @property
    def ok(self) -> bool:
        return (self.antisymmetry.holds and self.jacobi.holds
                and self.casimir_annihilation.holds)

    def to_dict(self) -> dict:
        return {
            "antisymmetry": self.antisymmetry.to_dict(),
            "jacobi": self.jacobi.to_dict(),
            "casimir_annihilation": self.casimir_annihilation.to_dict(),
            "rank": self.rank,
        }
