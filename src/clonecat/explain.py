"""Per-category importance weights from a method's type-level attention matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import softmax
from .lexcat import NUM_CATEGORIES, category_order

__all__ = ["ExplainReport", "category_weights", "format_weights_table"]


@dataclass
class ExplainReport:
    source_id: str
    weights: np.ndarray  # (15,) floats; absent categories exactly 0

    def to_json_dict(self) -> dict:
        names = [cat.value for cat in category_order()]
        return {
            "source_id": self.source_id,
            "weights": {name: float(w) for name, w in zip(names, self.weights)},
        }


def category_weights(matrix: np.ndarray, source_id: str = "") -> ExplainReport:
    """Column-sum the (15, 15) attention matrix, softmax over present categories only.

    A category is present when its row is nonzero: a present row sums to 1, while
    a present column can underflow to 0. Absent categories get weight exactly 0.
    """
    present = np.flatnonzero(matrix.any(axis=1))
    weights = np.zeros(NUM_CATEGORIES)
    if present.size:
        weights[present] = softmax(matrix.sum(axis=0)[present])
    return ExplainReport(source_id=source_id, weights=weights)


def format_weights_table(report: ExplainReport) -> str:
    """Aligned two-column text table, categories in canonical order."""
    names = [cat.value for cat in category_order()]
    width = max(len(n) for n in names)
    lines = [f"{'category':<{width}}  weight"]
    for name, weight in zip(names, report.weights):
        lines.append(f"{name:<{width}}  {weight:.4f}")
    return "\n".join(lines)
