"""Per-category importance weights from the type-level attention trace."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import softmax
from .encoder import AttentionTrace
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


def category_weights(trace: AttentionTrace, source_id: str = "") -> ExplainReport:
    """Column-sum the trace, softmax over present categories only.

    Absent categories get weight exactly 0; the probability mass lives
    entirely on the categories the method actually contains.
    """
    present = np.flatnonzero(trace.present_mask)
    weights = np.zeros(NUM_CATEGORIES)
    if present.size:
        weights[present] = softmax(trace.matrix.sum(axis=0)[present])
    return ExplainReport(source_id=source_id, weights=weights)


def format_weights_table(report: ExplainReport) -> str:
    """Aligned two-column text table, categories in canonical order."""
    names = [cat.value for cat in category_order()]
    width = max(len(n) for n in names)
    lines = [f"{'category':<{width}}  weight"]
    for name, weight in zip(names, report.weights):
        lines.append(f"{name:<{width}}  {weight:.4f}")
    return "\n".join(lines)
