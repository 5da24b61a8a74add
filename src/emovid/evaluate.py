"""Accuracy, confusion matrix and per-class recall reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EMOTION_SHORT_NAMES, NUM_CLASSES, class_indices
from .util import config_to_dict


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    accuracy: float
    confusion: np.ndarray  # (7, 7) ints, rows = true, columns = predicted
    per_class_recall: np.ndarray
    n: int

    def __post_init__(self):
        confusion = np.array(self.confusion, dtype=np.int64)
        recall = np.array(self.per_class_recall, dtype=np.float64)
        if confusion.shape != (NUM_CLASSES, NUM_CLASSES):
            raise ValueError(f"confusion must be {NUM_CLASSES}x{NUM_CLASSES}")
        if int(confusion.sum()) != self.n:
            raise ValueError("confusion entries must sum to n")
        confusion.setflags(write=False)
        recall.setflags(write=False)
        object.__setattr__(self, "confusion", confusion)
        object.__setattr__(self, "per_class_recall", recall)


def evaluate(predictions, truths) -> EvaluationReport:
    """Tally a confusion matrix, overall accuracy and per-class recall."""
    pred, true = class_indices(predictions), class_indices(truths)
    if len(pred) != len(true):
        raise ValueError(f"{len(pred)} predictions but {len(true)} truths")
    if not len(pred):
        raise ValueError("cannot evaluate an empty prediction set")
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for t, p in zip(true, pred):
        confusion[t, p] += 1
    n = len(pred)
    accuracy = float(np.trace(confusion)) / n
    row_sums = confusion.sum(axis=1)
    recall = np.where(
        row_sums > 0, np.diag(confusion) / np.maximum(row_sums, 1), 0.0
    )
    return EvaluationReport(accuracy, confusion, recall, n)


def format_accuracy(accuracy: float) -> str:
    """Percentage with 2 decimals (round-half-even), e.g. 0.600307 -> '60.03'."""
    return f"{accuracy * 100.0:.2f}"


def render_report(report: EvaluationReport) -> str:
    """Deterministic fixed-width text table in canonical label order."""
    lines = [f"accuracy: {format_accuracy(report.accuracy)}  (n={report.n})", ""]
    header = "    " + "".join(f"{name:>7}" for name in EMOTION_SHORT_NAMES) + "   recall"
    lines.append(header)
    for c in range(NUM_CLASSES):
        cells = "".join(f"{int(v):>7}" for v in report.confusion[c])
        recall = format_accuracy(float(report.per_class_recall[c]))
        lines.append(f"{EMOTION_SHORT_NAMES[c]:<4}{cells}{recall:>9}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-ready form: accuracy fraction, confusion, recalls, n."""
    return config_to_dict(report)
