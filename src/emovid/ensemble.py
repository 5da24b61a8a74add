"""Combine score streams, weight classes by prior, read out predictions.

Decision values from independently trained SVMs are not commensurable, so
the default combination first maps each stream's rows through a softmax;
raw averaging is kept as an alternative but refuses class weights (a
positive multiplier on a negative decision value would push the class
down, not up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NUM_CLASSES, ClassWeights, EmotionLabel, ScoreMatrix
from .ingest import (  # noqa: F401 - re-exported; ingest holds every file format
    read_predictions,
    read_scores,
    read_weight_row,
    write_predictions,
    write_scores,
    write_weights,
)

SCORE_MODES = ("raw", "softmax")


@dataclass(frozen=True)
class EnsembleConfig:
    """The pipeline config's "ensemble" section; ensemble --mode overrides it."""

    score_mode: str = "softmax"

    def __post_init__(self):
        if self.score_mode not in SCORE_MODES:
            raise ValueError(
                f"unknown score_mode {self.score_mode!r}, expected one of {SCORE_MODES}"
            )


def class_weights_from_counts(counts) -> ClassWeights:
    """w_c = sqrt(n_c) / sum_c' sqrt(n_c') from per-class sample counts."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.shape != (NUM_CLASSES,):
        raise ValueError(f"expected {NUM_CLASSES} counts, got shape {arr.shape}")
    if (arr < 0).any():
        raise ValueError("counts must be nonnegative")
    if not (arr > 0).any():
        raise ValueError("at least one count must be positive")
    roots = np.sqrt(arr)
    return ClassWeights(roots / roots.sum())


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise exponential normalization, max-subtracted for stability."""
    arr = np.asarray(scores, dtype=np.float64)
    shifted = arr - arr.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def combine_streams(streams, cfg: EnsembleConfig = EnsembleConfig()) -> ScoreMatrix:
    """Average score rows elementwise across streams.

    In softmax mode every stream's rows become probability vectors first.
    All streams must list the same video ids in the same order.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one score stream")
    reference = streams[0].video_ids
    for k, stream in enumerate(streams[1:], start=1):
        if stream.video_ids != reference:
            offending = _first_id_mismatch(reference, stream.video_ids)
            raise ValueError(
                f"stream {k} video ids disagree with stream 0, first offender: {offending!r}"
            )
    stacked = np.stack([s.scores for s in streams])
    if cfg.score_mode == "softmax":
        stacked = np.stack([softmax_rows(layer) for layer in stacked])
    return ScoreMatrix(reference, stacked.mean(axis=0))


def _first_id_mismatch(a, b) -> str:
    for x, y in zip(a, b):
        if x != y:
            return y
    return b[len(a)] if len(b) > len(a) else f"<missing after {a[len(b) - 1]}>"


def apply_class_weights(scores: ScoreMatrix, weights: ClassWeights) -> ScoreMatrix:
    """Multiply column c by weight w_c; requires nonnegative scores."""
    if (scores.scores < 0).any():
        raise ValueError(
            "class weights require nonnegative scores (combine in softmax mode first)"
        )
    return ScoreMatrix(scores.video_ids, scores.scores * weights.weights)


def predict(scores: ScoreMatrix) -> list:
    """Per row, the smallest class index attaining the maximal score."""
    return [EmotionLabel(int(i)) for i in scores.scores.argmax(axis=1)]


def run_ensemble(streams, cfg: EnsembleConfig = EnsembleConfig(), weights=None) -> ScoreMatrix:
    """combine_streams, then apply_class_weights with the ClassWeights when given."""
    combined = combine_streams(streams, cfg)
    if weights is not None:
        if cfg.score_mode != "softmax":
            raise ValueError("class weights require softmax score mode")
        combined = apply_class_weights(combined, weights)
    return combined
