"""Combine score streams, weight classes by prior, read out predictions.

Decision values from independently trained SVMs are not on a common
scale, so every stream's rows go through a softmax before the streams are
averaged. The combined rows are probability vectors, which is what makes
a class weight meaningful: a positive multiplier on a nonnegative score
moves the class up, never down.
"""

from __future__ import annotations

import numpy as np

from .core import NUM_CLASSES, ClassWeights, EmotionLabel, ScoreMatrix
from .ingest import (  # noqa: F401 - re-exported; ingest holds every file format
    read_predictions,
    read_scores,
    write_predictions,
    write_scores,
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


def combine_streams(streams) -> ScoreMatrix:
    """Average the softmax of each stream's rows elementwise across streams.

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
    stacked = np.stack([softmax_rows(s.scores) for s in streams])
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
            "class weights require nonnegative scores (combine_streams gives them)"
        )
    return ScoreMatrix(scores.video_ids, scores.scores * weights.weights)


def predict(scores: ScoreMatrix) -> list:
    """Per row, the smallest class index attaining the maximal score."""
    return [EmotionLabel(int(i)) for i in scores.scores.argmax(axis=1)]


def run_ensemble(streams, weights=None) -> ScoreMatrix:
    """combine_streams, then apply_class_weights with the ClassWeights when given."""
    combined = combine_streams(streams)
    return combined if weights is None else apply_class_weights(combined, weights)
