"""Canonical domain types and the fixed emotion-label universe.

Every matrix column, weight vector and report in the package follows one
label order; the types below are immutable value objects, safe to share
between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

EMOTION_NAMES = ("Angry", "Disgust", "Fear", "Happy", "Neutral", "Sad", "Surprise")
EMOTION_SHORT_NAMES = ("An", "Di", "Fe", "Ha", "Ne", "Sa", "Su")
NUM_CLASSES = 7
SPLITS = ("train", "val", "test")


class EmotionLabel(IntEnum):
    """The seven emotion classes in canonical column order."""

    ANGRY = 0
    DISGUST = 1
    FEAR = 2
    HAPPY = 3
    NEUTRAL = 4
    SAD = 5
    SURPRISE = 6

    @property
    def display_name(self) -> str:
        return EMOTION_NAMES[self]


_NAME_TO_LABEL = {name.lower(): EmotionLabel(i) for i, name in enumerate(EMOTION_NAMES)}


def label_from_name(name: str) -> EmotionLabel:
    """Resolve a label by name, case-insensitively."""
    try:
        return _NAME_TO_LABEL[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown emotion label: {name!r}") from None


def class_indices(labels) -> np.ndarray:
    """The class index 0..6 of each EmotionLabel (or int) in labels."""
    return np.array([int(EmotionLabel(label)) for label in labels], dtype=np.int64)


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)  # always copies
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FrameFeatureSequence:
    """Per-video stack of frame feature vectors, shape (T, V, d).

    T >= 1 frames, V >= 1 augmentation variants per frame, d >= 1 feature
    dimensions; all entries finite.
    """

    video_id: str
    frames: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.frames)
        if arr.ndim != 3:
            raise ValueError(
                f"frames must have shape (T, V, d), got ndim={arr.ndim}"
            )
        if min(arr.shape) < 1:
            raise ValueError(f"frames must be non-empty in every axis, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite value in frame features of {self.video_id!r}")
        object.__setattr__(self, "frames", arr)

    @classmethod
    def from_matrix(cls, video_id: str, matrix) -> "FrameFeatureSequence":
        """Build a single-variant sequence from a (T, d) matrix."""
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a (T, d) matrix, got ndim={arr.ndim}")
        return cls(video_id, arr[:, None, :])

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_variants(self) -> int:
        return self.frames.shape[1]

    @property
    def dim(self) -> int:
        return self.frames.shape[2]


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-video x per-class real scores; rows follow video_ids order."""

    video_ids: tuple
    scores: np.ndarray

    def __post_init__(self):
        ids = tuple(str(v) for v in self.video_ids)
        arr = _frozen_array(self.scores)
        if arr.ndim != 2 or arr.shape[1] != NUM_CLASSES:
            raise ValueError(
                f"scores must be (N, {NUM_CLASSES}), got shape {arr.shape}"
            )
        if arr.shape[0] != len(ids):
            raise ValueError(
                f"{len(ids)} video ids but {arr.shape[0]} score rows"
            )
        if not np.isfinite(arr).all():
            raise ValueError("non-finite value in score matrix")
        object.__setattr__(self, "video_ids", ids)
        object.__setattr__(self, "scores", arr)

    @property
    def num_videos(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True, eq=False)
class ClassWeights:
    """Seven nonnegative per-class multipliers summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights)
        if arr.shape != (NUM_CLASSES,):
            raise ValueError(f"weights must have shape ({NUM_CLASSES},), got {arr.shape}")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", arr)
