"""Collapse a frame-feature sequence into one fixed-length descriptor row.

The variants of each frame are averaged first, giving one video's (T, d)
frame matrix. Each block reduces that matrix's columns to d values:
per-dimension mean, population std, min, max, and the mean magnitude of
each dimension's length-T discrete Fourier transform. The statistical
blocks treat a video as a set of frames: their output is bit-identical
under any frame permutation. The fft block is the one order-sensitive
summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameFeatureSequence
from .util import FieldError

# the STAT* preset: mean, std and min (STAT adds max)
STAT_STAR_AGGREGATORS = ("mean", "std", "min")


@dataclass(frozen=True)
class AggregationConfig:
    """Which blocks to compute, in concatenation order."""

    aggregators: tuple[str, ...] = STAT_STAR_AGGREGATORS

    def __post_init__(self):
        aggs = tuple(self.aggregators)
        if not aggs:
            raise FieldError("aggregators", "must be non-empty")
        unknown = [a for a in aggs if a not in AGGREGATOR_NAMES]
        if unknown:
            raise FieldError("aggregators",
                             f"has unknown names {unknown}, expected {AGGREGATOR_NAMES}")
        if len(set(aggs)) != len(aggs):
            raise FieldError("aggregators", f"has duplicates in {aggs}")
        object.__setattr__(self, "aggregators", aggs)


def average_variants(seq: FrameFeatureSequence) -> FrameFeatureSequence:
    """Average the V variants of each frame; output has V=1."""
    if seq.num_variants == 1:
        return seq
    averaged = seq.frames.mean(axis=1, keepdims=True)
    return FrameFeatureSequence(seq.video_id, averaged)


def aggregate_mean(frames: np.ndarray) -> np.ndarray:
    """Per-dimension arithmetic mean over the rows of a (T, d) frame matrix."""
    # column sort fixes the reduction order, so any frame permutation
    # yields a bit-identical sum
    return np.sort(frames, axis=0).mean(axis=0)


def aggregate_std(frames: np.ndarray) -> np.ndarray:
    """Per-dimension population standard deviation (divide by T) over frames."""
    mean = np.sort(frames, axis=0).mean(axis=0)
    sq_dev = (frames - mean) ** 2
    return np.sqrt(np.sort(sq_dev, axis=0).mean(axis=0))


def aggregate_min(frames: np.ndarray) -> np.ndarray:
    """Per-dimension minimum over frames."""
    # min(-0.0, 0.0) is whichever comes first; adding 0.0 makes every zero
    # +0.0, so any frame permutation yields the same bits
    return frames.min(axis=0) + 0.0


def aggregate_max(frames: np.ndarray) -> np.ndarray:
    """Per-dimension maximum over frames (zeros as in aggregate_min)."""
    return frames.max(axis=0) + 0.0


def aggregate_fft_mean(frames: np.ndarray) -> np.ndarray:
    """Mean DFT magnitude per dimension.

    For each column of the (T, d) frame matrix, compute the length-T
    discrete Fourier transform (no padding or resampling), and average the
    complex magnitudes over all T bins, DC included.
    """
    spectrum = np.fft.fft(frames, axis=0)
    return np.abs(spectrum).mean(axis=0)


_AGGREGATORS = {
    "mean": aggregate_mean,
    "std": aggregate_std,
    "min": aggregate_min,
    "max": aggregate_max,
    "fft": aggregate_fft_mean,
}
AGGREGATOR_NAMES = tuple(_AGGREGATORS)


def build_video_descriptor(seq: FrameFeatureSequence, cfg: AggregationConfig) -> np.ndarray:
    """Concatenate the configured blocks into one video's descriptor row.

    The variants are averaged before every block. Block k, the one of
    cfg.aggregators[k], fills columns k*d to (k+1)*d - 1, so the row's
    length is len(cfg.aggregators) * d. A block that overflows raises ValueError.
    """
    frames = average_variants(seq).frames[:, 0, :]
    row = np.concatenate([_AGGREGATORS[name](frames) for name in cfg.aggregators])
    if not np.isfinite(row).all():
        raise ValueError(f"non-finite value in descriptor of {seq.video_id!r}")
    return row


def shuffle_frames(seq: FrameFeatureSequence, seed: int) -> FrameFeatureSequence:
    """Permute frames by a seeded uniform permutation; variants untouched."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(seq.num_frames)
    return FrameFeatureSequence(seq.video_id, seq.frames[perm])
