"""Collapse a frame-feature sequence into fixed-length per-video blocks.

Aggregators: per-dimension mean, population std, min, max, and the mean
magnitude of each dimension's length-T discrete Fourier transform. The
statistical aggregators treat a video as a set of frames: their output is
bit-identical under any frame permutation. The fft block is the one
order-sensitive summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameFeatureSequence, VideoDescriptor

AGGREGATOR_NAMES = ("mean", "std", "min", "max", "fft")

# the STAT* preset: mean, std and min (STAT adds max)
STAT_STAR_AGGREGATORS = ("mean", "std", "min")


@dataclass(frozen=True)
class AggregationConfig:
    """Which blocks to compute, in concatenation order."""

    aggregators: tuple[str, ...] = STAT_STAR_AGGREGATORS

    def __post_init__(self):
        aggs = tuple(self.aggregators)
        if not aggs:
            raise ValueError("aggregators must be non-empty")
        unknown = [a for a in aggs if a not in AGGREGATOR_NAMES]
        if unknown:
            raise ValueError(f"unknown aggregators {unknown}, expected {AGGREGATOR_NAMES}")
        if len(set(aggs)) != len(aggs):
            raise ValueError(f"duplicate aggregators in {aggs}")
        object.__setattr__(self, "aggregators", aggs)


def average_variants(seq: FrameFeatureSequence) -> FrameFeatureSequence:
    """Average the V variants of each frame; output has V=1."""
    if seq.num_variants == 1:
        return seq
    averaged = seq.frames.mean(axis=1, keepdims=True)
    return FrameFeatureSequence(seq.video_id, averaged)


def _single_variant(seq: FrameFeatureSequence) -> np.ndarray:
    """Return the (T, d) frame matrix; aggregators require V=1."""
    if seq.num_variants != 1:
        raise ValueError(
            f"aggregator requires V=1, got V={seq.num_variants} "
            f"(apply average_variants first)"
        )
    return seq.frames[:, 0, :]


def aggregate_mean(seq: FrameFeatureSequence) -> np.ndarray:
    """Per-dimension arithmetic mean over frames."""
    frames = _single_variant(seq)
    # column sort fixes the reduction order, so any frame permutation
    # yields a bit-identical sum
    return np.sort(frames, axis=0).mean(axis=0)


def aggregate_std(seq: FrameFeatureSequence) -> np.ndarray:
    """Per-dimension population standard deviation (divide by T) over frames."""
    frames = _single_variant(seq)
    mean = np.sort(frames, axis=0).mean(axis=0)
    sq_dev = (frames - mean) ** 2
    return np.sqrt(np.sort(sq_dev, axis=0).mean(axis=0))


def aggregate_min(seq: FrameFeatureSequence) -> np.ndarray:
    """Per-dimension minimum over frames."""
    # min(-0.0, 0.0) is whichever comes first; adding 0.0 makes every zero
    # +0.0, so any frame permutation yields the same bits
    return _single_variant(seq).min(axis=0) + 0.0


def aggregate_max(seq: FrameFeatureSequence) -> np.ndarray:
    """Per-dimension maximum over frames (zeros as in aggregate_min)."""
    return _single_variant(seq).max(axis=0) + 0.0


def aggregate_fft_mean(seq: FrameFeatureSequence) -> np.ndarray:
    """Mean DFT magnitude per dimension.

    For each feature dimension, take its length-T frame sequence, compute
    the length-T discrete Fourier transform (no padding or resampling),
    and average the complex magnitudes over all T bins, DC included.
    """
    frames = _single_variant(seq)
    spectrum = np.fft.fft(frames, axis=0)
    return np.abs(spectrum).mean(axis=0)


_AGGREGATORS = {
    "mean": aggregate_mean,
    "std": aggregate_std,
    "min": aggregate_min,
    "max": aggregate_max,
    "fft": aggregate_fft_mean,
}


def build_video_descriptor(
    seq: FrameFeatureSequence, cfg: AggregationConfig
) -> VideoDescriptor:
    """Concatenate the configured aggregator blocks into one descriptor.

    The variants are averaged before every aggregator. Block k, the one of
    cfg.aggregators[k], fills columns k*d to (k+1)*d - 1, so the output
    length is len(cfg.aggregators) * d.
    """
    work = average_variants(seq)
    blocks = [_AGGREGATORS[name](work) for name in cfg.aggregators]
    return VideoDescriptor(seq.video_id, np.concatenate(blocks))


def shuffle_frames(seq: FrameFeatureSequence, seed: int) -> FrameFeatureSequence:
    """Permute frames by a seeded uniform permutation; variants untouched."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(seq.num_frames)
    return FrameFeatureSequence(seq.video_id, seq.frames[perm])
