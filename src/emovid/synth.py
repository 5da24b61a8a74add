"""Synthetic Gaussian-cluster datasets and independent verification oracles.

The generator stands in for real datasets: seven class centroids on
a sphere, a per-video offset, per-frame noise. It writes exactly the
ingest formats, one video at a time, and keeps no frames: a caller
reads a generated dataset back through ingest, as the CLI does, and
every file round-trips bit-exactly. Every byte is a deterministic
function of the seed. The oracles are deliberately naive routes (direct
O(T^2) DFT, projected subgradient on the SVM primal) used to
cross-check the fast implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import EMOTION_NAMES, NUM_CLASSES, SPLITS, FrameFeatureSequence
from .ingest import Manifest, ManifestEntry, write_frame_features, write_manifest
from .util import FieldError


def _default_counts() -> dict:
    return {"train": (10,) * NUM_CLASSES, "val": (5,) * NUM_CLASSES, "test": (5,) * NUM_CLASSES}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the cluster generator (7 classes, fixed).

    counts maps split -> per-class video counts (an int means the same
    count for every class). class_separation sets the expected pairwise
    centroid distance; within_video_sigma moves whole videos off their
    centroid; frame_sigma jitters single frames (and variants).
    """

    dim: int = 16
    frames_range: tuple[int, int] = (8, 16)
    variants: int = 1
    class_separation: float = 10.0
    within_video_sigma: float = 1.0
    frame_sigma: float = 1.0
    counts: dict[str, int | tuple[int, ...]] = field(default_factory=_default_counts)
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise FieldError("dim", f"must be >= 1, got {self.dim}")
        lo, hi = self.frames_range
        if not (1 <= lo <= hi):
            raise FieldError("frames_range",
                             f"must satisfy 1 <= lo <= hi, got {self.frames_range}")
        object.__setattr__(self, "frames_range", (int(lo), int(hi)))
        if self.variants < 1:
            raise FieldError("variants", f"must be >= 1, got {self.variants}")
        for name in ("class_separation", "within_video_sigma", "frame_sigma"):
            if getattr(self, name) < 0:
                raise FieldError(name, f"must be nonnegative, got {getattr(self, name)}")
        counts = {}
        for split, value in dict(self.counts).items():
            if split not in SPLITS:
                raise FieldError("counts",
                                 f"has unknown split {split!r}, expected one of {SPLITS}")
            per_class = (
                (int(value),) * NUM_CLASSES
                if isinstance(value, int)
                else tuple(int(v) for v in value)
            )
            if len(per_class) != NUM_CLASSES or any(v < 0 for v in per_class):
                raise FieldError(
                    "counts", f"split {split!r} must hold {NUM_CLASSES} nonnegative ints"
                )
            counts[split] = per_class
        object.__setattr__(self, "counts", counts)


def class_centroids(cfg: SynthConfig) -> np.ndarray:
    """Seven centroids drawn on a sphere of radius separation/sqrt(2), so
    expected pairwise distance is about the separation."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    radius = cfg.class_separation / np.sqrt(2.0)
    centroids = np.zeros((NUM_CLASSES, cfg.dim))
    for c in range(NUM_CLASSES):
        direction = rng.standard_normal(cfg.dim)
        norm = float(np.linalg.norm(direction))
        if radius > 0 and norm > 0:
            centroids[c] = direction / norm * radius
    return centroids


def generate_dataset(cfg: SynthConfig, out_dir) -> Manifest:
    """Write a manifest plus per-video frame-feature files under out_dir,
    all in the stream named frames, cli.PipelineConfig's default stream,
    and return the manifest written. Each video's frames are written as
    they are drawn and not kept, so memory does not grow with the count.

    Byte-identical for identical configs: every video draws from its own
    generator keyed by (seed, video index), so per-video work could also
    run concurrently without changing the output.
    """
    out = Path(out_dir)
    (out / "features" / "frames").mkdir(parents=True, exist_ok=True)
    centroids = class_centroids(cfg)
    t_lo, t_hi = cfg.frames_range

    entries = []
    video_index = 0
    for split in SPLITS:
        per_class = cfg.counts.get(split, (0,) * NUM_CLASSES)
        for c in range(NUM_CLASSES):
            for k in range(per_class[c]):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, video_index))
                )
                num_frames = int(rng.integers(t_lo, t_hi + 1))
                offset = cfg.within_video_sigma * rng.standard_normal(cfg.dim)
                noise = cfg.frame_sigma * rng.standard_normal(
                    (num_frames, cfg.variants, cfg.dim)
                )
                frames = centroids[c] + offset + noise
                video_id = f"{split}_{EMOTION_NAMES[c].lower()}_{k:03d}"
                rel = f"features/frames/{video_id}.csv"
                write_frame_features(FrameFeatureSequence(video_id, frames), out / rel)
                entries.append(
                    ManifestEntry(video_id, split, EMOTION_NAMES[c], {"frames": rel})
                )
                video_index += 1
    write_manifest(entries, out / "manifest.jsonl")
    return Manifest(tuple(entries), out)


def oracle_dft(signal) -> np.ndarray:
    """Direct O(T^2) DFT: S[k] = sum_t s[t] * exp(-2*pi*i*k*t/T).

    Verification route only; shares nothing with np.fft.
    """
    s = np.asarray(signal, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("signal must be a non-empty 1-D sequence")
    length = s.size
    t = np.arange(length)
    out = np.empty(length, dtype=np.complex128)
    for k in range(length):
        out[k] = np.sum(s * np.exp(-2j * np.pi * k * t / length))
    return out


def oracle_svm_subgradient(X, y, C: float, iterations: int) -> np.ndarray:
    """Projected subgradient descent on the SVM primal; verification route.

    Full-batch steps of size 1/(lambda*t) with lambda = 1/(C*N), each
    iterate projected onto the ball ||w|| <= sqrt(C*N) that contains the
    optimum; returns the average of the final half of the iterates.
    Deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (N, D) with matching y")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n = X.shape[0]
    lam = 1.0 / (C * n)
    radius = np.sqrt(C * n)
    signed = y[:, None] * X  # rows y_i * x_i

    w = np.zeros(X.shape[1])
    tail_start = iterations // 2
    w_sum = np.zeros_like(w)
    tail_count = 0
    for t in range(1, iterations + 1):
        violated = (signed @ w) < 1.0
        grad = lam * w - signed[violated].sum(axis=0) / n
        w = w - grad / (lam * t)
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
        if t > tail_start:
            w_sum += w
            tail_count += 1
    return w_sum / tail_count
