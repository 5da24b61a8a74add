"""Benchmark workloads: input generation from a seed, and the CLI chain.

Every workload draws its splits from the paper's class-skewed per-class
counts, scaled by a share. Inputs are written with the ``emovid.ingest``
writers around ``emovid.synth``'s class centroids, so the program sees
exactly the files a user would hand it; only the seed and the sizes below
decide their bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from emovid.core import EMOTION_NAMES, NUM_CLASSES, SPLITS, FrameFeatureSequence
from emovid.ingest import (
    ManifestEntry,
    write_audio_features,
    write_frame_features,
    write_manifest,
)
from emovid.synth import SynthConfig, class_centroids
from emovid.util import derive_seed

# per-class video counts; 773 / 383 / 653 videos
PAPER_COUNTS = {
    "train": (133, 74, 81, 150, 144, 117, 74),
    "val": (64, 40, 46, 63, 63, 61, 46),
    "test": (98, 40, 70, 144, 193, 80, 28),
}
KNOWN_C = 2.0 ** -6
# 2^-16 ... 2^-2 in x4 steps; the CLI default grid is flat at D=1582
PAPER_CV_GRID = tuple(2.0 ** k for k in range(-16, -1, 2))
CV_FOLDS = 5


@dataclass(frozen=True)
class Stream:
    """One feature stream around seven class centroids.

    With frames_range set, each video is a (T, variants, dim) frame grid:
    centroid + a per-video offset (sigma) + per-frame noise (frame_sigma).
    Otherwise each video is one vector, centroid + sigma noise, in the
    single-row vector format.
    """

    name: str
    dim: int
    class_separation: float
    sigma: float = 1.0
    frames_range: tuple | None = None
    variants: int = 1
    frame_sigma: float = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    streams: tuple
    aggregators: tuple = ()  # for frame streams
    cv: bool = False
    known_c: float = KNOWN_C
    # shares of the paper's train+val and test videos, the same for every class
    share: float = 1.0
    test_share: float = 1.0

    def counts(self, scale: float = 1.0) -> dict:
        """Per-class counts for each split, at least one each."""
        shares = {"train": self.share, "val": self.share, "test": self.test_share}
        return {
            split: tuple(max(1, round(n * shares[split] * scale)) for n in per_class)
            for split, per_class in PAPER_COUNTS.items()
        }

    @property
    def stream_names(self) -> tuple:
        return tuple(s.name for s in self.streams)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frames",
            streams=(Stream("frames", 32, 10.0, frames_range=(16, 64), variants=2),),
            aggregators=("mean", "std", "min", "max", "fft"),
            share=0.3,
            test_share=0.3,
        ),
        Workload(
            "paper_cv",
            streams=(Stream("audio", 1582, 20.0),),
            cv=True,
            share=0.2,
            test_share=0.5,
        ),
        Workload(
            "fusion",
            streams=(Stream("face", 112, 3.5), Stream("scene", 90, 3.5)),
            share=0.35,
        ),
    )
}


def _split_videos(counts: dict):
    """(split, class index, video id) in manifest order."""
    for split in SPLITS:
        for c in range(NUM_CLASSES):
            for k in range(counts[split][c]):
                yield split, c, f"{split}_{EMOTION_NAMES[c].lower()}_{k:03d}"


def generate_inputs(workload: Workload, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the workload's streams, manifest and pipeline config under out.

    Returns input facts: videos, test videos, frames and cells written.
    """
    counts = workload.counts(scale)
    videos = list(_split_videos(counts))
    entries = {vid: ManifestEntry(vid, split, EMOTION_NAMES[c], {}) for split, c, vid in videos}
    frames = cells = 0
    for stream in workload.streams:
        # The class centroids are part of the workload, not of the seed: a
        # seed draws a new sample of videos from one fixed class geometry, so
        # solver effort does not swing with how far apart the classes fell.
        centroids = class_centroids(
            SynthConfig(dim=stream.dim, class_separation=stream.class_separation,
                        seed=derive_seed(0, "bench", stream.name))
        )
        stream_seed = derive_seed(seed, "bench", stream.name)
        (out / "features" / stream.name).mkdir(parents=True, exist_ok=True)
        for index, (_, c, vid) in enumerate(videos):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=stream_seed, spawn_key=(index,))
            )
            rel = f"features/{stream.name}/{vid}.csv"
            if stream.frames_range is None:
                vector = centroids[c] + stream.sigma * rng.standard_normal(stream.dim)
                write_audio_features(vector, out / rel)
                cells += stream.dim
            else:
                num_frames = int(rng.integers(stream.frames_range[0], stream.frames_range[1] + 1))
                offset = stream.sigma * rng.standard_normal(stream.dim)
                noise = stream.frame_sigma * rng.standard_normal(
                    (num_frames, stream.variants, stream.dim))
                seq = FrameFeatureSequence(vid, centroids[c] + offset + noise)
                write_frame_features(seq, out / rel)
                frames += num_frames
                cells += seq.frames.size
            entries[vid].streams[stream.name] = rel
    write_manifest(list(entries.values()), out / "manifest.jsonl")
    config = {"streams": {s.name: {"aggregators": list(workload.aggregators)}
                          if s.frames_range else {} for s in workload.streams}}
    if workload.cv:
        config["cv"] = {"grid": list(PAPER_CV_GRID), "folds": CV_FOLDS}
    (out / "pipeline.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {"videos": len(videos), "test_videos": sum(counts["test"]), "frames": frames,
            "cells": cells}


def chain(workload: Workload, inputs: Path, out: Path, seed: int, scale: float = 1.0) -> list:
    """The user's CLI chain as (command label, argv after ``emovid``).

    A train argument of None for --c is filled from the cv report. The
    ensemble applies the sqrt prior of the test split's class counts.
    """
    prior = ",".join(str(n) for n in workload.counts(scale)["test"])
    manifest = str(inputs / "manifest.jsonl")
    config = str(inputs / "pipeline.json")
    steps = [("aggregate", ["aggregate", "--manifest", manifest, "--config", config,
                            "--out", str(out / "desc")])]
    if workload.cv:
        (name,) = workload.stream_names
        steps.append(("cv", ["cv", "--descriptors", str(out / "desc" / f"{name}.csv"),
                             "--manifest", manifest, "--config", config, "--splits", "train",
                             "--seed", str(seed), "--out", str(out / "cv.json")]))
    for name in workload.stream_names:
        c_value = None if workload.cv else repr(workload.known_c)
        steps.append((f"train:{name}", [
            "train", "--descriptors", str(out / "desc" / f"{name}.csv"),
            "--manifest", manifest, "--config", config, "--splits", "train,val",
            "--c", c_value, "--seed", str(seed), "--out", str(out / f"model_{name}.json")]))
    for name in workload.stream_names:
        steps.append((f"predict:{name}", [
            "predict", "--model", str(out / f"model_{name}.json"),
            "--descriptors", str(out / "desc" / f"{name}.csv"), "--manifest", manifest,
            "--splits", "test", "--out", str(out / f"scores_{name}.csv")]))
    steps.append(("ensemble", [
        "ensemble", "--scores", *[str(out / f"scores_{n}.csv") for n in workload.stream_names],
        "--config", config, "--counts", prior, "--out", str(out / "combined.csv"),
        "--predictions", str(out / "predictions.csv")]))
    steps.append(("evaluate", ["evaluate", "--predictions", str(out / "predictions.csv"),
                               "--manifest", manifest, "--splits", "test",
                               "--out", str(out / "report.json")]))
    return steps
