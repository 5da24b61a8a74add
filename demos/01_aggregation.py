"""Turning a variable-length video into a fixed-length descriptor.

A video arrives as a (T, V, d) stack: T frames, V augmentation variants
per frame, d feature dimensions. The variants are averaged into one (T, d)
frame matrix; each block reduces its columns to d values, and the blocks
are concatenated into one descriptor row.
"""

import numpy as np

from emovid import (
    AggregationConfig,
    FrameFeatureSequence,
    aggregate_fft_mean,
    average_variants,
    build_video_descriptor,
    shuffle_frames,
)

rng = np.random.default_rng(0)

# --- a toy video: 6 frames, 3 variants per frame, 4 feature dims ------------
frames = rng.standard_normal((6, 3, 4))
video = FrameFeatureSequence("demo_video", frames)
print(f"input video: T={video.num_frames} frames, V={video.num_variants} "
      f"variants, d={video.dim} dims")

# variant averaging collapses the V axis before any aggregator runs;
# build_video_descriptor always applies it first
collapsed = average_variants(video)
print(f"after variant averaging: V={collapsed.num_variants}")

# --- STAT* = mean + std + min (the max block generalizes poorly) ------------
stat_star = AggregationConfig(("mean", "std", "min"))
descriptor = build_video_descriptor(video, stat_star)
print(f"\nSTAT* descriptor: D={descriptor.size} = 3 blocks x {video.dim} dims")
# the layout: the configured blocks in order, d columns each
layout = ", ".join(f"{name} {k * video.dim}-{(k + 1) * video.dim - 1}"
                   for k, name in enumerate(stat_star.aggregators))
print(f"columns: {layout}")

# adding the spectral block: per dimension, mean magnitude of the length-T DFT
with_fft = build_video_descriptor(video, AggregationConfig(("mean", "std", "min", "fft")))
print(f"STAT*+fft descriptor: D={with_fft.size}")

# --- the statistical blocks treat a video as a SET of frames ----------------
shuffled = shuffle_frames(video, seed=123)
same = build_video_descriptor(shuffled, stat_star) == descriptor
print(f"\nSTAT* descriptor bit-identical after frame shuffle: {bool(same.all())}")

# ...while the fft block, called here on (T, d) frame matrices, notices frame order
a = np.array([[1.0], [-1.0], [1.0], [-1.0]])
b = np.array([[1.0], [1.0], [-1.0], [-1.0]])
print(f"fft of [1,-1,1,-1]: {aggregate_fft_mean(a)[0]:.4f}   "
      f"fft of [1,1,-1,-1]: {aggregate_fft_mean(b)[0]:.4f}  (same multiset!)")
