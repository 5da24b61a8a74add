"""The whole pipeline on generated data, library-level.

synthesize -> aggregate -> cross-validate C -> train (train_ovr fits the
normalization chain, and the model carries it) -> score validation
videos -> ensemble two streams -> evaluate.

Everything downstream of the generator is deterministic in the seeds, so
rerunning this script reproduces the same report byte for byte.
"""

import tempfile

import numpy as np

from emovid import (
    AggregationConfig,
    SvmTrainConfig,
    SynthConfig,
    combine_streams,
    cross_validate_c,
    decision_scores,
    evaluate,
    generate_dataset,
    predict,
    render_report,
    train_ovr,
)
from emovid.aggregate import build_video_descriptor

STAT_STAR = AggregationConfig(("mean", "std", "min"))


def train_stream(seed, work_dir):
    """One feature stream end to end; returns validation scores + truths."""
    cfg = SynthConfig(
        dim=24,
        class_separation=6.0,
        within_video_sigma=1.2,
        frame_sigma=1.2,
        counts={"train": 10, "val": 6},
        seed=seed,
    )
    dataset = generate_dataset(cfg, work_dir)
    split = {"train": [], "val": []}
    for sample in dataset.samples:
        split[sample.split].append(sample)

    def matrix(samples):
        return np.stack([build_video_descriptor(s.streams["frames"], STAT_STAR) for s in samples])

    x_train, x_val = matrix(split["train"]), matrix(split["val"])
    y_train = [s.label for s in split["train"]]

    grid = [2.0 ** k for k in (-8, -6, -4, -2, 0, 2, 4, 6)]
    best_c, _ = cross_validate_c(x_train, y_train, grid, cfg=SvmTrainConfig(seed=seed), folds=5)
    print(f"stream seed={seed}: D={x_train.shape[1]}, best C={best_c:g}")

    # the same chain cross_validate_c fit in every fold, now on all of x_train
    model = train_ovr(x_train, y_train, SvmTrainConfig(C=best_c, seed=seed))
    scores = decision_scores(model, x_val, video_ids=[s.video_id for s in split["val"]])
    return scores, [s.label for s in split["val"]]


with tempfile.TemporaryDirectory() as tmp:
    stream_a, truths = train_stream(11, f"{tmp}/a")
    stream_b, _ = train_stream(12, f"{tmp}/b")

for name, scores in (("stream A", stream_a), ("stream B", stream_b)):
    accuracy = (np.array([int(p) for p in predict(scores)])
                == np.array([int(t) for t in truths])).mean()
    print(f"{name} alone: {accuracy:.3f}")

combined = combine_streams([stream_a, stream_b])
print("\nensemble of both streams:")
print(render_report(evaluate(predict(combined), truths)))
