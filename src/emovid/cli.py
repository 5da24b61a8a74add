"""Command-line entry point: synth, aggregate, cv, train, predict,
ensemble, evaluate.

Configs are JSON documents with every field defaulted; flags override
config values, and all randomness flows from one --seed flag mixed per
stage. The normalization chain is fixed and has no config section: train
fits it with the SVM (svm.train_ovr), and cv re-fits it in every fold.
The SVM's bias is always on, so the svm section has no bias key.
Commands exit nonzero with a single-line diagnostic on stderr; warnings
logged by the library print as one "warning:" line each.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .aggregate import AggregationConfig, build_video_descriptor
from .core import SPLITS, label_from_name
from .ensemble import class_weights_from_counts, predict, run_ensemble
from .evaluate import evaluate, render_report, report_to_dict
from .ingest import (
    load_audio_features,
    load_frame_features,
    load_manifest,
    parse_counts,
    read_descriptors,
    read_json,
    read_predictions,
    read_scores,
    sniff_stream_kind,
    write_descriptors,
    write_json,
    write_predictions,
    write_scores,
)
from .svm import (
    SvmTrainConfig,
    cross_validate_c,
    decision_scores,
    load_model,
    save_model,
    train_ovr,
)
from .synth import SynthConfig, generate_dataset
from .util import FieldError, config_from_dict, derive_seed

DEFAULT_CV_GRID = tuple(2.0 ** k for k in (-8, -6, -4, -2, 0, 2, 4, 6))


@dataclass(frozen=True)
class CvConfig:
    grid: tuple[float, ...] = DEFAULT_CV_GRID
    folds: int = 5

    def __post_init__(self):
        if self.folds < 2:
            raise FieldError("folds", f"must be >= 2, got {self.folds}")
        if not self.grid:
            raise FieldError("grid", "must be non-empty")


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline config; its fields mirror the JSON sections one to one."""

    streams: dict[str, AggregationConfig] = field(
        default_factory=lambda: {"frames": AggregationConfig()}
    )
    svm: SvmTrainConfig = SvmTrainConfig()
    cv: CvConfig = CvConfig()

    def __post_init__(self):
        if not self.streams:
            raise FieldError("streams", "must declare at least one stream")


def load_pipeline_config(path: str | None) -> PipelineConfig:
    return PipelineConfig() if path is None else config_from_dict(PipelineConfig, read_json(path))


def _parse_splits(value: str):
    splits = tuple(s.strip() for s in value.split(",") if s.strip())
    for s in splits:
        if s not in SPLITS:
            raise ValueError(f"unknown split {s!r}, expected one of {SPLITS}")
    if not splits:
        raise ValueError("empty --splits list")
    return splits


def _rows_in_splits(manifest, ids, splits, what: str, require_labels: bool = True):
    """Join the manifest's videos in splits to a file's id column: their row
    indices into ids, sorted by video id, and their labels (None for an
    unlabeled video, which require_labels refuses). The order makes every
    command's result a function of the set of videos, not of the manifest's
    line order. Videos without a row are one error counting them; what
    names the kind of row."""
    row_of = {vid: i for i, vid in enumerate(ids)}
    entries = sorted((entry for entry in manifest.entries if entry.split in splits),
                     key=lambda entry: entry.video_id)
    if not entries:
        raise ValueError(f"no videos in splits {','.join(splits)}")
    missing = sum(entry.video_id not in row_of for entry in entries)
    if missing:
        raise ValueError(
            f"{missing} of {len(entries)} videos in splits {','.join(splits)} have no {what}"
        )
    labels = []
    for entry in entries:
        if entry.label_name is None and require_labels:
            raise ValueError(f"video {entry.video_id!r} has no label")
        labels.append(None if entry.label_name is None else label_from_name(entry.label_name))
    return [row_of[entry.video_id] for entry in entries], labels


def _descriptors_in_splits(args, require_labels: bool = True):
    """The --descriptors rows of the --manifest videos in --splits, for cv,
    train and predict: (ids, X, labels, splits), rows in id order. Only the
    floats of those videos' rows are parsed."""
    manifest = load_manifest(args.manifest)
    splits = _parse_splits(args.splits)
    keep = {entry.video_id for entry in manifest.entries if entry.split in splits}
    desc_ids, matrix = read_descriptors(args.descriptors, keep)
    rows, labels = _rows_in_splits(manifest, desc_ids, splits, "descriptor row", require_labels)
    if rows != list(range(len(desc_ids))):  # a file already in id order is not copied
        desc_ids, matrix = tuple(desc_ids[i] for i in rows), matrix[rows]
    return desc_ids, matrix, labels, splits


# --- commands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = SynthConfig()
    if args.config is not None:
        cfg = config_from_dict(SynthConfig, read_json(args.config), "synth config")
    if args.seed is not None:
        cfg = replace(cfg, seed=derive_seed(args.seed, "synth"))
    manifest = generate_dataset(cfg, args.out)
    print(f"wrote {len(manifest.entries)} videos under {args.out}")
    return 0


def cmd_aggregate(args) -> int:
    manifest = load_manifest(args.manifest)
    if not manifest.entries:
        raise ValueError(f"{args.manifest}: no videos")
    doc = {} if args.config is None else read_json(args.config)
    config = config_from_dict(PipelineConfig, doc)
    # the sections as written: a stream of one-vector files takes only {}
    written = doc.get("streams", {})
    if args.features_dir:
        manifest = replace(manifest, root=Path(args.features_dir))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = [entry.video_id for entry in manifest.entries]
    for stream_name, agg_cfg in config.streams.items():
        matrix = None  # allocated at the first descriptor's width, filled row by row
        dims = set()
        kind = None  # the stream's first file decides the kind of all of its files
        for n, entry in enumerate(manifest.entries):
            path = manifest.resolve(entry, stream_name)
            try:
                # a later file of the other kind fails its loader's header check
                kind = kind or sniff_stream_kind(path)
                if kind == "frames":
                    seq = load_frame_features(path, video_id=entry.video_id)
                    descriptor = build_video_descriptor(seq, agg_cfg)
                elif written.get(stream_name):
                    raise ValueError(f"aggregation settings apply to frame files only, "
                                     f"and {str(path)!r} holds one vector")
                else:
                    descriptor = load_audio_features(path)
            except ValueError as exc:
                raise ValueError(
                    f"video {entry.video_id!r}: stream {stream_name!r}: {exc}") from None
            if matrix is None:
                matrix = np.empty((len(ids), descriptor.size))
            dims.add(descriptor.size)
            if descriptor.size == matrix.shape[1]:
                matrix[n] = descriptor
        if len(dims) != 1:
            raise ValueError(
                f"stream {stream_name!r}: inconsistent descriptor dimensions {sorted(dims)}"
            )
        out_path = out_dir / f"{stream_name}.csv"
        write_descriptors(ids, matrix, out_path)
        print(f"wrote {len(ids)} descriptors ({matrix.shape[1]} dims) to {out_path}")
    return 0


def cmd_cv(args) -> int:
    config = load_pipeline_config(args.config)
    _, X, labels, _ = _descriptors_in_splits(args)
    svm_cfg = config.svm
    if args.seed is not None:
        svm_cfg = replace(svm_cfg, seed=derive_seed(args.seed, "cv"))
    best_c, accuracies = cross_validate_c(X, labels, config.cv.grid, cfg=svm_cfg,
                                          folds=config.cv.folds)
    for c_value, acc in zip(config.cv.grid, accuracies):
        print(f"C={c_value:g}  mean_accuracy={acc:.4f}")
    print(f"best C: {best_c:g}")
    if args.out:
        report = {
            "grid": list(config.cv.grid),
            "mean_accuracies": accuracies,
            "best_c": float(best_c),
            "folds": config.cv.folds,
        }
        write_json(report, args.out)
    return 0


def cmd_train(args) -> int:
    config = load_pipeline_config(args.config)
    ids, X, labels, splits = _descriptors_in_splits(args)
    svm_cfg = config.svm
    if args.c is not None:
        svm_cfg = replace(svm_cfg, C=args.c)
    if args.seed is not None:
        svm_cfg = replace(svm_cfg, seed=derive_seed(args.seed, "train"))
    model = train_ovr(X, labels, svm_cfg)
    save_model(model, args.out)
    print(f"trained on {len(ids)} videos ({','.join(splits)}); model -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.splits is None and args.manifest is None:
        desc_ids, matrix = read_descriptors(args.descriptors)
    elif args.manifest is None:
        raise ValueError("--splits requires --manifest")
    elif args.splits is None:
        raise ValueError("--manifest requires --splits")
    else:
        desc_ids, matrix, _, _ = _descriptors_in_splits(args, require_labels=False)
    try:
        scores = decision_scores(model, matrix, video_ids=desc_ids)
    except ValueError as exc:  # the rows were checked on reading; the width or weights are not
        raise ValueError(f"{args.model}: {exc}") from None
    write_scores(scores, args.out)
    print(f"wrote scores for {scores.num_videos} videos to {args.out}")
    return 0


def cmd_ensemble(args) -> int:
    load_pipeline_config(args.config)  # checked as every command checks it; nothing applies here
    weights = None if args.counts is None else class_weights_from_counts(parse_counts(args.counts))
    streams = [read_scores(p) for p in args.scores]
    combined = run_ensemble(streams, weights)
    write_scores(combined, args.out)
    print(f"combined {len(streams)} stream(s) -> {args.out}")
    if args.predictions:
        labels = predict(combined)
        write_predictions(combined.video_ids, labels, args.predictions)
        print(f"wrote predictions to {args.predictions}")
    return 0


def cmd_evaluate(args) -> int:
    ids, predicted = read_predictions(args.predictions)
    manifest = load_manifest(args.manifest)
    split_of = {entry.video_id: entry.split for entry in manifest.entries}
    for vid in ids:
        if vid not in split_of:
            raise ValueError(f"predicted video {vid!r} not in manifest")
    if args.splits is not None:
        splits = _parse_splits(args.splits)
    else:
        touched = {split_of[vid] for vid in ids}
        splits = tuple(s for s in SPLITS if s in touched)
    rows, truths = _rows_in_splits(manifest, ids, splits, "prediction")
    report = evaluate([predicted[i] for i in rows], truths)
    sys.stdout.write(render_report(report))
    if args.out:
        write_json(report_to_dict(report), args.out)
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emovid",
        description="Video-level emotion classification from per-frame features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="SynthConfig JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="top-level seed (mixed per stage)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aggregate", help="build per-video descriptors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--features-dir", help="root for stream paths (default: manifest dir)")
    p.add_argument("--out", required=True, help="output directory for descriptor CSVs")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("cv", help="cross-validate the regularization constant")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--splits", default="train")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("train", help="fit normalization + one-vs-rest SVM")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--splits", default="train", help="fit splits, e.g. train or train,val")
    p.add_argument("--c", type=float, help="override the regularization constant")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decision scores for descriptors")
    p.add_argument("--model", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--manifest")
    p.add_argument("--splits", help="restrict to manifest splits")
    p.add_argument("--out", required=True, help="score CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="softmax-average score streams, weight by sqrt prior")
    p.add_argument("--scores", nargs="+", required=True, help="score CSVs to combine")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--counts", help="7 comma-separated evaluation-set class counts")
    p.add_argument("--out", required=True, help="combined score CSV path")
    p.add_argument("--predictions", help="optional predictions CSV path")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="accuracy and confusion matrix")
    p.add_argument("--predictions", required=True, help="predictions CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--splits", help="restrict to manifest splits")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("emovid")
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logger.addHandler(warnings)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = str(exc).replace("\n", "; ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(warnings)


if __name__ == "__main__":
    sys.exit(main())
