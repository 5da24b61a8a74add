"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; tolerances and runtime budgets are asserted, not just reported.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import design_rows, margin_suite

from emovid.aggregate import (
    AggregationConfig,
    aggregate_fft_mean,
    build_video_descriptor,
    shuffle_frames,
)
from emovid.cli import main
from emovid.core import FrameFeatureSequence
from emovid.ensemble import (
    apply_class_weights,
    class_weights_from_counts,
    combine_streams,
    predict,
)
from emovid.ingest import load_frame_features, load_manifest
from emovid.normalize import rootsift
from emovid.svm import (
    SvmTrainConfig,
    cross_validate_c,
    decision_scores,
    dual_objective,
    primal_objective,
    train_binary,
    train_ovr,
)
from emovid.synth import SynthConfig, generate_dataset, oracle_dft, oracle_svm_subgradient

TEST_SET_COUNTS = (98, 40, 70, 144, 193, 80, 28)
STAT = AggregationConfig(("mean", "std", "min", "max"))
STAT_STAR = AggregationConfig(("mean", "std", "min"))


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {description}")
        raise
    print(f"[criterion {num}] PASS: {description}")


def test_criterion_1_class_weight_table():
    with criterion(1, "square-root class weights match the reference counts"):
        class_weights_from_counts(TEST_SET_COUNTS)  # warm-up
        start = time.perf_counter()
        weights = class_weights_from_counts(TEST_SET_COUNTS).weights
        elapsed = time.perf_counter() - start
        np.testing.assert_array_equal(
            np.round(weights, 2), [0.15, 0.10, 0.13, 0.19, 0.21, 0.14, 0.08]
        )
        roots = np.sqrt(np.asarray(TEST_SET_COUNTS, dtype=float))
        assert np.abs(weights - roots / roots.sum()).max() <= 1e-12
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_dimension_arithmetic():
    with criterion(2, "descriptor dimension arithmetic (8192 / 3072 / 4096)"):
        rng = np.random.default_rng(0)

        def dim_of(d, cfg):
            seq = FrameFeatureSequence.from_matrix("v", rng.standard_normal((3, d)))
            return build_video_descriptor(seq, cfg).dim

        assert dim_of(4096, AggregationConfig(("mean", "std"))) == 8192
        assert dim_of(1024, STAT_STAR) == 3072
        assert dim_of(1024, AggregationConfig(("mean", "std", "min", "fft"))) == 4096


def test_criterion_3_rootsift_unit_norm():
    with criterion(3, "rootsift maps 1000 random vectors to unit L2 norm"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for _ in range(1000):
            dim = int(rng.integers(1, 8193))
            x = rng.standard_normal(dim) * rng.uniform(1e-6, 1e6)
            if not np.any(x):
                x[0] = 1.0
            assert abs(np.linalg.norm(rootsift(x)) - 1.0) <= 1e-9
        elapsed = time.perf_counter() - start
        assert (rootsift(np.zeros(16)) == np.zeros(16)).all()
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_4_permutation_invariance():
    with criterion(4, "statistical blocks are frame-order invariant, fft is not"):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t_len = int(rng.integers(2, 32))
            seq = FrameFeatureSequence.from_matrix(
                "v", rng.standard_normal((t_len, 8)) * rng.uniform(0.1, 50)
            )
            base = build_video_descriptor(seq, STAT).features
            for shuffle_seed in range(10):
                shuffled = shuffle_frames(seq, shuffle_seed)
                assert (build_video_descriptor(shuffled, STAT).features == base).all()
        a = FrameFeatureSequence.from_matrix("a", np.array([[1.0], [-1.0], [1.0], [-1.0]]))
        b = FrameFeatureSequence.from_matrix("b", np.array([[1.0], [1.0], [-1.0], [-1.0]]))
        assert (build_video_descriptor(a, STAT).features
                == build_video_descriptor(b, STAT).features).all()
        assert aggregate_fft_mean(a)[0] != aggregate_fft_mean(b)[0]


def test_criterion_5_dft_against_direct_oracle():
    with criterion(5, "fft aggregation matches the direct DFT oracle; Parseval holds"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            t_len = int(rng.integers(1, 65))
            signal = rng.standard_normal(t_len) * rng.uniform(0.1, 10)
            seq = FrameFeatureSequence.from_matrix("v", signal[:, None])
            got = aggregate_fft_mean(seq)[0]
            spectrum = oracle_dft(signal)
            want = float(np.abs(spectrum).mean())
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            time_energy = float(np.sum(signal ** 2))
            freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / t_len
            assert abs(time_energy - freq_energy) <= 1e-9 * max(1.0, time_energy)


def test_criterion_6_solver_against_subgradient_oracle():
    with criterion(6, "dual coordinate descent solves the margin suite"):
        start = time.perf_counter()
        X, y, _ = margin_suite(n=200, d=10, seed=42)
        augmented = design_rows(X)
        cfg = SvmTrainConfig(C=1.0, seed=1)
        # debug=True asserts per-epoch dual monotonicity and alpha in [0, C]
        w, info = train_binary(augmented, y, cfg, debug=True, full_output=True)
        assert ((augmented @ w) * y > 0).mean() >= 0.99
        assert (np.diff(info.dual_objectives) >= -1e-9).all()
        assert (info.alpha >= 0.0).all() and (info.alpha <= cfg.C).all()
        primal = primal_objective(w, augmented, y, cfg.C)
        dual = dual_objective(info.alpha, augmented, y)
        assert primal - dual <= 1e-2 * (1.0 + abs(primal))
        oracle_w = oracle_svm_subgradient(augmented, y, cfg.C, iterations=10 ** 5)
        oracle_primal = primal_objective(oracle_w, augmented, y, cfg.C)
        assert abs(primal - oracle_primal) <= 0.01 * oracle_primal
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def _run_pipeline(tmp_dir, seed):
    cfg = SynthConfig(
        dim=32,
        class_separation=10.0,
        within_video_sigma=1.0,
        frame_sigma=1.0,
        counts={"train": 10, "val": 5},
        seed=seed,
    )
    dataset = generate_dataset(cfg, tmp_dir)
    train = [s for s in dataset.samples if s.split == "train"]
    val = [s for s in dataset.samples if s.split == "val"]
    x_train = np.stack(
        [build_video_descriptor(s.streams["frames"], STAT_STAR).features for s in train]
    )
    x_val = np.stack(
        [build_video_descriptor(s.streams["frames"], STAT_STAR).features for s in val]
    )
    y_train = [s.label for s in train]
    y_val = np.array([int(s.label) for s in val])
    grid = [2.0 ** k for k in (-8, -6, -4, -2, 0, 2, 4, 6)]
    best_c, _ = cross_validate_c(x_train, y_train, grid, cfg=SvmTrainConfig(seed=13), folds=5)
    model = train_ovr(x_train, y_train, SvmTrainConfig(C=best_c, seed=7))
    scores = decision_scores(model, x_val)
    accuracy = float((scores.scores.argmax(axis=1) == y_val).mean())
    return scores.scores, accuracy


def test_criterion_7_end_to_end_synthetic(tmp_path):
    with criterion(7, "synthetic end-to-end pipeline reaches 90% validation accuracy"):
        start = time.perf_counter()
        scores_a, acc_a = _run_pipeline(tmp_path / "a", seed=70)
        scores_b, acc_b = _run_pipeline(tmp_path / "b", seed=70)
        assert acc_a >= 0.90, f"val accuracy {acc_a:.3f}"
        assert acc_a == acc_b and (scores_a == scores_b).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def _stream_scores(tmp_dir, seed, counts, separation, sigma):
    cfg = SynthConfig(
        dim=16,
        class_separation=separation,
        within_video_sigma=sigma,
        frame_sigma=sigma,
        counts=counts,
        frames_range=(6, 10),
        seed=seed,
    )
    dataset = generate_dataset(cfg, tmp_dir)
    by_split = {}
    for sample in dataset.samples:
        by_split.setdefault(sample.split, []).append(sample)
    x_train = np.stack(
        [build_video_descriptor(s.streams["frames"], STAT_STAR).features
         for s in by_split["train"]]
    )
    model = train_ovr(
        x_train, [s.label for s in by_split["train"]], SvmTrainConfig(C=1.0, seed=seed)
    )
    out = {}
    for split in ("val", "test"):
        if split not in by_split:
            continue
        x = np.stack(
            [build_video_descriptor(s.streams["frames"], STAT_STAR).features
             for s in by_split[split]]
        )
        scores = decision_scores(model, x, video_ids=[s.video_id for s in by_split[split]])
        out[split] = (scores, np.array([int(s.label) for s in by_split[split]]))
    return out


def test_criterion_8_ensembling_and_weighting(tmp_path):
    with criterion(8, "softmax ensembling and prior weighting help where expected"):
        # three streams: same ids (same counts), independent features
        streams = [
            _stream_scores(tmp_path / f"s{i}", 100 + i, {"train": 10, "val": 7},
                           separation=4.0, sigma=1.5)
            for i in range(3)
        ]
        truth = streams[0]["val"][1]
        singles = [
            float((st["val"][0].scores.argmax(axis=1) == truth).mean()) for st in streams
        ]
        combined = combine_streams([st["val"][0] for st in streams])
        ensemble_acc = float(
            (np.array([int(p) for p in predict(combined)]) == truth).mean()
        )
        assert ensemble_acc >= max(singles) - 0.01, (
            f"ensemble {ensemble_acc:.3f} vs singles {singles}"
        )

        # test split with priors matching the observed-count table; samples
        # ambiguous enough that the prior matters
        counts = {"train": 12, "test": TEST_SET_COUNTS}
        ambiguous = [
            _stream_scores(tmp_path / f"t{i}", 200 + i, counts, separation=2.0, sigma=1.5)
            for i in range(3)
        ]
        truth = ambiguous[0]["test"][1]
        combined = combine_streams([st["test"][0] for st in ambiguous])
        weights = class_weights_from_counts(TEST_SET_COUNTS)
        weighted = apply_class_weights(combined, weights)
        # exhaustive per-row recomputation of the weighted readout
        predicted = [int(p) for p in predict(weighted)]
        for i in range(combined.num_videos):
            row = [combined.scores[i, c] * weights.weights[c] for c in range(7)]
            best = 0
            for c in range(1, 7):
                if row[c] > row[best]:
                    best = c
            assert abs(weighted.scores[i, best] - row[best]) <= 1e-15
            assert predicted[i] == best
        unweighted_acc = float(
            (np.array([int(p) for p in predict(combined)]) == truth).mean()
        )
        weighted_acc = float((np.array(predicted) == truth).mean())
        assert weighted_acc >= unweighted_acc, (
            f"weighted {weighted_acc:.3f} < unweighted {unweighted_acc:.3f}"
        )


def test_criterion_9_round_trip_and_determinism(tmp_path, capsys):
    with criterion(9, "generator round-trips through ingest; commands are reproducible"):
        cfg = SynthConfig(dim=6, variants=2, counts={"train": 2, "val": 1}, seed=31)
        dataset = generate_dataset(cfg, tmp_path / "rt")
        manifest = load_manifest(dataset.manifest_path)
        for entry, sample in zip(manifest.entries, dataset.samples):
            loaded = load_frame_features(
                manifest.resolve(entry, "frames"), video_id=entry.video_id
            )
            assert (loaded.frames == sample.streams["frames"].frames).all()

        synth_cfg = tmp_path / "synth.json"
        synth_cfg.write_text(
            json.dumps({"dim": 8, "counts": {"train": 4, "val": 2}, "frames_range": [4, 6]})
        )
        outputs = []
        for run in ("r1", "r2"):
            work = tmp_path / run
            work.mkdir()
            commands = [
                ["synth", "--config", str(synth_cfg), "--out", str(work / "ds"), "--seed", "3"],
                ["aggregate", "--manifest", str(work / "ds" / "manifest.jsonl"),
                 "--out", str(work / "desc")],
                ["cv", "--descriptors", str(work / "desc" / "frames.csv"),
                 "--manifest", str(work / "ds" / "manifest.jsonl"),
                 "--seed", "3", "--out", str(work / "cv.json")],
                ["train", "--descriptors", str(work / "desc" / "frames.csv"),
                 "--manifest", str(work / "ds" / "manifest.jsonl"),
                 "--seed", "3", "--out", str(work / "model.json")],
                ["predict", "--model", str(work / "model.json"),
                 "--descriptors", str(work / "desc" / "frames.csv"),
                 "--manifest", str(work / "ds" / "manifest.jsonl"), "--splits", "val",
                 "--out", str(work / "scores.csv")],
                ["ensemble", "--scores", str(work / "scores.csv"),
                 "--out", str(work / "combined.csv"),
                 "--predictions", str(work / "pred.csv")],
                ["ensemble", "--scores", str(work / "scores.csv"),
                 "--counts", "98,40,70,144,193,80,28", "--out", str(work / "weighted.csv"),
                 "--predictions", str(work / "pred_weighted.csv")],
                ["evaluate", "--predictions", str(work / "pred.csv"),
                 "--manifest", str(work / "ds" / "manifest.jsonl"),
                 "--out", str(work / "report.json")],
            ]
            for argv in commands:
                assert main(argv) == 0, f"command failed: {argv[0]}"
            capsys.readouterr()
            snapshot = {
                p.relative_to(work).as_posix(): p.read_bytes()
                for p in sorted(work.rglob("*"))
                if p.is_file()
            }
            outputs.append(snapshot)
        assert outputs[0].keys() == outputs[1].keys()
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between reruns"
