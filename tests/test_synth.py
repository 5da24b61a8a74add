import numpy as np
import pytest

from emovid.aggregate import AggregationConfig, build_video_descriptor
from emovid.core import EmotionLabel
from emovid.ingest import load_frame_features, load_manifest
from emovid.svm import SvmTrainConfig, decision_scores, train_ovr
from emovid.synth import (
    SynthConfig,
    class_centroids,
    generate_dataset,
    oracle_dft,
    oracle_svm_subgradient,
)
from emovid.util import config_from_dict


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_config_validation_and_from_dict():
    cfg = config_from_dict(
        SynthConfig, {"dim": 4, "counts": {"train": 2, "val": [1, 0, 0, 0, 0, 0, 1]}, "seed": 3}
    )
    assert cfg.counts["train"] == (2,) * 7
    assert cfg.counts["val"] == (1, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="unknown synth config"):
        config_from_dict(SynthConfig, {"sigma": 1.0}, "synth config")
    with pytest.raises(ValueError, match="frames_range"):
        SynthConfig(frames_range=(0, 4))
    with pytest.raises(ValueError, match="unknown split"):
        SynthConfig(counts={"dev": 3})


def test_noiseless_videos_sit_on_centroids(tmp_path):
    cfg = SynthConfig(
        dim=6,
        within_video_sigma=0.0,
        frame_sigma=0.0,
        counts={"train": 2},
        frames_range=(3, 5),
        seed=5,
    )
    dataset = generate_dataset(cfg, tmp_path)
    centroids = class_centroids(cfg)
    for sample in dataset.samples:
        seq = sample.streams["frames"]
        for t in range(seq.num_frames):
            np.testing.assert_array_equal(seq.frames[t, 0], centroids[int(sample.label)])


def test_same_seed_byte_identical(tmp_path):
    cfg = SynthConfig(dim=5, counts={"train": 2, "val": 1}, seed=9)
    generate_dataset(cfg, tmp_path / "a")
    generate_dataset(cfg, tmp_path / "b")
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)


def test_round_trips_through_ingest_bit_exact(tmp_path):
    cfg = SynthConfig(dim=4, variants=3, counts={"train": 1, "test": 1}, seed=12)
    dataset = generate_dataset(cfg, tmp_path)
    manifest = load_manifest(dataset.manifest_path)
    assert [e.video_id for e in manifest.entries] == [s.video_id for s in dataset.samples]
    for entry, sample in zip(manifest.entries, dataset.samples):
        loaded = load_frame_features(manifest.resolve(entry, "frames"), video_id=entry.video_id)
        assert (loaded.frames == sample.streams["frames"].frames).all()


def test_separated_classes_are_learnable(tmp_path):
    cfg = SynthConfig(
        dim=16, class_separation=10.0, within_video_sigma=1.0, frame_sigma=1.0,
        counts={"train": 4}, seed=21,
    )
    dataset = generate_dataset(cfg, tmp_path)
    agg = AggregationConfig()
    X = np.stack(
        [build_video_descriptor(s.streams["frames"], agg) for s in dataset.samples]
    )
    labels = [s.label for s in dataset.samples]
    model = train_ovr(X, labels, SvmTrainConfig(C=1.0, seed=1))
    predicted = decision_scores(model, X).scores.argmax(axis=1)
    assert (predicted == np.array([int(l) for l in labels])).all()


def test_noiseless_pipeline_is_perfect_on_every_split(tmp_path):
    cfg = SynthConfig(
        dim=8, class_separation=5.0, within_video_sigma=0.0, frame_sigma=0.0,
        counts={"train": 2, "val": 2, "test": 2}, seed=33,
    )
    dataset = generate_dataset(cfg, tmp_path)
    agg = AggregationConfig()
    train = [s for s in dataset.samples if s.split == "train"]
    x_train = np.stack(
        [build_video_descriptor(s.streams["frames"], agg) for s in train]
    )
    model = train_ovr(x_train, [s.label for s in train], SvmTrainConfig(seed=1))
    for split in ("train", "val", "test"):
        samples = [s for s in dataset.samples if s.split == split]
        x = np.stack(
            [build_video_descriptor(s.streams["frames"], agg) for s in samples]
        )
        predicted = decision_scores(model, x).scores.argmax(axis=1)
        truth = np.array([int(s.label) for s in samples])
        assert (predicted == truth).all(), f"{split} split not perfect"


def test_oracle_dft_examples():
    np.testing.assert_allclose(oracle_dft([2.5] * 4), [10.0, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(oracle_dft([1.0, -1.0, 1.0, -1.0]), [0, 0, 4.0, 0], atol=1e-12)
    with pytest.raises(ValueError, match="non-empty"):
        oracle_dft([])


def test_oracle_dft_parseval():
    rng = np.random.default_rng(70)
    for _ in range(100):
        signal = rng.standard_normal(int(rng.integers(1, 65)))
        spectrum = oracle_dft(signal)
        time_energy = float(np.sum(signal ** 2))
        freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / signal.size
        assert abs(time_energy - freq_energy) <= 1e-9 * max(1.0, time_energy)


def test_oracle_dft_matches_fft():
    rng = np.random.default_rng(71)
    for _ in range(200):
        signal = rng.standard_normal(int(rng.integers(1, 65)))
        direct = oracle_dft(signal)
        fast = np.fft.fft(signal)
        scale = max(1.0, float(np.abs(fast).max()))
        assert np.abs(direct - fast).max() <= 1e-9 * scale


def test_oracle_svm_small_c_limit():
    rng = np.random.default_rng(72)
    X = rng.standard_normal((200, 10))
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    w = oracle_svm_subgradient(X, y, C=1e-8, iterations=500)
    assert np.linalg.norm(w) <= 1e-3


def test_oracle_svm_input_validation():
    with pytest.raises(ValueError, match="iterations"):
        oracle_svm_subgradient(np.zeros((2, 2)), np.array([1.0, -1.0]), 1.0, 0)
    with pytest.raises(ValueError, match="matching"):
        oracle_svm_subgradient(np.zeros((2, 2)), np.array([1.0]), 1.0, 10)
