import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from helpers import fitted_chain

from emovid import cli, svm
from emovid.cli import main, read_descriptors
from emovid.core import FrameFeatureSequence, ScoreMatrix
from emovid.ensemble import class_weights_from_counts, read_predictions, read_scores, softmax_rows
from emovid.ingest import (
    ManifestEntry,
    load_manifest,
    write_audio_features,
    write_descriptors,
    write_frame_features,
    write_manifest,
    write_scores,
)
from emovid.normalize import NormalizationParams, RangeScalerParams, StandardizerParams
from emovid.svm import (
    LinearSvmModel,
    SvmTrainConfig,
    decision_scores,
    load_model,
    model_to_dict,
    save_model,
    train_ovr,
)
from emovid.util import derive_seed


def run_ok(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def run_fail(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code != 0
    assert captured.err.startswith("error: ")
    assert "\n" not in captured.err.strip()
    return captured.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    config = root / "synth.json"
    config.write_text(
        json.dumps(
            {
                "dim": 12,
                "class_separation": 9.0,
                "within_video_sigma": 1.0,
                "frame_sigma": 1.0,
                "counts": {"train": 6, "val": 3, "test": 3},
                "frames_range": [5, 9],
            }
        )
    )
    code = main(["synth", "--config", str(config), "--out", str(root / "ds"), "--seed", "5"])
    assert code == 0
    return root


def test_full_scripted_run(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    work = tmp_path

    out = run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(work / "desc"))
    assert "36 dims" in out  # STAT* on d=12

    run_ok(
        capsys, "cv", "--descriptors", str(work / "desc" / "frames.csv"),
        "--manifest", manifest, "--seed", "5", "--out", str(work / "cv.json"),
    )
    cv_doc = json.loads((work / "cv.json").read_text())
    assert cv_doc["best_c"] in cv_doc["grid"]
    assert max(cv_doc["mean_accuracies"]) >= 0.9

    out = run_ok(
        capsys, "train", "--descriptors", str(work / "desc" / "frames.csv"),
        "--manifest", manifest, "--splits", "train", "--c", str(cv_doc["best_c"]),
        "--seed", "5", "--out", str(work / "model.json"),
    )
    assert "trained on 42 videos" in out

    run_ok(
        capsys, "predict", "--model", str(work / "model.json"),
        "--descriptors", str(work / "desc" / "frames.csv"),
        "--manifest", manifest, "--splits", "val",
        "--out", str(work / "scores_val.csv"),
    )
    scores = read_scores(work / "scores_val.csv")
    assert scores.num_videos == 21

    run_ok(
        capsys, "ensemble", "--scores", str(work / "scores_val.csv"),
        "--out", str(work / "combined.csv"),
        "--predictions", str(work / "pred.csv"),
    )
    out = run_ok(
        capsys, "evaluate", "--predictions", str(work / "pred.csv"),
        "--manifest", manifest, "--out", str(work / "report.json"),
    )
    assert out.startswith("accuracy: ")
    report = json.loads((work / "report.json").read_text())
    assert report["n"] == 21
    assert report["accuracy"] >= 0.9


def test_train_on_train_plus_val(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    out = run_ok(
        capsys, "train", "--descriptors", str(tmp_path / "d" / "frames.csv"),
        "--manifest", manifest, "--splits", "train,val",
        "--out", str(tmp_path / "model.json"),
    )
    # 6 train + 3 val per class
    assert "trained on 63 videos" in out


def test_single_stream_raw_ensemble_matches_predict(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    desc = str(tmp_path / "d" / "frames.csv")
    run_ok(capsys, "train", "--descriptors", desc, "--manifest", manifest,
           "--out", str(tmp_path / "m.json"))
    run_ok(capsys, "predict", "--model", str(tmp_path / "m.json"), "--descriptors", desc,
           "--manifest", manifest, "--splits", "test", "--out", str(tmp_path / "s.csv"))
    run_ok(capsys, "ensemble", "--scores", str(tmp_path / "s.csv"),
           "--out", str(tmp_path / "c.csv"), "--predictions", str(tmp_path / "p.csv"))
    raw = read_scores(tmp_path / "s.csv")
    combined = read_scores(tmp_path / "c.csv")
    assert combined.scores.tobytes() == softmax_rows(raw.scores).tobytes()
    ids, labels = read_predictions(tmp_path / "p.csv")
    assert ids == raw.video_ids
    assert [int(l) for l in labels] == list(raw.scores.argmax(axis=1))


def test_weigh_matches_observed_distribution(capsys, tmp_path):
    """ensemble --counts, the one way to weigh classes, applies the sqrt
    prior of the observed counts."""
    counts = (98, 40, 70, 144, 193, 80, 28)
    write_scores(ScoreMatrix(("a", "b"), np.zeros((2, 7))), tmp_path / "s.csv")
    run_ok(capsys, "ensemble", "--scores", str(tmp_path / "s.csv"),
           "--counts", ",".join(map(str, counts)), "--out", str(tmp_path / "c.csv"))
    weights = class_weights_from_counts(counts).weights
    # a uniform row softmaxes to 1/7 in every class, so the output is the weights / 7
    for row in read_scores(tmp_path / "c.csv").scores:
        assert row.tobytes() == (np.full(7, 1 / 7) * weights).tobytes()
    np.testing.assert_array_equal(np.round(weights, 2), [0.15, 0.10, 0.13, 0.19, 0.21, 0.14, 0.08])
    err = run_fail(capsys, "ensemble", "--scores", str(tmp_path / "s.csv"),
                   "--counts", "1,1,1", "--out", str(tmp_path / "c.csv"))
    assert "3 fields, expected 7" in err


REMOVED = {  # argv naming a score mode, a weight source or a command emovid does not have
    "mode": ["ensemble", "--mode", "raw"],
    "weights": ["ensemble", "--weights", "1,0,0,0,0,0,0"],
    "counts-file": ["ensemble", "--counts-file", "counts.csv"],
    "weights-file": ["ensemble", "--weights-file", "weights.csv"],
    "weigh": ["weigh", "--counts", "98,40,70,144,193,80,28"],
}


@pytest.mark.parametrize("removed", [*REMOVED, "config-section"])
def test_the_removed_ensemble_options_are_refused(capsys, tmp_path, removed):
    write_scores(ScoreMatrix(("a",), np.zeros((1, 7))), tmp_path / "s.csv")
    scores, out = ["--scores", str(tmp_path / "s.csv")], ["--out", str(tmp_path / "c.csv")]
    if removed == "config-section":
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"ensemble": {"score_mode": "softmax"}}))
        err = run_fail(capsys, "ensemble", *scores, *out, "--config", str(config))
        assert "unknown config keys: ['ensemble']" in err
    else:
        argv = REMOVED[removed]
        with pytest.raises(SystemExit) as info:
            main([*argv, *(scores if argv[0] == "ensemble" else []), *out])
        assert info.value.code == 2  # argparse's usage error
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_cv_single_element_grid(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cv": {"grid": [0.5]}}))
    out = run_ok(
        capsys, "cv", "--descriptors", str(tmp_path / "d" / "frames.csv"),
        "--manifest", manifest, "--config", str(config), "--out", str(tmp_path / "cv.json"),
    )
    assert out.count("mean_accuracy") == 1
    doc = json.loads((tmp_path / "cv.json").read_text())
    assert doc["best_c"] == 0.5 and len(doc["grid"]) == 1


def test_cv_seed_seeds_the_folds_and_the_kernel(synth_dir, capsys, tmp_path):
    """--seed replaces svm.seed, as in train, so the kernel's pass order
    comes from --seed too, and the folds are drawn from the same seed."""
    manifest = str(synth_dir / "ds" / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"svm": {"seed": 11}, "cv": {"grid": [0.5], "folds": 2}}))
    cv = ["cv", "--descriptors", str(tmp_path / "d" / "frames.csv"), "--manifest", manifest,
          "--config", str(config)]
    for extra, seed in (([], 11), (["--seed", "5"], derive_seed(5, "cv"))):
        with mock.patch.object(svm, "_cv_solve", wraps=svm._cv_solve) as kernel, \
                mock.patch.object(svm, "stratified_folds", wraps=svm.stratified_folds) as folds:
            run_ok(capsys, *cv, *extra)
        assert [call.args[3].seed for call in kernel.call_args_list] == [seed, seed]
        assert folds.call_args.args[2] == seed


def test_cv_rejects_single_fold(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cv": {"folds": 1}}))
    cv = ["cv", "--descriptors", str(tmp_path / "d" / "frames.csv"), "--manifest", manifest]
    err = run_fail(capsys, *cv, "--config", str(config))
    assert err == "error: config key 'cv.folds': must be >= 2, got 1\n"
    # the fold count is the config's cv.folds; there is no flag for it
    with pytest.raises(SystemExit) as info:
        main([*cv, "--folds", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --folds 3" in capsys.readouterr().err


def test_aggregate_empty_manifest(capsys, tmp_path):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    err = run_fail(capsys, "aggregate", "--manifest", str(manifest), "--out", str(tmp_path / "d"))
    assert "no videos" in err


def test_bad_split_flag(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    err = run_fail(
        capsys, "train", "--descriptors", str(tmp_path / "d" / "frames.csv"),
        "--manifest", manifest, "--splits", "training", "--out", str(tmp_path / "m.json"),
    )
    assert "unknown split" in err


def test_train_missing_labels_rejected(capsys, tmp_path):
    vec = np.arange(3.0)
    write_audio_features(vec, tmp_path / "a.csv")
    entries = [ManifestEntry("v1", "test", None, {"audio": "a.csv"})]
    write_manifest(entries, tmp_path / "m.jsonl")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"streams": {"audio": {}}}))
    run_ok(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
           "--config", str(config), "--out", str(tmp_path / "d"))
    err = run_fail(
        capsys, "train", "--descriptors", str(tmp_path / "d" / "audio.csv"),
        "--manifest", str(tmp_path / "m.jsonl"), "--splits", "test",
        "--config", str(config), "--out", str(tmp_path / "m.json"),
    )
    assert "no label" in err


def test_audio_stream_passthrough(capsys, tmp_path):
    rng = np.random.default_rng(3)
    entries = []
    for i, name in enumerate(("Angry", "Happy")):
        for k in range(3):
            vid = f"v_{name}_{k}"
            write_audio_features(rng.standard_normal(5) + 10 * i, tmp_path / f"{vid}.csv")
            entries.append(ManifestEntry(vid, "train", name, {"audio": f"{vid}.csv"}))
    write_manifest(entries, tmp_path / "m.jsonl")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"streams": {"audio": {}}}))
    out = run_ok(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                 "--config", str(config), "--out", str(tmp_path / "d"))
    assert "5 dims" in out
    ids, matrix = read_descriptors(tmp_path / "d" / "audio.csv")
    assert len(ids) == 6 and matrix.shape == (6, 5)


def test_aggregate_reports_video_context_on_failure(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("frame,variant,f0\n0,0,nan\n")
    write_manifest([ManifestEntry("vid_bad", "train", "Sad", {"frames": "bad.csv"})],
                   tmp_path / "m.jsonl")
    err = run_fail(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                   "--out", str(tmp_path / "d"))
    assert "vid_bad" in err


def test_aggregate_names_the_video_missing_a_stream(capsys, tmp_path):
    write_audio_features(np.arange(3.0), tmp_path / "a.csv")
    write_manifest([ManifestEntry("v_audio_only", "train", "Sad", {"audio": "a.csv"})],
                   tmp_path / "m.jsonl")
    err = run_fail(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                   "--out", str(tmp_path / "d"))
    assert "'v_audio_only'" in err and "'frames'" in err


def test_aggregate_features_dir_replaces_the_manifest_root(capsys, tmp_path):
    write_audio_features(np.zeros(3), tmp_path / "a.csv")
    (tmp_path / "other").mkdir()
    write_audio_features(np.arange(3.0), tmp_path / "other" / "a.csv")
    write_manifest([ManifestEntry("v1", "train", "Sad", {"audio": "a.csv"})], tmp_path / "m.jsonl")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"streams": {"audio": {}}}))
    run_ok(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"), "--config", str(config),
           "--features-dir", str(tmp_path / "other"), "--out", str(tmp_path / "d"))
    assert read_descriptors(tmp_path / "d" / "audio.csv")[1].tolist() == [[0.0, 1.0, 2.0]]


@pytest.mark.parametrize("flags, config", [
    (["--c", "inf"], None),
    ([], '{"svm": {"tolerance": Infinity}}'),
], ids=["c-inf", "tolerance-Infinity"])
def test_train_refuses_non_finite_solver_settings(synth_dir, capsys, tmp_path, flags, config):
    manifest = str(synth_dir / "ds" / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags = ["--config", str(tmp_path / "cfg.json")]
    err = run_fail(capsys, "train", "--descriptors", str(tmp_path / "d" / "frames.csv"),
                   "--manifest", manifest, *flags, "--out", str(tmp_path / "m.json"))
    assert ("C must be positive and finite" if config is None else "cfg.json") in err
    assert not (tmp_path / "m.json").exists()


def test_unknown_config_keys_rejected(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"streamz": {}}))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("")
    err = run_fail(capsys, "aggregate", "--manifest", str(manifest),
                   "--config", str(config), "--out", str(tmp_path / "d"))
    assert "unknown config keys" in err or "no videos" in err


def test_evaluate_perfect_predictions_renders_100(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest_path = ds / "manifest.jsonl"
    from emovid.ingest import load_manifest
    from emovid.ensemble import write_predictions
    from emovid.core import label_from_name

    manifest = load_manifest(manifest_path)
    val = [e for e in manifest.entries if e.split == "val"]
    write_predictions(
        [e.video_id for e in val],
        [label_from_name(e.label_name) for e in val],
        tmp_path / "pred.csv",
    )
    out = run_ok(capsys, "evaluate", "--predictions", str(tmp_path / "pred.csv"),
                 "--manifest", str(manifest_path))
    assert out.startswith("accuracy: 100.00")


def test_evaluate_refuses_partial_predictions(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest_path = ds / "manifest.jsonl"
    from emovid.ingest import load_manifest
    from emovid.ensemble import write_predictions
    from emovid.core import label_from_name

    val = [e for e in load_manifest(manifest_path).entries if e.split == "val"]
    assert len(val) == 21
    write_predictions(
        [e.video_id for e in val[2:]],
        [label_from_name(e.label_name) for e in val[2:]],
        tmp_path / "pred.csv",
    )
    err = run_fail(capsys, "evaluate", "--predictions", str(tmp_path / "pred.csv"),
                   "--manifest", str(manifest_path))
    assert "2 of 21 videos in splits val have no prediction" in err
    write_predictions(
        [e.video_id for e in val], [label_from_name(e.label_name) for e in val],
        tmp_path / "full.csv",
    )
    err = run_fail(capsys, "evaluate", "--predictions", str(tmp_path / "full.csv"),
                   "--manifest", str(manifest_path), "--splits", "val,test")
    assert "21 of 42 videos in splits val,test" in err


def test_capped_solves_warn_once_and_exit_zero(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"svm": {"max_epochs": 1}, "cv": {"grid": [0.5, 64.0]}}))
    desc = str(tmp_path / "d" / "frames.csv")
    for argv in (
        ["train", "--descriptors", desc, "--manifest", manifest, "--config", str(config),
         "--c", "64", "--out", str(tmp_path / "m.json")],
        ["cv", "--descriptors", desc, "--manifest", manifest, "--config", str(config)],
    ):
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("warning: ")
        assert "solves stopped at max_epochs=1" in lines[0]
        assert "64;" in lines[0] and "classes Angry," in lines[0]


def test_predict_without_manifest_scores_all_rows(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    desc = str(tmp_path / "d" / "frames.csv")
    run_ok(capsys, "train", "--descriptors", desc, "--manifest", manifest,
           "--out", str(tmp_path / "m.json"))
    run_ok(capsys, "predict", "--model", str(tmp_path / "m.json"), "--descriptors", desc,
           "--out", str(tmp_path / "all.csv"))
    assert read_scores(tmp_path / "all.csv").num_videos == 84


def test_predict_refuses_a_manifest_without_splits(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(tmp_path / "d"))
    desc = str(tmp_path / "d" / "frames.csv")
    run_ok(capsys, "train", "--descriptors", desc, "--manifest", manifest,
           "--out", str(tmp_path / "m.json"))
    err = run_fail(capsys, "predict", "--model", str(tmp_path / "m.json"), "--descriptors", desc,
                   "--manifest", manifest, "--out", str(tmp_path / "s.csv"))
    assert "--manifest requires --splits" in err
    assert not (tmp_path / "s.csv").exists()


def test_rerun_commands_byte_identical(synth_dir, capsys, tmp_path):
    ds = synth_dir / "ds"
    manifest = str(ds / "manifest.jsonl")
    outputs = []
    for name in ("one", "two"):
        work = tmp_path / name
        work.mkdir()
        run_ok(capsys, "aggregate", "--manifest", manifest, "--out", str(work / "d"))
        run_ok(capsys, "train", "--descriptors", str(work / "d" / "frames.csv"),
               "--manifest", manifest, "--seed", "11", "--out", str(work / "model.json"))
        run_ok(capsys, "predict", "--model", str(work / "model.json"),
               "--descriptors", str(work / "d" / "frames.csv"),
               "--manifest", manifest, "--splits", "val", "--out", str(work / "s.csv"))
        outputs.append(
            (
                (work / "d" / "frames.csv").read_bytes(),
                (work / "model.json").read_bytes(),
                (work / "s.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_descriptors_already_in_id_order_are_read_into_one_matrix(tmp_path):
    """cv, train and predict take the rows in video-id order. A file that
    already lists them so, as aggregate writes them for a manifest in id
    order, is not copied into that order: under tracemalloc the read holds
    the reader's one matrix. (np.loadtxt grows its buffer in steps, so its
    own peak is 1.2-1.4 x the matrix, depending on the shape; this one reads
    at 1.22 x, and at 2.05 x with the copy.)"""
    ids = [f"v{i:03d}" for i in range(300)]
    matrix = np.random.default_rng(0).standard_normal((300, 1500))
    write_descriptors(ids, matrix, tmp_path / "d.csv")
    write_manifest([ManifestEntry(vid, "train", "Sad", {}) for vid in ids], tmp_path / "m.jsonl")
    args = SimpleNamespace(descriptors=tmp_path / "d.csv", manifest=tmp_path / "m.jsonl",
                           splits="train")
    tracemalloc.start()
    try:
        got_ids, got, _, _ = cli._descriptors_in_splits(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(got_ids) == ids and got.tobytes() == matrix.tobytes()
    assert peak <= 1.3 * matrix.nbytes, peak / matrix.nbytes


def test_cv_train_and_predict_depend_on_the_set_of_videos_not_their_order(
        synth_dir, capsys, tmp_path):
    """The join sorts rows by video id, so a shuffled manifest, aggregated
    into a shuffled descriptor file, gives the same report, model and scores."""
    ds = synth_dir / "ds"
    entries = list(load_manifest(ds / "manifest.jsonl").entries)
    order = np.random.default_rng(8).permutation(len(entries))
    write_manifest([entries[i] for i in order], tmp_path / "shuffled.jsonl")
    outputs = []
    for manifest in (ds / "manifest.jsonl", tmp_path / "shuffled.jsonl"):
        work = tmp_path / manifest.stem
        common = ["--descriptors", str(work / "d" / "frames.csv"), "--manifest", str(manifest)]
        run_ok(capsys, "aggregate", "--manifest", str(manifest), "--features-dir", str(ds),
               "--out", str(work / "d"))
        run_ok(capsys, "cv", *common, "--splits", "train,val", "--seed", "3",
               "--out", str(work / "cv.json"))
        run_ok(capsys, "train", *common, "--splits", "train,val", "--seed", "3",
               "--out", str(work / "model.json"))
        run_ok(capsys, "predict", "--model", str(work / "model.json"), *common,
               "--splits", "test", "--out", str(work / "s.csv"))
        outputs.append([(work / name).read_bytes() for name in ("cv.json", "model.json", "s.csv")])
    assert outputs[0] == outputs[1]
    ids = read_scores(tmp_path / "shuffled" / "s.csv").video_ids
    assert list(ids) == sorted(ids)


def test_aggregate_refuses_aggregation_settings_for_a_vector_stream(capsys, tmp_path):
    """Only {} is accepted, so an explicit default setting is refused too."""
    config = write_audio_dataset(tmp_path, tmp_path / "m.jsonl")
    for aggregators in (["fft"], ["mean", "std", "min"]):
        Path(config).write_text(json.dumps({"streams": {"audio": {"aggregators": aggregators}}}))
        err = run_fail(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                       "--config", config, "--out", str(tmp_path / "d"))
        assert "stream 'audio': aggregation settings apply to frame files only" in err
        assert not (tmp_path / "d" / "audio.csv").exists()


@pytest.mark.parametrize("first", ["frames", "audio"])
def test_aggregate_refuses_a_stream_of_mixed_file_kinds(capsys, tmp_path, first):
    """A 5 x 1 x 4 frame grid gives a 12-value STAT* descriptor, as wide as
    the 12-value vector file beside it, so only the file kinds differ."""
    grid = FrameFeatureSequence("g", np.arange(20.0).reshape(5, 1, 4))
    write_frame_features(grid, tmp_path / "grid.csv")
    write_audio_features(np.arange(12.0), tmp_path / "vector.csv")
    files = ["grid.csv", "vector.csv"] if first == "frames" else ["vector.csv", "grid.csv"]
    write_manifest([ManifestEntry(f"v{i}", "train", "Sad", {"frames": name})
                    for i, name in enumerate(files)], tmp_path / "m.jsonl")
    err = run_fail(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                   "--out", str(tmp_path / "d"))
    # the first file's kind picks the loader, whose header check refuses the second
    header = "frame,variant,f0,..." if first == "frames" else "f0,..."
    assert err == (f"error: video 'v1': stream 'frames': {tmp_path / files[1]}: "
                   f"expected header {header}\n")
    assert not (tmp_path / "d" / "frames.csv").exists()


def model_doc(top=(), config=()):
    """A format-2 model document for 2 features, with keys replaced."""
    doc = model_to_dict(LinearSvmModel(np.zeros((7, 3)), SvmTrainConfig(), fitted_chain(2)))
    doc["config"].update(config)
    doc.update(top)
    return doc


BAD_DOCUMENTS = [
    ("train", {"svm": {"C": 4, "tolerence": 1e-9}}, "svm.tolerence"),
    ("train", {"streams": {"frames": {"aggregator": ["mean"]}}}, "streams.frames.aggregator"),
    ("train", {"cv": {"fold": 3}}, "cv.fold"),
    ("train", {"streams": []}, "streams"),
    ("train", {"svm": 3}, "svm"),
    ("train", {"cv": {"grid": 5}}, "cv.grid"),
    # a negative seed would quietly draw the orders of its absolute value
    ("train", {"svm": {"seed": -1}}, "svm.seed"),
    ("synth", {"frames_range": "ab"}, "frames_range"),
    ("synth", {"dim": "x"}, "dim"),
    ("synth", {"counts": 3}, "counts"),
    # synth always writes the frames stream; the key would name a path unchecked
    ("synth", {"stream_name": "../../escaped"}, "stream_name"),
    ("predict", model_doc(config={"extra": 1}), "config.extra"),
    ("predict", model_doc(top={"extra": 1}), "extra"),
    ("predict", model_doc(top={"range_scaler": {"maxs": [1.0, 1.0]}}), "range_scaler.mins"),
    ("predict", model_doc(top={"range_scaler": {"mins": ["a", 0], "maxs": [1.0, 1.0]}}),
     "range_scaler.mins"),
    ("predict", model_doc(top={"standardizer": {"means": [0.0, 0.0], "stds": [1.0, 1.0],
                                                "scale": 2.0}}), "standardizer.scale"),
    ("predict", model_doc(top={"standardizer": [0.0]}), "standardizer"),
    ("predict", model_doc(top={"standardizer": {"means": [0.0, 0.0]}}), "standardizer.stds"),
    ("predict", model_doc(top={"range_scaler": {"mins": [0.0, True], "maxs": [1.0, 1.0]}}),
     "range_scaler.mins"),
    # format 2 has no normalization object and needs both fitted stages
    ("predict", model_doc(config={"normalization": {"range_scale": True, "rootsift": True,
                                                    "standardize": True}}),
     "config.normalization"),
    ("predict", model_doc(top={"range_scaler": None}), "range_scaler"),
    ("predict", model_doc(top={"weights": "abc"}), "weights"),
    ("predict", model_doc(top={"weights": [[0.0] * 3] * 6 + [[0.0] * 2]}), "weights"),
    # parameters of the wrong width (weights: 2 + bias)
    ("predict", model_doc(top={"range_scaler": {"mins": [0.0], "maxs": [1.0]}}),
     "range_scaler.mins"),
    ("predict", model_doc(top={"standardizer": {"means": [0.0] * 3, "stds": [1.0] * 3}}),
     "standardizer.means"),
    # the bias is always on: config.bias is retired, an unknown key either way
    ("predict", model_doc(config={"bias": False}), "config.bias"),
    ("predict", model_doc(config={"bias": True}), "config.bias"),
    # numbers beyond float64: a literal that parses to inf is refused by the
    # JSON reader, which names the literal; an integer, by the key's decoder
    ("train", '{"cv": {"grid": [1e400, 1.0]}}', "1e400"),
    ("train", '{"svm": {"C": -1e400}}', "-1e400"),
    ("train", {"svm": {"C": 10 ** 400}}, "svm.C"),
    ("predict", model_doc(top={"range_scaler": {"mins": [10 ** 400, 0.0], "maxs": [1.0, 1.0]}}),
     "range_scaler.mins"),
]


# the config has no ensemble or normalization section, so train names the
# whole section as unknown; nor has its svm section a bias key
REMOVED_SECTIONS = {
    "train-ensemble.mode": ("train", {"ensemble": {"mode": "raw"}}, "ensemble"),
    "train-normalization.root_sift": ("train", {"normalization": {"root_sift": False}},
                                      "normalization"),
    "train-svm.bias": ("train", {"svm": {"bias": True}}, "svm.bias"),
}

# standardizer parameters that no fit produces: it only sees rootsift
# output, in [-1, 1], so its means lie there and its stds are at most 2
UNREACHABLE_PARAMETERS = {
    "predict-standardizer.means-unreachable": (
        "predict", model_doc(top={"standardizer": {"means": [1e308, 0.0], "stds": [1e-12, 1.0]}}),
        "standardizer.means"),
    "predict-standardizer.stds-unreachable": (
        "predict", model_doc(top={"standardizer": {"means": [0.0, 0.0], "stds": [1.0, 2.5]}}),
        "standardizer.stds"),
}


# well-typed values that a section's own checks refuse
REFUSED_VALUES = {
    "train-cv.folds": ("train", {"cv": {"folds": 1}}, "cv.folds"),
    "train-cv.grid-empty": ("train", {"cv": {"grid": []}}, "cv.grid"),
    "train-streams-empty": ("train", {"streams": {}}, "streams"),
    "train-streams.frames.aggregators-empty": (
        "train", {"streams": {"frames": {"aggregators": []}}}, "streams.frames.aggregators"),
    "train-streams.frames.aggregators-unknown": (
        "train", {"streams": {"frames": {"aggregators": ["median"]}}},
        "streams.frames.aggregators"),
    "train-streams.frames.aggregators-duplicate": (
        "train", {"streams": {"frames": {"aggregators": ["min", "min"]}}},
        "streams.frames.aggregators"),
    "synth-dim-zero": ("synth", {"dim": 0}, "dim"),
    "synth-frames_range-zero": ("synth", {"frames_range": [0, 4]}, "frames_range"),
    "synth-variants-zero": ("synth", {"variants": 0}, "variants"),
    "synth-class_separation-negative": ("synth", {"class_separation": -1}, "class_separation"),
    "synth-within_video_sigma-negative": (
        "synth", {"within_video_sigma": -1}, "within_video_sigma"),
    "synth-frame_sigma-negative": ("synth", {"frame_sigma": -1}, "frame_sigma"),
    "synth-counts-unknown-split": ("synth", {"counts": {"dev": 3}}, "counts"),
    "synth-counts-width": ("synth", {"counts": {"train": [1, 2]}}, "counts"),
}


@pytest.mark.parametrize(
    "command, doc, key",
    [*BAD_DOCUMENTS, *REMOVED_SECTIONS.values(), *UNREACHABLE_PARAMETERS.values(),
     *REFUSED_VALUES.values()],
    ids=[*(f"{c}-{k}" for c, _, k in BAD_DOCUMENTS), *REMOVED_SECTIONS, *UNREACHABLE_PARAMETERS,
         *REFUSED_VALUES],
)
def test_config_typos_and_bad_types_fail_loudly(capsys, tmp_path, command, doc, key):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    absent = str(tmp_path / "absent")
    argv = {
        "train": ["train", "--descriptors", absent, "--manifest", absent,
                  "--config", str(path), "--out", absent],
        "synth": ["synth", "--config", str(path), "--out", absent],
        "predict": ["predict", "--model", str(path), "--descriptors", absent, "--out", absent],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(key) in err


def test_predict_refuses_a_format_1_model(capsys, tmp_path):
    """Format 2 is the only model format: a format-1 file, here one with
    a stage off and that stage's parameters left out, is one error line."""
    doc = model_doc(top={"format_version": 1, "standardizer": None},
                    config={"normalization": {"range_scale": True, "rootsift": True,
                                              "standardize": False}})
    (tmp_path / "model.json").write_text(json.dumps(doc))
    err = run_fail(capsys, "predict", "--model", str(tmp_path / "model.json"),
                   "--descriptors", str(tmp_path / "absent"), "--out", str(tmp_path / "s.csv"))
    assert err == "error: unsupported model format_version: 1\n"


def test_constant_column_warns_on_train(capsys, tmp_path):
    rng = np.random.default_rng(8)
    entries = []
    for name in ("Angry", "Happy", "Sad"):
        for k in range(3):
            vid = f"v_{name}_{k}"
            vector = rng.standard_normal(4)
            vector[2] = 0.5  # the same in every video
            write_audio_features(vector, tmp_path / f"{vid}.csv")
            entries.append(ManifestEntry(vid, "train", name, {"audio": f"{vid}.csv"}))
    write_manifest(entries, tmp_path / "m.jsonl")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"streams": {"audio": {}}}))
    run_ok(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
           "--config", str(config), "--out", str(tmp_path / "d"))
    assert main(["train", "--descriptors", str(tmp_path / "d" / "audio.csv"),
                 "--manifest", str(tmp_path / "m.jsonl"), "--config", str(config),
                 "--out", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 of 4 columns have a fitted std below 1e-12 and standardize to 0"
    ]


def test_train_rejects_an_unknown_score_mode(capsys, tmp_path):
    # the config has no ensemble section, so score_mode is an unknown key
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"ensemble": {"score_mode": "bogus"}}))
    absent = str(tmp_path / "absent")
    err = run_fail(capsys, "train", "--descriptors", absent, "--manifest", absent,
                   "--config", str(config), "--out", absent)
    assert "unknown config keys: ['ensemble']" in err


def write_audio_dataset(feat_dir, manifest_path):
    """Six labeled audio feature files in feat_dir, listed by a manifest at
    manifest_path with paths relative to feat_dir; returns a config path."""
    rng = np.random.default_rng(4)
    entries = []
    for i, name in enumerate(("Angry", "Happy")):
        for k in range(3):
            vid = f"v_{name}_{k}"
            write_audio_features(rng.standard_normal(5) + 10 * i, feat_dir / f"{vid}.csv")
            entries.append(ManifestEntry(vid, "train", name, {"audio": f"{vid}.csv"}))
    write_manifest(entries, manifest_path)
    config = manifest_path.parent / "cfg.json"
    config.write_text(json.dumps({"streams": {"audio": {}}}))
    return str(config)


def test_aggregate_reads_streams_only_under_features_dir(capsys, tmp_path):
    (tmp_path / "m").mkdir()
    (tmp_path / "feat").mkdir()
    manifest = tmp_path / "m" / "m.jsonl"
    config = write_audio_dataset(tmp_path / "feat", manifest)
    argv = ["aggregate", "--manifest", str(manifest), "--config", config,
            "--features-dir", str(tmp_path / "feat"), "--out", str(tmp_path / "d")]
    run_ok(capsys, *argv)
    assert len(read_descriptors(tmp_path / "d" / "audio.csv")[0]) == 6
    (tmp_path / "feat" / "v_Happy_1.csv").unlink()
    err = run_fail(capsys, *argv)
    missing = str(tmp_path / "feat" / "v_Happy_1.csv")
    assert f"video 'v_Happy_1': stream 'audio' path {missing!r} does not exist" in err


def test_train_reads_no_feature_file_and_cv_counts_missing_rows(capsys, tmp_path):
    manifest = tmp_path / "m.jsonl"
    config = write_audio_dataset(tmp_path, manifest)
    run_ok(capsys, "aggregate", "--manifest", str(manifest), "--config", config,
           "--out", str(tmp_path / "d"))
    for path in tmp_path.glob("v_*.csv"):
        path.unlink()
    run_ok(capsys, "train", "--descriptors", str(tmp_path / "d" / "audio.csv"),
           "--manifest", str(manifest), "--config", config, "--out", str(tmp_path / "model.json"))
    ids, matrix = read_descriptors(tmp_path / "d" / "audio.csv")
    write_descriptors(ids[:2] + ids[3:], np.delete(matrix, 2, axis=0), tmp_path / "partial.csv")
    err = run_fail(capsys, "cv", "--descriptors", str(tmp_path / "partial.csv"),
                   "--manifest", str(manifest), "--config", config)
    assert "1 of 6 videos in splits train have no descriptor row" in err


def test_a_bad_cell_fails_only_the_commands_that_read_its_row(capsys, tmp_path):
    manifest = tmp_path / "m.jsonl"
    config = write_audio_dataset(tmp_path, manifest)
    entries = load_manifest(manifest).entries
    write_manifest([*entries, replace(entries[0], video_id="v_test", split="test")], manifest)
    run_ok(capsys, "aggregate", "--manifest", str(manifest), "--config", config,
           "--out", str(tmp_path / "d"))
    desc = tmp_path / "d" / "audio.csv"
    lines = desc.read_text().splitlines()  # the header, 6 train rows, then v_test on line 8
    common = ["--descriptors", str(desc), "--manifest", str(manifest)]
    model = ["--model", str(tmp_path / "model.json"), *common, "--out", str(tmp_path / "s.csv")]

    desc.write_text("\n".join([*lines[:7], lines[7].rsplit(",", 1)[0] + ",nan"]) + "\n")
    run_ok(capsys, "train", *common, "--config", config, "--out", str(tmp_path / "model.json"))
    run_ok(capsys, "predict", *model, "--splits", "train")
    err = run_fail(capsys, "predict", *model, "--splits", "test")
    assert f"{desc}: line 8: non-finite value" in err

    # a row of the wrong width fails every command, whatever its split
    desc.write_text("\n".join([*lines[:7], "v_test,1"]) + "\n")
    err = run_fail(capsys, "train", *common, "--config", config, "--out", str(tmp_path / "m2.json"))
    assert f"{desc}: line 8: 2 fields, expected 6" in err


def test_a_cell_over_the_csv_field_limit_is_one_error_line(capsys, tmp_path):
    save_model(LinearSvmModel(np.zeros((7, 2)), SvmTrainConfig(), fitted_chain(1)),
               tmp_path / "model.json")
    desc = tmp_path / "d.csv"
    desc.write_text('id,x0\n"' + "a" * 140000 + '",1\n')
    err = run_fail(capsys, "predict", "--model", str(tmp_path / "model.json"),
                   "--descriptors", str(desc), "--out", str(tmp_path / "s.csv"))
    assert f"{desc}: line 2: field larger than field limit" in err


def test_predict_names_the_model_width_for_a_wrong_width_file(capsys, tmp_path):
    X = np.random.default_rng(1).standard_normal((7, 6))
    save_model(train_ovr(X, range(7), SvmTrainConfig()), tmp_path / "model.json")
    wide = np.hstack([X, X[:, :1]])
    write_descriptors([f"v{i}" for i in range(7)], wide, tmp_path / "d.csv")
    err = run_fail(capsys, "predict", "--model", str(tmp_path / "model.json"),
                   "--descriptors", str(tmp_path / "d.csv"), "--out", str(tmp_path / "s.csv"))
    assert "inputs have 8 features (bias included), model expects 7" in err


def test_predict_names_the_model_whose_weights_overflow_a_score(capsys, tmp_path):
    """Weights of 1e308 are finite and load, but the chain maps the row
    [1, 1, 1] to 3**-0.5 in every column, so every score is
    1e308 * (3 * 3**-0.5 + 1), past the float64 maximum. predict fails
    with one error line that names the model, and numpy warns nothing."""
    chain = NormalizationParams(RangeScalerParams(np.zeros(3), np.ones(3)),
                                StandardizerParams(np.zeros(3), np.ones(3)))
    model = tmp_path / "model.json"
    save_model(LinearSvmModel(np.full((7, 4), 1e308), SvmTrainConfig(), chain), model)
    write_descriptors(["v0", "v1"], np.ones((2, 3)), tmp_path / "d.csv")
    with warnings.catch_warnings(record=True) as caught:  # outside pytest, printed to stderr
        warnings.simplefilter("always")
        err = run_fail(capsys, "predict", "--model", str(model),
                       "--descriptors", str(tmp_path / "d.csv"), "--out", str(tmp_path / "s.csv"))
    assert [str(w.message) for w in caught] == []
    assert err == (f"error: {model}: the model's weights overflow the Angry score "
                   f"of video 'v0' to inf\n")
    assert not (tmp_path / "s.csv").exists()


def test_aggregate_lists_every_descriptor_width_of_a_stream(capsys, tmp_path):
    """Vector files of 4, 6 and 4 values: the error lists both widths."""
    for i, width in enumerate((4, 6, 4)):
        write_audio_features(np.arange(float(width)), tmp_path / f"a{i}.csv")
    write_manifest([ManifestEntry(f"v{i}", "train", "Sad", {"frames": f"a{i}.csv"})
                    for i in range(3)], tmp_path / "m.jsonl")
    err = run_fail(capsys, "aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                   "--out", str(tmp_path / "d"))
    assert err == "error: stream 'frames': inconsistent descriptor dimensions [4, 6]\n"
    assert not (tmp_path / "d" / "frames.csv").exists()


def test_predict_far_outside_the_fitted_range_prints_no_numpy_warning(capsys, tmp_path):
    """A finite value far outside a narrow column's fitted range overflows
    the range scaler's affine map to +-inf, which the clip maps to +-1."""
    X = np.random.default_rng(3).standard_normal((21, 4))
    save_model(train_ovr(X, [k % 7 for k in range(21)], SvmTrainConfig()),
               tmp_path / "model.json")
    far = np.array([[1.7e308, -1.7e308, 0.0, 1.0]])
    write_descriptors(["far"], far, tmp_path / "d.csv")
    with warnings.catch_warnings(record=True) as caught:  # outside pytest, printed to stderr
        warnings.simplefilter("always")
        code = main(["predict", "--model", str(tmp_path / "model.json"),
                     "--descriptors", str(tmp_path / "d.csv"), "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert [str(w.message) for w in caught] == []
    model = load_model(tmp_path / "model.json")
    clipped = np.where(far > 0, model.normalization.range_scaler.maxs,
                       model.normalization.range_scaler.mins)
    clipped[0, 2:] = far[0, 2:]  # inside the range: unchanged
    want = decision_scores(model, clipped).scores
    assert read_scores(tmp_path / "s.csv").scores.tobytes() == want.tobytes()
