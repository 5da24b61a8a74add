"""perfbench/tracer.py wraps program functions by name. Every name it
lists must exist, so that renaming or deleting one fails here rather than
partway through a benchmark run. The tracer also reads the arguments of
some calls, so a traced CLI chain must give it every count it takes."""

import importlib
import importlib.util
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from emovid import aggregate, cli
from emovid.ingest import load_manifest, write_audio_features, write_manifest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_names_exist_in_the_program():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"emovid.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"emovid.{layer} has no {missing}"
    assert set(tracer.AGGREGATOR_BLOCKS) <= set(aggregate._AGGREGATORS)


def add_vector_stream(ds: Path, dim: int) -> None:
    """Give every video of the manifest in ds a one-vector file of dim
    values, as its stream 'audio'."""
    rng = np.random.default_rng(2)
    entries = []
    for entry in load_manifest(ds / "manifest.jsonl").entries:
        name = f"{entry.video_id}.audio.csv"
        write_audio_features(rng.standard_normal(dim), ds / name)
        entries.append(replace(entry, streams={**entry.streams, "audio": name}))
    write_manifest(entries, ds / "manifest.jsonl")


def test_a_traced_chain_counts_solves_fits_and_clipped_cells(tmp_path, capsys):
    """synth -> aggregate -> cv -> train -> predict (per stream) -> ensemble
    -> evaluate on 84 tiny videos with a frame stream and a one-vector
    stream, each command in this process under its own tracer.Recorder, as
    perfbench/tracer.py runs one command per process."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    (tmp_path / "synth.json").write_text(json.dumps(
        {"dim": 12, "class_separation": 9.0, "counts": {"train": 6, "val": 3, "test": 3},
         "frames_range": [5, 9]}))
    (tmp_path / "config.json").write_text(json.dumps(
        {"streams": {"frames": {}, "audio": {}}, "cv": {"grid": [0.25, 1.0], "folds": 2}}))
    ds, desc, out = tmp_path / "ds", tmp_path / "desc", tmp_path / "out"
    manifest, config = str(ds / "manifest.jsonl"), str(tmp_path / "config.json")
    common = ["--manifest", manifest, "--config", config]
    chain = [
        ["synth", "--config", str(tmp_path / "synth.json"), "--out", str(ds), "--seed", "5"],
        ["aggregate", *common, "--out", str(desc)],
        ["cv", "--descriptors", str(desc / "frames.csv"), *common, "--seed", "5"],
    ]
    for stream in ("frames", "audio"):
        chain += [
            ["train", "--descriptors", str(desc / f"{stream}.csv"), *common,
             "--out", str(out / f"model_{stream}.json")],
            ["predict", "--model", str(out / f"model_{stream}.json"),
             "--descriptors", str(desc / f"{stream}.csv"), "--manifest", manifest,
             "--splits", "test", "--out", str(out / f"scores_{stream}.csv")],
        ]
    chain += [
        ["ensemble", "--scores", str(out / "scores_frames.csv"), str(out / "scores_audio.csv"),
         "--counts", "3,3,3,3,3,3,3", "--out", str(out / "combined.csv"),
         "--predictions", str(out / "predictions.csv")],
        ["evaluate", "--predictions", str(out / "predictions.csv"), "--manifest", manifest,
         "--out", str(out / "report.json")],
    ]
    out.mkdir()
    commands = []
    for argv in chain:
        recorder = tracer.Recorder(argv[0])
        recorder.install()
        try:
            start = time.perf_counter()
            code = recorder.call(f"command.{argv[0]}", cli.main, (argv,), counts=tracer._no_counts)
            wall = time.perf_counter() - start
        finally:
            recorder.uninstall()
        assert code == 0, capsys.readouterr().err
        commands.append((argv[0], wall, recorder.spans))
        if argv[0] == "synth":
            add_vector_stream(ds, 5)

    def spans(label, name):
        return [span for command, _, spans in commands if command == label
                for span in spans if span["name"] == name]

    metrics = tracer.layer_metrics(commands)
    # the first file of each stream decides its kind; the others go to its loader
    assert len(spans("aggregate", "ingest.sniff_stream_kind")) == 2
    assert metrics["ingest.vector_cells"][0] == 84 * 5
    assert metrics["ingest.frame_cells"][0] > 0
    assert metrics["aggregate.videos"][0] == 84  # the frame stream's videos only
    # train's 7 solves per stream only: cv solves each fold's whole grid in
    # svm._cv_solve, not through svm.train_binary, and that kernel's time is
    # cv's own svm time
    assert metrics["svm.solves"][0] == 2 * 7
    assert metrics["svm.cv_self_s"][0] > 0
    assert metrics["normalize.fits"][0] == 2 + 2  # one per cv fold, one per train
    assert metrics["svm.coord_steps"][0] > 0
    applies = [span for _, _, spans in commands for span in spans
               if span["name"] == "normalize.apply_normalization"]
    assert applies and all("clipped" in span for span in applies)
    predict_spans = commands[4][2]  # the frame stream's predict
    (apply,) = [span for span in predict_spans if span["name"] == "normalize.apply_normalization"]
    assert predict_spans[apply["parent"]]["name"] == "svm.decision_scores"
    assert apply["cells"] == 21 * 36  # the 21 test videos, STAT* on 12 dims
    assert [span["cells"] for span in spans("predict", "normalize.apply_normalization")] == [
        21 * 36, 21 * 5]
    assert 0.0 <= metrics["normalize.clip_fraction"][0] <= 1.0
    assert len(spans("ensemble", "ensemble.read_scores")) == 2
    assert metrics["ensemble.run_s"][0] > 0 and metrics["ensemble.scores_io_s"][0] > 0
    assert len(spans("evaluate", "ensemble.read_predictions")) == 1
    assert metrics["evaluate.s"][0] > 0
