"""perfbench/tracer.py wraps program functions by name. Every name it
lists must exist, so that renaming or deleting one fails here rather than
partway through a benchmark run. The tracer also reads the arguments of
some calls, so a traced CLI chain must give it every count it takes."""

import importlib
import importlib.util
import json
import time
from pathlib import Path

from emovid import aggregate, cli

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


def test_a_traced_chain_counts_solves_fits_and_clipped_cells(tmp_path, capsys):
    """synth -> aggregate -> cv -> train -> predict on 84 tiny videos, each
    command in this process under its own tracer.Recorder, as
    perfbench/tracer.py runs one command per process."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    (tmp_path / "synth.json").write_text(json.dumps(
        {"dim": 12, "class_separation": 9.0, "counts": {"train": 6, "val": 3, "test": 3},
         "frames_range": [5, 9]}))
    (tmp_path / "config.json").write_text(json.dumps({"cv": {"grid": [0.25, 1.0], "folds": 2}}))
    manifest, desc = str(tmp_path / "ds" / "manifest.jsonl"), str(tmp_path / "desc" / "frames.csv")
    common = ["--descriptors", desc, "--manifest", manifest, "--config", str(tmp_path / "config.json")]
    chain = [
        ["synth", "--config", str(tmp_path / "synth.json"), "--out", str(tmp_path / "ds"),
         "--seed", "5"],
        ["aggregate", "--manifest", manifest, "--out", str(tmp_path / "desc")],
        ["cv", *common, "--seed", "5"],
        ["train", *common, "--out", str(tmp_path / "model.json")],
        ["predict", "--model", str(tmp_path / "model.json"), "--descriptors", desc,
         "--manifest", manifest, "--splits", "test", "--out", str(tmp_path / "scores.csv")],
    ]
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

    metrics = tracer.layer_metrics(commands)
    assert metrics["svm.solves"][0] == 2 * 2 * 7 + 7  # cv: 2 C x 2 folds x 7 classes; train
    assert metrics["normalize.fits"][0] == 2 + 1  # one per cv fold, one in train
    assert metrics["svm.coord_steps"][0] > 0
    applies = [span for _, _, spans in commands for span in spans
               if span["name"] == "normalize.apply_normalization"]
    assert applies and all("clipped" in span for span in applies)
    predict_spans = commands[-1][2]
    (apply,) = [span for span in predict_spans if span["name"] == "normalize.apply_normalization"]
    assert predict_spans[apply["parent"]]["name"] == "svm.decision_scores"
    assert apply["cells"] == 21 * 36  # the 21 test videos, STAT* on 12 dims
    assert 0.0 <= metrics["normalize.clip_fraction"][0] <= 1.0
