"""Commands run as `python -m emovid` processes, as a user runs them: what
each process loads, and the bytes it writes at any BLAS thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from emovid.cli import main
from emovid.core import EMOTION_NAMES
from emovid.ingest import ManifestEntry, write_audio_features, write_descriptors, write_manifest
from emovid.svm import SvmTrainConfig, save_model, train_ovr

SRC = Path(__file__).resolve().parents[1] / "src"

# OpenSSL (through hashlib, or numpy.random's import of secrets) and
# numpy.random add about 6 MB to a process's peak RSS
HEAVY_MODULES = ("_hashlib", "secrets", "numpy.random")

# runs `python -m emovid ARGS...` and reports on stderr, at exit, which of
# HEAVY_MODULES it loaded
PROBE = f"""import runpy, sys
try:
    runpy.run_module("emovid", run_name="__main__", alter_sys=True)
finally:
    print("loaded:", [m for m in {HEAVY_MODULES!r} if m in sys.modules], file=sys.stderr)
"""


def emovid(*argv, **env):
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_cv_train_and_predict_load_neither_openssl_nor_numpy_random(tmp_path):
    rng = np.random.default_rng(3)
    entries = []
    for c, name in enumerate(EMOTION_NAMES):
        for k in range(4):
            vid = f"{name}_{k}"
            write_audio_features(rng.standard_normal(6) + 4 * c, tmp_path / f"{vid}.csv")
            entries.append(ManifestEntry(vid, "train" if k < 3 else "test", name,
                                         {"audio": f"{vid}.csv"}))
    write_manifest(entries, tmp_path / "m.jsonl")
    (tmp_path / "cfg.json").write_text(json.dumps({"streams": {"audio": {}},
                                                   "cv": {"grid": [0.5], "folds": 3}}))
    assert main(["aggregate", "--manifest", str(tmp_path / "m.jsonl"),
                 "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d")]) == 0
    common = ["--descriptors", tmp_path / "d" / "audio.csv", "--manifest", tmp_path / "m.jsonl"]
    config = ["--config", tmp_path / "cfg.json"]
    for argv in (["cv", *common, *config, "--splits", "train", "--seed", "5"],
                 ["train", *common, *config, "--seed", "5", "--out", tmp_path / "model.json"],
                 ["predict", *common, "--splits", "test", "--model", tmp_path / "model.json",
                  "--out", tmp_path / "scores.csv"]):
        assert emovid(*argv).splitlines()[-1] == "loaded: []", argv[0]


def test_predict_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """A model of paper_cv's width (1582 columns) scores paper_cv's 326 test
    rows. OpenBLAS splits that product over 2 threads in another summation
    order, so the scores moved in the last bits unless the program fixes one
    thread itself. On a machine with one CPU OpenBLAS runs one thread
    whatever the setting, so there this test cannot fail."""
    rng = np.random.default_rng(0)
    centroids = 20 * rng.standard_normal((7, 1582)) / np.sqrt(1582)
    labels = np.arange(70) % 7
    X = centroids[labels] + rng.standard_normal((70, 1582))
    save_model(train_ovr(X, labels, SvmTrainConfig(C=2.0 ** -6)), tmp_path / "model.json")
    test = centroids[np.arange(326) % 7] + rng.standard_normal((326, 1582))
    write_descriptors([f"v{i:03d}" for i in range(326)], test, tmp_path / "test.csv")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"scores_{threads}.csv"
        emovid("predict", "--model", tmp_path / "model.json", "--descriptors",
               tmp_path / "test.csv", "--out", out, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        written.append(out.read_bytes())
    assert written[0] == written[1]
