import csv
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import reference_read_table, reference_write_rows

from emovid import ingest
from emovid.aggregate import AGGREGATOR_NAMES, AggregationConfig
from emovid.cli import CvConfig, PipelineConfig
from emovid.core import EMOTION_NAMES, SPLITS, EmotionLabel, FrameFeatureSequence, ScoreMatrix
from emovid.ingest import (
    ManifestEntry,
    load_audio_features,
    load_frame_features,
    load_manifest,
    parse_counts,
    read_descriptors,
    read_predictions,
    read_scores,
    sniff_stream_kind,
    write_audio_features,
    write_descriptors,
    write_frame_features,
    write_manifest,
    write_predictions,
    write_scores,
)
from emovid.normalize import NormalizationParams, RangeScalerParams, StandardizerParams
from emovid.svm import LinearSvmModel, SvmTrainConfig, load_model, save_model
from emovid.synth import SynthConfig
from emovid.util import config_from_dict, config_to_dict


def manifest_line(vid, split="train", label="Happy", streams=None):
    return json.dumps(
        {"id": vid, "split": split, "label": label, "streams": streams or {}}
    )


def touch_features(root, name, rows=2, dim=3):
    path = root / name
    seq = FrameFeatureSequence.from_matrix(name, np.zeros((rows, dim)))
    write_frame_features(seq, path)
    return name


def test_load_manifest_happy_path(tmp_path):
    feat = touch_features(tmp_path, "a.csv")
    lines = [
        manifest_line("vid_001", streams={"frames": feat}),
        manifest_line("vid_002", split="val", label="Sad", streams={"frames": feat}),
        manifest_line("vid_003", split="test", label=None, streams={"frames": feat}),
    ]
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n")
    manifest = load_manifest(path)
    assert len(manifest.entries) == 3
    assert [e.video_id for e in manifest.entries] == ["vid_001", "vid_002", "vid_003"]
    assert manifest.entries[2].label_name is None
    assert manifest.resolve(manifest.entries[0], "frames") == tmp_path / feat


def test_load_manifest_bad_split_names_line(tmp_path):
    feat = touch_features(tmp_path, "a.csv")
    lines = [
        manifest_line("vid_001", streams={"frames": feat}),
        manifest_line("vid_002", split="validation", streams={"frames": feat}),
    ]
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2.*split"):
        load_manifest(path)


def test_load_manifest_duplicate_id(tmp_path):
    feat = touch_features(tmp_path, "a.csv")
    lines = [
        manifest_line("vid_007", streams={"frames": feat}),
        manifest_line("vid_007", streams={"frames": feat}),
    ]
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="duplicate.*vid_007"):
        load_manifest(path)


def test_load_manifest_rejects_bad_records(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ValueError, match="line 1.*JSON"):
        load_manifest(path)
    path.write_text(manifest_line("v", label="Joy") + "\n")
    message = "line 1: manifest key 'label': unknown emotion label: 'Joy'"
    with pytest.raises(ValueError, match=message):
        load_manifest(path)
    path.write_text(manifest_line("") + "\n")
    with pytest.raises(ValueError, match="line 1: manifest key 'id': must be non-empty"):
        load_manifest(path)
    path.write_text(manifest_line("v", split="dev") + "\n")
    with pytest.raises(ValueError, match="line 1: manifest key 'split': must be one of"):
        load_manifest(path)
    path.write_text(json.dumps({"id": "v", "split": "train", "label": "Happy"}) + "\n")
    with pytest.raises(ValueError, match="line 1: manifest key 'streams': missing"):
        load_manifest(path)
    path.write_text(manifest_line("v") + "\n" + manifest_line("w")[:-1] + ', "lable": "Sad"}\n')
    with pytest.raises(ValueError, match=re.escape("line 2: unknown manifest keys: ['lable']")):
        load_manifest(path)
    path.write_text(manifest_line("v", streams={"frames": 3}) + "\n")
    with pytest.raises(ValueError, match="line 1: manifest key 'streams.frames': expected a string"):
        load_manifest(path)
    # stream paths are checked where they are read, not on load
    path.write_text(manifest_line("v", streams={"frames": "missing.csv"}) + "\n")
    manifest = load_manifest(path)
    message = f"video 'v': stream 'frames' path {str(tmp_path / 'missing.csv')!r} does not exist"
    with pytest.raises(ValueError, match=re.escape(message)):
        manifest.resolve(manifest.entries[0], "frames")


def test_manifest_round_trip(tmp_path):
    feat = touch_features(tmp_path, "a.csv")
    entries = [
        ManifestEntry("vid_b", "train", "Fear", {"frames": feat}),
        ManifestEntry("vid_a", "test", None, {"frames": feat}),
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(entries, path)
    manifest = load_manifest(path)
    # file order preserved, not sorted
    assert [e.video_id for e in manifest.entries] == ["vid_b", "vid_a"]
    assert manifest.entries == tuple(entries)


def test_load_frame_features_shape_echo(tmp_path):
    path = tmp_path / "f.csv"
    header = "frame,variant," + ",".join(f"f{j}" for j in range(4))
    rows = [f"{t},0," + ",".join(str(float(t * 4 + j)) for j in range(4)) for t in range(10)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    seq = load_frame_features(path)
    assert (seq.num_frames, seq.num_variants, seq.dim) == (10, 1, 4)
    assert seq.video_id == "f"
    assert seq.frames[3, 0, 2] == 14.0


def test_load_frame_features_variant_grid(tmp_path):
    path = tmp_path / "g.csv"
    lines = ["frame,variant,f0,f1"]
    for t in range(5):
        for v in range(18):
            lines.append(f"{t},{v},{t + v},{t - v}")
    path.write_text("\n".join(lines) + "\n")
    seq = load_frame_features(path)
    assert (seq.num_frames, seq.num_variants, seq.dim) == (5, 18, 2)
    assert seq.frames[2, 3, 0] == 5.0


def test_load_frame_features_sorts_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("frame,variant,f0\n2,0,20\n0,0,0\n1,0,10\n")
    seq = load_frame_features(path)
    np.testing.assert_array_equal(seq.frames[:, 0, 0], [0.0, 10.0, 20.0])


def test_load_frame_features_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,variant,f0\n0,0,nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_frame_features(path)
    path.write_text("frame,variant,f0\n0,0,1,2\n")
    with pytest.raises(ValueError, match="fields"):
        load_frame_features(path)
    path.write_text("frame,variant,f0\n0,0,1\n1,0,1\n1,1,1\n")
    with pytest.raises(ValueError, match="non-rectangular"):
        load_frame_features(path)
    path.write_text("frame,variant,f0\n0,0,1\n0,0,2\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_frame_features(path)
    path.write_text("a,b,f0\n0,0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_frame_features(path)


def test_frame_features_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(60)
    for shape in ((1, 1, 1), (7, 1, 5), (4, 3, 2)):
        values = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20))
        seq = FrameFeatureSequence("v", values)
        path = tmp_path / "rt.csv"
        write_frame_features(seq, path)
        loaded = load_frame_features(path, video_id="v")
        assert (loaded.frames == seq.frames).all()


def test_load_audio_features(tmp_path):
    path = tmp_path / "audio.csv"
    rng = np.random.default_rng(61)
    vec = rng.standard_normal(1582)
    write_audio_features(vec, path)
    loaded = load_audio_features(path)
    assert loaded.shape == (1582,)
    assert (loaded == vec).all()

    small = tmp_path / "small.csv"
    small.write_text("f0,f1,f2\n1.5,2.5,3.5\n")
    np.testing.assert_array_equal(load_audio_features(small), [1.5, 2.5, 3.5])

    two = tmp_path / "two.csv"
    two.write_text("f0\n1\n2\n")
    with pytest.raises(ValueError, match="exactly one"):
        load_audio_features(two)
    empty = tmp_path / "empty.csv"
    empty.write_text("f0\n")
    with pytest.raises(ValueError, match="exactly one"):
        load_audio_features(empty)


def test_sniff_stream_kind(tmp_path):
    frames = tmp_path / "frames.csv"
    write_frame_features(FrameFeatureSequence.from_matrix("v", np.zeros((1, 2))), frames)
    audio = tmp_path / "audio.csv"
    write_audio_features(np.zeros(3), audio)
    assert sniff_stream_kind(frames) == "frames"
    assert sniff_stream_kind(audio) == "audio"
    other = tmp_path / "other.csv"
    other.write_text("id,x0\n")
    with pytest.raises(ValueError, match="header"):
        sniff_stream_kind(other)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_descriptors, "id,x0,x1\nv1,1,2\nv2,3,4\nv1,5,6\n"),
        (read_scores, f"id,{','.join(EMOTION_NAMES)}\nv1{',0' * 7}\nv1{',1' * 7}\n"),
        (read_predictions, "id,label\nv1,Happy\nv2,Sad\n\nv1,Fear\n"),
    ],
)
def test_id_files_reject_duplicate_ids(tmp_path, reader, text):
    path = tmp_path / "dup.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"line \d+: duplicate id 'v1'"):
        reader(path)


def test_descriptor_header_names_and_blank_lines(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text("id,a,b\nv1,1,2\n")
    with pytest.raises(ValueError, match="header id,x0"):
        read_descriptors(path)
    path.write_text("id,x0,x1\nv1,1,2\n\nv2,3,4\n\n")
    ids, matrix = read_descriptors(path)
    assert ids == ("v1", "v2")
    assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_non_finite_constants_rejected(tmp_path, constant):
    doc = tmp_path / "doc.json"
    doc.write_text(f'{{"svm": {{"C": {constant}}}}}')
    with pytest.raises(ValueError, match=re.escape(f"{doc}: invalid JSON ('{constant}' ")):
        ingest.read_json(doc)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(manifest_line("v1")[:-1] + f', "score": {constant}}}\n')
    with pytest.raises(ValueError, match=re.escape(f"{manifest}: line 1: invalid JSON")):
        load_manifest(manifest)
    with pytest.raises(ValueError):
        ingest.write_json({"C": float(constant)}, doc)


def test_json_written_on_one_line_with_shortest_floats(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"a": [0.1, 1.0, -0.0, 5e-324, 2], "b": {"c": None, "d": True, "e": "x\ny"}}
    ingest.write_json(doc, path)
    text = path.read_text()
    assert text == '{"a": [0.1, 1.0, -0.0, 5e-324, 2], "b": {"c": null, "d": true, "e": "x\\ny"}}\n'
    assert ingest.read_json(path) == doc


# --- write-then-read and config round trips, property-based ---------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
# the float64 extremes next to zero and at the top of the range, signed
model_floats = finite | st.sampled_from(
    [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
# the standardizer's reach: a fit on rootsift output, in [-1, 1], gives
# means there and stds up to 2 (twice the magnitude of these)
unit_floats = st.floats(min_value=-1.0, max_value=1.0) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]
)
positive = st.floats(min_value=1e-300, max_value=1e300)


def matrices(*shape):
    return arrays(np.float64, st.tuples(*shape), elements=finite)


video_ids = st.lists(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=6),
    min_size=1, max_size=6, unique=True,
)

aggregation_configs = st.builds(
    AggregationConfig,
    st.lists(st.sampled_from(AGGREGATOR_NAMES), min_size=1, unique=True).map(tuple),
)
svm_configs = st.builds(
    SvmTrainConfig, positive, positive, st.integers(1, 10**6), st.integers(0, 2**63 - 1)
)
pipeline_configs = st.builds(
    PipelineConfig,
    st.dictionaries(st.text(min_size=1, max_size=5), aggregation_configs, min_size=1, max_size=3),
    svm_configs,
    st.builds(CvConfig, st.lists(positive, min_size=1, max_size=8).map(tuple), st.integers(2, 10)),
)
synth_configs = st.integers(1, 50).flatmap(
    lambda lo: st.builds(
        SynthConfig,
        dim=st.integers(1, 64),
        frames_range=st.tuples(st.just(lo), st.integers(lo, 60)),
        variants=st.integers(1, 4),
        class_separation=st.floats(0, 1e6),
        within_video_sigma=st.floats(0, 1e6),
        frame_sigma=st.floats(0, 1e6),
        counts=st.dictionaries(
            st.sampled_from(SPLITS),
            st.integers(0, 20) | st.tuples(*[st.integers(0, 20)] * 7),
        ),
        seed=st.integers(0, 2**63 - 1),
    )
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow],
    # a failure is reported unshrunk: shrinking these draws took minutes and ~480 MB
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(
    frames=matrices(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
    vector=matrices(st.integers(1, 5)),
    ids=video_ids,
    data=st.data(),
    configs=st.tuples(pipeline_configs, svm_configs, synth_configs),
)
def test_formats_and_configs_round_trip_exactly(frames, vector, ids, data, configs):
    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    n = len(ids)
    descriptors = data.draw(matrices(st.just(n), st.integers(1, 4)))
    scores = data.draw(matrices(st.just(n), st.just(7)))
    labels = data.draw(st.lists(st.sampled_from(list(EmotionLabel)), min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"

        write_frame_features(FrameFeatureSequence("v", frames), path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *data.draw(st.permutations(rows))]) + "\n")
        assert same_bits(load_frame_features(path).frames, frames)

        write_audio_features(vector, path)
        assert same_bits(load_audio_features(path), vector)

        write_descriptors(ids, descriptors, path)
        got_ids, got = read_descriptors(path)
        assert got_ids == tuple(ids) and same_bits(got, descriptors)

        write_scores(ScoreMatrix(tuple(ids), scores), path)
        got = read_scores(path)
        assert got.video_ids == tuple(ids) and same_bits(got.scores, scores)

        write_predictions(ids, labels, path)
        assert read_predictions(path) == (tuple(ids), labels)

        svm_config = configs[1]
        dim = data.draw(st.integers(1, 4))
        params = data.draw(arrays(np.float64, (2, dim), elements=model_floats))
        moments = data.draw(arrays(np.float64, (2, dim), elements=unit_floats))
        weights = data.draw(arrays(np.float64, (7, dim + 1), elements=model_floats))
        model = LinearSvmModel(weights, svm_config, NormalizationParams(
            RangeScalerParams(params.min(axis=0), params.max(axis=0)),
            StandardizerParams(moments[0], 2 * np.abs(moments[1])),
        ))
        saved, resaved = Path(tmp) / "model.json", Path(tmp) / "again.json"
        save_model(model, saved)
        loaded, norm = load_model(saved), model.normalization
        assert loaded.config == svm_config
        assert same_bits(loaded.weights, model.weights)
        for name in ("mins", "maxs"):
            assert same_bits(getattr(loaded.normalization.range_scaler, name),
                             getattr(norm.range_scaler, name))
        for name in ("means", "stds"):
            assert same_bits(getattr(loaded.normalization.standardizer, name),
                             getattr(norm.standardizer, name))
        save_model(loaded, resaved)
        assert resaved.read_bytes() == saved.read_bytes()

    for config in configs:
        doc = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(type(config), doc) == config


# --- the row writer and reader against their references -------------------------

special_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, 1e16, -1e-300,
])
any_floats = st.floats() | special_floats
# ids that csv.writer must quote (",", '"', newlines) or leaves bare, the empty one included
awkward_ids = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "7", "é"]), max_size=5)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(awkward_ids, max_size=3).map(tuple),
            st.lists(any_floats, max_size=6).map(lambda v: np.array(v, dtype=np.float64)),
        ),
        max_size=4,
    ),
    header=st.lists(awkward_ids, max_size=4).map(tuple),
)
def test_row_writer_bytes_equal_reference(rows, header):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        ingest._write_rows(got, header, rows)
        reference_write_rows(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    frames=matrices(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3)),
    vector=arrays(np.float64, st.integers(1, 5), elements=any_floats),
    ids=st.lists(awkward_ids, min_size=1, max_size=5, unique=True),
    data=st.data(),
)
def test_every_table_writer_bytes_equal_reference(frames, vector, ids, data):
    n = len(ids)
    descriptors = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 4))),
                                   elements=any_floats))
    scores = data.draw(matrices(st.just(n), st.just(7)))
    labels = data.draw(st.lists(st.sampled_from(list(EmotionLabel)), min_size=n, max_size=n))
    writes = [
        lambda path: write_frame_features(FrameFeatureSequence("v", frames), path),
        lambda path: write_audio_features(vector, path),
        lambda path: write_descriptors(ids, descriptors, path),
        lambda path: write_scores(ScoreMatrix(tuple(ids), scores), path),
        lambda path: write_predictions(ids, labels, path),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        for write in writes:
            write(got)
            with mock.patch.object(ingest, "_write_rows", reference_write_rows):
                write(want)
            assert got.read_bytes() == want.read_bytes()


def expected_cell_error(cell):
    """None when the reader must accept cell, else the end of its message:
    a cell is accepted exactly when numpy parses it to a finite float."""
    try:
        value = np.array([cell], dtype=np.float64)[0]
    except ValueError:
        return "non-numeric value"
    return None if np.isfinite(value) else "non-finite value"


LISTED_CELLS = [" 1.5", "1_0", "١", '"1.5"', "", " ", "0x10", "1d5", "nan", "1e400",
                "-Infinity", "1__0", "１.5", "1.5e-3 ", "+.5", ".", " 1"]


def check_reader_parity(path, raw_cell):
    """Read a descriptor file whose line 4 holds raw_cell (CSV text) and
    compare with numpy's verdict on the cell as csv reads it."""
    path.write_text(f"id,x0,x1\nv0,1,2\n\nv1,0,{raw_cell}\n", encoding="utf-8")
    cell = next(csv.reader([raw_cell]), None) or ""  # csv reads "" as an empty row
    error = expected_cell_error(cell)
    if error is None:
        _, matrix = read_descriptors(path)
        assert matrix[1, 1].tobytes() == np.array([cell], dtype=np.float64).tobytes()
    else:
        with pytest.raises(ValueError) as info:
            read_descriptors(path)
        assert str(info.value) == f"{path}: line 4: {error}"


@pytest.mark.parametrize("raw_cell", LISTED_CELLS)
def test_reader_accepts_exactly_what_numpy_parses(tmp_path, raw_cell):
    check_reader_parity(tmp_path / "d.csv", raw_cell)
    # inline class counts go through the same cell check, without csv quoting
    text = f"{raw_cell},1,1,1,1,1,1"
    error = expected_cell_error(raw_cell)
    if error is None:
        assert parse_counts(text)[0] == np.float64(raw_cell)
    else:
        with pytest.raises(ValueError) as info:
            parse_counts(text)
        assert str(info.value) == f"{text!r}: {error}"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=st.text(st.sampled_from("0123456789.eE+-_ xnaifINF١１d\""), max_size=8)
       | st.floats().map(repr))
def test_reader_parity_property(tmp_path, cell):
    # written by csv.writer, so the file always holds exactly this cell
    text = io.StringIO()
    csv.writer(text, lineterminator="").writerow([cell])
    check_reader_parity(tmp_path / "d.csv", text.getvalue())


@pytest.mark.parametrize("header", ['id,"x0,x1"', "id,x0,", "id", "", "ID,x0", "id,x1,x0"])
def test_numbered_header_rejects_near_misses(tmp_path, header):
    path = tmp_path / "d.csv"
    path.write_text(f"{header}\nv,1,2\n")
    with pytest.raises(ValueError, match=r"expected header id,x0,\.\.\.$"):
        read_descriptors(path)


def outcome(read, path):
    """What a reader gives for a file: ("ok", result) or ("error", message)."""
    try:
        return "ok", repr(read(path))
    except ValueError as exc:
        return "error", str(exc)


# row-level faults a reader or its caller must report, each on its own line
frame_lines = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(-9, 9), st.integers(-9, 9))
    .map(lambda r: ",".join(map(str, r))),
    st.sampled_from(["", "x,0,1,2", "0,0,1", "0,0,1,2,3", "1,1,nan,2", "2,0,1,inf",
                     "3,1,a,2", "0,0,1e400,1", "1,1,1_0,2"]),
)
id_lines = st.one_of(
    st.tuples(st.sampled_from("abcdef"), st.integers(-9, 9)).map(lambda r: f"{r[0]},{r[1]},1"),
    st.sampled_from(["", "g,1", "h,1,2,3", "i,nan,1", "j,1,-inf", "k,z,1"]),
)


@settings(max_examples=200, deadline=None)
@given(frame_rows=st.lists(frame_lines, max_size=12), id_rows=st.lists(id_lines, max_size=12))
def test_reader_raises_what_the_reference_reader_raises(frame_rows, id_rows):
    with tempfile.TemporaryDirectory() as tmp:
        frames, descriptors = Path(tmp) / "frames.csv", Path(tmp) / "desc.csv"
        frames.write_text("\n".join(["frame,variant,f0,f1", *frame_rows]) + "\n")
        descriptors.write_text("\n".join(["id,x0,x1", *id_rows]) + "\n")
        for read, path in ((load_frame_features, frames), (read_descriptors, descriptors)):
            got = outcome(read, path)
            with mock.patch.object(ingest, "_read_table", reference_read_table):
                want = outcome(read, path)
            assert got == want


# --- filtered reads and the fast path --------------------------------------------

plain_ids = st.text(st.sampled_from("abc7_-. "), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(plain_ids, min_size=1, max_size=6, unique=True),
    data=st.data(),
)
def test_filtered_read_equals_full_read_then_selection(ids, data):
    matrix = data.draw(matrices(st.just(len(ids)), st.integers(1, 4)))
    keep = data.draw(st.sets(st.sampled_from(ids) | plain_ids))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "desc.csv"
        write_descriptors(ids, matrix, path)
        all_ids, full = read_descriptors(path)
        got_ids, got = read_descriptors(path, keep)
    picked = [i for i, vid in enumerate(all_ids) if vid in keep]
    assert got_ids == tuple(all_ids[i] for i in picked)
    assert got.tobytes() == full[picked].tobytes() and len(got) == len(picked)


def test_filtered_read_checks_every_row_but_parses_only_kept_ones(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text("id,x0,x1\na,1,2\nb,nan,2\n\nc,3,zz\n")
    ids, matrix = read_descriptors(path, {"a"})
    assert ids == ("a",) and matrix.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError, match=r"line 3: non-finite value"):
        read_descriptors(path, {"b", "c"})
    with pytest.raises(ValueError, match=r"line 5: non-numeric value"):
        read_descriptors(path, {"c"})
    for text, error in (("id,x0,x1\na,1,2\nb,1\nc,3,4\n", "line 3: 2 fields, expected 3"),
                        ("id,x0,x1\na,1,2\nb,1,2\na,3,4\n", "line 4: duplicate id 'a'"),
                        ('id,x0,x1\na,1,2\n"b",zz,2\nb,3,4\n', "line 4: duplicate id 'b'")):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
            read_descriptors(path, {"c"})
    path.write_text("id,x0,x1\n\n")
    with pytest.raises(ValueError, match="no descriptor rows"):
        read_descriptors(path, {"a"})


@settings(max_examples=200, deadline=None)
@given(id_rows=st.lists(id_lines, max_size=12), keep=st.sets(st.sampled_from("abcdefghijk")))
def test_filtered_reader_raises_what_the_reference_reader_raises(id_rows, keep):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "desc.csv"
        path.write_text("\n".join(["id,x0,x1", *id_rows]) + "\n")
        got = outcome(lambda p: read_descriptors(p, keep), path)
        with mock.patch.object(ingest, "_read_table", reference_read_table):
            want = outcome(lambda p: read_descriptors(p, keep), path)
        assert got == want


def test_writer_files_are_read_without_the_csv_reader(tmp_path):
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
    matrix = np.vstack([rng.standard_normal((3, 6)) * 1e-5, special])
    ids = ["v1", "v_2", "v 3", "é4"]
    frames = np.stack([matrix, -matrix], axis=1)  # (4 frames, 2 variants, 6)
    path = tmp_path / "t.csv"
    with mock.patch.object(ingest, "_csv_rows", side_effect=AssertionError("csv reader")):
        write_descriptors(ids, matrix, path)
        got_ids, got = read_descriptors(path)
        assert got_ids == tuple(ids) and got.tobytes() == matrix.tobytes()
        got_ids, got = read_descriptors(path, {"v_2", "é4", "other"})
        assert got_ids == ("v_2", "é4") and got.tobytes() == matrix[[1, 3]].tobytes()
        write_frame_features(FrameFeatureSequence("v", frames), path)
        assert load_frame_features(path).frames.tobytes() == frames.tobytes()
        write_audio_features(matrix[3], path)
        assert load_audio_features(path).tobytes() == matrix[3].tobytes()
        write_scores(ScoreMatrix(tuple(ids), matrix[:, :1].repeat(7, axis=1)), path)
        assert read_scores(path).scores.tobytes() == matrix[:, :1].repeat(7, axis=1).tobytes()
        write_predictions(ids, [EmotionLabel(0)] * 4, path)
        assert read_predictions(path) == (tuple(ids), [EmotionLabel(0)] * 4)


@pytest.mark.parametrize("text, ids, rows", [
    ('id,x0,x1\n"a,b",1,2\nc,3,4\n', ("a,b", "c"), [[1, 2], [3, 4]]),  # a quoted id
    ('"id",x0,x1\na,1,2\n', ("a",), [[1, 2]]),  # a quoted header name
    ("id,x0,x1\na,1,2\nb,1_0,4\n", ("a", "b"), [[1, 2], [10, 4]]),  # float() reads it, loadtxt not
    ("id,x0,x1\na,1,2\nb,１.5,4\n", ("a", "b"), [[1, 2], [1.5, 4]]),
])
def test_cells_loadtxt_refuses_read_through_the_csv_reader(tmp_path, text, ids, rows):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(ingest, "_csv_rows", wraps=ingest._csv_rows) as csv_rows:
        got_ids, matrix = read_descriptors(path)
    assert csv_rows.call_count == 1
    assert got_ids == ids and matrix.tolist() == rows


@pytest.mark.parametrize("read, text, error", [
    (load_frame_features, "frame,variant,f0\nx,0,1\n0,0,nan\n",
     "line 2: frame and variant must be integers"),
    (load_frame_features, "frame,variant,f0\n0,0,1\n0,0,2\n1,0,1,2\n",
     "line 3: duplicate (frame, variant) = (0, 0)"),
    (read_predictions, "id,label\na,Joy\na,Happy\n", "line 2: unknown emotion label: 'Joy'"),
])
def test_a_reader_checks_its_own_cells_before_a_later_bad_row(tmp_path, read, text, error):
    """The reader's table stops at the first bad row; a reader checks its
    own cells on the rows before it first, so the error is the first in
    file order."""
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
        read(path)


@pytest.mark.parametrize("read, text", [
    (read_descriptors, "id,x0\n"),
    (lambda path: read_descriptors(path, {"a"}), "id,x0\n\n\n"),
    (lambda path: read_descriptors(path, set()), "id,x0\na,1\n"),
    (read_descriptors, "id,x0\na,\n"),
    (read_predictions, "id,label\n"),
    (load_audio_features, "f0\n"),
])
def test_reader_never_hands_loadtxt_an_empty_input(tmp_path, read, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome(read, path)


def test_a_cell_over_the_csv_field_limit_is_a_value_error(tmp_path):
    path = tmp_path / "d.csv"
    long_id = "a" * (csv.field_size_limit() + 8)
    path.write_text(f'id,x0\nb,2\n"{long_id}",1\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: field larger than field limit")):
        read_descriptors(path)


@pytest.mark.parametrize("row", [
    "a" * 140000 + ",1",  # a long plain id
    "b," + "0" * 140000,  # a long float cell, which np.loadtxt reads as 0.0
], ids=["id", "float"])
def test_a_long_plain_cell_fails_whatever_the_other_lines_hold(tmp_path, row):
    path = tmp_path / "d.csv"
    path.write_text(f"id,x0\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: field larger than field limit")):
        read_descriptors(path)


def test_lines_over_the_field_limit_with_short_cells_take_the_fast_path(tmp_path):
    matrix = np.random.default_rng(5).standard_normal((2, 8000))
    path = tmp_path / "d.csv"
    write_descriptors(["a", "b"], matrix, path)
    assert min(map(len, path.read_text().splitlines()[1:])) > csv.field_size_limit()
    with mock.patch.object(ingest, "_csv_rows", side_effect=AssertionError("csv reader")):
        ids, got = read_descriptors(path)
    assert ids == ("a", "b") and got.tobytes() == matrix.tobytes()
