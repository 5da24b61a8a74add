"""Every file format emovid reads or writes, and the checks on reading.

Formats:
  manifest      line-delimited JSON objects with keys id, split, label
                (name or null) and streams (name -> relative path),
                each decoded by the config codec (util.config_from_dict)
  frame file    CSV header frame,variant,f0,...,f{d-1}; one row per
                (frame, variant); the grid must be rectangular
  audio file    CSV header f0,...,f{d-1} and exactly one data row
  descriptors   CSV header id,x0,...,x{D-1}; one row per video
  scores        CSV header id,Angry,...,Surprise; one row per video
  class counts  7 comma-separated numbers given inline (ensemble --counts)
  predictions   CSV header id,label with canonical label names
  JSON          one object per file (configs, models, reports)

Every CSV reader makes one call, _read_table: blank lines are skipped,
every row must match the header's width, float cells must be finite
numbers, and ids must be unique in descriptor, score and prediction
files. A reader given a set of ids to keep checks every row's width and
id but parses the floats of the kept rows only. Plain lines are split
with str operations and their floats tokenized by np.loadtxt; a file
with a quoted cell, a cell only float() reads (such as 1_0) or any fault
is read again by csv.reader, which stops at the first bad row. A reader
checks its own cells on the rows before that one, then raises its error,
so errors come in file order. The CSV writers format floats with %.17g
and the JSON writer with the shortest repr (the stdlib encoder's); both
round-trip every float64, so write-then-read reproduces every matrix
bit-exactly. NaN, Infinity and literals beyond float64 (1e400) are
rejected in JSON on both sides.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import (
    EMOTION_NAMES,
    NUM_CLASSES,
    SPLITS,
    EmotionLabel,
    FrameFeatureSequence,
    ScoreMatrix,
    label_from_name,
)
from .util import config_from_dict, config_to_dict


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str = field(metadata={"key": "id"})
    split: str
    label_name: str | None = field(metadata={"key": "label"})
    streams: dict[str, str]  # stream name -> path relative to Manifest.root

    def __post_init__(self):
        if not self.video_id:
            raise ValueError("id must be non-empty")
        if self.split not in SPLITS:
            raise ValueError(f"bad split {self.split!r}, expected one of {SPLITS}")
        if self.label_name is not None:
            label_from_name(self.label_name)  # raises on unknown names


@dataclass(frozen=True)
class Manifest:
    """Entries in file order, plus the directory paths resolve against."""

    entries: tuple
    root: Path

    def resolve(self, entry: ManifestEntry, stream: str) -> Path:
        """The path of entry's stream under root, checked to exist; an error
        names the video, the stream and the path."""
        if stream not in entry.streams:
            raise ValueError(f"video {entry.video_id!r} has no stream {stream!r}")
        path = self.root / entry.streams[stream]
        if not path.exists():
            raise ValueError(
                f"video {entry.video_id!r}: stream {stream!r} path {str(path)!r} does not exist"
            )
        return path

    def __len__(self) -> int:
        return len(self.entries)


# --- JSON -----------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """A finite float from a JSON number or constant; NaN, Infinity and 1e400 raise."""
    value = float(text)
    if not math.isfinite(value):  # not np.isfinite: this runs once per literal
        raise ValueError(f"{reprlib.repr(text)} is not a finite number")
    return value


def _json_object(text: str, where) -> dict:
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return doc


def read_json(path) -> dict:
    """Parse a file holding one JSON object (a config or a model)."""
    return _json_object(Path(path).read_text(encoding="utf-8"), path)


def write_json(doc, path) -> None:
    """Write a model or report as one line of JSON (stdlib encoder, floats
    as their shortest repr); a non-finite float is a ValueError."""
    Path(path).write_text(json.dumps(doc, allow_nan=False) + "\n", encoding="utf-8")


def load_manifest(path) -> Manifest:
    """Parse a manifest: the config codec decodes each line into a
    ManifestEntry, ids must be unique, and errors name the line. Stream
    paths are checked by Manifest.resolve, when a command reads them."""
    path = Path(path)
    entries = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            record = _json_object(line, where)
            try:
                entry = config_from_dict(ManifestEntry, record, "manifest")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if entry.video_id in entries:
                raise ValueError(f"{where}: duplicate video id {entry.video_id!r}")
            entries[entry.video_id] = entry
    return Manifest(tuple(entries.values()), path.parent)


def write_manifest(entries, path) -> None:
    """Write manifest entries as line-delimited JSON in the given order."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        for entry in entries:
            fp.write(json.dumps(config_to_dict(entry)) + "\n")


# --- CSV ------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _numbered_text(prefix: str, count: int) -> str:
    """The text p0,p1,...,p{count-1}, built once per (prefix, count); it
    takes a tenth of the memory of the names as a tuple."""
    return ",".join([f"{prefix}{j}" for j in range(count)])


def _numbered(prefix: str, count: int) -> tuple:
    return tuple(_numbered_text(prefix, count).split(","))


@functools.lru_cache(maxsize=16)
def _float_format(count: int) -> str:
    """The %-format of a row of count floats at 17 significant digits."""
    return ",".join(["%.17g"] * count)


def _row_values(row, width: int, start: int, where, parse: bool = True):
    """The float cells row[start:] of a row that must have width cells, or
    None when not parse; where() names the row in an error message."""
    if len(row) != width:
        raise ValueError(f"{where()}: {len(row)} fields, expected {width}")
    if not parse:
        return None
    try:
        values = np.array(row[start:], dtype=np.float64)
    except ValueError:
        raise ValueError(f"{where()}: non-numeric value") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{where()}: non-finite value")
    return values


def _layout(path, fixed, features, header) -> tuple:
    """(width, start): the cells in a row and the index of its first float
    cell, for a file whose header cells are header."""
    names = header[len(fixed):]
    if isinstance(features, str):
        # the expected text has count - 1 commas, so no name may hold one
        matches = ",".join(names) == _numbered_text(features, max(1, len(names)))
        shown = fixed + (f"{features}0", "...")
    else:
        matches = names == features
        shown = fixed + features
    if header[:len(fixed)] != fixed or not matches:
        raise ValueError(f"{path}: expected header {','.join(shown)}")
    return len(header), len(fixed)


def _read_table(path, fixed, features, unique: bool = False, keep=None):
    """(rows, matrix, error) for a CSV whose header is fixed + features,
    where features is a tuple of names or a prefix p standing for
    p0,...,p{d-1} with d >= 1.

    rows holds (line number, fixed cells, wanted) for each data row before
    the first bad one, matrix the float cells of the wanted rows, one row
    each, and error the bad row's ValueError (None if there is none): a
    caller checks its own cells on the rows before it, then raises it, so
    errors come in file order. Blank lines are skipped. Every row must have
    the header's width, and its cells after the fixed columns must be
    finite numbers; with unique, no two rows may share their first cell.
    With keep, a row whose first cell is not in keep is checked for width
    and duplicates only, and is not wanted.
    """
    return (_fast_rows(path, fixed, features, unique, keep)
            or _csv_rows(path, fixed, features, unique, keep))


class _Refused(ValueError):
    """A line _fast_rows leaves to _csv_rows."""


def _fast_rows(path, fixed, features, unique, keep):
    """_read_table's (rows, matrix, None), or None when the file is one to
    leave to _csv_rows: a line holds a quote, a NUL (csv.reader refuses it
    before Python 3.11) or a cell over csv.field_size_limit(), or a check
    fails.

    Lines are split with str operations, and the float cells of the rows
    wanted are streamed into one np.loadtxt, which accepts a subset of the
    cells np.array accepts and reads those to the same bits. It never
    raises a ValueError itself, so _csv_rows reports every error.
    """
    seen, rows = set(), []  # rows: (line number, fixed cells, wanted)
    limit = csv.field_size_limit()

    def float_text(lines, width, start):
        """Check each line and yield the float part of the wanted rows."""
        for lineno, line in lines:
            text = line.rstrip("\r\n")
            if not text:
                continue
            if '"' in text or "\0" in text or text.count(",") != width - 1:
                raise _Refused
            if len(text) > limit and max(map(len, text.split(","))) > limit:
                raise _Refused
            cells = text.split(",", start)
            if unique:
                if cells[0] in seen:
                    raise _Refused
                seen.add(cells[0])
            wanted = keep is None or cells[0] in keep
            rows.append((lineno, cells[:start], wanted))
            if wanted and start < width:
                if not cells[start]:  # loadtxt would skip an empty line
                    raise _Refused
                yield cells[start]

    with open(path, "r", encoding="utf-8", newline="") as fp:
        lines = enumerate(fp, start=1)
        try:
            # a quoted name matches nothing, so _csv_rows reads it
            header = tuple(next(lines, (1, ""))[1].rstrip("\r\n").split(","))
            width, start = _layout(path, fixed, features, header)
            texts = float_text(lines, width, start)
            first = next(texts, None)
            matrix = None if first is None else np.loadtxt(
                itertools.chain([first], texts), delimiter=",", comments=None,
                dtype=np.float64, ndmin=2)
        except ValueError:  # _Refused and UnicodeDecodeError included
            return None
    kept = sum(wanted for *_, wanted in rows)
    if matrix is None:  # no float cell to parse, and loadtxt warns on no lines
        matrix = np.empty((kept, width - start))
    if matrix.shape != (kept, width - start) or not np.isfinite(matrix).all():
        return None
    return rows, matrix, None


def _csv_rows(path, fixed, features, unique, keep):
    """_read_table through csv.reader, one row at a time: it reads quoted
    cells, and every cell float() reads (such as 1_0), and stops at the
    first bad row with an error that names its line."""
    path = Path(path)
    seen, rows, kept, error = set(), [], [], None
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)

        def where():
            return f"{path}: line {reader.line_num}"

        try:
            header = tuple(next(reader, ()))
            width, start = _layout(path, fixed, features, header)
            for row in reader:
                if not row:
                    continue
                wanted = keep is None or row[0] in keep
                values = _row_values(row, width, start, where, wanted)
                if unique:
                    if row[0] in seen:
                        raise ValueError(f"{where()}: duplicate {fixed[0]} {row[0]!r}")
                    seen.add(row[0])
                rows.append((reader.line_num, row[:start], wanted))
                if wanted:
                    kept.append(values)
        except csv.Error as exc:  # such as a cell over csv.field_size_limit()
            error = ValueError(f"{where()}: {exc}")
        except ValueError as exc:  # UnicodeDecodeError included
            error = exc
    return rows, np.stack(kept) if kept else np.empty((0, 0)), error


def _write_rows(path, header, rows) -> None:
    """Write a CSV: the header, then for each (cells, values) pair the
    text cells followed by the floats at 17 digits.

    Text cells are quoted by csv.writer as a whole row would be; the floats
    of a row are formatted by one %-format, never quoted.
    """
    quoted = []  # csv.writer writes each row with one write()
    cell_writer = csv.writer(SimpleNamespace(write=quoted.append), lineterminator="\n")
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for cells, values in rows:
            values = np.asarray(values, dtype=np.float64).tolist()
            if not values:
                writer.writerow(cells)
                continue
            line = _float_format(len(values)) % tuple(values)
            if cells:
                # "a,b,\n": the cells, quoted, and the separator before the floats
                cell_writer.writerow([*cells, ""])
                line = quoted.pop()[:-1] + line
            fp.write(line + "\n")


def _read_id_matrix(path, features, what: str, keep=None):
    """(ids, matrix) from a CSV of id + float columns with unique ids; with
    keep, of the rows whose id is in keep (a (0, 0) matrix if none is)."""
    rows, matrix, error = _read_table(path, ("id",), features, True, keep)
    if error is not None:
        raise error
    if not rows:
        raise ValueError(f"{path}: no {what} rows")
    ids = tuple(cells[0] for _, cells, wanted in rows if wanted)
    return ids, matrix if ids else np.empty((0, 0))


def load_frame_features(path, video_id: str | None = None) -> FrameFeatureSequence:
    """Read a (frame, variant) feature grid into a (T, V, d) sequence.

    Rows may appear in any order; frames and variants are sorted by index.
    Ragged rows, non-finite values, duplicate and missing (frame, variant)
    combinations are rejected.
    """
    path = Path(path)
    rows, matrix, error = _read_table(path, ("frame", "variant"), "f")
    row_of = {}  # (frame, variant) -> row of matrix
    for lineno, cells, _ in rows:
        try:
            index = (int(cells[0]), int(cells[1]))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: frame and variant must be integers"
            ) from None
        if index in row_of:
            raise ValueError(f"{path}: line {lineno}: duplicate (frame, variant) = {index}")
        row_of[index] = len(row_of)
    if error is not None:
        raise error
    if not row_of:
        raise ValueError(f"{path}: no feature rows")
    frame_ids = sorted({f for f, _ in row_of})
    variant_ids = sorted({v for _, v in row_of})
    if len(row_of) != len(frame_ids) * len(variant_ids):
        raise ValueError(
            f"{path}: non-rectangular grid: {len(row_of)} rows for "
            f"{len(frame_ids)} frames x {len(variant_ids)} variants"
        )
    # len(row_of) == frames x variants, so every (frame, variant) is present
    order = [row_of[(f, v)] for f in frame_ids for v in variant_ids]
    arr = matrix[order].reshape(len(frame_ids), len(variant_ids), matrix.shape[1])
    return FrameFeatureSequence(video_id or path.stem, arr)


def write_frame_features(seq: FrameFeatureSequence, path) -> None:
    """Write a sequence in the frame-feature CSV format (canonical indices)."""
    rows = ((index, seq.frames[index]) for index in np.ndindex(seq.frames.shape[:2]))
    _write_rows(path, ("frame", "variant") + _numbered("f", seq.dim), rows)


def load_audio_features(path) -> np.ndarray:
    """Read a single-row audio feature vector; the dimension is whatever
    the file carries (1582 for the usual audio stream, but unconstrained)."""
    rows, matrix, error = _read_table(path, (), "f")
    if error is not None:
        raise error
    if len(rows) != 1:
        raise ValueError(f"{path}: expected exactly one row, got {len(rows)}")
    return matrix[0]


def write_audio_features(vector, path) -> None:
    """Write a 1-D audio feature vector in the audio CSV format."""
    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("audio features must be a non-empty 1-D vector")
    _write_rows(path, _numbered("f", arr.size), [((), arr)])


def sniff_stream_kind(path) -> str:
    """Peek at a feature file's header: 'frames' or 'audio'."""
    with open(path, "r", encoding="utf-8", newline="") as fp:
        header = fp.readline().strip()
    if header.startswith("frame,variant,"):
        return "frames"
    if header.startswith("f0"):
        return "audio"
    raise ValueError(f"{path}: unrecognized feature file header")


def read_descriptors(path, keep=None):
    """Returns (video_ids, matrix) from a descriptor CSV; with keep, only
    the rows whose id is in keep, in file order. Every row is checked for
    its width and a duplicate id, but only the kept rows' floats are read."""
    return _read_id_matrix(path, "x", "descriptor", keep)


def write_descriptors(video_ids, matrix: np.ndarray, path) -> None:
    """CSV: id,x0,...,x{D-1}, one row per video, floats at 17 digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = (((vid,), row) for vid, row in zip(video_ids, matrix))
    _write_rows(path, ("id",) + _numbered("x", matrix.shape[1]), rows)


def read_scores(path) -> ScoreMatrix:
    return ScoreMatrix(*_read_id_matrix(path, EMOTION_NAMES, "score"))


def write_scores(scores: ScoreMatrix, path) -> None:
    """CSV: id,Angry,...,Surprise; one row per video, floats at 17 digits."""
    rows = (((vid,), row) for vid, row in zip(scores.video_ids, scores.scores))
    _write_rows(path, ("id",) + EMOTION_NAMES, rows)


def parse_counts(text: str) -> np.ndarray:
    """The 7 class counts given inline, e.g. "98,40,70,..."; each checked
    as a float cell of a CSV row is."""
    return _row_values(text.split(","), NUM_CLASSES, 0, lambda: repr(text))


def read_predictions(path):
    """Returns (video_ids, labels) from a predictions CSV."""
    rows, _, error = _read_table(path, ("id", "label"), (), unique=True)
    labels = []
    for lineno, cells, _ in rows:
        try:
            labels.append(label_from_name(cells[1]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if error is not None:
        raise error
    return tuple(cells[0] for _, cells, _ in rows), labels


def write_predictions(video_ids, labels, path) -> None:
    """CSV: id,label with canonical label names."""
    if len(video_ids) != len(labels):
        raise ValueError(f"{len(video_ids)} ids but {len(labels)} labels")
    rows = (((vid, EmotionLabel(label).display_name), ()) for vid, label in zip(video_ids, labels))
    _write_rows(path, ("id", "label"), rows)
