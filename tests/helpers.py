"""Shared test fixtures: synthetic constructions used by several modules."""

import numpy as np

from emovid.normalize import (
    DEGENERATE_STD,
    NormalizationParams,
    StandardizerParams,
    fit_normalization,
    fit_range_scaler,
)


def margin_suite(n=200, d=10, seed=42, margin_low=1.0, margin_high=3.0):
    """Binary sample with margin >= margin_low around a known hyperplane.

    Each point's component along the true normal is replaced by
    y * u, u ~ Uniform(margin_low, margin_high), so y * (w_true . x) = u.
    Returns (X, y, w_true).
    """
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(d)
    w_true /= np.linalg.norm(w_true)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    points = rng.standard_normal((n, d))
    points -= np.outer(points @ w_true, w_true)
    u = rng.uniform(margin_low, margin_high, size=n)
    points += np.outer(y * u, w_true)
    return points, y, w_true


def cluster_labels_matrix(n_per_class, d, separation, sigma, seed):
    """Seven Gaussian clusters; returns (X, labels) with labels 0..6."""
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((7, d))
    centroids *= separation / np.linalg.norm(centroids, axis=1, keepdims=True)
    rows = []
    labels = []
    for c in range(7):
        rows.append(centroids[c] + sigma * rng.standard_normal((n_per_class, d)))
        labels.extend([c] * n_per_class)
    return np.vstack(rows), labels


def design_rows(X):
    """X with a constant-1 column appended: the rows train_binary solves."""
    X = np.asarray(X, dtype=np.float64)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def fitted_chain(d, seed=0):
    """A normalization chain fitted on 8 standard-normal rows of width d,
    for models whose weights a test builds by hand."""
    return fit_normalization(np.random.default_rng(seed).standard_normal((8, d)))


def reference_range_scaler(x, params):
    """The range-scaling stage as whole-array expressions, each making a
    new array: the formulas the in-place stage must match bit for bit."""
    arr = np.asarray(x, dtype=np.float64)
    mins, maxs = params.mins, params.maxs
    with np.errstate(over="ignore"):
        span = maxs - mins
    wide = span > np.finfo(np.float64).max / 2
    if wide.any():
        quarter = np.where(wide, 0.25, 1.0)
        arr, mins, maxs = arr * quarter, mins * quarter, maxs * quarter
        span = maxs - mins
    safe_span = np.where(span > 0, span, 1.0)
    with np.errstate(over="ignore"):
        scaled = 2.0 * (arr - mins) / safe_span - 1.0
    scaled = np.where(span > 0, scaled, 0.0)
    return np.clip(scaled, -1.0, 1.0)


def reference_rootsift(x):
    """rootsift as sign(x) * sqrt(|x| / ||x||_1) on new arrays, rows whose
    L1 norm overflows divided by their largest magnitude first."""
    arr = np.asarray(x, dtype=np.float64)
    vector_in = arr.ndim == 1
    rows = arr[None, :] if vector_in else arr
    with np.errstate(over="ignore"):
        l1 = np.abs(rows).sum(axis=1, keepdims=True)
    if np.isinf(l1).any():
        rows = rows / np.where(np.isinf(l1), np.abs(rows).max(axis=1, keepdims=True), 1.0)
        l1 = np.abs(rows).sum(axis=1, keepdims=True)
    safe_l1 = np.where(l1 > 0, l1, 1.0)
    out = np.sign(rows) * np.sqrt(np.abs(rows) / safe_l1)
    return out[0] if vector_in else out


def reference_standardizer(x, params):
    """(x - mean) / std per column on new arrays; degenerate columns 0."""
    degenerate = params.stds < DEGENERATE_STD
    safe_std = np.where(degenerate, 1.0, params.stds)
    out = (np.asarray(x, dtype=np.float64) - params.means) / safe_std
    return np.where(degenerate, 0.0, out)


def reference_fit_normalization(train):
    """fit_normalization on the reference stages, the standardizer fit as
    one whole-array mean and population std of their output."""
    range_scaler = fit_range_scaler(train)
    stage_2 = reference_rootsift(reference_range_scaler(train, range_scaler))
    return NormalizationParams(range_scaler,
                               StandardizerParams(stage_2.mean(axis=0), stage_2.std(axis=0)))


def reference_apply_normalization(x, params):
    """The whole chain on the reference stages."""
    scaled = reference_range_scaler(x, params.range_scaler)
    return reference_standardizer(reference_rootsift(scaled), params.standardizer)


def reference_write_rows(path, header, rows):
    """The per-cell CSV writer the ingest writers must match byte for byte:
    csv.writer over the text cells and every float formatted by %.17g."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for cells, values in rows:
            writer.writerow([*cells, *(format(float(x), ".17g") for x in values)])


def reference_read_rows(path, fixed, features, unique=False, keep=None):
    """The row-at-a-time CSV reader the ingest reader must match, errors
    included: each row is checked for width, numbers, finiteness and a
    duplicate id before it is yielded as (line number, fixed cells, values).
    With keep, a row whose first cell is not in keep skips the number and
    finiteness checks and is yielded with values None."""
    import csv
    from pathlib import Path

    path = Path(path)
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fp:
        reader = csv.reader(fp)
        header = tuple(next(reader, ()))
        if isinstance(features, str):
            count = max(1, len(header) - len(fixed))
            expected = fixed + tuple(f"{features}{j}" for j in range(count))
            shown = fixed + (f"{features}0", "...")
        else:
            expected = shown = fixed + features
        if header != expected:
            raise ValueError(f"{path}: expected header {','.join(shown)}")
        width, start = len(header), len(fixed)
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != width:
                raise ValueError(f"{where}: {len(row)} fields, expected {width}")
            values = None
            if keep is None or row[0] in keep:
                try:
                    values = np.array(row[start:], dtype=np.float64)
                except ValueError:
                    raise ValueError(f"{where}: non-numeric value") from None
                if not np.isfinite(values).all():
                    raise ValueError(f"{where}: non-finite value")
            if unique:
                if row[0] in seen:
                    raise ValueError(f"{where}: duplicate {fixed[0]} {row[0]!r}")
                seen.add(row[0])
            yield reader.line_num, row[:start], values



def reference_read_table(path, fixed, features, unique=False, keep=None):
    """reference_read_rows in the form ingest._read_table gives its rows:
    (rows, matrix, error), where rows holds (line number, fixed cells,
    wanted) for each row before the first error, matrix the values of the
    wanted ones, and error that ValueError or None."""
    rows, kept, error = [], [], None
    try:
        for lineno, cells, values in reference_read_rows(path, fixed, features, unique, keep):
            rows.append((lineno, cells, values is not None))
            if values is not None:
                kept.append(values)
    except ValueError as exc:
        error = exc
    return rows, np.stack(kept) if kept else np.empty((0, 0)), error