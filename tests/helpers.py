"""Shared test fixtures: synthetic constructions used by several modules."""

import numpy as np

from emovid.normalize import fit_normalization


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


def fitted_chain(d, seed=0):
    """A normalization chain fitted on 8 standard-normal rows of width d,
    for models whose weights a test builds by hand."""
    return fit_normalization(np.random.default_rng(seed).standard_normal((8, d)))


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
