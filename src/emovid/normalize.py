"""The three-stage descriptor normalization chain, always all three.

Stage 1 rescales each column to [-1, 1] with min/max fit on the training
split (out-of-range values in other splits are clipped). Stage 2 applies
rootsift, sign(x) * sqrt(|x| / ||x||_1), over the whole vector. Stage 3
standardizes each column with mean/std fit on the training rootsift
output. Columns that are degenerate at fit time map to 0. Finite
descriptors map to finite values, whatever their magnitude.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import _frozen_array

# columns whose fitted std falls below this are treated as constant
DEGENERATE_STD = 1e-12
_HALF_MAX = np.finfo(np.float64).max / 2

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class RangeScalerParams:
    """Per-column (min, max) fit on training descriptors."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = _frozen_array(self.mins)
        maxs = _frozen_array(self.maxs)
        if mins.ndim != 1 or mins.shape != maxs.shape:
            raise ValueError("mins and maxs must be 1-D and of equal length")
        if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
            raise ValueError("non-finite range-scaler parameter")
        if (mins > maxs).any():
            raise ValueError("per-column min must not exceed max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def dim(self) -> int:
        return self.mins.size


@dataclass(frozen=True, eq=False)
class StandardizerParams:
    """Per-column (mean, population std) fit on training vectors."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = _frozen_array(self.means)
        stds = _frozen_array(self.stds)
        if means.ndim != 1 or means.shape != stds.shape:
            raise ValueError("means and stds must be 1-D and of equal length")
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise ValueError("non-finite standardizer parameter")
        if (stds < 0).any():
            raise ValueError("per-column std must be nonnegative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @property
    def dim(self) -> int:
        return self.means.size


@dataclass(frozen=True)
class NormalizationParams:
    """The fitted chain: the range scaler, rootsift (which has no
    parameters), then the standardizer."""

    range_scaler: RangeScalerParams
    standardizer: StandardizerParams


def _as_array(x, ndims) -> np.ndarray:
    """x as a float64 array: a descriptor vector or an (N, D) matrix of
    descriptors, whichever ndims allows."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in ndims:
        allowed = " or ".join(map(str, ndims))
        raise ValueError(f"expected an array of ndim {allowed}, got ndim={arr.ndim}")
    return arr


def fit_range_scaler(train) -> RangeScalerParams:
    """Column-wise min/max over the training descriptors."""
    matrix = _as_array(train, (2,))
    if matrix.shape[0] < 1:
        raise ValueError("cannot fit a range scaler on an empty training set")
    return RangeScalerParams(matrix.min(axis=0), matrix.max(axis=0))


def apply_range_scaler(x, params: RangeScalerParams) -> np.ndarray:
    """Map each column affinely onto [-1, 1] and clip; degenerate columns
    (min == max at fit time) map to 0."""
    arr = _as_array(x, (1, 2))
    if arr.shape[-1] != params.dim:
        raise ValueError(f"dimension mismatch: x has {arr.shape[-1]}, params have {params.dim}")
    mins, maxs = params.mins, params.maxs
    with np.errstate(over="ignore"):  # an infinite span is a wide one, below
        span = maxs - mins
    wide = span > _HALF_MAX  # 2 * (x - min) can pass the float64 maximum
    if wide.any():
        # the same map on values divided by 4, exactly: the span of a column
        # from -1e308 to 1e308 and 2 * (x - min) stay finite
        quarter = np.where(wide, 0.25, 1.0)
        arr, mins, maxs = arr * quarter, mins * quarter, maxs * quarter
        span = maxs - mins
    safe_span = np.where(span > 0, span, 1.0)
    with np.errstate(over="ignore"):  # far outside a narrow column: +-inf, clipped to +-1
        scaled = 2.0 * (arr - mins) / safe_span - 1.0
    scaled = np.where(span > 0, scaled, 0.0)
    return np.clip(scaled, -1.0, 1.0)


def rootsift(x) -> np.ndarray:
    """Signed square-root L1 renormalization.

    y_i = sign(x_i) * sqrt(|x_i| / sum_j |x_j|). The output of a nonzero
    vector has unit L2 norm; the zero vector maps to itself. Matrices are
    transformed row-wise.
    """
    arr = _as_array(x, (1, 2))
    vector_in = arr.ndim == 1
    rows = arr[None, :] if vector_in else arr
    with np.errstate(over="ignore"):  # an infinite norm is shrunk below
        l1 = np.abs(rows).sum(axis=1, keepdims=True)
    if np.isinf(l1).any():  # the map is scale-invariant: shrink the rows whose L1 norm overflows
        rows = rows / np.where(np.isinf(l1), np.abs(rows).max(axis=1, keepdims=True), 1.0)
        l1 = np.abs(rows).sum(axis=1, keepdims=True)
    safe_l1 = np.where(l1 > 0, l1, 1.0)
    out = np.sign(rows) * np.sqrt(np.abs(rows) / safe_l1)
    return out[0] if vector_in else out


def fit_standardizer(train) -> StandardizerParams:
    """Per-column mean and population std over the training vectors."""
    matrix = _as_array(train, (2,))
    if matrix.shape[0] < 1:
        raise ValueError("cannot fit a standardizer on an empty training set")
    return StandardizerParams(matrix.mean(axis=0), matrix.std(axis=0))


def apply_standardizer(x, params: StandardizerParams) -> np.ndarray:
    """Center and scale each column; degenerate columns map to 0."""
    arr = _as_array(x, (1, 2))
    if arr.shape[-1] != params.dim:
        raise ValueError(f"dimension mismatch: x has {arr.shape[-1]}, params have {params.dim}")
    degenerate = params.stds < DEGENERATE_STD
    safe_std = np.where(degenerate, 1.0, params.stds)
    out = (arr - params.means) / safe_std
    return np.where(degenerate, 0.0, out)


def fit_normalization(train) -> NormalizationParams:
    """Fit the chain on the training set only.

    The standardizer is fit on the training data after range scaling and
    rootsift, i.e. on what it will actually see at apply time. Columns
    whose fitted std is below DEGENERATE_STD are logged as one warning.
    """
    range_scaler = fit_range_scaler(train)
    standardizer = fit_standardizer(rootsift(apply_range_scaler(train, range_scaler)))
    degenerate = int((standardizer.stds < DEGENERATE_STD).sum())
    if degenerate:
        log.warning("%d of %d columns have a fitted std below %g and standardize to 0",
                    degenerate, standardizer.dim, DEGENERATE_STD)
    return NormalizationParams(range_scaler, standardizer)


def apply_normalization(x, params: NormalizationParams) -> np.ndarray:
    """Apply the fitted chain to a vector or matrix of descriptors."""
    scaled = apply_range_scaler(x, params.range_scaler)
    return apply_standardizer(rootsift(scaled), params.standardizer)
