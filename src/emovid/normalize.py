"""The three-stage descriptor normalization chain, always all three.

Stage 1 rescales each column to [-1, 1] with min/max fit on the training
split (out-of-range values in other splits are clipped). Stage 2 applies
rootsift, sign(x) * sqrt(|x| / ||x||_1), over the whole vector. Stage 3
standardizes each column with mean/std fit on the training rootsift
output. Columns that are degenerate at fit time map to 0. Finite
descriptors map to finite values, whatever their magnitude.

The chain works in one float64 buffer: apply_normalization and
fit_normalization range-scale into it (out=) and rootsift and standardize
it in place, so each holds one copy of the rows it maps. The fit takes
the std over blocks of columns, so it holds no second copy either, and
its buffer ends up holding the chain's output of its training rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import _frozen_array

# columns whose fitted std falls below this are treated as constant
DEGENERATE_STD = 1e-12
# fit_normalization takes the std over blocks of this many columns, so that
# numpy's var holds an (n, 64) temporary, not a copy of the whole buffer; at
# 773 x 12288 the blocks take about the time of one whole-matrix np.std,
# and narrower ones take longer
_STD_BLOCK = 64
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


def _check_dim(arr: np.ndarray, dim: int) -> None:
    if arr.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: x has {arr.shape[-1]}, params have {dim}")


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
    _check_dim(arr, params.dim)
    out = np.empty(arr.shape)
    _range_scale(arr, params, out)
    return out


def _range_scale(arr: np.ndarray, params: RangeScalerParams, out: np.ndarray) -> None:
    """apply_range_scaler(arr, params), written into out."""
    mins, maxs = params.mins, params.maxs
    with np.errstate(over="ignore"):  # an infinite span is a wide one, below
        span = maxs - mins
    wide = span > _HALF_MAX  # 2 * (x - min) can pass the float64 maximum
    if wide.any():
        # the same map on values divided by 4, exactly: the span of a column
        # from -1e308 to 1e308 and 2 * (x - min) stay finite
        quarter = np.where(wide, 0.25, 1.0)
        arr = np.multiply(arr, quarter, out=out)
        mins, maxs = mins * quarter, maxs * quarter
        span = maxs - mins
    with np.errstate(over="ignore"):  # far outside a narrow column: +-inf, clipped to +-1
        np.subtract(arr, mins, out=out)
        out *= 2.0
        out /= np.where(span > 0, span, 1.0)
        out -= 1.0
    np.copyto(out, 0.0, where=span <= 0)
    np.clip(out, -1.0, 1.0, out=out)


def rootsift(x) -> np.ndarray:
    """Signed square-root L1 renormalization.

    y_i = sign(x_i) * sqrt(|x_i| / sum_j |x_j|). The output of a nonzero
    vector has unit L2 norm; the zero vector maps to itself. Matrices are
    transformed row-wise.
    """
    out = np.array(_as_array(x, (1, 2)))
    _rootsift(out)
    return out


def _rootsift(buf: np.ndarray) -> None:
    """rootsift(buf), in place: |x| is worked on in buf and its sign put
    back last, so only one byte per value is extra."""
    sign = np.less(buf, 0).view(np.int8)  # np.sign(-0.0) is 0.0, so -0.0 maps to +0.0
    sign *= -2
    sign += 1  # -1 where x < 0, else 1
    rows = np.abs(buf, out=buf)
    if rows.ndim == 1:
        rows = rows[None, :]
    with np.errstate(over="ignore"):  # an infinite norm is shrunk below
        l1 = rows.sum(axis=1, keepdims=True)
    if np.isinf(l1).any():  # the map is scale-invariant: shrink the rows whose L1 norm overflows
        rows /= np.where(np.isinf(l1), rows.max(axis=1, keepdims=True), 1.0)
        np.copyto(sign, 1, where=buf == 0)  # a value shrunk to -0.0 has sign 0, as above
        l1 = rows.sum(axis=1, keepdims=True)
    rows /= np.where(l1 > 0, l1, 1.0)
    np.sqrt(buf, out=buf)
    buf *= sign


def fit_standardizer(train) -> StandardizerParams:
    """Per-column mean and population std over the training vectors."""
    matrix = _as_array(train, (2,))
    if matrix.shape[0] < 1:
        raise ValueError("cannot fit a standardizer on an empty training set")
    return StandardizerParams(matrix.mean(axis=0), matrix.std(axis=0))


def apply_standardizer(x, params: StandardizerParams) -> np.ndarray:
    """Center and scale each column; degenerate columns map to 0."""
    out = np.array(_as_array(x, (1, 2)))
    _check_dim(out, params.dim)
    _standardize(out, params)
    return out


def _standardize(buf: np.ndarray, params: StandardizerParams) -> None:
    """apply_standardizer(buf, params), in place."""
    degenerate = params.stds < DEGENERATE_STD
    buf -= params.means
    buf /= np.where(degenerate, 1.0, params.stds)
    np.copyto(buf, 0.0, where=degenerate)


def _column_stds(matrix: np.ndarray) -> np.ndarray:
    """matrix.std(axis=0), bit for bit, taken over blocks of _STD_BLOCK
    columns. No block is 1 wide unless the matrix is: numpy sums one
    column pairwise, but the columns of a wider block row by row, as it
    sums those of the whole matrix."""
    d = matrix.shape[1]
    starts = list(range(0, max(d - 1, 1), _STD_BLOCK))
    stds = np.empty(d)
    for start, end in zip(starts, starts[1:] + [d]):
        stds[start:end] = matrix[:, start:end].std(axis=0)
    return stds


def _out_buffer(arr: np.ndarray, out) -> np.ndarray:
    """out, checked to be float64 of arr's shape; a new array when None."""
    if out is None:
        return np.empty(arr.shape)
    if out.shape != arr.shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {arr.shape}, "
                         f"got {out.dtype} of shape {out.shape}")
    return out


def fit_normalization(train, out=None) -> NormalizationParams:
    """Fit the chain on the training set only.

    The standardizer is fit on the training data after range scaling and
    rootsift, i.e. on what it will actually see at apply time. Every stage
    works in out, a float64 array of train's shape (a new one when None;
    it may be train itself), which then holds the bits of
    apply_normalization(train, params). Columns whose fitted std is below
    DEGENERATE_STD are logged as one warning.
    """
    range_scaler = fit_range_scaler(train)
    matrix = _as_array(train, (2,))
    out = _out_buffer(matrix, out)
    _range_scale(matrix, range_scaler, out)
    _rootsift(out)
    standardizer = StandardizerParams(out.mean(axis=0), _column_stds(out))
    degenerate = int((standardizer.stds < DEGENERATE_STD).sum())
    if degenerate:
        log.warning("%d of %d columns have a fitted std below %g and standardize to 0",
                    degenerate, standardizer.dim, DEGENERATE_STD)
    _standardize(out, standardizer)
    return NormalizationParams(range_scaler, standardizer)


def apply_normalization(x, params: NormalizationParams, out=None) -> np.ndarray:
    """Apply the fitted chain to a vector or matrix of descriptors. Every
    stage works in out, a float64 array of x's shape (a new one when None),
    which is returned."""
    arr = _as_array(x, (1, 2))
    _check_dim(arr, params.range_scaler.dim)
    _check_dim(arr, params.standardizer.dim)
    out = _out_buffer(arr, out)
    _range_scale(arr, params.range_scaler, out)
    _rootsift(out)
    _standardize(out, params.standardizer)
    return out
