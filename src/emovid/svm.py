"""L2-regularized hinge-loss linear SVM, trained in the dual.

train_binary minimizes

    P(w) = 1/2 ||w||^2 + C * sum_i max(0, 1 - y_i w.x_i)

by coordinate descent on the L1-hinge dual

    max_a  sum_i a_i - 1/2 ||sum_i a_i y_i x_i||^2,  0 <= a_i <= C,

cycling coordinates in a freshly shuffled order each pass and shrinking
the set of coordinates it visits (Hsieh et al. 2008). Each update is the
exact single-variable minimizer clipped to the box, so the dual objective
never decreases. Multiclass is one-vs-rest; model selection is
stratified k-fold cross-validation over a grid of C values with the
normalization chain re-fit inside every fold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import EMOTION_NAMES, NUM_CLASSES, EmotionLabel, ScoreMatrix
from .normalize import (
    NormalizationConfig,
    NormalizationParams,
    RangeScalerParams,
    StandardizerParams,
    apply_normalization,
    fit_normalization,
)
from .ingest import read_json, write_json
from .util import config_from_dict, config_to_dict, decode_value

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = ("format_version", "config", "range_scaler", "standardizer", "weights", "label_order")

# coordinate updates below this projected-gradient magnitude are skipped
_UPDATE_EPS = 1e-12

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SvmTrainConfig:
    C: float = 1.0
    tolerance: float = 1e-4
    max_epochs: int = 1000
    seed: int = 0
    bias: bool = True  # realized as an appended constant-1 feature

    def __post_init__(self):
        if not 0 < self.C < math.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(frozen=True, eq=False)
class SolverInfo:
    """Diagnostics from one binary solve."""

    alpha: np.ndarray
    epochs: int  # gradient evaluations in full-pass units, rounded up
    converged: bool
    dual_objectives: tuple = ()


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    """One-vs-rest weight vectors plus the normalization that fed them."""

    weights: np.ndarray  # (7, D) or (7, D+1) with bias
    config: SvmTrainConfig
    norm_config: NormalizationConfig = NormalizationConfig()
    range_scaler: RangeScalerParams | None = None
    standardizer: StandardizerParams | None = None
    format_version: int = MODEL_FORMAT_VERSION

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != NUM_CLASSES:
            raise ValueError(f"weights must be ({NUM_CLASSES}, D), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite weight")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def normalization(self) -> NormalizationParams:
        return NormalizationParams(self.norm_config, self.range_scaler, self.standardizer)


def add_bias_column(X: np.ndarray) -> np.ndarray:
    """Append a constant-1 feature column."""
    X = np.asarray(X, dtype=np.float64)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def primal_objective(w: np.ndarray, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """1/2 ||w||^2 + C * sum of hinge losses on (X, y) as given."""
    margins = y * (X @ w)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(w @ w) + C * float(hinge)


def dual_objective(alpha: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """sum(alpha) - 1/2 ||sum_i alpha_i y_i x_i||^2 on (X, y) as given."""
    w = (alpha * y) @ X
    return float(alpha.sum()) - 0.5 * float(w @ w)


def _validate_binary_inputs(X, y):
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if X.shape[0] < 1:
        raise ValueError("need at least one training sample")
    if not np.isfinite(X).all():
        raise ValueError("non-finite value in X")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ValueError("labels must be +1 or -1")
    return X, y


def train_binary(
    X: np.ndarray,
    y: np.ndarray,
    cfg: SvmTrainConfig,
    debug: bool = False,
    full_output: bool = False,
):
    """Train one binary SVM; returns the weight vector.

    Each pass visits the active coordinates in a fresh order drawn from a
    generator seeded with cfg.seed. Passes shrink the active set (Hsieh et
    al. 2008): a coordinate at 0 whose gradient exceeds the previous pass's
    largest projected gradient, or at C below its smallest, is set aside.
    Once the active coordinates all meet cfg.tolerance every coordinate is
    restored, and the solve converges only after a full pass whose largest
    projected-gradient violation is below cfg.tolerance. Work is capped at
    cfg.max_epochs * n gradient evaluations; SolverInfo.epochs counts them in
    full-pass units, rounded up. With debug=True the dual objective is
    recomputed after every pass and checked to be non-decreasing with every
    alpha inside [0, C]. With full_output=True returns (w, SolverInfo).

    Both classes need not be present; an all-one-class problem is legal.
    """
    X, y = _validate_binary_inputs(X, y)
    if cfg.bias:
        X = add_bias_column(X)
    n = X.shape[0]
    C = float(cfg.C)

    # scalar bookkeeping in Python floats; rows stay numpy views for the dot
    rows = list(X)
    ys = y.tolist()
    sq_norms = np.einsum("ij,ij->i", X, X).tolist()
    alpha = [0.0] * n
    w = np.zeros(X.shape[1])
    rng = np.random.default_rng(cfg.seed)

    dual_prev = 0.0  # dual value at alpha = 0
    dual_trace = []
    converged = False
    budget = cfg.max_epochs * n
    evaluations = 0
    active = list(range(n))
    # shrinking thresholds from the previous pass; infinite shrinks nothing
    shrink_above, shrink_below = math.inf, -math.inf
    while evaluations < budget:
        order = [active[k] for k in rng.permutation(len(active)).tolist()]
        order = order[: budget - evaluations]
        evaluations += len(order)
        full_pass = len(order) == n
        kept = []
        pg_max, pg_min = -math.inf, math.inf
        for i in order:
            xi = rows[i]
            yi = ys[i]
            grad = yi * float(w.dot(xi)) - 1.0
            a = alpha[i]
            if a <= 0.0:
                if grad > shrink_above:
                    continue
                projected = min(grad, 0.0)
            elif a >= C:
                if grad < shrink_below:
                    continue
                projected = max(grad, 0.0)
            else:
                projected = grad
            kept.append(i)
            if projected > pg_max:
                pg_max = projected
            if projected < pg_min:
                pg_min = projected
            if abs(projected) > _UPDATE_EPS and sq_norms[i] > 0.0:
                new_a = min(max(a - grad / sq_norms[i], 0.0), C)
                delta = new_a - a
                if delta != 0.0:
                    w += (delta * yi) * xi
                    alpha[i] = new_a
        if debug:
            alpha_now = np.array(alpha)
            assert (alpha_now >= 0.0).all() and (alpha_now <= C).all(), "alpha left [0, C]"
            dual = dual_objective(alpha_now, X, y)
            assert dual >= dual_prev - 1e-9 * (1.0 + abs(dual_prev)), (
                f"dual objective decreased: {dual_prev} -> {dual}"
            )
            dual_trace.append(dual)
            dual_prev = dual
        if max(pg_max, -pg_min) < cfg.tolerance:
            if full_pass:
                converged = True
                break
            active = list(range(n))
            shrink_above, shrink_below = math.inf, -math.inf
        else:
            active = kept
            shrink_above = pg_max if pg_max > 0.0 else math.inf
            shrink_below = pg_min if pg_min < 0.0 else -math.inf

    # recover w exactly from the duals, discarding incremental-update drift
    alpha = np.array(alpha)
    w = (alpha * y) @ X
    if full_output:
        epochs = -(-evaluations // n)
        return w, SolverInfo(alpha, epochs, converged, tuple(dual_trace))
    return w


def train_ovr(
    X: np.ndarray,
    labels,
    cfg: SvmTrainConfig,
    norm_config: NormalizationConfig = NormalizationConfig(),
    range_scaler: RangeScalerParams | None = None,
    standardizer: StandardizerParams | None = None,
    debug: bool = False,
    full_output: bool = False,
):
    """Train 7 independent class-vs-rest problems with identical config.

    Each class gets a fresh generator seeded with cfg.seed + class index,
    so row c of the weights equals train_binary(X, y_c, cfg with seed
    cfg.seed + c). X is expected to be already normalized; the fitted
    normalization params are carried on the model for serialization.
    Returns the model; solves stopped at cfg.max_epochs are logged as one
    warning. With full_output=True returns (model, the 7 SolverInfo) and
    leaves that report to the caller.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    label_idx = np.asarray([int(EmotionLabel(l)) for l in labels])
    if X.shape[0] != label_idx.size:
        raise ValueError(f"{X.shape[0]} rows but {label_idx.size} labels")
    # checked and given its bias column once; each class's train_binary call
    # solves on this matrix and only re-checks it
    X, _ = _validate_binary_inputs(X, np.ones(label_idx.size))
    if cfg.bias:
        X = add_bias_column(X)
    solve_cfg = replace(cfg, bias=False)
    weight_rows = []
    infos = []
    for c in range(NUM_CLASSES):
        y = np.where(label_idx == c, 1.0, -1.0)
        w, info = train_binary(
            X, y, replace(solve_cfg, seed=cfg.seed + c), debug=debug, full_output=True
        )
        weight_rows.append(w)
        infos.append(info)
    model = LinearSvmModel(np.stack(weight_rows), cfg, norm_config, range_scaler, standardizer)
    if full_output:
        return model, tuple(infos)
    _warn_capped(cfg, [(cfg.C, infos)])
    return model


def _warn_capped(cfg: SvmTrainConfig, runs) -> None:
    """Log one warning naming every solve that stopped at cfg.max_epochs.

    runs holds (C, the 7 per-class SolverInfo of one train_ovr call).
    """
    capped = [(c_value, k) for c_value, infos in runs
              for k, info in enumerate(infos) if not info.converged]
    if not capped:
        return
    c_values = ",".join(f"{c:g}" for c in sorted({c for c, _ in capped}))
    classes = ",".join(EMOTION_NAMES[k] for k in sorted({k for _, k in capped}))
    log.warning(
        "%d of %d solves stopped at max_epochs=%d before converging (C=%s; classes %s)",
        len(capped), NUM_CLASSES * len(runs), cfg.max_epochs, c_values, classes,
    )


def decision_scores(model: LinearSvmModel, X: np.ndarray, video_ids=None) -> ScoreMatrix:
    """Raw decision values w_c . x_i for every (video, class) pair."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if model.config.bias:
        X = add_bias_column(X)
    if X.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"dimension mismatch: inputs have {X.shape[1]} features "
            f"(bias included), model expects {model.weights.shape[1]}"
        )
    if video_ids is None:
        video_ids = tuple(str(i) for i in range(X.shape[0]))
    return ScoreMatrix(tuple(video_ids), X @ model.weights.T)


def stratified_folds(labels, folds: int, seed: int, ids=None) -> np.ndarray:
    """Assign each sample to a fold, stratified by label.

    Within each class, samples are ordered by id when ids are given (data
    order otherwise), shuffled with the seeded generator, then dealt
    round-robin; a global deal counter keeps fold sizes balanced.
    """
    label_idx = np.asarray([int(EmotionLabel(l)) for l in labels])
    n = label_idx.size
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ValueError(f"cannot build {folds} folds from {n} samples")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    counter = 0
    for c in range(NUM_CLASSES):
        members = np.flatnonzero(label_idx == c)
        if members.size == 0:
            continue
        if ids is not None:
            members = members[np.argsort([str(ids[i]) for i in members], kind="stable")]
        members = members[rng.permutation(members.size)]
        for i in members:
            fold_of[i] = counter % folds
            counter += 1
    return fold_of


def cross_validate_c(
    X: np.ndarray,
    labels,
    grid,
    cfg: SvmTrainConfig = SvmTrainConfig(),
    folds: int = 5,
    seed: int = 0,
    norm_config: NormalizationConfig = NormalizationConfig(),
    ids=None,
):
    """Pick the regularization constant by stratified k-fold CV.

    For each fold the normalization chain is re-fit on that fold's
    training portion only. Returns (best C, list of per-C mean accuracies
    aligned with the grid); ties go to the smallest C. Solves stopped at
    cfg.max_epochs are logged as one warning for the whole grid.
    """
    grid = [float(c) for c in grid]
    if not grid:
        raise ValueError("empty C grid")
    if any(c <= 0 for c in grid):
        raise ValueError("C values must be positive")
    X = np.asarray(X, dtype=np.float64)
    label_idx = np.asarray([int(EmotionLabel(l)) for l in labels])
    fold_of = stratified_folds(label_idx, folds, seed, ids=ids)

    # normalization depends only on the fold split, not on C
    prepared = []
    for k in range(folds):
        train_mask = fold_of != k
        params = fit_normalization(X[train_mask], norm_config)
        prepared.append(
            (
                apply_normalization(X[train_mask], params),
                label_idx[train_mask],
                apply_normalization(X[~train_mask], params),
                label_idx[~train_mask],
            )
        )

    mean_accuracies = []
    runs = []
    for c_value in grid:
        fold_accs = []
        for train_x, train_y, val_x, val_y in prepared:
            model, infos = train_ovr(train_x, train_y, replace(cfg, C=c_value), full_output=True)
            runs.append((c_value, infos))
            scores = decision_scores(model, val_x).scores
            predicted = scores.argmax(axis=1)
            fold_accs.append(float((predicted == val_y).mean()))
        mean_accuracies.append(float(np.mean(fold_accs)))
    _warn_capped(cfg, runs)

    best = max(range(len(grid)), key=lambda i: (mean_accuracies[i], -grid[i]))
    return grid[best], mean_accuracies


def model_to_dict(model: LinearSvmModel) -> dict:
    return {
        "format_version": model.format_version,
        "config": {
            **config_to_dict(model.config),
            "normalization": config_to_dict(model.norm_config),
        },
        "range_scaler": None if model.range_scaler is None else config_to_dict(model.range_scaler),
        "standardizer": None if model.standardizer is None else config_to_dict(model.standardizer),
        "weights": model.weights.tolist(),
        "label_order": list(EMOTION_NAMES),
    }


def model_from_dict(doc: dict) -> LinearSvmModel:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version: {version!r}")
    if tuple(doc.get("label_order", ())) != EMOTION_NAMES:
        raise ValueError(f"unexpected label order: {doc.get('label_order')!r}")
    if sorted(doc) != sorted(_MODEL_KEYS):
        raise ValueError(f"model keys {sorted(doc)}, expected {sorted(_MODEL_KEYS)}")
    if not isinstance(doc["config"], dict):
        raise ValueError("model key 'config': expected an object")
    cfg_doc = dict(doc["config"])
    norm_config = config_from_dict(
        NormalizationConfig, cfg_doc.pop("normalization", {}), "model", "config.normalization."
    )
    cfg = config_from_dict(SvmTrainConfig, cfg_doc, "model", "config.")
    scalers = [
        None if doc[key] is None else config_from_dict(cls, doc[key], "model", key + ".")
        for key, cls in (("range_scaler", RangeScalerParams), ("standardizer", StandardizerParams))
    ]
    weights = decode_value(doc["weights"], tuple[np.ndarray, ...], "model", "weights")
    if len({row.size for row in weights}) > 1:
        raise ValueError("model key 'weights': rows of unequal length")
    model = LinearSvmModel(weights, cfg, norm_config, *scalers)
    width = model.weights.shape[1] - cfg.bias
    for (key, flag, column), params in zip(
        (("range_scaler", "range_scale", "mins"), ("standardizer", "standardize", "means")), scalers
    ):
        enabled = getattr(norm_config, flag)
        if params is None and enabled:
            raise ValueError(f"model key {key!r}: null, but config.normalization.{flag} is true")
        if params is not None and not enabled:
            raise ValueError(f"model key 'config.normalization.{flag}': false, but {key!r} is set")
        if params is not None and getattr(params, column).size != width:
            raise ValueError(
                f"model key '{key}.{column}': {getattr(params, column).size} columns, "
                f"but the weights have {width} features"
            )
    return model


def save_model(model: LinearSvmModel, path) -> None:
    """Write the model as one line of JSON; every float is written as its
    shortest repr, so load_model gives back the same bits."""
    write_json(model_to_dict(model), path)


def load_model(path) -> LinearSvmModel:
    return model_from_dict(read_json(path))
