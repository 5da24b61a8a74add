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
normalization chain re-fit inside every fold, each fold's whole grid
solved at once in Gram space (_cv_solve).
Every solver row, in training, CV and prediction, comes from
_design_matrix: the fitted chain, one finiteness check, the bias column.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import EMOTION_NAMES, NUM_CLASSES, ScoreMatrix, class_indices
from .normalize import (
    IDENTITY_NORMALIZATION,
    NormalizationConfig,
    NormalizationParams,
    RangeScalerParams,
    StandardizerParams,
    apply_normalization,
    fit_normalization,
)
from .ingest import read_json, write_json
from .util import config_from_dict, config_to_dict

MODEL_FORMAT_VERSION = 1

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
    """A stream's classifier: the fitted normalization chain, then
    one-vs-rest weight vectors over its output."""

    weights: np.ndarray  # (7, D) or (7, D+1) with bias
    config: SvmTrainConfig
    normalization: NormalizationParams = IDENTITY_NORMALIZATION

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != NUM_CLASSES:
            raise ValueError(f"weights must be ({NUM_CLASSES}, D), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite weight")
        width = arr.shape[1] - self.config.bias
        for key, params in (("range_scaler.mins", self.normalization.range_scaler),
                            ("standardizer.means", self.normalization.standardizer)):
            if params is not None and params.dim != width:
                raise ValueError(f"model key {key!r}: {params.dim} columns, "
                                 f"but the weights have {width} features")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)


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


def _design_matrix(X, normalization: NormalizationParams, bias: bool) -> np.ndarray:
    """C-contiguous solver rows for raw descriptors X: the fitted chain (not
    applied when every stage is off), one check that every value is
    finite, then the constant-1 column when bias is on."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if normalization != IDENTITY_NORMALIZATION:
        X = apply_normalization(X, normalization)
    if not np.isfinite(X).all():
        raise ValueError("non-finite value in X")
    return add_bias_column(X) if bias else np.ascontiguousarray(X)


def _validate_binary_inputs(X, y):
    """y as a float array of +1/-1, one per row of X."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if y.size < 1:
        raise ValueError("need at least one training sample")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ValueError("labels must be +1 or -1")
    return y


def _projected_gradient(alpha, grad, C):
    """The gradient grad_i = y_i w.x_i - 1 of the minimized dual, projected
    onto the box [0, C] at alpha; every entry is 0 exactly at a KKT point."""
    return np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                    np.where(alpha >= C, np.maximum(grad, 0.0), grad))


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
    restored. After a full pass whose largest projected-gradient violation
    is below cfg.tolerance, w is recomputed from alpha and the violation
    with it; the solve converges only if that is below cfg.tolerance too,
    and otherwise goes on from the recomputed w. Work is capped at
    cfg.max_epochs * n gradient evaluations; SolverInfo.epochs counts them in
    full-pass units, rounded up. A row of zeros, possible without a bias,
    starts at its optimum alpha_i = C. With debug=True the dual objective is
    recomputed after every pass and checked to be non-decreasing with every
    alpha inside [0, C]. With full_output=True returns (w, SolverInfo).

    Both classes need not be present; an all-one-class problem is legal.
    """
    X = _design_matrix(X, IDENTITY_NORMALIZATION, cfg.bias)
    y = _validate_binary_inputs(X, y)
    n = X.shape[0]
    C = float(cfg.C)

    # scalar bookkeeping in Python floats; rows stay numpy views for the dot
    rows = list(X)
    ys = y.tolist()
    sq_norms = np.einsum("ij,ij->i", X, X).tolist()
    # a zero row's dual term is linear, a_i: its optimum is a_i = C, which
    # leaves w unchanged, so it starts there and is never updated
    alpha = [C if sq == 0.0 else 0.0 for sq in sq_norms]
    w = np.zeros(X.shape[1])
    rng = np.random.default_rng(cfg.seed)

    dual_prev = float(sum(alpha))  # dual value at the starting alpha, where w = 0
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
                # the pass checked each coordinate while w moved; certify the
                # point itself, from w recomputed without incremental drift
                alpha_now = np.array(alpha)
                w = (alpha_now * y) @ X
                pg = _projected_gradient(alpha_now, y * (X @ w) - 1.0, C)
                if np.abs(pg).max() < cfg.tolerance:
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
    normalization: NormalizationParams = IDENTITY_NORMALIZATION,
):
    """Train 7 independent class-vs-rest problems with identical config on
    raw descriptors X through the fitted chain, which the model carries.

    Each class gets a fresh generator seeded with cfg.seed + class index,
    so row c of the weights equals train_binary(apply_normalization(X,
    normalization), y_c, cfg with seed cfg.seed + c). Returns the model;
    solves stopped at cfg.max_epochs are logged as one warning.
    """
    # built once; each class's train_binary call only re-checks these rows
    X = _design_matrix(X, normalization, cfg.bias)
    label_idx = class_indices(labels)
    if X.shape[0] != label_idx.size:
        raise ValueError(f"{X.shape[0]} rows but {label_idx.size} labels")
    weight_rows = []
    solves = []
    for c in range(NUM_CLASSES):
        y = np.where(label_idx == c, 1.0, -1.0)
        w, info = train_binary(X, y, replace(cfg, bias=False, seed=cfg.seed + c), full_output=True)
        weight_rows.append(w)
        solves.append((cfg.C, c, info.converged))
    model = LinearSvmModel(np.stack(weight_rows), cfg, normalization)
    _warn_capped(cfg, solves)
    return model


def _warn_capped(cfg: SvmTrainConfig, solves) -> None:
    """Log one warning naming every solve that stopped at cfg.max_epochs.

    solves holds one (C, class index, converged) triple per solve.
    """
    capped = [(c_value, k) for c_value, k, converged in solves if not converged]
    if not capped:
        return
    c_values = ",".join(f"{c:g}" for c in sorted({c for c, _ in capped}))
    classes = ",".join(EMOTION_NAMES[k] for k in sorted({k for _, k in capped}))
    log.warning(
        "%d of %d solves stopped at max_epochs=%d before converging (C=%s; classes %s)",
        len(capped), len(solves), cfg.max_epochs, c_values, classes,
    )


def decision_scores(model: LinearSvmModel, X: np.ndarray, video_ids=None) -> ScoreMatrix:
    """Decision values w_c . x_i for every (video, class) pair, x_i being
    raw descriptor row i after the model's normalization chain."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    width = X.shape[1] + model.config.bias
    if width != model.weights.shape[1]:
        raise ValueError(
            f"dimension mismatch: inputs have {width} features "
            f"(bias included), model expects {model.weights.shape[1]}"
        )
    X = _design_matrix(X, model.normalization, model.config.bias)
    if video_ids is None:
        video_ids = tuple(str(i) for i in range(X.shape[0]))
    return ScoreMatrix(tuple(video_ids), X @ model.weights.T)


def stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Assign each sample to a fold, stratified by label.

    Within each class, samples are taken in data order, shuffled with the
    seeded generator, then dealt round-robin; a global deal counter keeps
    fold sizes balanced.
    """
    label_idx = class_indices(labels)
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
        members = members[rng.permutation(members.size)]
        for i in members:
            fold_of[i] = counter % folds
            counter += 1
    return fold_of


def _cv_solve(X, class_idx, grid, cfg: SvmTrainConfig):
    """Solve one fold's every (C, class) one-vs-rest problem in lockstep,
    on the fold's training rows X as _design_matrix built them.

    Problem p = g * 7 + c is class c against the rest at C = grid[g]. The
    problems share the Gram matrix K = X X^T (8 n^2 bytes), and each keeps
    F = (alpha * Y) K, the decision values w_p . x_i, so a coordinate step
    costs O(n) per problem whatever the width. Each pass visits every
    coordinate in one order, shared by the problems and drawn from a
    generator seeded with cfg.seed, and applies the exact clipped update to
    each unfinished problem's alpha[i]; a coordinate with K_ii = 0, a row of
    zeros without a bias, starts at its optimum C and is never updated.
    After a pass F is recomputed exactly, and a problem leaves
    once its largest |projected gradient| there is below cfg.tolerance, or
    after cfg.max_epochs passes. Returns (weights, alpha, converged), one
    row per problem: the weights (alpha * Y)^T X, the duals over the
    fold's rows, and whether the problem converged.
    """
    K = X @ X.T
    diag = K.diagonal().tolist()
    # (n, P) layouts, so that coordinate i of every problem is one row
    Y = np.tile(np.where(class_idx[:, None] == np.arange(NUM_CLASSES), 1.0, -1.0),
                len(grid))
    C = np.repeat(np.asarray(grid, dtype=np.float64), NUM_CLASSES)
    alpha = np.zeros(Y.shape)
    alpha[K.diagonal() <= 0.0] = C  # F stays 0: those rows of K are zero
    converged = np.zeros(C.size, dtype=bool)
    active = np.arange(C.size)
    a, y, c, f = alpha, Y, C, np.zeros(Y.shape)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.max_epochs):
        for i in rng.permutation(len(diag)).tolist():
            if diag[i] <= 0.0:
                continue
            yi, ai = y[i], a[i]
            new_a = np.minimum(np.maximum(ai - (yi * f[i] - 1.0) / diag[i], 0.0), c)
            f += K[i, :, None] * ((new_a - ai) * yi)
            ai[:] = new_a
        f = K @ (a * y)
        alpha[:, active] = a
        done = np.abs(_projected_gradient(a, y * f - 1.0, c)).max(axis=0) < cfg.tolerance
        converged[active[done]] = True
        if done.all():
            break
        keep = ~done
        active, a, y, c, f = active[keep], a[:, keep], y[:, keep], c[keep], f[:, keep]
    return (alpha * Y).T @ X, alpha.T, converged


def cross_validate_c(
    X: np.ndarray,
    labels,
    grid,
    cfg: SvmTrainConfig = SvmTrainConfig(),
    folds: int = 5,
    seed: int = 0,
    norm_config: NormalizationConfig = NormalizationConfig(),
):
    """Pick the regularization constant by stratified k-fold CV.

    For each fold the normalization chain is re-fit on that fold's
    training portion only and applied once to every row; _cv_solve trains
    the fold's models for the whole grid at once on the training slice of
    those rows. Returns (best C, list of per-C mean accuracies
    aligned with the grid); ties go to the smallest C. Solves stopped at
    cfg.max_epochs are logged as one warning for the whole grid.
    """
    grid = [replace(cfg, C=float(c)).C for c in grid]  # each C checked by SvmTrainConfig
    if not grid:
        raise ValueError("empty C grid")
    X = np.asarray(X, dtype=np.float64)
    label_idx = class_indices(labels)
    if X.shape[0] != label_idx.size:
        raise ValueError(f"{X.shape[0]} rows but {label_idx.size} labels")
    fold_of = stratified_folds(label_idx, folds, seed)

    fold_accs = []
    solves = []
    for k in range(folds):
        train = fold_of != k
        rows = _design_matrix(X, fit_normalization(X[train], norm_config), cfg.bias)
        weights, _, converged = _cv_solve(rows[train], label_idx[train], grid, cfg)
        scores = (rows[~train] @ weights.T).reshape(-1, len(grid), NUM_CLASSES)
        fold_accs.append((scores.argmax(axis=2) == label_idx[~train, None]).mean(axis=0))
        solves += [(grid[p // NUM_CLASSES], p % NUM_CLASSES, ok) for p, ok in enumerate(converged)]
    # one contiguous row per C, averaged as np.mean averages a list of floats
    mean_accuracies = np.column_stack(fold_accs).mean(axis=1).tolist()
    _warn_capped(cfg, solves)

    best = max(range(len(grid)), key=lambda i: (mean_accuracies[i], -grid[i]))
    return grid[best], mean_accuracies


@dataclass(frozen=True)
class _StoredConfig(SvmTrainConfig):
    """A model file's "config" object: the solver config and the stages."""

    normalization: NormalizationConfig = NormalizationConfig()


@dataclass(frozen=True)
class _StoredModel:
    """A model file's JSON object, key for key; every key is required."""

    format_version: int
    config: _StoredConfig
    range_scaler: RangeScalerParams | None
    standardizer: StandardizerParams | None
    weights: tuple[np.ndarray, ...]  # written from the (7, D) array
    label_order: tuple[str, ...]


def model_to_dict(model: LinearSvmModel) -> dict:
    norm = model.normalization
    stored_config = _StoredConfig(**vars(model.config), normalization=norm.config)
    return config_to_dict(_StoredModel(MODEL_FORMAT_VERSION, stored_config, norm.range_scaler,
                                       norm.standardizer, model.weights, EMOTION_NAMES))


def model_from_dict(doc: dict) -> LinearSvmModel:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version: {version!r}")
    stored = config_from_dict(_StoredModel, doc, "model")
    if stored.label_order != EMOTION_NAMES:
        raise ValueError(f"unexpected label order: {doc['label_order']!r}")
    if len({row.size for row in stored.weights}) > 1:
        raise ValueError("model key 'weights': rows of unequal length")
    cfg = stored.config
    solver = SvmTrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(SvmTrainConfig)})
    normalization = NormalizationParams(cfg.normalization, stored.range_scaler, stored.standardizer)
    return LinearSvmModel(stored.weights, solver, normalization)


def save_model(model: LinearSvmModel, path) -> None:
    """Write the model as one line of JSON; every float is written as its
    shortest repr, so load_model gives back the same bits."""
    write_json(model_to_dict(model), path)


def load_model(path) -> LinearSvmModel:
    return model_from_dict(read_json(path))
