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
solved at once in Gram space (_cv_solve). train_ovr fits the chain on
the rows it trains on, as each fold does, and the model carries it. Raw
rows are checked once (_finite_rows); every solve and score works on the
chain's output in one buffer ending in the constant-1 bias feature
(_design_buffer), so no row has a zero norm. The fit writes its training
rows' output straight into the buffer they are solved in
(fit_normalization's out=); only rows scored by a fitted chain go
through apply_normalization.
"""

from __future__ import annotations

import logging
import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .core import EMOTION_NAMES, NUM_CLASSES, ScoreMatrix, class_indices
from .normalize import (
    NormalizationParams,
    RangeScalerParams,
    StandardizerParams,
    apply_normalization,
    fit_normalization,
)
from .ingest import read_json, write_json
from .util import config_from_dict, config_to_dict

MODEL_FORMAT_VERSION = 2

# coordinate updates below this projected-gradient magnitude are skipped
_UPDATE_EPS = 1e-12

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SvmTrainConfig:
    C: float = 1.0
    tolerance: float = 1e-4
    max_epochs: int = 1000
    seed: int = 0

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

    weights: np.ndarray  # (7, D+1): the last column weighs the constant-1 feature
    config: SvmTrainConfig
    normalization: NormalizationParams

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != NUM_CLASSES:
            raise ValueError(f"weights must be ({NUM_CLASSES}, D+1), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite weight")
        width = arr.shape[1] - 1
        for key, params in (("range_scaler.mins", self.normalization.range_scaler),
                            ("standardizer.means", self.normalization.standardizer)):
            if params.dim != width:
                raise ValueError(f"model key {key!r}: {params.dim} columns, "
                                 f"but the weights have {width} features")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)


def _design_buffer(n: int, d: int) -> np.ndarray:
    """An (n, d + 1) C-contiguous buffer whose last column is the
    constant-1 feature. fit_normalization(X, out=rows[:, :-1]) fills the
    rest with a fit's training rows (train_ovr, each fold of
    cross_validate_c), apply_normalization(X, params, out=rows[:, :-1])
    with rows a fitted chain scores (a fold's held-out rows,
    decision_scores); train_binary solves them as given."""
    rows = np.empty((n, d + 1))
    rows[:, -1] = 1.0
    return rows


def primal_objective(w: np.ndarray, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """1/2 ||w||^2 + C * sum of hinge losses on (X, y) as given."""
    margins = y * (X @ w)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(w @ w) + C * float(hinge)


def dual_objective(alpha: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """sum(alpha) - 1/2 ||sum_i alpha_i y_i x_i||^2 on (X, y) as given."""
    w = (alpha * y) @ X
    return float(alpha.sum()) - 0.5 * float(w @ w)


def _finite_rows(X) -> np.ndarray:
    """X as a 2-D float64 array, checked to hold only finite values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite value in X")
    return X


def _checked_inputs(X, labels):
    """Raw rows X, checked finite, and their class indices, one per row."""
    X = _finite_rows(X)
    label_idx = class_indices(labels)
    if X.shape[0] != label_idx.size:
        raise ValueError(f"{X.shape[0]} rows but {label_idx.size} labels")
    return X, label_idx


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
    """Train one binary SVM on design rows X; returns w.

    X is solved as given, and its last column must be the constant-1 bias
    feature, as in a _design_buffer. Each pass visits the active
    coordinates in a fresh order drawn from a generator seeded with
    cfg.seed. Passes shrink the active set (Hsieh et al. 2008): a
    coordinate at 0 whose gradient exceeds the previous pass's largest
    projected gradient, or at C below its smallest, is set aside.
    Once the active coordinates all meet cfg.tolerance every coordinate is
    restored. After a full pass whose largest projected-gradient violation
    is below cfg.tolerance, w is recomputed from alpha and the violation
    with it; the solve converges only if that is below cfg.tolerance too,
    and otherwise goes on from the recomputed w. Work is capped at
    cfg.max_epochs * n gradient evaluations; SolverInfo.epochs counts them in
    full-pass units, rounded up. With debug=True the dual objective is
    recomputed after every pass and checked to be non-decreasing with every
    alpha inside [0, C]. With full_output=True returns (w, SolverInfo).

    Both classes need not be present; an all-one-class problem is legal.
    """
    X = _finite_rows(X)
    if X.shape[1] == 0 or not (X[:, -1] == 1.0).all():
        raise ValueError("X must end in the constant-1 bias column")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if y.size < 1:
        raise ValueError("need at least one training sample")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ValueError("labels must be +1 or -1")
    n = X.shape[0]
    C = float(cfg.C)

    # scalar bookkeeping in Python floats; rows stay numpy views for the dot
    rows = list(X)
    ys = y.tolist()
    sq_norms = np.einsum("ij,ij->i", X, X).tolist()  # each >= 1: the constant-1 feature
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
            if abs(projected) > _UPDATE_EPS:
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


def train_ovr(X: np.ndarray, labels, cfg: SvmTrainConfig):
    """Fit the normalization chain on raw descriptors X, then train 7
    independent class-vs-rest problems with identical config on its output.

    The fit writes the chain's output into one _design_buffer, the rows
    that all 7 train_binary calls solve. Each class gets a fresh generator
    seeded with cfg.seed + class index, so row c of the weights equals
    train_binary(rows, y_c, cfg with seed cfg.seed + c). Returns the model;
    solves stopped at cfg.max_epochs are logged as one warning.
    """
    X, label_idx = _checked_inputs(X, labels)
    rows = _design_buffer(*X.shape)
    normalization = fit_normalization(X, out=rows[:, :-1])
    weight_rows = []
    solves = []
    for c in range(NUM_CLASSES):
        y = np.where(label_idx == c, 1.0, -1.0)
        w, info = train_binary(rows, y, replace(cfg, seed=cfg.seed + c), full_output=True)
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
    X = _finite_rows(X)
    width = X.shape[1] + 1
    if width != model.weights.shape[1]:
        raise ValueError(
            f"dimension mismatch: inputs have {width} features "
            f"(bias included), model expects {model.weights.shape[1]}"
        )
    rows = _design_buffer(*X.shape)
    apply_normalization(X, model.normalization, out=rows[:, :-1])
    video_ids = tuple(str(i) for i in range(X.shape[0])) if video_ids is None else tuple(video_ids)
    with np.errstate(over="ignore", invalid="ignore"):  # huge weights: refused below
        scores = rows @ model.weights.T
    overflows = np.argwhere(~np.isfinite(scores))
    if overflows.size:
        i, c = overflows[0]
        raise ValueError(f"the model's weights overflow the {EMOTION_NAMES[c]} score of "
                         f"video {video_ids[i]!r} to {scores[i, c]}")
    return ScoreMatrix(video_ids, scores)


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
    on the fold's training rows X, each ending in the constant-1 feature.

    Problem p = g * 7 + c is class c against the rest at C = grid[g]. The
    problems share the Gram matrix K = X X^T (8 n^2 bytes), and each keeps
    F = (alpha * Y) K, the decision values w_p . x_i, so a coordinate step
    costs O(n) per problem whatever the width. Each pass visits every
    coordinate in one order, shared by the problems and drawn from a
    generator seeded with cfg.seed, and applies the exact clipped update to
    each unfinished problem's alpha[i]. After a pass F is recomputed
    exactly, and a problem leaves once its largest |projected gradient|
    there is below cfg.tolerance, or after cfg.max_epochs passes. Returns (weights, alpha, converged), one
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
    converged = np.zeros(C.size, dtype=bool)
    active = np.arange(C.size)
    a, y, c, f = alpha, Y, C, np.zeros(Y.shape)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.max_epochs):
        for i in rng.permutation(len(diag)).tolist():
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
):
    """Pick the regularization constant by stratified k-fold CV.

    For each fold the normalization chain is re-fit on that fold's
    training portion only, and the fit writes that portion's output into
    the fold's design buffer; _cv_solve trains the fold's models for the
    whole grid at once on it. They score the held-out rows, which the
    fitted chain maps into a buffer of their own. Returns (best C, list of
    per-C mean accuracies aligned with the grid); ties go to the smallest
    C. Solves stopped at cfg.max_epochs are logged as one warning for the
    whole grid.
    """
    grid = [replace(cfg, C=float(c)).C for c in grid]  # each C checked by SvmTrainConfig
    if not grid:
        raise ValueError("empty C grid")
    X, label_idx = _checked_inputs(X, labels)
    fold_of = stratified_folds(label_idx, folds, seed)

    fold_accs = []
    solves = []
    for k in range(folds):
        train = fold_of != k
        train_rows = _design_buffer(np.count_nonzero(train), X.shape[1])
        params = fit_normalization(X[train], out=train_rows[:, :-1])
        weights, _, converged = _cv_solve(train_rows, label_idx[train], grid, cfg)
        held_out = _design_buffer(np.count_nonzero(~train), X.shape[1])
        apply_normalization(X[~train], params, out=held_out[:, :-1])
        scores = (held_out @ weights.T).reshape(-1, len(grid), NUM_CLASSES)
        del train_rows, held_out  # freed before the next fold allocates its own
        fold_accs.append((scores.argmax(axis=2) == label_idx[~train, None]).mean(axis=0))
        solves += [(grid[p // NUM_CLASSES], p % NUM_CLASSES, ok) for p, ok in enumerate(converged)]
    # one contiguous row per C, averaged as np.mean averages a list of floats
    mean_accuracies = np.column_stack(fold_accs).mean(axis=1).tolist()
    _warn_capped(cfg, solves)

    best = max(range(len(grid)), key=lambda i: (mean_accuracies[i], -grid[i]))
    return grid[best], mean_accuracies


@dataclass(frozen=True)
class _StoredModel:
    """A model file's JSON object, key for key; every key is required."""

    format_version: int
    config: SvmTrainConfig
    range_scaler: RangeScalerParams
    standardizer: StandardizerParams
    weights: tuple[np.ndarray, ...]  # written from the (7, D+1) array
    label_order: tuple[str, ...]


def _without_retired_keys(doc: dict, version: int) -> dict:
    """The model document without its config's retired keys: bias, and
    format 1's normalization stage toggles. Each set what is now always
    on, so it loads only when true."""
    config = doc.get("config")
    if not isinstance(config, dict):
        return doc
    retired = {"bias": config.get("bias", True)}
    if version == 1:
        stages = config.get("normalization")
        retired |= {f"normalization.{stage}": stages.get(stage) if isinstance(stages, dict)
                    else stages for stage in ("range_scale", "rootsift", "standardize")}
    for key, value in retired.items():
        if value is not True:
            raise ValueError(f"model key 'config.{key}': {reprlib.repr(value)}; "
                             f"a format-{version} model loads only with it true")
    dropped = {key.split(".")[0] for key in retired}
    return {**doc, "config": {k: v for k, v in config.items() if k not in dropped}}


def model_to_dict(model: LinearSvmModel) -> dict:
    norm = model.normalization
    return config_to_dict(_StoredModel(MODEL_FORMAT_VERSION, model.config, norm.range_scaler,
                                       norm.standardizer, model.weights, EMOTION_NAMES))


def model_from_dict(doc: dict) -> LinearSvmModel:
    """The model of a format-1 or format-2 document whose retired config
    keys are all true, and whose parameters some fit could produce."""
    version = doc.get("format_version")
    if version not in (1, MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format_version: {version!r}")
    stored = config_from_dict(_StoredModel, _without_retired_keys(doc, version), "model")
    # the standardizer is only fit on rootsift output, in [-1, 1], so its means
    # lie there; no deviation from them passes 2 (rounding is monotone), nor
    # does a std
    for key, low, high in (("means", -1.0, 1.0), ("stds", 0.0, 2.0)):
        values = getattr(stored.standardizer, key)
        outside = values[(values < low) | (values > high)]
        if outside.size:
            raise ValueError(f"model key 'standardizer.{key}': {float(outside[0])!r} is outside "
                             f"[{low:g}, {high:g}], where every fit puts it")
    if stored.label_order != EMOTION_NAMES:
        raise ValueError(f"unexpected label order: {doc['label_order']!r}")
    if len({row.size for row in stored.weights}) > 1:
        raise ValueError("model key 'weights': rows of unequal length")
    normalization = NormalizationParams(stored.range_scaler, stored.standardizer)
    return LinearSvmModel(stored.weights, stored.config, normalization)


def save_model(model: LinearSvmModel, path) -> None:
    """Write the model as one line of JSON; every float is written as its
    shortest repr, so load_model gives back the same bits."""
    write_json(model_to_dict(model), path)


def load_model(path) -> LinearSvmModel:
    return model_from_dict(read_json(path))
