import itertools
import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    cluster_labels_matrix,
    design_rows,
    fitted_chain,
    margin_suite,
    reference_apply_normalization,
    reference_fit_normalization,
)

from emovid.core import EmotionLabel
from emovid.ingest import write_json
from emovid.normalize import NormalizationParams, apply_normalization, fit_normalization
from emovid.svm import (
    LinearSvmModel,
    SvmTrainConfig,
    cross_validate_c,
    decision_scores,
    dual_objective,
    load_model,
    model_from_dict,
    model_to_dict,
    primal_objective,
    save_model,
    stratified_folds,
    train_binary,
    train_ovr,
    _cv_solve,
    _permutation,
    _projected_gradient,
)
from emovid.synth import oracle_svm_subgradient


def test_config_validation():
    with pytest.raises(ValueError, match="C"):
        SvmTrainConfig(C=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        SvmTrainConfig(tolerance=-1e-3)
    with pytest.raises(ValueError, match="max_epochs"):
        SvmTrainConfig(max_epochs=0)
    # random.Random(-1) would quietly draw random.Random(1)'s orders
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SvmTrainConfig(seed=-1)


def test_pass_orders_are_pinned_permutations():
    """_permutation is the one source of pass and fold orders. Its order for
    a fixed seed is pinned, so a change to random.Random's stream
    (getrandbits) fails here rather than quietly moving model bytes."""
    assert _permutation(random.Random(2024), 16).tolist() == [
        15, 0, 2, 12, 14, 9, 10, 6, 13, 1, 11, 7, 3, 8, 4, 5]
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 64, 1000):
        assert sorted(_permutation(rng, n).tolist()) == list(range(n))


def test_separable_pair():
    X = design_rows([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    w = train_binary(X, y, SvmTrainConfig(C=10.0))
    decisions = X @ w
    assert (np.sign(decisions) == y).all()


def test_one_class_degenerate():
    rng = np.random.default_rng(8)
    X = design_rows(rng.standard_normal((12, 3)))
    y = np.ones(12)
    w = train_binary(X, y, SvmTrainConfig(C=1.0))
    assert (X @ w >= 0).all()


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-finite"):
        train_binary(design_rows([[np.nan]]), np.array([1.0]), SvmTrainConfig())
    with pytest.raises(ValueError, match="labels"):
        train_binary(design_rows([[1.0]]), np.array([2.0]), SvmTrainConfig())
    # raw rows, a zero-width matrix, and a zero row, whose step would divide by a zero norm
    for X in ([[0.5, -2.0], [1.5, 3.0]], np.zeros((2, 0)), [[0.0, 0.0], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="X must end in the constant-1 bias column"):
            train_binary(X, np.array([1.0, -1.0]), SvmTrainConfig())


def test_margin_suite_accuracy_and_duality():
    X, y, _ = margin_suite()
    augmented = design_rows(X)
    cfg = SvmTrainConfig(C=1.0, seed=1)
    w, info = train_binary(augmented, y, cfg, debug=True, full_output=True)
    accuracy = ((augmented @ w) * y > 0).mean()
    assert accuracy >= 0.99
    assert info.converged
    assert (info.alpha >= 0).all() and (info.alpha <= cfg.C).all()
    # debug mode already asserted per-epoch monotonicity; check the trace too
    diffs = np.diff(info.dual_objectives)
    assert (diffs >= -1e-9).all()
    primal = primal_objective(w, augmented, y, cfg.C)
    dual = dual_objective(info.alpha, augmented, y)
    assert primal - dual <= 1e-2 * (1.0 + abs(primal))


def test_solver_matches_subgradient_oracle():
    X, y, _ = margin_suite()
    augmented = design_rows(X)
    cfg = SvmTrainConfig(C=1.0, seed=1)
    w = train_binary(augmented, y, cfg)
    w_oracle = oracle_svm_subgradient(augmented, y, cfg.C, iterations=10**5)
    p_solver = primal_objective(w, augmented, y, cfg.C)
    p_oracle = primal_objective(w_oracle, augmented, y, cfg.C)
    assert abs(p_solver - p_oracle) <= 0.01 * p_oracle
    # same sign pattern on the separable pair
    pair_x = design_rows([[1.0], [-1.0]])
    pair_y = np.array([1.0, -1.0])
    pair_w = train_binary(pair_x, pair_y, SvmTrainConfig(C=10.0))
    pair_oracle = oracle_svm_subgradient(pair_x, pair_y, 10.0, iterations=2000)
    assert (np.sign(pair_x @ pair_w) == np.sign(pair_x @ pair_oracle)).all()


def _max_kkt_violation(X, y, w, alpha, C):
    """Largest |projected gradient| of the dual at alpha, with the gradient
    y_i w.x_i - 1 recomputed from the returned w."""
    grad = y * (X @ w) - 1.0
    projected = np.where(
        alpha <= 0.0, np.minimum(grad, 0.0), np.where(alpha >= C, np.maximum(grad, 0.0), grad)
    )
    return float(np.abs(projected).max())


@pytest.mark.parametrize(
    "data, C",
    [("margin", 1.0), ("margin", 10.0),
     ("clusters", 1.0), ("overlapping clusters", 0.05), ("overlapping clusters", 1.0)],
)
def test_converged_solves_meet_kkt_certificate(data, C):
    if data == "margin":
        X, y, _ = margin_suite()
        problems = [y]
    else:
        separation, sigma = (10.0, 0.5) if data == "clusters" else (2.0, 1.0)
        X, labels = cluster_labels_matrix(
            n_per_class=20, d=12, separation=separation, sigma=sigma, seed=6
        )
        problems = [np.where(np.asarray(labels) == c, 1.0, -1.0) for c in range(7)]
    cfg = SvmTrainConfig(C=C, seed=1)
    augmented = design_rows(X)
    converged = 0
    for y in problems:
        w, info = train_binary(augmented, y, cfg, full_output=True)
        if info.converged:
            converged += 1
            assert _max_kkt_violation(augmented, y, w, info.alpha, C) < cfg.tolerance
    assert converged >= 1


def test_shrinking_converges_well_inside_the_cap():
    """1000 full passes do not converge here. With shrinking every one of
    seeds 0-19 converges, in 39-123 epochs with median 60; the count
    depends on the pass orders, so the bound is on the median."""
    X, y, _ = margin_suite()
    epochs = []
    for seed in range(20):
        w, info = train_binary(design_rows(X), y, SvmTrainConfig(C=0.1, seed=seed),
                               full_output=True)
        assert info.converged, seed
        epochs.append(info.epochs)
    assert np.median(epochs) < 100


@pytest.mark.parametrize("max_epochs", [1, 3])
def test_capped_solve_reports_the_cap(max_epochs):
    X, y, _ = margin_suite()
    cfg = SvmTrainConfig(C=1.0, seed=1, max_epochs=max_epochs)
    w, info = train_binary(design_rows(X), y, cfg, debug=True, full_output=True)
    assert not info.converged
    assert info.epochs == max_epochs
    assert (info.alpha >= 0).all() and (info.alpha <= cfg.C).all()


def test_train_binary_deterministic():
    X, y, _ = margin_suite(n=60, seed=3)
    X = design_rows(X)
    cfg = SvmTrainConfig(C=2.0, seed=9)
    w1 = train_binary(X, y, cfg)
    w2 = train_binary(X.copy(), y.copy(), cfg)
    assert (w1 == w2).all()


def test_ovr_single_class_training_set():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((10, 4))
    labels = [EmotionLabel.HAPPY] * 10
    model = train_ovr(X, labels, SvmTrainConfig(C=1.0))
    predictions = decision_scores(model, X).scores.argmax(axis=1)
    assert (predictions == int(EmotionLabel.HAPPY)).all()


def test_ovr_separable_clusters_and_determinism():
    X, labels = cluster_labels_matrix(n_per_class=8, d=12, separation=10.0, sigma=0.5, seed=6)
    cfg = SvmTrainConfig(C=1.0, seed=2)
    model = train_ovr(X, labels, cfg)
    predictions = decision_scores(model, X).scores.argmax(axis=1)
    assert (predictions == np.asarray(labels)).all()
    again = train_ovr(X, labels, cfg)
    assert (model.weights == again.weights).all()
    # identical model bytes
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(again))


def test_decision_scores_examples():
    rng = np.random.default_rng(44)
    X = rng.standard_normal((5, 3))
    chain = fitted_chain(3)
    zero_model = LinearSvmModel(np.zeros((7, 4)), SvmTrainConfig(), chain)
    np.testing.assert_array_equal(decision_scores(zero_model, X).scores, np.zeros((5, 7)))

    w = np.zeros((7, 4))
    w[:, 0] = 1.0
    model = LinearSvmModel(w, SvmTrainConfig(), chain)
    x = np.array([[2.0, -1.0, 0.5]])
    first = apply_normalization(x, chain)[0, 0]  # the chain's first output column
    np.testing.assert_array_equal(decision_scores(model, x).scores, np.full((1, 7), first))

    with pytest.raises(ValueError, match="dimension mismatch"):
        decision_scores(model, np.zeros((2, 7)))


def test_decision_scores_match_naive_dot_oracle():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((6, 5))
    model = LinearSvmModel(rng.standard_normal((7, 6)), SvmTrainConfig(), fitted_chain(5))
    got = decision_scores(model, X, video_ids=[f"v{i}" for i in range(6)])
    assert got.video_ids == tuple(f"v{i}" for i in range(6))
    augmented = design_rows(apply_normalization(X, model.normalization))
    for i in range(6):
        for c in range(7):
            naive = sum(model.weights[c, j] * augmented[i, j] for j in range(6))
            assert abs(got.scores[i, c] - naive) <= 1e-12


def test_scaling_all_weights_preserves_argmax():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((20, 4))
    model = LinearSvmModel(rng.standard_normal((7, 5)), SvmTrainConfig(), fitted_chain(4))
    scaled = LinearSvmModel(model.weights * 3.7, SvmTrainConfig(), model.normalization)
    a = decision_scores(model, X).scores.argmax(axis=1)
    b = decision_scores(scaled, X).scores.argmax(axis=1)
    assert (a == b).all()


# The range scaler undoes a map x -> a x + b of each column with a > 0, so
# neither the weights nor the scores of mapped rows should see it.
AFFINE_TOL = 1e-6


def _columns(elements):
    return st.lists(elements, min_size=6, max_size=6).map(np.array)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), _columns(st.integers(-30, 30)))
def test_scaling_each_column_by_a_power_of_two_changes_no_bit(seed, exponents):
    X, labels = cluster_labels_matrix(n_per_class=3, d=6, separation=3.0, sigma=1.0, seed=seed)
    unseen = 1.5 * X[::2] + 0.5  # partly outside the fitted ranges, so clipped
    a = 2.0 ** exponents
    cfg = SvmTrainConfig(C=0.5, seed=seed)
    model, mapped = train_ovr(X, labels, cfg), train_ovr(X * a, labels, cfg)
    assert mapped.weights.tobytes() == model.weights.tobytes()
    assert (decision_scores(mapped, unseen * a).scores.tobytes()
            == decision_scores(model, unseen).scores.tobytes())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), _columns(st.floats(1e-3, 1e3)), _columns(st.floats(-1e3, 1e3)))
def test_a_positive_affine_map_of_each_column_keeps_scores_and_argmax(seed, a, b):
    """Rounding in a x + b moves the chain's output by about 1e-11 here; at
    the default tolerance that can move the solver's stopping point within
    it, so both solves run to 1e-10 and the scores agree to AFFINE_TOL."""
    X, labels = cluster_labels_matrix(n_per_class=3, d=6, separation=3.0, sigma=1.0, seed=seed)
    unseen = 1.5 * X[::2] + 0.5
    cfg = SvmTrainConfig(C=0.5, tolerance=1e-10, max_epochs=10**5, seed=seed)
    want = decision_scores(train_ovr(X, labels, cfg), unseen).scores
    got = decision_scores(train_ovr(X * a + b, labels, cfg), unseen * a + b).scores
    np.testing.assert_allclose(got, want, rtol=0, atol=AFFINE_TOL)
    # each score moved by at most AFFINE_TOL, so a wider lead keeps the argmax
    top_two = np.sort(want, axis=1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > 2 * AFFINE_TOL
    assert (got.argmax(axis=1)[clear] == want.argmax(axis=1)[clear]).all()


def test_stratified_folds_cover_and_stratify():
    labels = [0, 0, 0, 0, 3, 3, 3, 3, 5, 5] * 3
    fold_of = stratified_folds(labels, folds=5, seed=1)
    assert sorted(np.unique(fold_of)) == [0, 1, 2, 3, 4]
    counts = np.bincount(fold_of, minlength=5)
    assert counts.max() - counts.min() <= 1
    with pytest.raises(ValueError, match="folds"):
        stratified_folds(labels, folds=1, seed=0)
    with pytest.raises(ValueError, match="cannot build"):
        stratified_folds([0, 3], folds=5, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        stratified_folds(labels, folds=5, seed=-1)


def test_stratified_folds_handle_class_smaller_than_fold_count():
    fold_of = stratified_folds([0] * 8 + [3] * 2, folds=5, seed=1)
    assert sorted(np.unique(fold_of)) == [0, 1, 2, 3, 4]


def test_cv_separable_data_reaches_high_accuracy():
    X, labels = cluster_labels_matrix(n_per_class=6, d=16, separation=12.0, sigma=0.5, seed=15)
    grid = [2.0 ** k for k in (-8, -6, -4, -2, 0, 2, 4, 6)]
    best, accs = cross_validate_c(X, labels, grid, cfg=SvmTrainConfig(seed=8), folds=5)
    assert accs[grid.index(best)] >= 0.99


def test_cv_single_grid_element():
    X, labels = cluster_labels_matrix(n_per_class=3, d=4, separation=8.0, sigma=0.5, seed=1)
    best, accs = cross_validate_c(X, labels, [0.5], cfg=SvmTrainConfig(seed=2), folds=3)
    assert best == 0.5 and len(accs) == 1


def test_cv_tie_breaks_to_smallest_c():
    rng = np.random.default_rng(23)
    X = np.vstack(
        [rng.standard_normal((10, 3)) + 8, rng.standard_normal((10, 3)) - 8]
    )
    labels = [0] * 10 + [3] * 10
    best, accs = cross_validate_c(X, labels, [0.01, 1.0], cfg=SvmTrainConfig(seed=4), folds=5)
    assert accs[0] == accs[1]
    assert best == 0.01


def test_cv_label_noise_prefers_small_c():
    rng = np.random.default_rng(2)
    n_per = 30
    X = np.vstack(
        [
            rng.standard_normal((n_per, 4)) + np.array([1.5, 0, 0, 0]),
            rng.standard_normal((n_per, 4)) - np.array([1.5, 0, 0, 0]),
        ]
    )
    labels = np.array([0] * n_per + [3] * n_per)
    flip = rng.random(2 * n_per) < 0.2
    labels = np.where(flip, 3 - labels, labels)
    grid = [2.0 ** k for k in (-8, -6, -4, -2, 0, 2, 4, 6)]
    best, accs = cross_validate_c(X, labels, grid, cfg=SvmTrainConfig(seed=7), folds=5)
    # exhaustive check over the grid: best really is the argmax with ties
    # broken toward the smallest C
    top = max(accs)
    assert best == min(c for c, a in zip(grid, accs) if a == top)
    assert best <= float(np.median(grid))


def test_cv_input_validation():
    X = np.zeros((10, 2))
    labels = [0, 1, 2, 3, 4, 5, 6, 0, 1, 2]
    with pytest.raises(ValueError, match="empty"):
        cross_validate_c(X, labels, [])
    with pytest.raises(ValueError, match="cannot build"):
        cross_validate_c(np.zeros((3, 2)), [0, 1, 2], [1.0], folds=5)
    with pytest.raises(ValueError, match="positive"):
        cross_validate_c(X, labels, [-1.0])
    with pytest.raises(ValueError, match="positive and finite"):
        cross_validate_c(X, labels, [1.0, np.inf])
    with pytest.raises(ValueError, match="9 rows but 10 labels"):
        cross_validate_c(X[:9], labels, [1.0])


def _per_problem_cv_accuracies(X, labels, grid, cfg, folds):
    """cross_validate_c as one train_ovr and one decision_scores per C and
    fold, each class solved on its own by train_binary."""
    label_idx = np.asarray(labels)
    fold_of = stratified_folds(label_idx, folds, cfg.seed)
    accuracies = []
    for c_value in grid:
        fold_accs = []
        for k in range(folds):
            train = fold_of != k
            model = train_ovr(X[train], label_idx[train], replace(cfg, C=c_value))
            scores = decision_scores(model, X[~train]).scores
            fold_accs.append(float((scores.argmax(axis=1) == label_idx[~train]).mean()))
        accuracies.append(float(np.mean(fold_accs)))
    return accuracies


CV_GRID = [2.0 ** k for k in (-8, -5, -2)]


def _with_zero_rows(X, zero_rows):
    """X, with two raw rows set to zero when zero_rows is true."""
    if zero_rows:
        X[[4, 11]] = 0.0
    return X


@pytest.mark.parametrize("zero_rows", [True, False])
@pytest.mark.parametrize("n_per_class, d, separation", [(5, 40, 6.0), (12, 6, 3.0)])  # n < D, n > D
def test_cv_kernel_matches_per_problem_solves(n_per_class, d, separation, zero_rows):
    X, labels = cluster_labels_matrix(n_per_class, d, separation, sigma=1.0, seed=3)
    X = _with_zero_rows(X, zero_rows)
    cfg = SvmTrainConfig(seed=9)
    _, accuracies = cross_validate_c(X, labels, CV_GRID, cfg=cfg, folds=4)
    assert accuracies == _per_problem_cv_accuracies(X, labels, CV_GRID, cfg, folds=4)
    assert min(accuracies) < 1.0  # the grid is not flat here


@pytest.mark.parametrize("zero_rows", [True, False])
@pytest.mark.parametrize("n_per_class, d, separation", [(5, 40, 6.0), (12, 6, 3.0), (12, 6, 2.0)])
def test_cv_kernel_problems_converge_and_meet_kkt_certificate(n_per_class, d, separation,
                                                               zero_rows):
    X, labels = cluster_labels_matrix(n_per_class, d, separation, sigma=1.0, seed=3)
    cfg = SvmTrainConfig(seed=4)
    augmented = design_rows(_with_zero_rows(X, zero_rows))
    weights, alpha, converged = _cv_solve(augmented, np.asarray(labels), CV_GRID, cfg)
    # problem p = g * 7 + c is class c against the rest at C = CV_GRID[g]
    problems = [(C, np.where(np.asarray(labels) == c, 1.0, -1.0)) for C in CV_GRID for c in range(7)]
    assert alpha.shape == (len(problems), X.shape[0]) and converged.all()
    for p, (C, y) in enumerate(problems):
        assert (alpha[p] >= 0).all() and (alpha[p] <= C).all()
        w = (alpha[p] * y) @ augmented
        np.testing.assert_allclose(weights[p], w, rtol=0, atol=1e-12)
        violation = np.abs(_projected_gradient(alpha[p], y * (augmented @ w) - 1.0, C)).max()
        assert violation < cfg.tolerance
        # each coordinate adds at most 2 C |projected gradient| to the gap
        gap = primal_objective(w, augmented, y, C) - dual_objective(alpha[p], augmented, y)
        assert gap <= 2 * len(y) * C * cfg.tolerance


def test_zero_rows_converge_like_any_other_row():
    """A raw row of zeros is the constant-1 feature alone in the solver's
    rows, so both solvers update it as any other coordinate, converge, and
    return a point that meets the KKT certificate on the rows they solved."""
    X, labels = cluster_labels_matrix(n_per_class=3, d=5, separation=6.0, sigma=1.0, seed=2)
    X = _with_zero_rows(X, True)
    rows = design_rows(X)
    cfg = SvmTrainConfig(seed=1)
    _, alpha, converged = _cv_solve(rows, np.asarray(labels), CV_GRID, cfg)
    assert converged.all()
    problems = [(C, np.where(np.asarray(labels) == c, 1.0, -1.0)) for C in CV_GRID for c in range(7)]
    solves = [(alpha[p], C, y) for p, (C, y) in enumerate(problems)]
    for c in range(7):
        y = np.where(np.asarray(labels) == c, 1.0, -1.0)
        _, info = train_binary(rows, y, replace(cfg, seed=c), debug=True, full_output=True)
        assert info.converged
        solves.append((info.alpha, cfg.C, y))
    for a, C, y in solves:
        w = (a * y) @ rows
        assert np.abs(_projected_gradient(a, y * (rows @ w) - 1.0, C)).max() < cfg.tolerance
    # the zero rows take values inside the box, not only its ends
    assert any(0.0 < a[i] < C for a, C, _ in solves for i in (4, 11))


def test_cv_kernel_is_deterministic_and_checks_its_input():
    """The kernel solves the rows it is given; cross_validate_c builds them
    and so checks them."""
    X, labels = cluster_labels_matrix(n_per_class=6, d=9, separation=3.0, sigma=1.0, seed=2)
    cfg = SvmTrainConfig(seed=11)
    rows = design_rows(X)
    first = _cv_solve(rows, np.asarray(labels), CV_GRID, cfg)
    second = _cv_solve(rows.copy(), np.asarray(labels), CV_GRID, cfg)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()
    cv_cfg = replace(cfg, seed=1)
    assert (cross_validate_c(X, labels, CV_GRID, cfg=cv_cfg, folds=3)
            == cross_validate_c(X, labels, CV_GRID, cfg=cv_cfg, folds=3))
    X[3, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite value in X"):
        cross_validate_c(X, labels, CV_GRID, cfg=cv_cfg, folds=3)


@pytest.mark.parametrize("zero_rows", [True, False])
def test_cv_validation_scores_equal_the_folds_model_scores(zero_rows, monkeypatch):
    """A fold's validation scores, its held-out rows after its chain times
    the kernel's weights, equal decision_scores of the model made of that
    chain and those weights byte for byte, and the models' fold accuracies
    average to cross_validate_c's."""
    X, labels = cluster_labels_matrix(n_per_class=5, d=12, separation=2.0, sigma=1.0, seed=3)
    X = _with_zero_rows(X, zero_rows)
    label_idx = np.asarray(labels)
    cfg = SvmTrainConfig(seed=9)
    kernel_weights = []

    def recording_cv_solve(*args):
        result = _cv_solve(*args)
        kernel_weights.append(result[0])
        return result

    monkeypatch.setattr("emovid.svm._cv_solve", recording_cv_solve)
    _, accuracies = cross_validate_c(X, labels, CV_GRID, cfg=cfg, folds=3)
    fold_of = stratified_folds(labels, 3, cfg.seed)
    model_accuracies = np.zeros((3, len(CV_GRID)))
    for k, weights in enumerate(kernel_weights):
        train = fold_of != k
        params = fit_normalization(X[train])
        rows = design_rows(apply_normalization(X, params))
        for g, c_value in enumerate(CV_GRID):
            w = weights[g * 7:(g + 1) * 7]
            cv_scores = rows[~train] @ w.T
            model = LinearSvmModel(w, replace(cfg, C=c_value), params)
            scores = decision_scores(model, X[~train]).scores
            assert scores.tobytes() == cv_scores.tobytes()
            assert (scores.argmax(axis=1) == cv_scores.argmax(axis=1)).all()
            model_accuracies[k, g] = (scores.argmax(axis=1) == label_idx[~train]).mean()
    assert len(kernel_weights) == 3
    assert accuracies == model_accuracies.mean(axis=0).tolist()
    assert min(accuracies) < 1.0


@pytest.mark.parametrize("call", ["train_binary", "train_ovr", "cross_validate_c",
                                  "decision_scores"])
def test_every_row_builder_caller_rejects_a_non_finite_value(call):
    X, labels = cluster_labels_matrix(n_per_class=3, d=4, separation=6.0, sigma=1.0, seed=1)
    X[5, 1] = np.nan
    cfg = SvmTrainConfig()
    with pytest.raises(ValueError, match="non-finite value in X"):
        if call == "train_binary":
            train_binary(design_rows(X), np.where(np.asarray(labels) == 0, 1.0, -1.0), cfg)
        elif call == "train_ovr":
            train_ovr(X, labels, cfg)
        elif call == "cross_validate_c":
            cross_validate_c(X, labels, CV_GRID, cfg, folds=3)
        else:
            decision_scores(LinearSvmModel(np.zeros((7, 5)), cfg, fitted_chain(4)), X)


@pytest.mark.parametrize("zero_rows", [True, False])
def test_design_rows_are_the_chain_then_the_bias_column(zero_rows, monkeypatch):
    """train_ovr and decision_scores each fill one C-contiguous buffer with
    the chain's output beside the constant-1 column: train_ovr's fit writes
    into its buffer, all 7 of its train_binary calls receive that buffer,
    and decision_scores's scores are its buffer times the weights. The rows
    are checked byte for byte against the reference chain."""
    X, labels = cluster_labels_matrix(n_per_class=3, d=4, separation=6.0, sigma=1.0, seed=1)
    X = _with_zero_rows(X, zero_rows)
    solved, fitted, filled = [], [], []

    def recording_train_binary(rows, *args, **kwargs):
        solved.append(rows)
        return train_binary(rows, *args, **kwargs)

    def recording_fit_normalization(train, out=None):
        fitted.append(out)
        return fit_normalization(train, out=out)

    def recording_apply_normalization(x, params, out=None):
        filled.append(out)
        return apply_normalization(x, params, out=out)

    monkeypatch.setattr("emovid.svm.train_binary", recording_train_binary)
    monkeypatch.setattr("emovid.svm.fit_normalization", recording_fit_normalization)
    monkeypatch.setattr("emovid.svm.apply_normalization", recording_apply_normalization)
    model = train_ovr(X[:12], labels[:12], SvmTrainConfig())
    scores = decision_scores(model, X).scores
    chain = reference_apply_normalization(X, reference_fit_normalization(X[:12]))
    (train_out,), (predict_out,) = fitted, filled
    assert len(solved) == 7 and all(rows is train_out.base for rows in solved)
    for out, n in ((train_out, 12), (predict_out, X.shape[0])):
        design = out.base
        assert design.flags.c_contiguous and design.shape == (n, X.shape[1] + 1)
        assert design.tobytes() == design_rows(chain[:n]).tobytes()
    assert scores.tobytes() == (predict_out.base @ model.weights.T).tobytes()


def test_training_holds_one_copy_of_its_rows():
    """Under tracemalloc, at 300 x 2000 with 5 folds and one C, train_ovr
    peaks at its one design buffer plus a byte or so per value (1.17 x its
    input), and cross_validate_c at a fold's copy of its raw training
    rows, the design buffer its fit writes them into and the held-out rows
    (1.79 x). Before the fit wrote into
    the solver's rows they peaked at 2.03 x and 3.46 x. The solves stop
    after 3 passes; more passes allocate nothing more."""
    x = np.random.default_rng(0).standard_normal((300, 2000))
    labels = np.arange(300) % 7
    cfg = SvmTrainConfig(max_epochs=3)
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in (("train_ovr", lambda: train_ovr(x, labels, cfg)),
                           ("cross_validate_c", lambda: cross_validate_c(x, labels, [1.0], cfg))):
            tracemalloc.reset_peak()
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / x.nbytes
    finally:
        tracemalloc.stop()
    assert peaks["train_ovr"] <= 1.3, peaks
    assert peaks["cross_validate_c"] <= 2.3, peaks


def test_model_round_trip_bit_exact(tmp_path):
    X, labels = cluster_labels_matrix(n_per_class=4, d=6, separation=6.0, sigma=1.0, seed=11)
    model = train_ovr(X, labels, SvmTrainConfig(C=0.5, seed=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.weights == model.weights).all()
    assert loaded.config == model.config
    assert (loaded.normalization.range_scaler.mins == model.normalization.range_scaler.mins).all()
    assert (loaded.normalization.standardizer.stds == model.normalization.standardizer.stds).all()
    # identical bytes when re-saved
    again = tmp_path / "model2.json"
    save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_library_trained_model_saves_loads_and_applies(tmp_path):
    """train_ovr fits the chain on the rows it trains on; the model file
    carries it, and the loaded model scores raw rows bit for bit alike."""
    X, labels = cluster_labels_matrix(n_per_class=4, d=6, separation=6.0, sigma=1.0, seed=11)
    model = train_ovr(X, labels, SvmTrainConfig(C=0.5, seed=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.weights.tobytes() == model.weights.tobytes()
    chain = apply_normalization(X, fit_normalization(X))
    assert apply_normalization(X, loaded.normalization).tobytes() == chain.tobytes()
    assert decision_scores(loaded, X).scores.tobytes() == decision_scores(model, X).scores.tobytes()


def test_a_format_1_model_and_a_config_bias_are_refused(tmp_path):
    """Format 2 is the only model format, and config.bias is retired: an
    earlier writer's format-1 file, with every stage on, and a format-2
    file with config.bias true are each refused with one error."""
    X, labels = cluster_labels_matrix(n_per_class=4, d=6, separation=6.0, sigma=1.0, seed=11)
    model = train_ovr(X, labels, SvmTrainConfig(C=0.5, seed=3))
    save_model(model, tmp_path / "v2.json")
    assert '"bias"' not in (tmp_path / "v2.json").read_text()
    doc = model_to_dict(model)
    stages = {"range_scale": True, "rootsift": True, "standardize": True}
    format_1 = {**doc, "format_version": 1,
                "config": {**doc["config"], "bias": True, "normalization": stages}}
    with_bias = {**doc, "config": {**doc["config"], "bias": True}}
    for document, message in ((format_1, r"^unsupported model format_version: 1$"),
                              (with_bias, r"^unknown model keys: \['config\.bias'\]$")):
        write_json(document, tmp_path / "earlier.json")
        with pytest.raises(ValueError, match=message):
            load_model(tmp_path / "earlier.json")


@pytest.mark.parametrize("zero_rows", (False, True))
@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
def test_the_model_applies_its_own_normalization(tmp_path, flags, zero_rows):
    """flags = (unseen rows outside the fitted ranges, so the range scaler
    clips; a column wider than half the float64 maximum; a column constant
    in training, which standardizes to 0), and zero_rows sets two raw
    training rows to zero. In every case the weights are train_binary's on
    the chain's output, and scores of unseen raw rows go through the same
    chain, before and after a save."""
    clip, wide, constant = flags
    X, labels = cluster_labels_matrix(n_per_class=3, d=5, separation=4.0, sigma=1.0, seed=8)
    X = _with_zero_rows(X, zero_rows)
    unseen = 1.5 * X[::2] + 0.5 if clip else X[1::2].copy()
    if wide:
        X[:, 1] *= 1e307
        unseen[:, 1] *= 1e307
    if constant:
        X[:, 3] = 2.0
    cfg = SvmTrainConfig(C=0.5, seed=2)
    chain = fit_normalization(X)
    rows = design_rows(apply_normalization(X, chain))
    weights = np.stack([train_binary(rows, np.where(np.asarray(labels) == c, 1.0, -1.0),
                                     replace(cfg, seed=cfg.seed + c)) for c in range(7)])
    want = design_rows(apply_normalization(unseen, chain)) @ weights.T
    model = train_ovr(X, labels, cfg)
    save_model(model, tmp_path / "model.json")
    for got in (model, load_model(tmp_path / "model.json")):
        assert got.weights.tobytes() == weights.tobytes()
        assert decision_scores(got, unseen).scores.tobytes() == want.tobytes()


@pytest.mark.parametrize("norm_config, key", [
    ({"range_scaler": 2}, "range_scaler.mins"),
    ({"standardizer": 2}, "standardizer.means"),
])
def test_scaler_columns_must_match_the_weights(norm_config, key):
    """norm_config names the stage fitted on 2 columns; the other stage is
    fitted on as many columns as the weights have features."""
    def chain(width):
        widths = {"range_scaler": width, "standardizer": width, **norm_config}
        return NormalizationParams(fitted_chain(widths["range_scaler"]).range_scaler,
                                   fitted_chain(widths["standardizer"]).standardizer)

    LinearSvmModel(np.zeros((7, 3)), SvmTrainConfig(), chain(2))
    for width in (4, 2):  # the last weight column is the bias's
        with pytest.raises(ValueError, match=rf"'{key}': 2 columns, but the weights have "
                                             rf"{width - 1} features"):
            LinearSvmModel(np.zeros((7, width)), SvmTrainConfig(), chain(width - 1))


def test_model_load_rejects_bad_documents():
    model = LinearSvmModel(np.zeros((7, 3)), SvmTrainConfig(), fitted_chain(2))
    doc = model_to_dict(model)
    for version in (0, 1, 3, "2", None):
        with pytest.raises(ValueError, match="unsupported model format_version"):
            model_from_dict(dict(doc, format_version=version))
    bad_order = dict(doc, label_order=list(reversed(doc["label_order"])))
    with pytest.raises(ValueError, match="label order"):
        model_from_dict(bad_order)


@pytest.mark.parametrize("zero_rows", [True, False])
def test_ovr_rows_equal_binary_solves_bitwise(zero_rows):
    X, labels = cluster_labels_matrix(n_per_class=6, d=9, separation=3.0, sigma=1.0, seed=17)
    X = _with_zero_rows(X, zero_rows)
    cfg = SvmTrainConfig(C=0.5, seed=11)
    model = train_ovr(X, labels, cfg)
    rows = design_rows(apply_normalization(X, fit_normalization(X)))
    for c in range(7):
        y = np.where(np.asarray(labels) == c, 1.0, -1.0)
        w = train_binary(rows, y, replace(cfg, seed=cfg.seed + c))
        assert model.weights[c].tobytes() == w.tobytes()
    assert model.config == cfg
