import itertools
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emovid.normalize import (
    IDENTITY_NORMALIZATION,
    NormalizationConfig,
    NormalizationParams,
    apply_normalization,
    apply_range_scaler,
    apply_standardizer,
    fit_normalization,
    fit_range_scaler,
    fit_standardizer,
    rootsift,
)


def test_fit_range_scaler_examples():
    params = fit_range_scaler(np.array([[3.0, -1.0]]))
    np.testing.assert_array_equal(params.mins, params.maxs)
    params = fit_range_scaler(np.array([[-2.0], [0.0], [2.0]]))
    assert (params.mins[0], params.maxs[0]) == (-2.0, 2.0)
    with pytest.raises(ValueError, match="empty"):
        fit_range_scaler(np.empty((0, 3)))
    with pytest.raises(ValueError, match="ndim 2, got ndim=1"):
        fit_range_scaler(np.zeros(3))


def test_fit_range_scaler_matches_linear_scan_oracle():
    rng = np.random.default_rng(55)
    matrix = rng.standard_normal((50, 8))
    params = fit_range_scaler(matrix)
    for j in range(8):
        lo = hi = matrix[0, j]
        for i in range(50):
            lo = min(lo, matrix[i, j])
            hi = max(hi, matrix[i, j])
        assert params.mins[j] == lo and params.maxs[j] == hi


def test_apply_range_scaler_examples():
    params = fit_range_scaler(np.array([[-2.0], [2.0]]))
    assert apply_range_scaler(np.array([1.0]), params)[0] == 0.5
    assert apply_range_scaler(np.array([3.0]), params)[0] == 1.0  # clipped
    degenerate = fit_range_scaler(np.array([[5.0]]))
    assert apply_range_scaler(np.array([5.0]), degenerate)[0] == 0.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_range_scaler(np.zeros(2), params)


def test_range_scaler_columns_wider_than_half_the_float64_maximum():
    # from -1e308 to 1e308 the span passes the float64 maximum, and from 0 to
    # 1.5e308 so does 2 * (x - min); both map exactly, with no warning
    train = np.array([[-1e308, 1.0, 0.0], [1e308, 2.0, 1.5e308], [0.0, 3.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = apply_range_scaler(train, fit_range_scaler(train))
        fit_normalization(train[:, :2])
    np.testing.assert_allclose(scaled, [[-1, -1, -1], [1, 0, 1], [0, 1, 1 / 3]], rtol=0,
                               atol=1e-15)
    # the other columns take the plain affine map, bit for bit
    rng = np.random.default_rng(12)
    rows = np.hstack([rng.standard_normal((6, 3)) * 1e3, [[-1e308], [1e308]] * 3])
    scaler = fit_range_scaler(rows)
    span = scaler.maxs[:3] - scaler.mins[:3]
    naive = np.clip(2.0 * (rows[:, :3] - scaler.mins[:3]) / span - 1.0, -1.0, 1.0)
    assert apply_range_scaler(rows, scaler)[:, :3].tobytes() == naive.tobytes()


def test_range_scaler_endpoints_attained_on_train():
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((20, 6))
    params = fit_range_scaler(matrix)
    scaled = apply_range_scaler(matrix, params)
    assert (scaled >= -1.0).all() and (scaled <= 1.0).all()
    np.testing.assert_array_equal(scaled.min(axis=0), -np.ones(6))
    np.testing.assert_array_equal(scaled.max(axis=0), np.ones(6))


def test_rootsift_examples():
    np.testing.assert_array_equal(rootsift(np.array([1.0])), [1.0])
    out = rootsift(np.full(9, 3.0))
    np.testing.assert_allclose(out, np.full(9, 1.0 / 3.0), rtol=1e-15)
    # hand evaluation of sign(x)*sqrt(|x|/||x||_1) for x=[4,-1]
    out = rootsift(np.array([4.0, -1.0]))
    np.testing.assert_allclose(out, [0.8944271909999159, -0.4472135954999579], rtol=1e-15)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    np.testing.assert_array_equal(rootsift(np.zeros(4)), np.zeros(4))


def test_rootsift_of_a_row_whose_l1_norm_overflows():
    rows = np.array([[1e308, -1e308, 1.0], [1.0, -2.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rootsift(rows)
        rootsift_only = fit_normalization(rows, NormalizationConfig(False, True, False))
        chain = apply_normalization(rows, rootsift_only)
    # the map is scale-invariant: the row's value is that of [1, -1, 1e-308]
    np.testing.assert_allclose(out[0], [0.5 ** 0.5, -(0.5 ** 0.5), 7.0710678118654755e-155],
                               rtol=1e-12)
    assert out[1].tobytes() == rootsift(rows[1]).tobytes()
    assert chain.tobytes() == out.tobytes()


def test_rootsift_unit_norm_and_sign_preservation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        dim = int(rng.integers(1, 200))
        x = rng.standard_normal(dim) * rng.uniform(1e-3, 1e3)
        y = rootsift(x)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-9
        np.testing.assert_array_equal(np.sign(y), np.sign(x))
        assert np.argmax(np.abs(y)) == np.argmax(np.abs(x))


def test_fit_standardizer_examples():
    params = fit_standardizer(np.array([[0.0], [2.0]]))
    assert (params.means[0], params.stds[0]) == (1.0, 1.0)
    params = fit_standardizer(np.full((5, 2), 3.25))
    np.testing.assert_array_equal(params.means, [3.25, 3.25])
    np.testing.assert_array_equal(params.stds, [0.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        fit_standardizer(np.empty((0, 2)))
    with pytest.raises(ValueError, match="ndim 2, got ndim=1"):
        fit_standardizer(np.zeros(2))


def test_fit_standardizer_matches_two_pass_oracle():
    rng = np.random.default_rng(77)
    matrix = rng.standard_normal((100, 5)) * 4 + 1
    params = fit_standardizer(matrix)
    for j in range(5):
        mean = sum(matrix[i, j] for i in range(100)) / 100.0
        var = sum((matrix[i, j] - mean) ** 2 for i in range(100)) / 100.0
        assert abs(params.means[j] - mean) <= 1e-12
        assert abs(params.stds[j] - np.sqrt(var)) <= 1e-12


def test_apply_standardizer_examples():
    params = fit_standardizer(np.array([[-1.0], [3.0]]))  # mean 1, std 2
    assert apply_standardizer(np.array([5.0]), params)[0] == 2.0
    degenerate = fit_standardizer(np.full((3, 1), 4.0))
    assert apply_standardizer(np.array([9.0]), degenerate)[0] == 0.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_standardizer(np.zeros(2), params)


def test_standardized_train_has_zero_mean_unit_std():
    rng = np.random.default_rng(31)
    matrix = rng.standard_normal((40, 7)) * 3 - 2
    params = fit_standardizer(matrix)
    out = apply_standardizer(matrix, params)
    np.testing.assert_allclose(out.mean(axis=0), np.zeros(7), atol=1e-9)
    np.testing.assert_allclose(out.std(axis=0), np.ones(7), atol=1e-9)


def test_normalize_pipeline_train_equals_others():
    rng = np.random.default_rng(4)
    matrix = rng.standard_normal((12, 5))
    params = fit_normalization(matrix)
    train_out, others_out = apply_normalization(matrix, params), apply_normalization(matrix, params)
    np.testing.assert_array_equal(train_out, others_out)
    assert params.range_scaler is not None and params.standardizer is not None


def test_normalize_pipeline_rootsift_stage_unit_norm():
    rng = np.random.default_rng(21)
    matrix = rng.standard_normal((15, 6))
    params = fit_normalization(matrix, NormalizationConfig(standardize=False))
    out = apply_normalization(matrix, params)
    norms = np.linalg.norm(out, axis=1)
    np.testing.assert_allclose(norms, np.ones(15), atol=1e-9)


def test_normalize_pipeline_single_train_video_maps_to_zero():
    rng = np.random.default_rng(2)
    train = rng.standard_normal((1, 8))
    others = rng.standard_normal((4, 8))
    params = fit_normalization(train)
    train_out, others_out = apply_normalization(train, params), apply_normalization(others, params)
    np.testing.assert_array_equal(train_out, np.zeros((1, 8)))
    np.testing.assert_array_equal(others_out, np.zeros((4, 8)))


def test_normalize_pipeline_deterministic():
    rng = np.random.default_rng(66)
    train = rng.standard_normal((10, 4))
    others = rng.standard_normal((3, 4))
    a_params, b_params = fit_normalization(train), fit_normalization(train.copy())
    a_train, a_others = apply_normalization(train, a_params), apply_normalization(others, a_params)
    b_train = apply_normalization(train.copy(), b_params)
    b_others = apply_normalization(others.copy(), b_params)
    assert (a_train == b_train).all() and (a_others == b_others).all()


def test_normalization_toggles():
    rng = np.random.default_rng(14)
    matrix = rng.standard_normal((6, 3))
    params = fit_normalization(matrix, NormalizationConfig(False, False, False))
    np.testing.assert_array_equal(apply_normalization(matrix, params), matrix)
    assert params.range_scaler is None and params.standardizer is None


@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
def test_stage_params_are_set_exactly_when_the_stage_is_on(flags):
    config = NormalizationConfig(*flags)
    matrix = np.random.default_rng(9).standard_normal((5, 3))
    fitted = fit_normalization(matrix, config)
    NormalizationParams(config, fitted.range_scaler, fitted.standardizer)
    full = fit_normalization(matrix)
    for key, flag in (("range_scaler", "range_scale"), ("standardizer", "standardize")):
        scalers = {"range_scaler": fitted.range_scaler, "standardizer": fitted.standardizer}
        if getattr(config, flag):
            scalers[key] = None
            message = f"'{key}': null, but config.normalization.{flag} is true"
        else:
            scalers[key] = getattr(full, key)
            message = f"'config.normalization.{flag}': false, but '{key}' is set"
        with pytest.raises(ValueError, match=message):
            NormalizationParams(config, **scalers)


def test_identity_normalization_returns_its_input():
    matrix = np.random.default_rng(4).standard_normal((4, 3))
    assert apply_normalization(matrix, IDENTITY_NORMALIZATION).tobytes() == matrix.tobytes()
    assert fit_normalization(matrix, NormalizationConfig(False, False, False)) == (
        IDENTITY_NORMALIZATION
    )


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 40)),
              elements=st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 5e-324])))
def test_rootsift_rows_have_unit_norm(x):
    y = rootsift(x)
    nonzero = np.abs(x).sum(axis=1) > 0
    assert np.all(np.abs(np.linalg.norm(y[nonzero], axis=1) - 1.0) <= 1e-12)
    assert not y[~nonzero].any()


def test_degenerate_columns_logged_once(caplog):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4))
    X[:, 1] = 3.0
    X[:, 3] = -1.0
    with caplog.at_level(logging.WARNING, logger="emovid"):
        fit_normalization(X)
    assert [r.getMessage() for r in caplog.records] == [
        "2 of 4 columns have a fitted std below 1e-12 and standardize to 0"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="emovid"):
        fit_normalization(rng.standard_normal((6, 4)))
        fit_normalization(X, NormalizationConfig(standardize=False))
    assert caplog.records == []
