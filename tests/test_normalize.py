import itertools
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import (
    reference_apply_normalization,
    reference_fit_normalization,
    reference_range_scaler,
    reference_rootsift,
    reference_standardizer,
)

from emovid.normalize import (
    _STD_BLOCK,
    NormalizationParams,
    StandardizerParams,
    _column_stds,
    _range_scale,
    _standardize,
    apply_normalization,
    fit_normalization,
    fit_range_scaler,
    rootsift,
)
from emovid.svm import LinearSvmModel, SvmTrainConfig, model_from_dict, model_to_dict


def range_scaled(x, params):
    """The range-scaling stage alone, into a new array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    _range_scale(x, params, out)
    return out


def standardizer_fit(train):
    """The standardizer's fit alone, as fit_normalization takes it on the
    rootsift stage's output: each column's mean and population std."""
    return StandardizerParams(train.mean(axis=0), _column_stds(train))


def standardized(x, params):
    """The standardization stage alone, on a copy of x."""
    out = np.array(x, dtype=np.float64)
    _standardize(out, params)
    return out


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
    assert range_scaled(np.array([1.0]), params)[0] == 0.5
    assert range_scaled(np.array([3.0]), params)[0] == 1.0  # clipped
    degenerate = fit_range_scaler(np.array([[5.0]]))
    assert range_scaled(np.array([5.0]), degenerate)[0] == 0.0
    chain = NormalizationParams(params, StandardizerParams([0.0], [1.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_normalization(np.zeros(2), chain)


def test_range_scaler_columns_wider_than_half_the_float64_maximum():
    # from -1e308 to 1e308 the span passes the float64 maximum, and from 0 to
    # 1.5e308 so does 2 * (x - min); both map exactly, with no warning
    train = np.array([[-1e308, 1.0, 0.0], [1e308, 2.0, 1.5e308], [0.0, 3.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = range_scaled(train, fit_range_scaler(train))
        fit_normalization(train[:, :2])
    np.testing.assert_allclose(scaled, [[-1, -1, -1], [1, 0, 1], [0, 1, 1 / 3]], rtol=0,
                               atol=1e-15)
    # the other columns take the plain affine map, bit for bit
    rng = np.random.default_rng(12)
    rows = np.hstack([rng.standard_normal((6, 3)) * 1e3, [[-1e308], [1e308]] * 3])
    scaler = fit_range_scaler(rows)
    span = scaler.maxs[:3] - scaler.mins[:3]
    naive = np.clip(2.0 * (rows[:, :3] - scaler.mins[:3]) / span - 1.0, -1.0, 1.0)
    assert range_scaled(rows, scaler)[:, :3].tobytes() == naive.tobytes()


def test_range_scaler_endpoints_attained_on_train():
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((20, 6))
    params = fit_range_scaler(matrix)
    scaled = range_scaled(matrix, params)
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
    # the map is scale-invariant: the row's value is that of [1, -1, 1e-308]
    np.testing.assert_allclose(out[0], [0.5 ** 0.5, -(0.5 ** 0.5), 7.0710678118654755e-155],
                               rtol=1e-12)
    assert out[1].tobytes() == rootsift(rows[1]).tobytes()


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
    params = standardizer_fit(np.array([[0.0], [2.0]]))
    assert (params.means[0], params.stds[0]) == (1.0, 1.0)
    params = standardizer_fit(np.full((5, 2), 3.25))
    np.testing.assert_array_equal(params.means, [3.25, 3.25])
    np.testing.assert_array_equal(params.stds, [0.0, 0.0])
    # the chain's fit refuses these before its standardizer sees them
    with pytest.raises(ValueError, match="empty"):
        fit_normalization(np.empty((0, 2)))
    with pytest.raises(ValueError, match="ndim 2, got ndim=1"):
        fit_normalization(np.zeros(2))


def test_fit_standardizer_matches_two_pass_oracle():
    rng = np.random.default_rng(77)
    matrix = rng.standard_normal((100, 5)) * 4 + 1
    params = standardizer_fit(matrix)
    for j in range(5):
        mean = sum(matrix[i, j] for i in range(100)) / 100.0
        var = sum((matrix[i, j] - mean) ** 2 for i in range(100)) / 100.0
        assert abs(params.means[j] - mean) <= 1e-12
        assert abs(params.stds[j] - np.sqrt(var)) <= 1e-12


def test_apply_standardizer_examples():
    params = standardizer_fit(np.array([[-1.0], [3.0]]))  # mean 1, std 2
    assert standardized(np.array([5.0]), params)[0] == 2.0
    degenerate = standardizer_fit(np.full((3, 1), 4.0))
    assert standardized(np.array([9.0]), degenerate)[0] == 0.0
    chain = NormalizationParams(fit_range_scaler(np.zeros((1, 2))), params)
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_normalization(np.zeros(2), chain)


def test_standardized_train_has_zero_mean_unit_std():
    rng = np.random.default_rng(31)
    matrix = rng.standard_normal((40, 7)) * 3 - 2
    params = standardizer_fit(matrix)
    out = standardized(matrix, params)
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
    """The standardizer is fit on the rootsift stage's output: rows of unit
    norm, whose columns it then centres and scales."""
    rng = np.random.default_rng(21)
    matrix = rng.standard_normal((15, 6))
    params = fit_normalization(matrix)
    stage_2 = rootsift(range_scaled(matrix, params.range_scaler))
    np.testing.assert_allclose(np.linalg.norm(stage_2, axis=1), np.ones(15), atol=1e-9)
    assert params.standardizer.means.tobytes() == stage_2.mean(axis=0).tobytes()
    assert params.standardizer.stds.tobytes() == stage_2.std(axis=0).tobytes()
    out = apply_normalization(matrix, params)
    assert out.tobytes() == standardized(stage_2, params.standardizer).tobytes()


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


@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
def test_stage_params_are_set_exactly_when_the_stage_is_on(flags):
    """The chain is always all three stages, so a model document holds the
    parameters of both fitted stages: one with a stage's parameters null is
    refused, naming the first such key. A format-1 document stored the
    stages' on/off flags and a stage's parameters exactly when it was on;
    it is refused whatever its flags."""
    matrix = np.random.default_rng(9).standard_normal((5, 3))
    fitted = fit_normalization(matrix)
    doc = model_to_dict(LinearSvmModel(np.zeros((7, 4)), SvmTrainConfig(), fitted))
    stages = dict(zip(("range_scale", "rootsift", "standardize"), flags))
    off = [key for key, flag in (("range_scaler", "range_scale"), ("standardizer", "standardize"))
           if not stages[flag]]
    for key in off:
        doc[key] = None
    if off:
        with pytest.raises(ValueError, match=rf"^model key '{off[0]}': expected an object, "
                                             r"got None$"):
            model_from_dict(doc)
    else:
        loaded = model_from_dict(doc).normalization
        for want, got in ((fitted.range_scaler, loaded.range_scaler),
                          (fitted.standardizer, loaded.standardizer)):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(vars(want).values(),
                                                                  vars(got).values()))
    format_1 = {**doc, "format_version": 1, "config": {**doc["config"], "normalization": stages}}
    with pytest.raises(ValueError, match=r"^unsupported model format_version: 1$"):
        model_from_dict(format_1)


# finite float64 values, the extremes and subnormals drawn often
chain_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
)


# (training rows, other rows, columns made constant in the training rows)
chain_data = st.integers(1, 4).flatmap(lambda d: st.tuples(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)), elements=chain_floats),
    arrays(np.float64, st.tuples(st.integers(1, 4), st.just(d)), elements=chain_floats),
    st.lists(st.integers(0, d - 1), max_size=d),
))


@settings(max_examples=300, deadline=None)
@given(chain_data)
def test_the_chain_fits_any_finite_matrix_and_maps_finite_rows_to_finite_values(data):
    train, rows, constant = data
    train[:, constant] = train[:1, constant]  # some columns constant at fit time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = fit_normalization(train)
        for x in (train, rows, rows[0]):
            out = apply_normalization(x, params)
            assert out.shape == x.shape and np.isfinite(out).all()
    # the standardizer is fit on rootsift output only, whose values lie in [-1, 1]
    assert np.abs(rootsift(range_scaled(train, params.range_scaler))).max() <= 1.0


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# a row whose L1 norm overflows, so rootsift divides it by its largest
# magnitude first, which shrinks -5e-324 to -0.0, whose sign is 0
_MAX = 1.7976931348623157e308


def _design(x):
    """A buffer of x's shape plus one trailing column of 1s, and the view
    of it beside that column."""
    design = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    design[..., -1] = 1.0
    return design, design[..., :-1]


# 9 rows or more: numpy sums one column pairwise but the columns of a wider
# block row by row, and those sums differ in the last bit here; the second
# example's last column would be a 1-wide block of fit_normalization's std
@settings(max_examples=300, deadline=None)
@given(chain_data)
@example((np.array([[_MAX, _MAX, -5e-324], [0.0, -_MAX, 1.0]]),
          np.array([[_MAX, _MAX, -5e-324]]), []))
@example((np.random.default_rng(0).standard_normal((12, 1)), np.ones((2, 1)), []))
@example((np.random.default_rng(4).standard_normal((9, _STD_BLOCK + 1)),
          np.ones((2, _STD_BLOCK + 1)), []))
def test_the_in_place_chain_is_bit_equal_to_the_reference(data):
    """Every stage writes into one buffer; the reference in tests/helpers.py
    evaluates the same formulas as whole-array expressions, and the std as
    one np.std over the whole matrix. The fit into a new array, into a view
    beside a bias column and into its own input, the chain into each of
    those, and each stage alone give the reference's bits, -0.0 and
    subnormals included."""
    train, rows, constant = data
    train[:, constant] = train[:1, constant]
    want = reference_fit_normalization(train)
    fitted = reference_apply_normalization(train, want)
    design, beside = _design(train)
    own = train.copy()
    for out in (None, np.empty(train.shape), beside, own):
        params = fit_normalization(own if out is own else train, out=out)
        for got, ref in ((params.range_scaler, want.range_scaler),
                         (params.standardizer, want.standardizer)):
            assert all(_same_bits(a, b) for a, b in zip(vars(got).values(), vars(ref).values()))
        if out is not None:
            assert _same_bits(out.copy(), fitted)
    assert (design[:, -1] == 1.0).all()
    for x in (train, rows, rows[0]):
        expected = reference_apply_normalization(x, params)
        assert _same_bits(apply_normalization(x, params), expected)
        design, beside = _design(x)
        out = apply_normalization(x, params, out=beside)
        assert out.base is design and _same_bits(beside.copy(), expected)
        assert (design[..., -1] == 1.0).all()
        own = x.copy()
        assert apply_normalization(own, params, out=own) is own and _same_bits(own, expected)
        # each stage alone, on raw values: rootsift sees rows whose L1 norm overflows
        assert _same_bits(rootsift(x), reference_rootsift(x))
        assert _same_bits(range_scaled(x, params.range_scaler),
                          reference_range_scaler(x, params.range_scaler))
        scaled = reference_rootsift(reference_range_scaler(x, params.range_scaler))
        assert _same_bits(standardized(scaled, params.standardizer),
                          reference_standardizer(scaled, params.standardizer))


def test_apply_normalization_refuses_an_out_buffer_of_another_shape_or_dtype():
    """fit_normalization refuses such a buffer with the same error."""
    params = fit_normalization(np.random.default_rng(1).standard_normal((4, 3)))
    x = np.ones((2, 3))
    for out in (np.empty((2, 4)), np.empty((3,)), np.empty((2, 3), dtype=np.float32)):
        with pytest.raises(ValueError, match=r"out must be float64 of shape \(2, 3\)"):
            apply_normalization(x, params, out=out)
        with pytest.raises(ValueError, match=r"out must be float64 of shape \(2, 3\)"):
            fit_normalization(x, out=out)


def test_the_chain_holds_one_copy_of_its_rows():
    """Under tracemalloc, apply_normalization and fit_normalization each
    peak at their one buffer plus rootsift's one byte of sign per value: at
    most 1.3 times the input (1.13 x each at 773 x 12288, the paper's size;
    the fit took 2.00 x while its std held an n x D temporary, and the
    whole-array formulas of tests/helpers.py peak at 4.0 x)."""
    x = np.random.default_rng(0).standard_normal((200, 2000))
    params = fit_normalization(x)
    tracemalloc.start()
    try:
        fit_normalization(x)
        _, fit_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = apply_normalization(x, params)
        _, apply_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == x.nbytes  # the output is part of the peak
    assert apply_peak <= 1.3 * x.nbytes, apply_peak / x.nbytes
    assert fit_peak <= 1.3 * x.nbytes, fit_peak / x.nbytes


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)), elements=chain_floats))
def test_every_fitted_chain_passes_the_model_load_checks(train):
    """A model file is refused standardizer parameters that no fit can
    produce; every fit's parameters pass, so no model train writes is."""
    params = fit_normalization(train)
    model = LinearSvmModel(np.zeros((7, train.shape[1] + 1)), SvmTrainConfig(), params)
    loaded = model_from_dict(model_to_dict(model)).normalization.standardizer
    assert loaded.means.tobytes() == params.standardizer.means.tobytes()
    assert loaded.stds.tobytes() == params.standardizer.stds.tobytes()


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
    assert caplog.records == []
