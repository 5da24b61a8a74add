import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emovid.core import ClassWeights, EmotionLabel, ScoreMatrix
from emovid.ensemble import (
    apply_class_weights,
    class_weights_from_counts,
    combine_streams,
    predict,
    read_predictions,
    read_scores,
    run_ensemble,
    softmax_rows,
    write_predictions,
    write_scores,
)

TEST_SET_COUNTS = (98, 40, 70, 144, 193, 80, 28)


def test_weights_from_observed_test_counts():
    weights = class_weights_from_counts(TEST_SET_COUNTS).weights
    np.testing.assert_array_equal(
        np.round(weights, 2), [0.15, 0.10, 0.13, 0.19, 0.21, 0.14, 0.08]
    )
    roots = np.sqrt(np.asarray(TEST_SET_COUNTS, dtype=float))
    np.testing.assert_allclose(weights, roots / roots.sum(), rtol=0, atol=1e-12)


def test_weights_from_counts_edge_cases():
    np.testing.assert_allclose(
        class_weights_from_counts([5] * 7).weights, np.full(7, 1.0 / 7.0), atol=1e-15
    )
    np.testing.assert_allclose(
        class_weights_from_counts([4, 1, 0, 0, 0, 0, 0]).weights,
        [2.0 / 3.0, 1.0 / 3.0, 0, 0, 0, 0, 0],
        atol=1e-15,
    )
    with pytest.raises(ValueError, match="positive"):
        class_weights_from_counts([0] * 7)
    with pytest.raises(ValueError, match="nonnegative"):
        class_weights_from_counts([1, -1, 1, 1, 1, 1, 1])


def scores_of(rows, prefix="v"):
    rows = np.asarray(rows, dtype=float)
    return ScoreMatrix(tuple(f"{prefix}{i}" for i in range(rows.shape[0])), rows)


def test_combine_single_stream_is_its_softmax():
    stream = scores_of(np.arange(14.0).reshape(2, 7) - 20)
    combined = combine_streams([stream])
    assert combined.scores.tobytes() == softmax_rows(stream.scores).tobytes()
    assert combined.video_ids == stream.video_ids


def test_combine_averages_softmax_rows_elementwise():
    a = scores_of([[1, 0, 0, 0, 0, 0, 0]])
    b = scores_of([[0, 1, 0, 0, 0, 0, 0]])
    combined = combine_streams([a, b])
    peak, rest = np.e / (np.e + 6), 1 / (np.e + 6)  # softmax of a one-hot row
    np.testing.assert_allclose(combined.scores, [[(peak + rest) / 2] * 2 + [rest] * 5],
                               rtol=0, atol=1e-15)


def test_combine_softmax_rows_sum_to_one():
    rng = np.random.default_rng(40)
    streams = [scores_of(rng.standard_normal((5, 7)) * 3) for _ in range(3)]
    combined = combine_streams(streams)
    sums = combined.scores.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert (combined.scores >= 0).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    arrays(np.float64, (n, 7), elements=st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])),
    min_size=2, max_size=4)))
def test_combine_stream_order_invariance(score_rows):
    """Two streams combine to the same bits in either order, since a + b is
    b + a; three or more combine alike within rounding."""
    streams = [scores_of(rows) for rows in score_rows]
    combined = combine_streams(streams).scores
    for order in itertools.permutations(streams):
        reordered = combine_streams(order).scores
        if len(streams) == 2:
            assert reordered.tobytes() == combined.tobytes()
        np.testing.assert_allclose(reordered, combined, rtol=0, atol=4e-16 * len(streams))


def test_combine_rejects_id_mismatch():
    a = scores_of(np.zeros((2, 7)), prefix="a")
    b = scores_of(np.zeros((2, 7)), prefix="b")
    with pytest.raises(ValueError, match="b0"):
        combine_streams([a, b])
    # a later stream with no rows: the first id it lacks is the offender
    with pytest.raises(ValueError, match="first offender: '<missing a0>'"):
        combine_streams([a, scores_of(np.zeros((0, 7)))])
    with pytest.raises(ValueError, match="first offender: '<missing a1>'"):
        combine_streams([a, scores_of(np.zeros((1, 7)), prefix="a")])
    with pytest.raises(ValueError, match="at least one"):
        combine_streams([])


def test_softmax_is_stable_for_large_scores():
    probs = softmax_rows(np.array([[1000.0, 0, 0, 0, 0, 0, 0]]))
    assert np.isfinite(probs).all()
    assert probs[0, 0] == pytest.approx(1.0)


def test_apply_class_weights_uniform_keeps_argmax():
    rng = np.random.default_rng(42)
    scores = scores_of(rng.random((10, 7)))
    uniform = ClassWeights(np.full(7, 1.0 / 7.0))
    weighted = apply_class_weights(scores, uniform)
    assert (scores.scores.argmax(axis=1) == weighted.scores.argmax(axis=1)).all()


def test_apply_class_weights_moves_ties_toward_heavier_class():
    weights = class_weights_from_counts(TEST_SET_COUNTS)
    # Disgust (w=0.10) ties Neutral (w=0.21); the rest share the remainder
    row = np.array([[0.08, 0.3, 0.08, 0.08, 0.3, 0.08, 0.08]])
    weighted = apply_class_weights(scores_of(row), weights)
    # independent recomputation
    expected = row[0] * weights.weights
    np.testing.assert_allclose(weighted.scores[0], expected, atol=1e-15)
    assert predict(weighted)[0] == EmotionLabel.NEUTRAL


def test_apply_class_weights_zero_weight_annihilates():
    rng = np.random.default_rng(43)
    weights = class_weights_from_counts([4, 1, 0, 0, 0, 0, 0])
    scores = scores_of(rng.random((50, 7)))
    weighted = apply_class_weights(scores, weights)
    assert not any(p in (2, 3, 4, 5, 6) for p in predict(weighted))


def test_weight_scale_invariance_of_predict():
    # multiplying all weights by a positive constant is the same as scaling
    # the weighted scores, which cannot move any argmax
    rng = np.random.default_rng(46)
    weights = class_weights_from_counts(TEST_SET_COUNTS)
    scores = scores_of(rng.random((25, 7)))
    weighted = apply_class_weights(scores, weights)
    rescaled = ScoreMatrix(weighted.video_ids, weighted.scores * 17.5)
    assert predict(weighted) == predict(rescaled)


def test_apply_class_weights_rejects_negative_scores():
    weights = class_weights_from_counts([1] * 7)
    with pytest.raises(ValueError, match="nonnegative"):
        apply_class_weights(scores_of([[-1, 0, 0, 0, 0, 0, 0]]), weights)


def test_predict_examples():
    assert predict(scores_of([[0, 0, 0, 5, 0, 0, 0]])) == [EmotionLabel.HAPPY]
    assert predict(scores_of([[1, 1, 1, 1, 1, 1, 1]])) == [EmotionLabel.ANGRY]


def test_predict_matches_naive_scan_oracle():
    rng = np.random.default_rng(44)
    scores = scores_of(rng.standard_normal((30, 7)))
    got = [int(p) for p in predict(scores)]
    for i in range(30):
        best = 0
        for c in range(1, 7):
            if scores.scores[i, c] > scores.scores[i, best]:
                best = c
        assert got[i] == best


def test_run_ensemble_weights_the_softmax_average():
    rng = np.random.default_rng(47)
    streams = [scores_of(rng.standard_normal((6, 7)) * 4) for _ in range(2)]
    weights = class_weights_from_counts(TEST_SET_COUNTS)
    combined = combine_streams(streams)
    assert run_ensemble(streams).scores.tobytes() == combined.scores.tobytes()
    weighted = run_ensemble(streams, weights)
    assert weighted.scores.tobytes() == (combined.scores * weights.weights).tobytes()


def test_score_csv_round_trip(tmp_path):
    rng = np.random.default_rng(45)
    scores = scores_of(rng.standard_normal((6, 7)) * 1e3)
    path = tmp_path / "scores.csv"
    write_scores(scores, path)
    loaded = read_scores(path)
    assert loaded.video_ids == scores.video_ids
    assert (loaded.scores == scores.scores).all()
    with pytest.raises(ValueError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b\n")
        read_scores(bad)


def test_predictions_csv_round_trip(tmp_path):
    ids = ("a", "b", "c")
    labels = [EmotionLabel.HAPPY, EmotionLabel.SAD, EmotionLabel.ANGRY]
    path = tmp_path / "pred.csv"
    write_predictions(ids, labels, path)
    got_ids, got_labels = read_predictions(path)
    assert got_ids == ids and got_labels == labels
