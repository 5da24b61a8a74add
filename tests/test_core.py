import numpy as np
import pytest

from emovid.core import (
    EMOTION_NAMES,
    NUM_CLASSES,
    ClassWeights,
    EmotionLabel,
    FrameFeatureSequence,
    ScoreMatrix,
    label_from_name,
)


def test_canonical_label_order():
    assert EMOTION_NAMES == ("Angry", "Disgust", "Fear", "Happy", "Neutral", "Sad", "Surprise")
    assert [int(l) for l in EmotionLabel] == list(range(7))


def test_label_from_name_examples():
    assert label_from_name("Happy") == EmotionLabel.HAPPY == 3
    assert label_from_name("neutral") == EmotionLabel.NEUTRAL == 4
    with pytest.raises(ValueError, match="Joy"):
        label_from_name("Joy")


def test_label_name_round_trip():
    for i in range(NUM_CLASSES):
        assert int(label_from_name(EMOTION_NAMES[i])) == i
        assert EmotionLabel(i).display_name == EMOTION_NAMES[i]


def test_frame_sequence_validation():
    seq = FrameFeatureSequence("v", np.zeros((3, 2, 4)))
    assert (seq.num_frames, seq.num_variants, seq.dim) == (3, 2, 4)
    with pytest.raises(ValueError, match="ndim"):
        FrameFeatureSequence("v", np.zeros((3, 4)))
    with pytest.raises(ValueError, match="non-empty"):
        FrameFeatureSequence("v", np.zeros((0, 1, 4)))
    bad = np.zeros((2, 1, 2))
    bad[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FrameFeatureSequence("v", bad)


def test_frame_sequence_is_immutable_and_copied():
    source = np.ones((2, 1, 3))
    seq = FrameFeatureSequence("v", source)
    source[0, 0, 0] = 99.0
    assert seq.frames[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        seq.frames[0, 0, 0] = 5.0


def test_from_matrix_adds_variant_axis():
    seq = FrameFeatureSequence.from_matrix("v", [[1.0, 2.0], [3.0, 4.0]])
    assert seq.frames.shape == (2, 1, 2)


def test_score_matrix_validation():
    sm = ScoreMatrix(("a", "b"), np.zeros((2, 7)))
    assert sm.num_videos == 2
    with pytest.raises(ValueError, match=r"\(N, 7\)"):
        ScoreMatrix(("a",), np.zeros((1, 6)))
    with pytest.raises(ValueError, match="2 video ids"):
        ScoreMatrix(("a", "b"), np.zeros((3, 7)))


def test_class_weights_validation():
    ClassWeights(np.full(7, 1.0 / 7.0))
    with pytest.raises(ValueError, match="sum"):
        ClassWeights(np.full(7, 0.2))
    with pytest.raises(ValueError, match="nonnegative"):
        ClassWeights(np.array([1.2, -0.2, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="shape"):
        ClassWeights(np.full(6, 1.0 / 6.0))
