import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emovid.aggregate import (
    AggregationConfig,
    aggregate_fft_mean,
    aggregate_max,
    aggregate_mean,
    aggregate_min,
    aggregate_std,
    average_variants,
    build_video_descriptor,
    shuffle_frames,
)
from emovid.core import FrameFeatureSequence
from emovid.synth import oracle_dft


def seq_from(matrix, video_id="v"):
    return FrameFeatureSequence.from_matrix(video_id, np.asarray(matrix, dtype=float))


def test_aggregation_config_validation():
    cfg = AggregationConfig(("mean", "fft"))
    assert cfg.aggregators == ("mean", "fft")
    with pytest.raises(ValueError, match="non-empty"):
        AggregationConfig(())
    with pytest.raises(ValueError, match="unknown"):
        AggregationConfig(("mean", "median"))
    with pytest.raises(ValueError, match="duplicate"):
        AggregationConfig(("mean", "mean"))


def test_average_variants_identity_on_single_variant():
    seq = seq_from([[1.0, 2.0]])
    assert average_variants(seq) is seq


def test_average_variants_hand_arithmetic():
    # one frame, two variants [1,3] and [3,5]
    frames = np.array([[[1.0, 3.0], [3.0, 5.0]]])
    out = average_variants(FrameFeatureSequence("v", frames))
    assert out.num_variants == 1
    np.testing.assert_array_equal(out.frames[0, 0], [2.0, 4.0])


def test_average_variants_constant_idempotent():
    v = np.array([0.5, -1.5, 2.0])
    frames = np.tile(v, (4, 18, 1))
    out = average_variants(FrameFeatureSequence("v", frames))
    assert out.frames.shape == (4, 1, 3)
    np.testing.assert_allclose(out.frames[:, 0, :], np.tile(v, (4, 1)), rtol=0, atol=1e-15)


def test_mean_constant_and_pair():
    v = np.array([2.0, -3.0])
    np.testing.assert_array_equal(aggregate_mean(np.tile(v, (5, 1))), v)
    np.testing.assert_array_equal(aggregate_mean(np.array([[0.0], [2.0]])), [1.0])


def test_mean_matches_summation_oracle():
    rng = np.random.default_rng(101)
    frames = rng.standard_normal((5, 3))
    got = aggregate_mean(frames)
    # independent oracle: plain python accumulation per column
    for j in range(3):
        total = 0.0
        for t in range(5):
            total += frames[t, j]
        assert abs(got[j] - total / 5.0) <= 1e-12


def test_std_examples():
    v = np.array([1.0, 2.0])
    np.testing.assert_array_equal(aggregate_std(np.tile(v, (4, 1))), [0.0, 0.0])
    np.testing.assert_array_equal(aggregate_std(np.array([[3.0, -1.0]])), [0.0, 0.0])
    # population std of {0, 2} is 1
    np.testing.assert_array_equal(aggregate_std(np.array([[0.0], [2.0]])), [1.0])


def test_min_max_examples():
    frames = np.array([[1.0], [-3.0], [2.0]])
    np.testing.assert_array_equal(aggregate_min(frames), [-3.0])
    np.testing.assert_array_equal(aggregate_max(frames), [2.0])
    single = np.array([[7.0, -2.0]])
    np.testing.assert_array_equal(aggregate_min(single), aggregate_max(single))


def test_min_max_match_linear_scan_oracle():
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((20, 4))
    lo = aggregate_min(frames)
    hi = aggregate_max(frames)
    for j in range(4):
        best_lo, best_hi = frames[0, j], frames[0, j]
        for t in range(20):
            best_lo = frames[t, j] if frames[t, j] < best_lo else best_lo
            best_hi = frames[t, j] if frames[t, j] > best_hi else best_hi
        assert lo[j] == best_lo and hi[j] == best_hi


def test_fft_mean_constant_signal():
    for t_len in (1, 3, 8):
        out = aggregate_fft_mean(np.full((t_len, 2), 2.5))
        np.testing.assert_allclose(out, [2.5, 2.5], rtol=0, atol=1e-12)


def test_fft_mean_single_frame_is_abs():
    out = aggregate_fft_mean(np.array([[-4.0, 0.5]]))
    np.testing.assert_array_equal(out, [4.0, 0.5])


def test_fft_mean_alternating_signal():
    signal = np.array([1.0, -1.0, 1.0, -1.0])
    # oracle: only bin 2 of the direct DFT is nonzero, magnitude 4
    spectrum = oracle_dft(signal)
    np.testing.assert_allclose(np.abs(spectrum), [0.0, 0.0, 4.0, 0.0], atol=1e-12)
    out = aggregate_fft_mean(signal[:, None])
    np.testing.assert_allclose(out, [np.abs(spectrum).mean()], rtol=1e-12)
    np.testing.assert_allclose(out, [1.0], rtol=1e-12)


def test_fft_mean_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(33)
    for _ in range(50):
        t_len = int(rng.integers(1, 65))
        frames = rng.standard_normal((t_len, 2))
        got = aggregate_fft_mean(frames)
        want = [np.abs(oracle_dft(frames[:, j])).mean() for j in range(2)]
        np.testing.assert_allclose(got, want, rtol=1e-9)


def test_fft_mean_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        frames = rng.standard_normal((int(rng.integers(1, 30)), 3)) * 10
        assert (aggregate_fft_mean(frames) >= 0).all()


def test_descriptor_dimension_arithmetic():
    rng = np.random.default_rng(0)
    d = build_video_descriptor(
        seq_from(rng.standard_normal((3, 4096))), AggregationConfig(("mean", "std"))
    )
    assert d.size == 8192
    d = build_video_descriptor(
        seq_from(rng.standard_normal((3, 1024))), AggregationConfig(("mean", "std", "min"))
    )
    assert d.size == 3072
    frames = rng.standard_normal((3, 1024))
    d = build_video_descriptor(seq_from(frames), AggregationConfig(("mean", "std", "min", "fft")))
    assert d.shape == (4096,) and d.dtype == np.float64
    # the layout: the configured blocks in order, d columns each
    blocks = (aggregate_mean, aggregate_std, aggregate_min, aggregate_fft_mean)
    for k, block in enumerate(blocks):
        np.testing.assert_array_equal(d[k * 1024:(k + 1) * 1024], block(frames))


def test_descriptor_rejects_a_block_that_overflows_on_finite_frames():
    frames = np.array([[1e308], [-1e308]])
    with np.errstate(over="ignore"):
        assert np.isinf(aggregate_std(frames)).all()
        with pytest.raises(ValueError, match="non-finite value in descriptor of 'v'"):
            build_video_descriptor(seq_from(frames), AggregationConfig(("mean", "std")))


def test_descriptor_averages_variants_first():
    frames = np.array([[[0.0, 0.0], [2.0, 4.0]], [[2.0, 2.0], [0.0, -2.0]]])
    seq = FrameFeatureSequence("v", frames)
    d = build_video_descriptor(seq, AggregationConfig(("mean", "std")))
    # variant means are [1,2] and [1,0]; then mean [1,1], std [0,1]
    np.testing.assert_allclose(d, [1.0, 1.0, 0.0, 1.0], atol=1e-15)


def test_shuffle_frames_determinism_and_multiset():
    rng = np.random.default_rng(17)
    seq = seq_from(rng.standard_normal((4, 3)))
    single = seq_from(rng.standard_normal((1, 3)))
    np.testing.assert_array_equal(shuffle_frames(single, 9).frames, single.frames)
    a = shuffle_frames(seq, 5)
    b = shuffle_frames(seq, 5)
    np.testing.assert_array_equal(a.frames, b.frames)
    # sort-and-compare oracle: same multiset of frames
    original = np.sort(seq.frames[:, 0, :], axis=0)
    shuffled = np.sort(a.frames[:, 0, :], axis=0)
    np.testing.assert_array_equal(original, shuffled)


def test_stat_blocks_permutation_invariant_bitwise():
    rng = np.random.default_rng(2024)
    cfg = AggregationConfig(("mean", "std", "min", "max"))
    for _ in range(20):
        t_len = int(rng.integers(2, 40))
        seq = seq_from(rng.standard_normal((t_len, 5)) * rng.uniform(0.1, 100))
        base = build_video_descriptor(seq, cfg)
        for seed in range(3):
            shuffled = build_video_descriptor(shuffle_frames(seq, seed), cfg)
            assert (base == shuffled).all()


def test_fft_block_is_order_sensitive():
    a = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    b = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    stat = AggregationConfig(("mean", "std", "min", "max"))
    np.testing.assert_array_equal(
        build_video_descriptor(seq_from(a), stat), build_video_descriptor(seq_from(b), stat)
    )
    assert aggregate_fft_mean(a) != pytest.approx(aggregate_fft_mean(b))


def test_std_bounded_by_half_range():
    rng = np.random.default_rng(88)
    for _ in range(30):
        frames = rng.standard_normal((int(rng.integers(1, 25)), 4)) * 7
        std = aggregate_std(frames)
        half_range = (aggregate_max(frames) - aggregate_min(frames)) / 2.0
        assert (std <= half_range + 1e-12).all()


def test_outputs_finite_for_finite_inputs():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((12, 6)) * 1e6
    seq = seq_from(frames)
    cfg = AggregationConfig(("mean", "std", "min", "max", "fft"))
    assert np.isfinite(build_video_descriptor(seq, cfg)).all()


frame_grids = st.integers(1, 30).flatmap(lambda t: arrays(
    np.float64, st.tuples(st.just(t), st.integers(1, 3), st.integers(1, 4)),
    elements=st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
))


@settings(max_examples=200, deadline=None)
@given(case=frame_grids.flatmap(
    lambda f: st.tuples(st.just(f), st.permutations(range(f.shape[0])))))
@example(case=(np.array([[[0.0]], [[-0.0]]]), [1, 0]))  # min/max of signed zeros
def test_stat_blocks_bit_exact_under_any_frame_permutation(case):
    frames, order = case
    cfg = AggregationConfig(("mean", "std", "min", "max"))
    base = build_video_descriptor(FrameFeatureSequence("v", frames), cfg)
    permuted = build_video_descriptor(FrameFeatureSequence("v", frames[list(order)]), cfg)
    assert base.tobytes() == permuted.tobytes()
