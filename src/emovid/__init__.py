"""Video-level emotion classification from per-frame feature vectors.

Pipeline: frame-feature aggregation (mean/std/min/max/fft blocks) ->
range scaling -> rootsift -> standardization -> one-vs-rest linear SVM
(dual coordinate descent, C chosen by stratified cross-validation) ->
score ensembling across streams -> class-prior weighting -> argmax.
"""

import os

# One BLAS thread, set before numpy loads (the BLAS reads these only then): a
# product's summation order, and with it every score, model and cv.json byte,
# then does not depend on the CPU count. A caller that imports numpy first
# keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from .aggregate import (
    STAT_STAR_AGGREGATORS,
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
from .core import (
    EMOTION_NAMES,
    EMOTION_SHORT_NAMES,
    NUM_CLASSES,
    ClassWeights,
    EmotionLabel,
    FrameFeatureSequence,
    ScoreMatrix,
    label_from_name,
)
from .ensemble import (
    apply_class_weights,
    class_weights_from_counts,
    combine_streams,
    predict,
    run_ensemble,
    softmax_rows,
)
from .evaluate import EvaluationReport, evaluate, format_accuracy, render_report
from .ingest import (
    Manifest,
    ManifestEntry,
    load_audio_features,
    load_frame_features,
    load_manifest,
)
from .normalize import (
    NormalizationParams,
    RangeScalerParams,
    StandardizerParams,
    apply_normalization,
    fit_normalization,
    fit_range_scaler,
    rootsift,
)
from .svm import (
    LinearSvmModel,
    SvmTrainConfig,
    cross_validate_c,
    decision_scores,
    load_model,
    save_model,
    train_binary,
    train_ovr,
)
from .synth import (
    SynthConfig,
    generate_dataset,
    oracle_dft,
    oracle_svm_subgradient,
)

__version__ = "0.1.0"
