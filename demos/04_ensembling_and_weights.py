"""Combining score streams and reweighting classes by prior.

Each feature stream trains its own SVM and contributes one score matrix.
combine_streams maps every row to a probability vector before averaging
(raw decision values from different SVMs are not on a common scale).
When the evaluation set's class distribution is known to be skewed,
multiplying class c's scores by sqrt(n_c)/sum(sqrt(n)) trades rare-class
recall for overall accuracy.
"""

import numpy as np

from emovid import (
    ScoreMatrix,
    apply_class_weights,
    class_weights_from_counts,
    combine_streams,
    evaluate,
    predict,
    render_report,
)

rng = np.random.default_rng(3)

# --- three synthetic streams that agree on the signal, disagree on noise -----
n = 400
truth = rng.integers(0, 7, n)
signal = np.eye(7)[truth] * 1.2
streams = [
    ScoreMatrix(tuple(f"v{i}" for i in range(n)),
                signal + rng.standard_normal((n, 7)))
    for _ in range(3)
]

single_accuracies = [
    float((np.array([int(p) for p in predict(s)]) == truth).mean()) for s in streams
]
combined = combine_streams(streams)
combined_accuracy = float(
    (np.array([int(p) for p in predict(combined)]) == truth).mean()
)
print("single-stream accuracies:", [f"{a:.3f}" for a in single_accuracies])
print(f"softmax ensemble accuracy: {combined_accuracy:.3f}")
print("combined rows are probability vectors:",
      np.allclose(combined.scores.sum(axis=1), 1.0))

# --- class weights from an observed (imbalanced) class distribution ----------
observed_counts = (98, 40, 70, 144, 193, 80, 28)
weights = class_weights_from_counts(observed_counts)
print("\ncounts :", observed_counts)
print("weights:", np.round(weights.weights, 2), f"(sum={weights.weights.sum():g})")

# draw an imbalanced evaluation set from those counts and make the scores
# ambiguous; weighting then buys accuracy on the frequent classes
truth = np.repeat(np.arange(7), observed_counts)
scores = ScoreMatrix(
    tuple(f"t{i}" for i in range(truth.size)),
    np.eye(7)[truth] * 0.8 + rng.standard_normal((truth.size, 7)),
)
probs = combine_streams([scores])
unweighted = predict(probs)
weighted = predict(apply_class_weights(probs, weights))

print("\nunweighted:")
print(render_report(evaluate(unweighted, truth)))
print("weighted by sqrt(counts):")
print(render_report(evaluate(weighted, truth)))
