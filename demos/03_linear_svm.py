"""The linear SVM stack: dual coordinate descent, one-vs-rest, CV.

The binary solver maximizes the box-constrained dual of the L1-hinge
objective one coordinate at a time; the verification route is a slow
projected-subgradient descent on the primal. Both land on the same
objective value. train_ovr and cross_validate_c take raw descriptors:
both fit the range -> rootsift -> standardize chain on the rows they
train on, so the C that CV picks is the C of the model train_ovr builds.
"""

import numpy as np

from emovid import SvmTrainConfig, cross_validate_c, decision_scores, train_binary, train_ovr
from emovid.svm import dual_objective, primal_objective
from emovid.synth import oracle_svm_subgradient

rng = np.random.default_rng(2)

# --- binary problem with a known margin-1 separator --------------------------
d, n = 10, 200
normal = rng.standard_normal(d)
normal /= np.linalg.norm(normal)
y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
X = rng.standard_normal((n, d))
X -= np.outer(X @ normal, normal)
X += np.outer(y * rng.uniform(1, 3, n), normal)  # margin in [1, 3]

# train_binary solves the rows it is given; the bias is their constant-1 last column
augmented = np.hstack([X, np.ones((n, 1))])
cfg = SvmTrainConfig(C=1.0, seed=0)
w, info = train_binary(augmented, y, cfg, debug=True, full_output=True)
print(f"solver: {info.epochs} epochs, converged={info.converged}")
print(f"training accuracy: {(((augmented @ w) * y) > 0).mean():.3f}")

primal = primal_objective(w, augmented, y, cfg.C)
dual = dual_objective(info.alpha, augmented, y)
print(f"primal {primal:.6f}  dual {dual:.6f}  gap {primal - dual:.2e}")

w_slow = oracle_svm_subgradient(augmented, y, cfg.C, iterations=50_000)
print(f"subgradient-oracle primal: {primal_objective(w_slow, augmented, y, cfg.C):.6f}")

# --- one-vs-rest on seven clusters -------------------------------------------
centroids = rng.standard_normal((7, d)) * 4
labels = np.repeat(np.arange(7), 20)
X7 = centroids[labels] + rng.standard_normal((140, d))
# fits the normalization chain on X7; decision_scores applies the same chain
model = train_ovr(X7, labels, SvmTrainConfig(C=1.0, seed=5))
predictions = decision_scores(model, X7).scores.argmax(axis=1)
print(f"\nOvR training accuracy on 7 clusters: {(predictions == labels).mean():.3f}")

# --- picking C by stratified 5-fold cross-validation -------------------------
# each fold re-fits the chain on its training rows, as train_ovr does
grid = [2.0 ** k for k in (-8, -6, -4, -2, 0, 2, 4, 6)]
best_c, accuracies = cross_validate_c(X7, labels, grid, cfg=SvmTrainConfig(seed=9), folds=5)
for c, acc in zip(grid, accuracies):
    marker = "  <- best" if c == best_c else ""
    print(f"C={c:<12g} mean accuracy {acc:.4f}{marker}")
final = train_ovr(X7, labels, SvmTrainConfig(C=best_c, seed=5))
final_predictions = decision_scores(final, X7).scores.argmax(axis=1)
print(f"model at the best C, training accuracy: {(final_predictions == labels).mean():.3f}")
