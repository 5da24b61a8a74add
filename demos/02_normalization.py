"""The three-stage normalization chain.

1. per-column rescaling to [-1, 1], fit on the training split only
   (values outside the training range are clipped),
2. rootsift: sign(x) * sqrt(|x| / ||x||_1), which always lands on the
   unit L2 sphere,
3. per-column standardization, again fit on train.
"""

import numpy as np

from emovid import (
    apply_normalization,
    fit_normalization,
    rootsift,
)

rng = np.random.default_rng(1)

train = rng.standard_normal((40, 6)) * np.array([1, 5, 0.2, 10, 3, 1]) + 2
val = rng.standard_normal((10, 6)) * np.array([1, 5, 0.2, 10, 3, 1]) + 2

# fit on the training split only, then apply the same parameters to both
params = fit_normalization(train)
train_n, val_n = apply_normalization(train, params), apply_normalization(val, params)

print("training columns after the full chain:")
print("  means ~0:", np.round(train_n.mean(axis=0), 12))
print("  stds  ~1:", np.round(train_n.std(axis=0), 12))

# the range scaler attains the endpoints on its own training data
stage1 = fit_normalization(train)
scaled = np.clip(
    2 * (train - stage1.range_scaler.mins)
    / (stage1.range_scaler.maxs - stage1.range_scaler.mins) - 1,
    -1, 1,
)
print("\nstage-1 column ranges on train:",
      scaled.min(), "to", scaled.max())

# rootsift in isolation: every nonzero vector maps to the unit sphere
x = np.array([4.0, -1.0])
y = rootsift(x)
print(f"\nrootsift([4, -1]) = {y}; L2 norm = {np.linalg.norm(y):.12f}")
print("signs preserved:", (np.sign(y) == np.sign(x)).all())

# applying the fitted chain to unseen data uses the SAME parameters;
# out-of-range values are clipped rather than extrapolated
outlier = train.max(axis=0) * 10
print("\noutlier after chain stays bounded:",
      np.abs(apply_normalization(outlier, params)).max() < 1e3)
