"""Classify 100 seeded 2-D vectors against the reference pair, exactly and
under the measured-fidelity noise preset at 10,000 shots, then show that
the noise-induced misclassifications sit close to the decision boundary.
"""

import numpy as np

from entdist.experiments import fig2_run
from entdist.noise import noise_preset
from entdist.protocol import EstimatorConfig

cfg = EstimatorConfig(mode="sampled", shots=10_000, seed=0,
                      noise=noise_preset("paper-2012-optics"))
result = fig2_run(cfg)

rows = result["rows"]  # the table as columns, name -> one value per vector
print(f"references: A = {result['reference_a']}, B = {result['reference_b']}")
print(f"{len(rows['index'])} test vectors, exact assignment vs noisy sampled assignment\n")

exact, sampled = np.array(rows["exact_diff"]), np.array(rows["sampled_diff"])
wrong = [i for i in rows["index"] if rows["misclassified"][i]]
print(f"misclassified under noise: {len(wrong)}")
for i in wrong:
    print(f"  vector ({rows['x'][i]:+.3f}, {rows['y'][i]:+.3f})  exact D_A-D_B = {exact[i]:+.4f}"
          f"  noisy = {sampled[i]:+.4f}")

errors = np.abs(sampled - exact)
print(f"\n|noisy - exact| over all vectors: mean {errors.mean():.3f}, "
      f"90th percentile {result['error_p90']:.3f}")
print("every misclassified vector lies below that percentile in exact |D_A - D_B|:",
      result["boundary_concentrated"])

margins = np.sort(np.abs(exact))
print(f"(for scale: exact |D_A - D_B| runs from {margins[0]:.3f} to {margins[-1]:.3f})")
