"""The unsupervised loop on the shipped eight-point set: start from a
deliberately imperfect labeling, watch the mean-distance reassignment fix
it in one round, and verify the fixed-point condition vector by vector.
"""

import numpy as np

from entdist.datasets import FIG3_DEMO
from entdist.ml import unsupervised_cluster
from entdist.protocol import EstimatorConfig

EXACT = EstimatorConfig(mode="exact")

demo = FIG3_DEMO
vectors = demo.vectors()
state = unsupervised_cluster(vectors, demo.k, list(demo.initial_labels), EXACT)

print("point set:")
for name, point, label in zip(demo.names, demo.points, demo.initial_labels):
    print(f"  {name} = {point}   starts {label}")

print("\nreassignment rounds:")
for r in range(1, len(state.history)):
    flips = [demo.names[i] for i in range(len(vectors))
             if state.history[r][i] != state.history[r - 1][i]]
    print(f"  round {r}: {'flips ' + ', '.join(flips) if flips else 'no change'}")
print(f"converged: {state.converged} after {state.iteration} rounds")

print("\nmean distance to each group at the fixed point (own group first):")
groups = sorted(set(state.labels))
points = np.array(demo.points, dtype=float)
dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
for i, name in enumerate(demo.names):
    own = state.labels[i]
    means = {}
    for g in groups:
        members = [j for j in range(len(vectors)) if state.labels[j] == g and j != i]
        means[g] = float(dist[i, members].mean())
    others = ", ".join(f"{g} {means[g]:.3f}" for g in groups if g != own)
    print(f"  {name}: {own} {means[own]:.3f}  vs  {others}")
