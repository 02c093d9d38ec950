"""Supervised nearest-neighbor on the shipped demo set: classify eight
test vectors against two training vectors, then add a third and see
exactly one label move.
"""

from entdist.datasets import FIGS1_DEMO
from entdist.experiments import nn_run
from entdist.protocol import EstimatorConfig

demo = FIGS1_DEMO
# one training set, the late vector as its last row, and one label per row
result = nn_run(demo.vectors(), demo.training, demo.training_labels,
                EstimatorConfig(mode="exact"))

print("training vectors:")
for point, label in zip(demo.training[:-1], demo.training_labels):
    print(f"  {label}: {list(point)}")
print(f"  added later -> {demo.training_labels[-1]}: {list(demo.training[-1])}")

print(f"\n{'':>2} {'before':>7} {'after':>7}   nearest distances (after)")
rows = result["rows"]  # the table as columns, name -> one value per test vector
nearest = rows["distances_after"]  # label -> each test vector's nearest distance to it
for i, (name, before, after, changed) in enumerate(zip(
        demo.names, rows["label_before"], rows["label_after"], rows["changed"])):
    dists = ", ".join(f"{label} {distances[i]:.3f}" for label, distances in nearest.items())
    mark = "  <- reassigned" if changed else ""
    print(f"{name:>2} {before:>7} {after:>7}   {dists}{mark}")

changed = [demo.names[i] for i in result["changed_indices"]]
print(f"\nlabels changed by the new training vector: {', '.join(changed) or 'none'}")
