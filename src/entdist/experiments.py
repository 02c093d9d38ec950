"""Reproductions of the published tables and figures, plus the generic
single-query run.  These return plain data structures; the CLI layer is
responsible for files and plots.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import (
    FIG2_DEFAULT_COUNT,
    TABLE_DATASETS,
    TableDataset,
    fig2_references,
    fig2_test_vectors,
)
from .ml import (
    ClusteringState,
    LabeledReference,
    nearest_neighbor_assignment,
    two_cluster_assignment,
    unsupervised_cluster,
)
# bench/tracing.py patches these two names here
from .ml import classify_two_cluster, nearest_neighbor_classify  # noqa: F401
from .protocol import DistanceQuery, EstimatorConfig, distance_matrix, estimate_distance
from .vectors import VectorSet

__all__ = [
    "rounds_to_printed",
    "estimate_run",
    "table_run",
    "fig2_run",
    "cluster_run",
    "nn_run",
]


def rounds_to_printed(value, printed, decimals: int = 2):
    """True when value rounds to the two-decimal printed figure (half inclusive);
    elementwise for arrays."""
    return abs(value - printed) <= 0.5 * 10.0 ** -decimals + 1e-12


def estimate_run(u, v, cfg: EstimatorConfig) -> dict:
    """One distance estimate, flattened for serialization."""
    query = DistanceQuery(u, v)
    return {"u": query.u.components.tolist(), "v": query.v.components.tolist(),
            **estimate_distance(query, cfg)._asdict()}


def table_run(
    name: str,
    sampled_cfg: EstimatorConfig | None = None,
) -> dict:
    """Exact-mode D_A - D_B for every table row, checked against the printed
    theory column; optionally a sampled-mode column alongside.

    ``rows`` is the table as columns, name -> one value per table row.  Row i
    of the sampled column is draw i of the streams (seed, 0) and (seed, 1),
    one per reference.
    """
    try:
        dataset: TableDataset = TABLE_DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown table dataset {name!r}") from None
    ref_a = LabeledReference(dataset.reference_a, "A")
    ref_b = LabeledReference(dataset.reference_b, "B")
    vectors = VectorSet([row.vector for row in dataset.rows])
    exact = two_cluster_assignment(vectors, ref_a, ref_b, EstimatorConfig(mode="exact"))
    theory = np.array([row.theory_diff for row in dataset.rows])
    matches = rounds_to_printed(exact.margin, theory)
    index = np.array([row.index for row in dataset.rows])
    rows = {
        "index": index,
        "vector": vectors.components,
        "theory_diff": theory,
        "computed_diff": exact.margin,
        "group": exact.labels,
        "matches_paper_theory": matches,
        "paper_experiment_diff": np.array([row.experiment_diff for row in dataset.rows]),
        "paper_group": [row.group for row in dataset.rows],
    }
    if sampled_cfg is not None:
        sampled = two_cluster_assignment(vectors, ref_a, ref_b, sampled_cfg)
        rows["sampled_diff"] = sampled.margin
        rows["sampled_group"] = sampled.labels
    return {
        "name": dataset.name,
        "reference_a": list(dataset.reference_a),
        "reference_b": list(dataset.reference_b),
        "rows": rows,
        "all_match_paper_theory": bool(matches.all()),
        "mismatched_rows": index[~matches].tolist(),
    }


def _percentile_90(values: np.ndarray) -> float:
    """np.percentile(values, 90) bit for bit (but for the sign of a zero),
    without its import of numpy.ma."""
    ordered = np.sort(values).tolist()
    if len(ordered) == 1:  # numpy's weight is then 1, and b - (b - a) * 0 is b
        return ordered[0]
    at = (len(ordered) - 1) * 0.9
    i = int(at)
    g = at - i
    a, b = ordered[i], ordered[i + 1]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def fig2_run(
    sampled_cfg: EstimatorConfig,
    count: int = FIG2_DEFAULT_COUNT,
    vectors=None,
) -> dict:
    """Classify 2-D vectors against the reference pair, exactly and sampled.

    ``rows`` is the table as columns, name -> one value per vector, so
    ``result["rows"]["sampled_diff"][i]`` is vector i's sampled D_A - D_B.
    The default test set is seeded from sampled_cfg.seed; vector i's
    sampled estimates are draw i of the streams (seed, 0) and (seed, 1), one
    per reference.  Misclassification means the sampled label disagrees with
    the exact one.
    """
    ref_a, ref_b = fig2_references()
    vectors = VectorSet(fig2_test_vectors(count, sampled_cfg.seed) if vectors is None else vectors)
    sampled = two_cluster_assignment(vectors, ref_a, ref_b, sampled_cfg)
    exact = two_cluster_assignment(vectors, ref_a, ref_b, EstimatorConfig(mode="exact"))
    xs, ys = vectors.components.T
    misclassified = sampled.codes != exact.codes  # both passes name the labels A, B
    errors = np.abs(sampled.margin - exact.margin)
    error_p90 = _percentile_90(errors)
    rows = {
        "index": np.arange(len(vectors)),
        "x": xs,
        "y": ys,
        "norm": vectors.norms,
        # np.arctan2 differs in the last bit
        "angle": np.fromiter(map(math.atan2, ys.tolist(), xs.tolist()), float, len(vectors)),
        "exact_diff": exact.margin,
        "exact_label": exact.labels,
        "sampled_diff": sampled.margin,
        "sampled_label": sampled.labels,
        "misclassified": misclassified,
    }
    return {
        "reference_a": ref_a.vector.components.tolist(),
        "reference_b": ref_b.vector.components.tolist(),
        "rows": rows,
        "misclassified_count": int(misclassified.sum()),
        "mean_abs_error": float(errors.mean()),
        "error_p90": error_p90,
        "boundary_concentrated": bool((np.abs(exact.margin[misclassified]) < error_p90).all()),
    }


def cluster_run(
    vectors,
    k: int,
    init,
    cfg: EstimatorConfig,
    max_iterations: int = 100,
) -> ClusteringState:
    return unsupervised_cluster(vectors, k, init, cfg, max_iterations)


def nn_run(test_vectors, training, labels: list, cfg: EstimatorConfig) -> dict:
    """Nearest-neighbor labels before and after one extra training vector.

    ``training`` is a VectorSet (or its rows) whose last row is the added
    vector; labels[j] is row j's label.  ``rows`` is the table as columns,
    name -> one value per test vector.  Both phases read one block whose
    column j draws on the stream (seed, j): phase 1 reads its columns
    [:-1], so the distances to the original training vectors are reused
    unchanged.
    """
    test_vectors = VectorSet(test_vectors)
    dist = distance_matrix(test_vectors, training, cfg)
    before = nearest_neighbor_assignment(dist[:, :-1], labels[:-1])
    after = nearest_neighbor_assignment(dist, labels)
    labels_before, labels_after = before.labels, after.labels
    changed = np.array(labels_before) != np.array(labels_after)
    rows = {
        "index": np.arange(len(test_vectors)),
        "vector": test_vectors.components,
        "label_before": labels_before,
        "label_after": labels_after,
        "changed": changed,
        "distances_before": dict(zip(before.names, before.distances.T)),
        "distances_after": dict(zip(after.names, after.distances.T)),
    }
    return {
        "rows": rows,
        "changed_indices": np.flatnonzero(changed).tolist(),
    }
