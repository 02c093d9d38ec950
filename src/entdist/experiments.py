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
    classify_batch,
    nearest_neighbors,
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


def rounds_to_printed(value: float, printed: float, decimals: int = 2) -> bool:
    """True when value rounds to the two-decimal printed figure (half inclusive)."""
    return abs(value - printed) <= 0.5 * 10.0 ** -decimals + 1e-12


def estimate_run(u, v, cfg: EstimatorConfig) -> dict:
    """One distance estimate, flattened for serialization."""
    query = DistanceQuery(u, v)
    est = estimate_distance(query, cfg)
    return {
        "u": query.u.components.tolist(),
        "v": query.v.components.tolist(),
        "p_hat": est.p_hat,
        "distance": est.distance,
        "inner_product_unit": est.inner_product,
        "inner_product_raw": est.raw_inner_product,
        "norm_u": est.norm_u,
        "norm_v": est.norm_v,
        "shots_used": est.shots_used,
        "std_error_p": est.std_error_p,
        "overlap_out_of_range": est.overlap_out_of_range,
    }


def table_run(
    name: str,
    sampled_cfg: EstimatorConfig | None = None,
) -> dict:
    """Exact-mode D_A - D_B for every table row, checked against the printed
    theory column; optionally a sampled-mode column alongside.

    Row i of the sampled column is draw i of the streams (seed, 0) and
    (seed, 1), one per reference.
    """
    try:
        dataset: TableDataset = TABLE_DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown table dataset {name!r}") from None
    ref_a = LabeledReference(dataset.reference_a, "A")
    ref_b = LabeledReference(dataset.reference_b, "B")
    vectors = VectorSet([row.vector for row in dataset.rows])
    exact = classify_batch(vectors, ref_a, ref_b, EstimatorConfig(mode="exact"))
    if sampled_cfg is not None:
        sampled = classify_batch(vectors, ref_a, ref_b, sampled_cfg)
    rows = []
    for i, (row, result) in enumerate(zip(dataset.rows, exact)):
        entry = {
            "index": row.index,
            "vector": list(row.vector),
            "theory_diff": row.theory_diff,
            "computed_diff": result.margin,
            "group": result.assigned_label,
            "matches_paper_theory": rounds_to_printed(result.margin, row.theory_diff),
            "paper_experiment_diff": row.experiment_diff,
            "paper_group": row.group,
        }
        if sampled_cfg is not None:
            entry["sampled_diff"] = sampled[i].margin
            entry["sampled_group"] = sampled[i].assigned_label
        rows.append(entry)
    return {
        "name": dataset.name,
        "reference_a": list(dataset.reference_a),
        "reference_b": list(dataset.reference_b),
        "rows": rows,
        "all_match_paper_theory": all(r["matches_paper_theory"] for r in rows),
        "mismatched_rows": [r["index"] for r in rows if not r["matches_paper_theory"]],
    }


def fig2_run(
    sampled_cfg: EstimatorConfig,
    count: int = FIG2_DEFAULT_COUNT,
    vectors=None,
) -> dict:
    """Classify 2-D vectors against the reference pair, exactly and sampled.

    The default test set is seeded from sampled_cfg.seed; vector i's
    sampled estimates are draw i of the streams (seed, 0) and (seed, 1), one
    per reference.  Misclassification means the sampled label disagrees with
    the exact one.
    """
    ref_a, ref_b = fig2_references()
    vectors = VectorSet(fig2_test_vectors(count, sampled_cfg.seed) if vectors is None else vectors)
    # the sampled block first: p_matrix checks the noise model before any norm,
    # so a noise model the channel rejects is reported ahead of a bad vector
    sampled = classify_batch(vectors, ref_a, ref_b, sampled_cfg)
    exact = classify_batch(vectors, ref_a, ref_b, EstimatorConfig(mode="exact"))
    rows = []
    for i, ((x, y), norm, e, s) in enumerate(zip(vectors.components.tolist(),
                                                  vectors.norms.tolist(), exact, sampled)):
        rows.append({
            "index": i,
            "x": x,
            "y": y,
            "norm": norm,
            "angle": math.atan2(y, x),
            "exact_diff": e.margin,
            "exact_label": e.assigned_label,
            "sampled_diff": s.margin,
            "sampled_label": s.assigned_label,
            "misclassified": s.assigned_label != e.assigned_label,
        })
    errors = np.array([abs(r["sampled_diff"] - r["exact_diff"]) for r in rows])
    error_p90 = float(np.percentile(errors, 90))
    misclassified = [r for r in rows if r["misclassified"]]
    return {
        "reference_a": ref_a.vector.components.tolist(),
        "reference_b": ref_b.vector.components.tolist(),
        "rows": rows,
        "misclassified_count": len(misclassified),
        "mean_abs_error": float(errors.mean()),
        "error_p90": error_p90,
        "boundary_concentrated": all(
            abs(r["exact_diff"]) < error_p90 for r in misclassified
        ),
    }


def cluster_run(
    vectors,
    k: int,
    init,
    cfg: EstimatorConfig,
    max_iterations: int = 100,
) -> ClusteringState:
    return unsupervised_cluster(vectors, k, init, cfg, max_iterations)


def nn_run(
    test_vectors,
    initial_training,
    added_training: LabeledReference,
    cfg: EstimatorConfig,
) -> dict:
    """Nearest-neighbor labels before and after one extra training vector.

    Both phases read one block whose column j draws on the stream (seed, j):
    the added vector is a new column, so the distances to the original
    training vectors are reused unchanged.
    """
    initial = list(initial_training)
    full = initial + [added_training]
    test_vectors = VectorSet(test_vectors)
    dist = distance_matrix(test_vectors, [t.vector for t in full], cfg)
    before = nearest_neighbors(dist[:, :len(initial)], initial)
    after = nearest_neighbors(dist, full)
    rows = [{
        "index": i,
        "vector": u,
        "label_before": b.assigned_label,
        "label_after": a.assigned_label,
        "changed": b.assigned_label != a.assigned_label,
        "distances_before": dict(sorted(b.per_label_distance.items())),
        "distances_after": dict(sorted(a.per_label_distance.items())),
    } for i, (u, b, a) in enumerate(zip(test_vectors.components.tolist(), before, after))]
    return {
        "rows": rows,
        "changed_indices": [r["index"] for r in rows if r["changed"]],
    }
