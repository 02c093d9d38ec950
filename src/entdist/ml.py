"""Classification and clustering built on the distance estimator.

Three procedures: two-cluster assignment against one reference per
cluster, supervised nearest-neighbor against a training set, and the
unsupervised loop that reassigns every vector to the group with the
smallest mean distance until nothing moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import DistanceQuery, EstimatorConfig, estimate_distance
from .vectors import DimensionError, RealVector, as_vector

__all__ = [
    "BOUNDARY_TOL",
    "EmptyGroupError",
    "LabeledReference",
    "ClassificationResult",
    "ClusteringState",
    "classify_two_cluster",
    "nearest_neighbor_classify",
    "mean_group_distance",
    "unsupervised_cluster",
]

# |margin| below this counts as an exact tie and flags the boundary
BOUNDARY_TOL = 1e-12


class EmptyGroupError(ValueError):
    """A group mean was requested with no members besides the vector itself."""


@dataclass(frozen=True, eq=False)
class LabeledReference:
    """A reference (or training) vector tagged with its cluster label."""

    vector: RealVector
    label: str

    def __post_init__(self):
        object.__setattr__(self, "vector", as_vector(self.vector))


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    per_label_distance: dict[str, float]
    assigned_label: str
    margin: float
    boundary_flag: bool


def classify_two_cluster(
    u,
    ref_a: LabeledReference,
    ref_b: LabeledReference,
    cfg: EstimatorConfig = EstimatorConfig(),
    boundary_tol: float = BOUNDARY_TOL,
) -> ClassificationResult:
    """Assign u by the sign of D_A - D_B; margin keeps the signed difference.

    Ties within boundary_tol go to the lexicographically smaller label and
    raise the boundary flag.  The two estimates run on the substreams
    (seed, 0) and (seed, 1).
    """
    u = as_vector(u)
    if ref_a.label == ref_b.label:
        raise ValueError("the two reference labels must differ")
    d_a = estimate_distance(DistanceQuery(u, ref_a.vector), cfg.derive(0)).distance
    d_b = estimate_distance(DistanceQuery(u, ref_b.vector), cfg.derive(1)).distance
    margin = d_a - d_b
    if abs(margin) < boundary_tol:
        assigned = min(ref_a.label, ref_b.label)
    else:
        assigned = ref_a.label if margin < 0.0 else ref_b.label
    return ClassificationResult(
        per_label_distance={ref_a.label: d_a, ref_b.label: d_b},
        assigned_label=assigned,
        margin=margin,
        boundary_flag=abs(margin) < boundary_tol,
    )


def nearest_neighbor_classify(
    u,
    training: list[LabeledReference],
    cfg: EstimatorConfig = EstimatorConfig(),
    boundary_tol: float = BOUNDARY_TOL,
) -> ClassificationResult:
    """Assign u the label of its nearest training vector.

    per_label_distance keeps the closest distance per label; margin is the
    gap between the best and runner-up labels (inf with a single label).
    Training vector i runs on the substream (seed, i).
    """
    if not training:
        raise ValueError("training set must be non-empty")
    u = as_vector(u)
    per_label: dict[str, float] = {}
    for i, ref in enumerate(training):
        d = estimate_distance(DistanceQuery(u, ref.vector), cfg.derive(i)).distance
        if d < per_label.get(ref.label, math.inf):
            per_label[ref.label] = d
    ranked = sorted(per_label.values())
    best = ranked[0]
    margin = ranked[1] - best if len(ranked) > 1 else math.inf
    tied = [label for label, d in per_label.items() if d - best < boundary_tol]
    return ClassificationResult(
        per_label_distance=per_label,
        assigned_label=min(tied),
        margin=margin,
        boundary_flag=margin < boundary_tol,
    )


def mean_group_distance(
    v_index: int,
    group_members,
    vectors,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> float:
    """Mean estimated distance from vectors[v_index] to the group, self excluded.

    Member j runs on the substream (seed, j).
    """
    members = [j for j in group_members if j != v_index]
    if not members:
        raise EmptyGroupError(
            f"group has no members besides vector {v_index}; mean distance undefined"
        )
    total = 0.0
    for j in members:
        q = DistanceQuery(as_vector(vectors[v_index]), as_vector(vectors[j]))
        total += estimate_distance(q, cfg.derive(j)).distance
    return total / len(members)


@dataclass(frozen=True, eq=False)
class ClusteringState:
    """Labels after the loop, with the per-round trail that produced them."""

    labels: tuple
    iteration: int
    converged: bool
    history: tuple[tuple, ...]


def _pairwise_distances(vectors, cfg: EstimatorConfig) -> np.ndarray:
    """Symmetric estimated-distance matrix; pair (i, j) uses substream (i, j)."""
    n = len(vectors)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            q = DistanceQuery(vectors[i], vectors[j])
            dist[i, j] = dist[j, i] = estimate_distance(q, cfg.derive(i, j)).distance
    return dist


def _group_means(dist: np.ndarray, labels, groups) -> list[dict]:
    """Per vector: mean distance to each group with itself excluded (None if empty)."""
    n = len(labels)
    means = []
    for i in range(n):
        row = {}
        for g in groups:
            members = [j for j in range(n) if labels[j] == g and j != i]
            row[g] = float(dist[i, members].mean()) if members else None
        means.append(row)
    return means


def _reassign(dist: np.ndarray, labels: list, groups) -> list:
    """One synchronous reassignment round, with the empty-group veto."""
    n = len(labels)
    means = _group_means(dist, labels, groups)
    new = []
    for i, current in enumerate(labels):
        if means[i][current] is None:
            new.append(current)  # sole member of its group: no baseline, stays put
            continue
        defined = {g: v for g, v in means[i].items() if v is not None}
        best = min(defined, key=lambda g: (defined[g], g))
        if defined[current] == defined[best]:
            best = current  # keep the current label on an exact tie
        new.append(best)
    # a group must not be left empty: its previous member closest to the
    # group's other previous members keeps the label
    for _ in range(n + 1):
        empty = [g for g in groups if g not in new]
        if not empty:
            break
        for g in empty:
            previous = [i for i in range(n) if labels[i] == g]

            def closeness(i: int) -> float:
                others = [j for j in previous if j != i]
                return float(dist[i, others].mean()) if others else -math.inf

            keep = min(previous, key=lambda i: (closeness(i), i))
            new[keep] = g
    return new


def unsupervised_cluster(
    vectors,
    k: int,
    init,
    cfg: EstimatorConfig = EstimatorConfig(),
    max_iterations: int = 100,
) -> ClusteringState:
    """Iterate mean-distance reassignment until no vector changes group.

    ``init`` is either an explicit per-vector label assignment covering
    exactly k distinct labels, or an integer seed for a random assignment
    over groups 0..k-1 (surjective, so no group starts empty).  Labels
    update synchronously each round; round r estimates distances on the
    substream (seed, r).  A vector that is the sole member of its group
    has no own-group mean to compare against and stays put.  Stops at a
    fixed point (converged), on a repeated label configuration (cycle),
    or at max_iterations.
    """
    vectors = [as_vector(v) for v in vectors]
    n = len(vectors)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")
    dims = {v.dimension for v in vectors}
    if len(dims) != 1:
        raise DimensionError(f"vectors differ in dimension: {sorted(dims)}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")

    if isinstance(init, (int, np.integer)) and not isinstance(init, bool):
        rng = np.random.default_rng(int(init))
        labels = list(rng.integers(0, k, size=n))
        order = rng.permutation(n)
        for g in range(k):  # make every group non-empty
            labels[order[g]] = g
        labels = [int(g) for g in labels]
    else:
        try:
            labels = list(init)
        except TypeError:
            raise ValueError("init must be an integer seed or a sequence of labels") from None
        if len(labels) != n:
            raise ValueError(f"init has {len(labels)} labels for {n} vectors")
    try:
        groups = sorted(set(labels))
    except TypeError:
        raise ValueError("init labels must be all numbers or all strings") from None
    if len(groups) != k:
        raise ValueError(f"init must cover exactly k={k} distinct labels")

    exact_dist = _pairwise_distances(vectors, cfg) if cfg.mode == "exact" else None
    history = [tuple(labels)]
    seen = {tuple(labels)}
    converged = False
    iteration = 0
    for rnd in range(1, max_iterations + 1):
        iteration = rnd
        dist = exact_dist if exact_dist is not None else _pairwise_distances(vectors, cfg.derive(rnd))
        new = _reassign(dist, labels, groups)
        history.append(tuple(new))
        if new == labels:
            converged = True
            break
        labels = new
        if tuple(new) in seen:
            break  # a repeated configuration would loop forever
        seen.add(tuple(new))
    return ClusteringState(
        labels=tuple(labels),
        iteration=iteration,
        converged=converged,
        history=tuple(history),
    )
