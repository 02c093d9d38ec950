"""Classification and clustering built on the distance estimator.

Three procedures: two-cluster assignment against one reference per
cluster, supervised nearest-neighbor against a training set, and the
unsupervised loop that reassigns every vector to the group with the
smallest mean distance until nothing moves.  Each reads its distances as
one block from protocol.distance_matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import EstimatorConfig, distance_matrix, row_keys
from .protocol import estimate_distance  # noqa: F401  (bench/tracing.py patches it here)
from .vectors import RealVector, VectorSet, as_vector

__all__ = [
    "BOUNDARY_TOL",
    "LabeledReference",
    "ClassificationResult",
    "ClusteringState",
    "classify_batch",
    "classify_two_cluster",
    "nearest_neighbors",
    "nearest_neighbor_classify",
    "unsupervised_cluster",
]

# |margin| below this counts as an exact tie and flags the boundary
BOUNDARY_TOL = 1e-12


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


def classify_batch(
    vectors,
    ref_a: LabeledReference,
    ref_b: LabeledReference,
    cfg: EstimatorConfig = EstimatorConfig(),
    boundary_tol: float = BOUNDARY_TOL,
    keys=None,
) -> list[ClassificationResult]:
    """Assign each vector by the sign of D_A - D_B; margin keeps the signed difference.

    Ties within boundary_tol go to the lexicographically smaller label and
    raise the boundary flag.  Vector i runs on the substream (seed, i) and
    its two estimates on that one's substreams 0 and 1, unless ``keys``
    gives the row keys of the distance block.
    """
    if ref_a.label == ref_b.label:
        raise ValueError("the two reference labels must differ")
    if keys is None:
        keys = row_keys(cfg, len(vectors))
    dist = distance_matrix(vectors, [ref_a.vector, ref_b.vector], cfg, keys)
    results = []
    for d_a, d_b in dist.tolist():
        margin = d_a - d_b
        if abs(margin) < boundary_tol:
            assigned = min(ref_a.label, ref_b.label)
        else:
            assigned = ref_a.label if margin < 0.0 else ref_b.label
        results.append(ClassificationResult(
            per_label_distance={ref_a.label: d_a, ref_b.label: d_b},
            assigned_label=assigned,
            margin=margin,
            boundary_flag=abs(margin) < boundary_tol,
        ))
    return results


def classify_two_cluster(
    u,
    ref_a: LabeledReference,
    ref_b: LabeledReference,
    cfg: EstimatorConfig = EstimatorConfig(),
    boundary_tol: float = BOUNDARY_TOL,
) -> ClassificationResult:
    """classify_batch for one vector, whose estimates run on the substreams
    (seed, 0) and (seed, 1)."""
    return classify_batch([u], ref_a, ref_b, cfg, boundary_tol, [(cfg.seed,)])[0]


def nearest_neighbors(
    dist: np.ndarray,
    training,
    boundary_tol: float = BOUNDARY_TOL,
) -> list[ClassificationResult]:
    """Assign row i of a distance block (columns: the training vectors) the
    label of its nearest training vector.

    per_label_distance keeps the closest distance per label; margin is the
    gap between the best and runner-up labels (inf with a single label).
    """
    results = []
    for row in dist.tolist():
        per_label: dict[str, float] = {}
        for d, ref in zip(row, training):
            if d < per_label.get(ref.label, math.inf):
                per_label[ref.label] = d
        ranked = sorted(per_label.values())
        best = ranked[0]
        margin = ranked[1] - best if len(ranked) > 1 else math.inf
        tied = [label for label, d in per_label.items() if d - best < boundary_tol]
        results.append(ClassificationResult(
            per_label_distance=per_label,
            assigned_label=min(tied),
            margin=margin,
            boundary_flag=margin < boundary_tol,
        ))
    return results


def nearest_neighbor_classify(
    u,
    training: list[LabeledReference],
    cfg: EstimatorConfig = EstimatorConfig(),
    boundary_tol: float = BOUNDARY_TOL,
) -> ClassificationResult:
    """Assign u the label of its nearest training vector (see nearest_neighbors).

    Training vector i runs on the substream (seed, i).
    """
    if not training:
        raise ValueError("training set must be non-empty")
    dist = distance_matrix([u], [t.vector for t in training], cfg, [(cfg.seed,)])
    return nearest_neighbors(dist, training, boundary_tol)[0]


@dataclass(frozen=True, eq=False)
class ClusteringState:
    """Labels after the loop, with the per-round trail that produced them."""

    labels: tuple
    iteration: int
    converged: bool
    history: tuple[tuple, ...]


def _pairwise_distances(vectors, cfg: EstimatorConfig, keys=None) -> np.ndarray:
    """Symmetric estimated-distance matrix from the upper triangle of one block."""
    dist = distance_matrix(vectors, vectors, cfg, keys, upper=True)
    return dist + dist.T


def _group_means(dist: np.ndarray, labels, groups) -> list[dict]:
    """Per vector: mean distance to each group with itself excluded (None if empty)."""
    members = {g: np.flatnonzero([label == g for label in labels]) for g in groups}
    means = []
    for i in range(len(labels)):
        row = {}
        for g in groups:
            others = members[g][members[g] != i]
            row[g] = float(dist[i, others].mean()) if others.size else None
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
            keep = min(previous, key=lambda i: (
                -math.inf if means[i][g] is None else means[i][g], i))
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
    vectors = VectorSet(vectors)
    n = len(vectors)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")
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
        dist = exact_dist
        if dist is None:  # pair (i, j) of round r on the substream cfg.derive(r).derive(i, j)
            round_seed = cfg.derive(rnd).seed
            dist = _pairwise_distances(vectors, cfg, [(round_seed, i) for i in range(n)])
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
