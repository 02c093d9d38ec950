"""Classification and clustering built on the distance estimator.

Each procedure reads its distances as one block from protocol.distance_matrix.
One labelling rule, nearest reference wins and a tie (a factor 1 + BOUNDARY_TOL)
goes to the smallest label, serves two-cluster assignment (over the two
references) and nearest-neighbor (over a training set).  The unsupervised
loop moves every vector to the group of smallest mean distance, one (n, k)
array of means over integer group codes per round, until nothing moves.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .protocol import EstimatorConfig, _distances, _draw, _expected_p, distance_matrix
from .protocol import estimate_distance  # noqa: F401  (bench/tracing.py patches it here)
from .vectors import VectorSet, _Frozen

__all__ = [
    "BOUNDARY_TOL",
    "Assignment",
    "ClusteringState",
    "two_cluster_assignment",
    "classify_two_cluster",
    "nearest_neighbor_assignment",
    "nearest_neighbor_classify",
    "unsupervised_cluster",
]

# a label at most 1 + BOUNDARY_TOL times as far as the nearest ties and flags the boundary
BOUNDARY_TOL = 1e-12


def _tied(minima: np.ndarray) -> np.ndarray:
    """(n, L): the labels that tie with each row's nearest, itself included, at any 2^k scale."""
    with np.errstate(over="ignore"):  # a nearest distance within 1e-12 of float64's largest
        return minima <= minima.min(axis=1, keepdims=True) * (1 + BOUNDARY_TOL)


class Assignment(_Frozen):
    """A labelled distance block as columns, one entry per row.

    Column c of ``distances`` holds each row's nearest distance to label
    ``names[c]``, so ``dict(zip(names, distances.T))`` is the per-label table
    nn_run writes.
    """

    names: list  # the distinct labels, first-seen order
    distances: np.ndarray  # (n, L): the nearest distance to each label
    codes: np.ndarray  # (n,): the assigned label, an index into names
    margin: np.ndarray  # (n,): runner-up minus best label (inf with one); two-cluster: D_A - D_B

    def __init__(self, names, distances, codes, margin):
        vars(self).update(names=names, distances=distances, codes=codes, margin=margin)

    @property
    def labels(self) -> list:
        return list(map(self.names.__getitem__, self.codes.tolist()))

    @property
    def boundary(self) -> np.ndarray:
        """True where the runner-up label ties with the nearest (see _tied)."""
        return _tied(self.distances).sum(axis=1) > 1


def two_cluster_assignment(
    vectors,
    references,
    labels: list,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> Assignment:
    """nearest_neighbor_assignment over two references, rows A and B (a VectorSet or
    its rows) labelled labels[0] and labels[1]; margin is the signed D_A - D_B.

    Sampled, vector i's estimates are draw i of the streams (seed, 0) and
    (seed, 1), one per reference.
    """
    if len(references) != 2 or len(labels) != 2:
        raise ValueError(f"two-cluster assignment needs two references and two labels, "
                         f"got {len(references)} and {len(labels)}")
    if labels[0] == labels[1]:
        raise ValueError("the two reference labels must differ")
    result = nearest_neighbor_assignment(distance_matrix(vectors, references, cfg), labels)
    d = result.distances
    return Assignment(result.names, d, result.codes, d[:, 0] - d[:, 1])


def classify_two_cluster(
    u,
    references,
    labels: list,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> Assignment:
    """two_cluster_assignment of u alone: a one-row Assignment, row 0 of any larger batch."""
    return two_cluster_assignment([u], references, labels, cfg)


def nearest_neighbor_assignment(dist: np.ndarray, labels: list) -> Assignment:
    """The one labelling rule: row i of a distance block takes the label of its
    nearest column j, labels[j].

    Labels within a factor 1 + BOUNDARY_TOL of the nearest tie, and the
    smallest wins; the margin is the gap to the runner-up label.
    """
    if len(labels) != dist.shape[1]:
        raise ValueError(f"expected one label per labelled vector: {dist.shape[1]} vectors, "
                         f"{len(labels)} labels")
    names = list(dict.fromkeys(labels))
    codes = np.array([names.index(label) for label in labels])
    minima = np.column_stack([dist[:, codes == c].min(axis=1) for c in range(len(names))])
    ranked = np.sort(minima, axis=1)
    gap = ranked[:, 1] - ranked[:, 0] if len(names) > 1 else np.full(len(ranked), np.inf)
    by_label = np.array(sorted(range(len(names)), key=names.__getitem__))
    return Assignment(names, minima, by_label[_tied(minima[:, by_label]).argmax(axis=1)], gap)


def nearest_neighbor_classify(
    u,
    training,
    labels: list,
    cfg: EstimatorConfig = EstimatorConfig(),
) -> Assignment:
    """Assign u the label of its nearest training vector: a one-row Assignment.

    ``training`` is a VectorSet (or its rows), labels[j] naming row j.
    Sampled, the estimate against training vector j is draw 0 of the stream
    (seed, j): row 0 of any larger block.
    """
    if not len(training):
        raise ValueError("training set must be non-empty")
    return nearest_neighbor_assignment(distance_matrix([u], training, cfg), labels)


class ClusteringState(NamedTuple):
    """Labels after the loop, with the per-round trail that produced them."""

    labels: tuple
    iteration: int
    converged: bool
    history: tuple[tuple, ...]


def _group_means(dist: np.ndarray, codes: np.ndarray, k: int) -> np.ndarray:
    """(n, k) mean distance from each vector to each group 0..k-1, itself
    excluded (nan where it is its group's only member).

    Each mean is ``.mean(axis=1)`` of a gathered C-ordered block, which sums
    every row as ``dist[i, others].mean()`` does, so exact ties stay exact.
    """
    means = np.empty((len(codes), k))
    for g in range(k):
        members, rest = np.flatnonzero(codes == g), np.flatnonzero(codes != g)
        s = members.size
        means[rest, g] = dist[rest[:, None], members].mean(axis=1)
        # member r's row reads the other members: columns 0..s-1 without r
        others = members[np.arange(s - 1) + (np.arange(s - 1) >= np.arange(s)[:, None])]
        means[members, g] = dist[members[:, None], others].mean(axis=1) if s > 1 else np.nan
    return means


def _reassign(dist: np.ndarray, codes: np.ndarray, k: int) -> np.ndarray:
    """One synchronous reassignment round over group codes, with the empty-group veto."""
    means = _group_means(dist, codes, k)
    rows = np.arange(len(codes))
    own = means[rows, codes]
    sole = np.isnan(own)  # sole member of its group: no baseline, stays put
    best = np.nanargmin(means, axis=1)  # the first minimum is the smallest group
    # keep the current group on an exact tie
    new = np.where(sole | (own == means[rows, best]), codes, best)
    # a group must not be left empty: its previous member closest to the
    # group's other previous members keeps the code
    by_group = np.lexsort((np.where(sole, -np.inf, own), codes))  # stable: index breaks ties
    keep = by_group[np.searchsorted(codes[by_group], np.arange(k))]
    empty = np.flatnonzero(np.bincount(new, minlength=k) == 0)
    while empty.size:  # a kept vector never moves again, so at most k passes
        new[keep[empty]] = empty
        empty = np.flatnonzero(np.bincount(new, minlength=k) == 0)
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
    update synchronously each round.  The expected upper block (p under
    cfg's noise) and its pair scales are evaluated once.  Exact, they give
    the distances of every round.  Sampled, round r draws that block on the
    cfg.derive(r) streams, so pair (i, j), i < j, is draw i of the stream
    (cfg.derive(r).seed, j), as in
    distance_matrix(vectors, vectors, cfg.derive(r), upper=True).  A vector
    that is the sole member of its group has no own-group mean to compare
    against and stays put.  Stops at a fixed point (converged), on a
    repeated label configuration (cycle), or at max_iterations.
    """
    vectors = VectorSet(vectors)
    n = len(vectors)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")

    if isinstance(init, (int, np.integer)) and not isinstance(init, bool):
        if init < 0:
            raise ValueError(f"init seed must be a non-negative integer, got {init}")
        rng = np.random.default_rng(int(init))
        labels = rng.integers(0, k, size=n)
        labels[rng.permutation(n)[:k]] = np.arange(k)  # make every group non-empty
        labels = labels.tolist()
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

    code_of = {g: c for c, g in enumerate(groups)}
    codes = np.array([code_of[label] for label in labels])

    expected, *scale = _expected_p(vectors, vectors, cfg, upper=True, scales=True)
    # a group's distance sum is below 2^E 2n, E the largest norm's frexp exponent; where
    # that could overflow, every D is formed scaled down by a power of two, moving no comparison
    scale[0] -= max(0, np.frexp(vectors.norms.max())[1] + (2 * n).bit_length() - 1023)
    if cfg.mode == "exact":
        dist = _distances(expected, *scale)
        dist = dist + dist.T
    history = [tuple(labels)]
    seen = {history[0]}
    converged = False
    for iteration in range(1, max_iterations + 1):
        if cfg.mode == "sampled":
            dist = _distances(_draw(expected, cfg.derive(iteration), upper=True), *scale)
            dist = dist + dist.T
        new = _reassign(dist, codes, k)
        history.append(tuple(groups[c] for c in new.tolist()))
        if np.array_equal(new, codes):
            converged = True
            break
        codes = new
        if history[-1] in seen:
            break  # a repeated configuration would loop forever
        seen.add(history[-1])
    return ClusteringState(history[-1], iteration, converged, tuple(history))
