import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entdist.experiments
import entdist.ml
import entdist.protocol
from entdist.datasets import FIG2_REFERENCE_A, FIG2_REFERENCE_B, FIG3_DEMO, FIGS1_DEMO
from entdist.experiments import fig2_run, nn_run
from entdist.ml import (
    BOUNDARY_TOL,
    classify_two_cluster,
    nearest_neighbor_assignment,
    nearest_neighbor_classify,
    two_cluster_assignment,
    unsupervised_cluster,
)
from entdist.noise import NoiseModel, apply_noise
from entdist.protocol import (
    DistanceQuery,
    EstimatorConfig,
    distance_matrix,
    estimate_distance,
    exact_p,
)
from entdist.vectors import DimensionError, as_vector

EXACT = EstimatorConfig(mode="exact")
AB = ["A", "B"]


def distance_from_p(p: float, norm_u: float, norm_v: float) -> float:
    """The reference D = sqrt(2 p (|u|^2 + |v|^2)), for norms whose squares fit float64."""
    return math.sqrt(2.0 * p * (norm_u * norm_u + norm_v * norm_v))


def euclid_mean(point, others) -> float:
    return float(np.mean([np.linalg.norm(np.asarray(point) - np.asarray(o)) for o in others]))


class TestTwoCluster:
    def test_table1_row1(self):
        res = classify_two_cluster([2, 0, 0, 0], [[1, 0, 0, 0], [0, 0, 1, 1]], AB, EXACT)
        assert res.labels[0] == "A"
        assert res.margin[0] == pytest.approx(1 - math.sqrt(6), abs=1e-12)

    def test_table2_row2(self):
        u = [0, 0, 0, 0, 0, 0, 0, 0.60]
        a = [1, 0, 0, 0, 0, 0, 0, 0]
        b = [0, 0, 0, 0, 0, 0, 0, 1]
        res = classify_two_cluster(u, [a, b], AB, EXACT)
        assert res.labels[0] == "B"
        assert res.margin[0] == pytest.approx(math.sqrt(1.36) - 0.40, abs=1e-12)

    def test_midpoint_is_boundary(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        res = classify_two_cluster((a + b) / 2, [a, b], AB, EXACT)
        assert res.boundary[0]
        assert res.labels[0] == "A"  # lexicographic tie-break

    def test_tie_break_uses_smallest_label(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        res = classify_two_cluster((a + b) / 2, [a, b], ["z", "m"], EXACT)
        assert res.labels[0] == "m"

    def test_same_labels_rejected(self):
        with pytest.raises(ValueError, match="the two reference labels must differ"):
            classify_two_cluster([1, 0], [[1, 0], [0, 1]], ["A", "A"], EXACT)

    def test_three_references_rejected(self):
        with pytest.raises(ValueError, match="two references and two labels, got 3 and 3"):
            two_cluster_assignment([[1, 0]], [[1, 0], [0, 1], [1, 1]], ["A", "B", "C"], EXACT)

    def test_agrees_with_euclidean_classifier(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            dim = int(rng.choice([2, 4, 8]))
            u = rng.normal(size=dim)
            a = rng.normal(size=dim)
            b = rng.normal(size=dim)
            gap = np.linalg.norm(u - a) - np.linalg.norm(u - b)
            if abs(gap) < 1e-9:
                continue
            res = classify_two_cluster(u, [a, b], AB, EXACT)
            assert res.labels[0] == ("A" if gap < 0 else "B")

    def test_global_scaling_leaves_label_unchanged(self):
        rng = np.random.default_rng(32)
        for c in (0.1, 3.0, 250.0):
            for _ in range(50):
                u, a, b = rng.normal(size=(3, 4))
                base = classify_two_cluster(u, [a, b], AB, EXACT)
                scaled = classify_two_cluster(c * u, [c * a, c * b], AB, EXACT)
                assert scaled.labels[0] == base.labels[0]

    def test_scaling_invariance_holds_under_sampling(self):
        cfg = EstimatorConfig(mode="sampled", shots=200, seed=77)
        u, a, b = [1.0, 0.3], [0.9, 0.1], [0.1, 1.2]
        base = classify_two_cluster(u, [a, b], AB, cfg)
        scaled = classify_two_cluster(
            [7 * x for x in u], [[7 * x for x in a], [7 * x for x in b]], AB, cfg
        )
        assert scaled.labels[0] == base.labels[0]
        assert scaled.margin[0] == pytest.approx(7 * base.margin[0], rel=1e-12)

    def test_figure_references_classify_to_their_own_cluster(self):
        a, b = [1.50, 0.55], [0.86, 2.35]
        gap = float(np.linalg.norm(np.subtract(a, b)))
        res_a = classify_two_cluster(a, [a, b], AB, EXACT)
        res_b = classify_two_cluster(b, [a, b], AB, EXACT)
        assert res_a.labels[0] == "A"
        assert res_a.margin[0] == pytest.approx(-gap, abs=1e-12)
        assert res_b.labels[0] == "B"
        assert res_b.margin[0] == pytest.approx(gap, abs=1e-12)
        assert gap == pytest.approx(1.9104, abs=1e-4)

    def test_label_renaming_permutes_output(self):
        u, a, b = [1.0, 0.3], [0.9, 0.1], [0.1, 1.2]
        first = classify_two_cluster(u, [a, b], AB, EXACT)
        second = classify_two_cluster(u, [a, b], ["left", "right"], EXACT)
        mapping = {"A": "left", "B": "right"}
        assert second.labels[0] == mapping[first.labels[0]]
        assert second.names == ["left", "right"] and first.names == ["A", "B"]
        assert np.array_equal(second.distances, first.distances)


class TestNearestNeighbor:
    def test_single_training_vector(self):
        res = nearest_neighbor_classify([5, 5], [[0, 1]], ["only"], EXACT)
        assert res.labels[0] == "only"
        assert res.margin[0] == math.inf

    def test_single_training_vector_as_array(self):
        res = nearest_neighbor_classify([5, 5], np.array([[0.0, 1.0]]), ["only"], EXACT)
        assert res.labels[0] == "only"
        assert res.margin[0] == math.inf

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="training set must be non-empty"):
            nearest_neighbor_classify([1, 0], [], [], EXACT)

    def test_empty_training_array_rejected(self):
        with pytest.raises(ValueError, match="training set must be non-empty"):
            nearest_neighbor_classify([1, 0], np.empty((0, 2)), [], EXACT)

    def test_tie_goes_to_the_smallest_label_not_the_first_seen(self):
        training = [[1, 0], [0, 1], [5, 5]]
        res = nearest_neighbor_classify([1, 1], training, ["red", "blue", "red"], EXACT)
        assert res.labels[0] == "blue"
        assert res.boundary[0] and res.margin[0] == 0.0
        assert res.names == ["red", "blue"]

    def test_caption_style_distances(self):
        # distances 0.24 to the blue trainer and 0.62 to the red one
        b = np.array([1.0, 1.0])
        training = [b + [0.24, 0.0], b - [0.62, 0.0]]
        res = nearest_neighbor_classify(b, training, ["blue", "red"], EXACT)
        assert res.labels[0] == "blue"
        nearest = dict(zip(res.names, res.distances[0].tolist()))
        assert nearest["blue"] == pytest.approx(0.24, abs=1e-12)
        assert nearest["red"] == pytest.approx(0.62, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(33)
        training, labels = [rng.normal(size=2) for _ in "abcdefgh"], list("abcdefgh")
        for _ in range(200):
            u = rng.normal(size=2)
            res = nearest_neighbor_classify(u, training, labels, EXACT)
            dists = [np.linalg.norm(u - t) for t in training]
            assert res.labels[0] == labels[int(np.argmin(dists))]

    def test_single_label_training_set_wins_everywhere(self):
        training = [[0.5, 0.5], [4.0, 4.0]]
        rng = np.random.default_rng(36)
        for _ in range(20):
            res = nearest_neighbor_classify(rng.uniform(0.5, 5, size=2), training, ["red", "red"],
                                            EXACT)
            assert res.labels[0] == "red"

    def test_duplicate_training_vector_changes_nothing(self):
        demo = FIGS1_DEMO
        training, labels = list(demo.training[:-1]), list(demo.training_labels[:-1])
        for v in demo.vectors().components:
            before = nearest_neighbor_classify(v, training, labels, EXACT)
            after = nearest_neighbor_classify(v, training + training[:1], labels + labels[:1],
                                              EXACT)
            assert before.labels[0] == after.labels[0]

    def test_new_training_vector_flips_only_closer_points(self):
        rng = np.random.default_rng(34)
        training, labels = [[0.2, 0.1], [4.0, 4.0]], ["blue", "red"]
        extra, extra_label = [2.8, 2.6], "blue"
        for _ in range(100):
            u = rng.uniform(0.5, 5, size=2)
            before = nearest_neighbor_classify(u, training, labels, EXACT)
            after = nearest_neighbor_classify(u, training + [extra], labels + [extra_label], EXACT)
            d_extra = np.linalg.norm(u - extra)
            d_nearest_before = before.distances[0].min()
            if after.labels[0] != before.labels[0]:
                assert d_extra < d_nearest_before
                assert after.labels[0] == extra_label
            # oracle agreement either way
            dists = [np.linalg.norm(u - np.array(t)) for t in training + [extra]]
            assert after.labels[0] == (labels + [extra_label])[int(np.argmin(dists))]



@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
def test_a_label_count_unlike_the_columns_is_a_value_error(labels):
    """Labels travel apart from their rows: every procedure names both counts."""
    counts = f"2 vectors, {len(labels)} labels"
    with pytest.raises(ValueError, match=counts):
        nearest_neighbor_assignment(np.ones((3, 2)), labels)
    with pytest.raises(ValueError, match=counts):
        nearest_neighbor_classify([1, 0], [[1, 0], [0, 1]], labels, EXACT)
    with pytest.raises(ValueError, match=counts):
        nn_run([[1, 0]], [[1, 0], [0, 1]], labels, EXACT)
    with pytest.raises(ValueError, match=f"two references and two labels, got 2 and {len(labels)}"):
        two_cluster_assignment([[1, 0]], [[1, 0], [0, 1]], labels, EXACT)

class TestMeanGroupDistance:
    """The clustering's per-vector group means, with the vector itself excluded."""

    VECTORS = [as_vector(v) for v in ([1.0, 0.0], [2.0, 0.0], [3.0, 0.0])]

    def group_mean(self, i, labels, group):
        d = np.triu(distance_matrix(self.VECTORS, self.VECTORS, EXACT), 1)
        dist = d + d.T
        groups = sorted(set(labels))
        codes = np.array([groups.index(label) for label in labels])
        return entdist.ml._group_means(dist, codes, len(groups))[i, groups.index(group)]

    def test_self_only_group_is_undefined(self):
        assert math.isnan(self.group_mean(0, ["a", "b", "b"], "a"))

    def test_single_other_member(self):
        assert self.group_mean(0, ["a", "a", "b"], "a") == pytest.approx(1.0, abs=1e-12)

    def test_collinear_middle_point(self):
        assert self.group_mean(1, ["a", "a", "a"], "a") == pytest.approx(1.0, abs=1e-12)


def separated_clouds(seed=0, spread=0.05, gap=3.0):
    rng = np.random.default_rng(seed)
    cloud_a = rng.uniform(-spread, spread, size=(4, 2)) + 1.0
    cloud_b = rng.uniform(-spread, spread, size=(4, 2)) + 1.0 + gap
    return np.vstack([cloud_a, cloud_b])


def is_fixed_point(points, labels) -> bool:
    groups = sorted(set(labels))
    for i in range(len(points)):
        means = {}
        for g in groups:
            members = [j for j in range(len(points)) if labels[j] == g and j != i]
            if members:
                means[g] = euclid_mean(points[i], [points[j] for j in members])
        if labels[i] in means and means[labels[i]] > min(means.values()):
            return False
    return True


class TestUnsupervisedCluster:
    def test_parameter_validation(self):
        points = separated_clouds()
        with pytest.raises(ValueError):
            unsupervised_cluster(points, 1, 0, EXACT)
        with pytest.raises(ValueError):
            unsupervised_cluster(points, 9, 0, EXACT)
        with pytest.raises(ValueError):
            unsupervised_cluster(points, 2, [0] * 8, EXACT)  # only one group used
        with pytest.raises(ValueError):
            unsupervised_cluster(points, 2, [0, 1], EXACT)  # wrong length
        with pytest.raises(ValueError, match="all numbers or all strings"):
            unsupervised_cluster(points, 2, [0, "a"] * 4, EXACT)  # labels that do not sort
        with pytest.raises(DimensionError):
            unsupervised_cluster([[1, 0], [0, 1, 0, 0]], 2, [0, 1], EXACT)
        with pytest.raises(ValueError, match="init seed must be a non-negative integer, got -1"):
            unsupervised_cluster(points, 2, -1, EXACT)
        with pytest.raises(ValueError, match="init must be an integer seed or a sequence of labels"):
            unsupervised_cluster(points, 2, 2.5, EXACT)

    def test_cloud_pure_is_the_unique_fixed_point(self):
        # brute force over every two-group labeling
        points = separated_clouds()
        target = (0, 0, 0, 0, 1, 1, 1, 1)
        fixed = [
            bits
            for bits in itertools.product([0, 1], repeat=8)
            if len(set(bits)) == 2 and is_fixed_point(points, bits)
        ]
        assert sorted(fixed) == sorted([target, tuple(1 - b for b in target)])

    def test_never_converges_to_an_impure_labeling(self):
        points = separated_clouds()
        target = (0, 0, 0, 0, 1, 1, 1, 1)
        outcomes = {"pure": 0, "cycle": 0}
        for bits in itertools.product([0, 1], repeat=8):
            if len(set(bits)) != 2:
                continue
            state = unsupervised_cluster(points, 2, list(bits), EXACT, max_iterations=50)
            if state.converged:
                assert state.labels in (target, tuple(1 - b for b in target))
                outcomes["pure"] += 1
            else:
                outcomes["cycle"] += 1  # batch updates can oscillate; that is reported
        assert outcomes["pure"] > outcomes["cycle"]

    def test_split_majority_initialization_converges_cloud_pure(self):
        points = separated_clouds()
        state = unsupervised_cluster(points, 2, [0, 0, 0, 1, 1, 1, 1, 1], EXACT)
        assert state.converged
        assert state.labels == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_already_converged_input(self):
        points = separated_clouds()
        init = [0, 0, 0, 0, 1, 1, 1, 1]
        state = unsupervised_cluster(points, 2, init, EXACT)
        assert state.converged
        assert state.iteration == 1
        assert state.labels == tuple(init)
        assert len(state.history) == state.iteration + 1

    def test_fig3_demo_two_flips_then_fixed(self):
        demo = FIG3_DEMO
        state = unsupervised_cluster(demo.vectors(), demo.k, list(demo.initial_labels), EXACT)
        assert state.converged and state.iteration == 2
        flips_round1 = [
            i for i in range(8) if state.history[1][i] != state.history[0][i]
        ]
        assert flips_round1 == [2, 3]  # exactly C and D
        assert state.history[2] == state.history[1]

    def test_fixed_point_satisfies_group_mean_condition(self):
        demo = FIG3_DEMO
        state = unsupervised_cluster(demo.vectors(), demo.k, list(demo.initial_labels), EXACT)
        assert is_fixed_point(demo.points, list(state.labels))

    def test_balanced_mixed_groups_oscillate_and_cycle_is_detected(self):
        # synchronous updates make this initialization swap globally forever
        points = separated_clouds()
        state = unsupervised_cluster(points, 2, [0, 0, 0, 1, 0, 0, 0, 1], EXACT,
                                     max_iterations=30)
        assert not state.converged
        assert state.iteration <= 3  # cycle detection, not the iteration cap
        assert state.history[2] == state.history[0]

    @pytest.mark.parametrize("cfg", [EXACT, EstimatorConfig(mode="sampled", shots=500, seed=3)],
                             ids=["exact", "sampled"])
    def test_a_power_of_two_scale_up_to_float64s_largest_changes_no_round(self, cfg):
        # at 2^1020 a group's distance sum passes float64's largest value: its overflow warned
        # and stopped the loop as converged after one round
        rng = np.random.default_rng(1)
        points = np.vstack([rng.normal(size=(6, 2)) + [3, 0], rng.normal(size=(6, 2)) - [3, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = [unsupervised_cluster(np.ldexp(points, k), 2, [0, 1] * 6, cfg)
                      for k in (0, 1000, 1020, 1021)]
        assert states[0].iteration == 2 and not states[0].converged  # a cycle
        for state in states[1:]:
            assert (state.labels, state.iteration, state.converged, state.history) == \
                (states[0].labels, states[0].iteration, states[0].converged, states[0].history)

    def test_singleton_group_stays_put(self):
        points = [[0.5, 0.5], [10.0, 10.0], [10.1, 10.0]]
        state = unsupervised_cluster(points, 2, [0, 1, 1], EXACT)
        assert state.converged
        assert state.labels == (0, 1, 1)

    def test_emptying_group_keeps_its_closest_previous_member(self):
        # both members of group 1 prefer group 0, but one must stay behind
        points = [[1.0, 0.0], [1.2, 0.0], [1.4, 0.0], [-2.0, 0.0], [5.0, 0.0]]
        state = unsupervised_cluster(points, 2, [0, 0, 0, 1, 1], EXACT, max_iterations=10)
        assert all(lbl in state.history[1] for lbl in (0, 1))

    def test_one_group_per_vector_is_trivially_converged(self):
        points = [[1.0, 0.0], [2.0, 1.0], [3.0, 0.5]]
        state = unsupervised_cluster(points, 3, [0, 1, 2], EXACT)
        assert state.converged and state.iteration == 1
        assert state.labels == (0, 1, 2)

    def test_seeded_random_initialization_is_deterministic(self):
        points = separated_clouds()
        first = unsupervised_cluster(points, 2, 7, EXACT)
        second = unsupervised_cluster(points, 2, 7, EXACT)
        assert first.history == second.history

    def test_random_initialization_covers_all_groups(self):
        points = separated_clouds()
        for seed in range(20):
            state = unsupervised_cluster(points, 3, seed, EXACT, max_iterations=1)
            assert set(state.history[0]) == {0, 1, 2}

    def test_sampled_mode_is_reproducible(self):
        points = separated_clouds()
        cfg = EstimatorConfig(mode="sampled", shots=300, seed=11)
        first = unsupervised_cluster(points, 2, [0, 1, 0, 1, 0, 1, 0, 1], cfg)
        second = unsupervised_cluster(points, 2, [0, 1, 0, 1, 0, 1, 0, 1], cfg)
        assert first.history == second.history

    def test_halts_within_max_iterations(self):
        rng = np.random.default_rng(35)
        for trial in range(20):
            points = rng.normal(size=(6, 2))
            init = list(rng.integers(0, 2, size=6))
            if len(set(init)) < 2:
                init[0], init[1] = 0, 1
            state = unsupervised_cluster(points, 2, init, EXACT, max_iterations=40)
            assert state.iteration <= 40
            assert len(state.history) == state.iteration + 1

    def test_label_tokens_are_preserved(self):
        demo = FIG3_DEMO
        state = unsupervised_cluster(demo.vectors(), 2, list(demo.initial_labels), EXACT)
        assert set(state.labels) == {"red", "blue"}


def test_sampled_substreams_follow_the_nested_derive_chain(monkeypatch):
    # cluster round r is the upper triangle of the block under cfg.derive(r), so pair
    # (i, j), i < j, is draw i of the stream cfg.derive(r).derive(j); fig2 row i against
    # reference j is draw i of numpy's stream SeedSequence([seed, j])
    blocks = []
    reassign = entdist.ml._reassign

    def recording(dist, codes, k):
        blocks.append(dist)
        return reassign(dist, codes, k)

    monkeypatch.setattr(entdist.ml, "_reassign", recording)
    cfg = EstimatorConfig(mode="sampled", shots=1000, seed=5)
    points = [as_vector(p) for p in separated_clouds()]
    unsupervised_cluster(points, 2, [0, 1] * 4, cfg, max_iterations=2)
    assert len(blocks) == 2
    for r, dist in enumerate(blocks, start=1):
        want = np.triu(distance_matrix(points, points, cfg.derive(r)), 1)
        assert dist.tobytes() == (want + want.T).tobytes()
        d = np.triu(distance_matrix(points, points, cfg), 1)
        assert (dist != d + d.T).any()
    assert (blocks[0] != blocks[1]).any()

    # noisy: the expected block is evaluated once, and round r draws the noisy
    # closed-form p of pair (i, j), i < j, as draw i of numpy's stream
    # SeedSequence([SeedSequence([seed, r]) word, j]), one scalar draw per row
    noise = NoiseModel(state_fidelity=0.9, dark_count_fraction=0.01)
    noisy = EstimatorConfig(mode="sampled", shots=50, seed=5, noise=noise)
    noise_calls = []
    monkeypatch.setattr(entdist.protocol, "apply_noise",
                        lambda *args: noise_calls.append(args) or apply_noise(*args))
    points = [as_vector(p) for p in np.random.default_rng(0).normal(size=(12, 2)) + 2]
    blocks.clear()
    state = unsupervised_cluster(points, 3, 1, noisy, max_iterations=4)
    assert len(blocks) == state.iteration == 4 and len(noise_calls) == 1
    expected = {(i, j): apply_noise(exact_p(DistanceQuery(points[i], points[j])), noise, 2)
                for i, j in itertools.combinations(range(12), 2)}
    for r, dist in enumerate(blocks, start=1):
        want = np.triu(distance_matrix(points, points, noisy.derive(r)), 1)
        assert dist.tobytes() == (want + want.T).tobytes()
        round_seed = np.random.SeedSequence([noisy.seed, r]).generate_state(1, np.uint64)[0]
        for j in range(12):
            column_seed = np.random.SeedSequence([int(round_seed), j]).generate_state(1, np.uint64)
            rng = np.random.default_rng(int(column_seed[0]))
            for i in range(j):
                p_hat = rng.binomial(noisy.shots, expected[i, j]) / noisy.shots
                want = distance_from_p(p_hat, points[i].norm, points[j].norm)
                assert dist[i, j] == dist[j, i] == want
    assert all((a != b).any() for a, b in itertools.pairwise(blocks))

    # exact and noisy: the one expected block, its distances read in every round
    exact = EstimatorConfig(noise=noise)
    blocks.clear()
    noise_calls.clear()
    state = unsupervised_cluster(points, 3, 1, exact)
    assert len(blocks) == state.iteration == 7 and len(noise_calls) == 1
    d = np.triu(distance_matrix(points, points, exact), 1)
    for dist in blocks:
        assert dist.tobytes() == (d + d.T).tobytes()

    vectors = [as_vector(v) for v in ([1.0, 0.5], [0.3, 2.0], [2.0, 2.0])]
    sampled_diff = fig2_run(cfg, vectors=vectors)["rows"]["sampled_diff"]
    refs = [as_vector(FIG2_REFERENCE_A), as_vector(FIG2_REFERENCE_B)]
    seeds = [np.random.SeedSequence([cfg.seed, j]).generate_state(1, np.uint64)[0]
             for j in range(len(refs))]
    streams = [np.random.default_rng(int(seed)) for seed in seeds]
    for u, diff in zip(vectors, sampled_diff):  # one scalar draw per row, down each stream
        p_hat = [rng.binomial(cfg.shots, exact_p(DistanceQuery(u, r))) / cfg.shots
                 for rng, r in zip(streams, refs)]
        d_a, d_b = (distance_from_p(p, u.norm, r.norm) for p, r in zip(p_hat, refs))
        assert diff == d_a - d_b


def lattice_points(n_min, n_max, dim=2):
    """Small integer (or half-integer) points: many distances and group means tie exactly."""
    point = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    return st.lists(point, min_size=n_min, max_size=n_max)


def sampled_or_exact():
    return st.one_of(st.just(EXACT), st.builds(
        EstimatorConfig, mode=st.just("sampled"), shots=st.integers(1, 400),
        seed=st.integers(0, 2**32)))


def reference_reassign(dist, labels, groups):
    """The per-(row, group) round that _reassign replaced, as its oracle:
    dicts of means with None for a sole member, and the veto on lists."""
    n = len(labels)
    members = {g: np.flatnonzero([label == g for label in labels]) for g in groups}
    means = []
    for i in range(n):
        row = {}
        for g in groups:
            others = members[g][members[g] != i]
            row[g] = float(dist[i, others].mean()) if others.size else None
        means.append(row)
    new = []
    for i, current in enumerate(labels):
        if means[i][current] is None:
            new.append(current)
            continue
        defined = {g: v for g, v in means[i].items() if v is not None}
        best = min(defined, key=lambda g: (defined[g], g))
        if defined[current] == defined[best]:
            best = current
        new.append(best)
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


@st.composite
def clustering_rounds(draw):
    k = draw(st.integers(2, 5))
    dim = draw(st.sampled_from([2, 4]))
    points = np.array(draw(lattice_points(k, 12, dim)), dtype=float)
    if draw(st.booleans()):
        points /= 2
    n = len(points)
    codes = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    codes[draw(st.permutations(range(n)))[:k]] = np.arange(k)  # every group non-empty
    names = draw(st.sampled_from([list(range(k)), [f"g{c}" for c in range(k)]]))
    return points, codes, k, draw(sampled_or_exact()), names


VETO_ROUND = (np.array([[1, 0], [1.2, 0], [1.4, 0], [-2, 0], [5, 0]]), np.array([0, 0, 0, 1, 1]),
              2, EXACT, [0, 1])
SOLE_MEMBER_ROUND = (np.array([[0.5, 0.5], [10, 10], [10.1, 10], [9, 9]]),
                     np.array([0, 1, 1, 2]), 3, EXACT, ["x", "y", "z"])


@settings(max_examples=300, deadline=None)
@given(case=clustering_rounds())
@example(case=VETO_ROUND)
@example(case=SOLE_MEMBER_ROUND)
@example(case=(VETO_ROUND[0], np.array([1, 0, 0, 1, 1]), 2,
               EstimatorConfig(mode="sampled", shots=20, seed=3), ["a", "b"]))
def test_reassign_matches_the_per_cell_reference(case):
    points, codes, k, cfg, names = case
    d = np.triu(distance_matrix(points, points, cfg), 1)
    dist = d + d.T
    labels = [names[c] for c in codes]
    got = entdist.ml._reassign(dist, codes, k)
    assert [names[c] for c in got] == reference_reassign(dist, labels, names)


def ties(distance: float, best: float) -> bool:
    """A label ties with the nearest when its distance is at most (1 + BOUNDARY_TOL) times
    the nearest, in exact rational arithmetic (1 + BOUNDARY_TOL as the float64 it rounds to)."""
    return Fraction(distance) <= Fraction(1 + BOUNDARY_TOL) * Fraction(best)


def reference_nearest(row, labels):
    """The labelling rule one row at a time, as its oracle: the nearest
    distance per label (first-seen order), the smallest label that ties with
    the best, whether the runner-up ties, and the gap to the runner-up label."""
    per_label = {}
    for d, label in zip(row, labels, strict=True):
        per_label[label] = min(per_label.get(label, math.inf), d)
    best, *rest = sorted(per_label.values())
    label = min(name for name, d in per_label.items() if ties(d, best))
    gap = rest[0] - best if rest else math.inf
    return per_label, label, bool(rest) and ties(rest[0], best), gap


def assert_row_follows_reference(got, i, row, labels):
    """Row i of an Assignment is reference_nearest of its distance row; returns the gap."""
    per_label, label, boundary, gap = reference_nearest(row, labels)
    assert list(zip(got.names, got.distances[i].tolist())) == list(per_label.items())
    assert got.labels[i] == label
    assert got.boundary[i] == boundary
    return gap


@settings(max_examples=200, deadline=None)
@given(vectors=lattice_points(1, 8), a=lattice_points(1, 1), b=lattice_points(1, 1),
       labels=st.sampled_from([("A", "B"), ("B", "A"), ("z", "m")]), cfg=sampled_or_exact())
def test_classify_is_nearest_neighbors_over_the_two_references(vectors, a, b, labels, cfg):
    refs = [np.array(a[0]) / 2, np.array(b[0]) / 2]
    dist = distance_matrix(vectors, refs, cfg)
    got = two_cluster_assignment(vectors, refs, list(labels), cfg)
    for i, row in enumerate(dist.tolist()):
        gap = assert_row_follows_reference(got, i, row, labels)
        assert abs(got.margin[i]) == gap
        assert got.margin[i] == row[0] - row[1]


SCALES = (-1000, -60, 60, 1000)


@settings(max_examples=100, deadline=None)
@given(vectors=lattice_points(1, 6), training=lattice_points(2, 5),
       labels=st.lists(st.sampled_from("abc"), min_size=5, max_size=5), cfg=sampled_or_exact())
@example(vectors=[[2, 1], [1, 2]], training=[[2, 0], [0, 2]], labels=list("baabc"), cfg=EXACT)
@example(vectors=[[1, 1], [0, 2]], training=[[0, 2], [2, 0], [0, 2]], labels=list("cabcc"),
         cfg=EXACT)  # a distance 0, and a query equally far from "a" and "b"
def test_labels_and_boundary_flags_are_power_of_two_covariant(vectors, training, labels, cfg):
    """Scaled by 2^k, every distance scales exactly, and the labels and boundary flags of
    both procedures stay those at unit scale."""
    labels = labels[:len(training)]

    def assignments(k):
        refs = [np.ldexp(t, k) for t in training]
        us = np.ldexp(np.array(vectors, dtype=float), k)
        dist = distance_matrix(us, refs, cfg)
        two = (two_cluster_assignment(us, refs[:2], labels[:2], cfg)
               if labels[0] != labels[1] else None)
        return dist, nearest_neighbor_assignment(dist, labels), two

    base = assignments(0)
    for k in SCALES:
        scaled = assignments(k)
        assert np.array_equal(scaled[0], np.ldexp(base[0], k))
        for got, want in zip(scaled[1:], base[1:]):
            if want is not None:
                assert got.labels == want.labels
                assert got.boundary.tolist() == want.boundary.tolist()


@pytest.mark.parametrize("k", [0, *SCALES, -200, 200])
def test_ties_scale_with_the_data(k):
    """(0.9, 0.1) is nearer to (1, 0) and (0.1, 0.9) to (0, 1) at every scale; an absolute
    tie window would send both to "a", flagged, at 2^-60 and below."""
    refs = np.ldexp([[1.0, 0.0], [0.0, 1.0]], k)
    queries = np.ldexp([[0.9, 0.1], [0.1, 0.9]], k)
    for got in (two_cluster_assignment(queries, refs, ["b", "a"], EXACT),
                nearest_neighbor_assignment(distance_matrix(queries, refs), ["b", "a"])):
        assert got.labels == ["b", "a"]
        assert got.boundary.tolist() == [False, False]


def test_a_label_at_distance_0_ties_only_with_distance_0():
    got = nearest_neighbor_assignment(np.array([[0.0, 5e-324], [0.0, 0.0], [5e-324, 1e-300]]),
                                      ["z", "a"])
    assert got.labels == ["z", "a", "z"]
    assert got.boundary.tolist() == [False, True, False]


@settings(max_examples=100, deadline=None)
@given(vectors=lattice_points(1, 6), cfg=sampled_or_exact())
def test_single_vector_calls_are_row_0_of_a_block(vectors, cfg):
    refs = [[1.5, 0.55], [0.86, 2.35]]
    training, labels = refs + [[-1, 0.5]], AB + ["A"]
    u = as_vector(vectors[0])
    block = distance_matrix(vectors, training, cfg)
    single = classify_two_cluster(u, refs, AB, cfg)
    assert len(single.codes) == 1
    row = block[0, :2].tolist()  # the references' columns draw on the streams (seed, 0), (seed, 1)
    assert_row_follows_reference(single, 0, row, AB)
    assert single.margin[0] == row[0] - row[1]
    assert estimate_distance(DistanceQuery(u, refs[0]), cfg).distance == block[0, 0]
    single = nearest_neighbor_classify(u, training, labels, cfg)
    assert len(single.codes) == 1
    assert single.margin[0] == assert_row_follows_reference(single, 0, block[0].tolist(), labels)
    everyone = nearest_neighbor_assignment(block, labels)
    for i, row in enumerate(block.tolist()):
        assert everyone.margin[i] == assert_row_follows_reference(everyone, i, row, labels)


# points on the bisector of the fig2 references A = (1.5, 0.55) and B = (0.86, 2.35):
# D_A - D_B is zero or a rounding error there, so ties and boundary flags occur
FIG2_BISECTOR = st.floats(-1.5, 1.5).map(lambda t: [1.18 + 1.8 * t, 1.45 + 0.64 * t])
PLANE_POINTS = st.lists(st.integers(-300, 300).map(lambda k: k / 100),
                        min_size=2, max_size=2).filter(any)


@settings(max_examples=150, deadline=None)
@given(vectors=st.lists(FIG2_BISECTOR | PLANE_POINTS, min_size=1, max_size=8),
       cfg=sampled_or_exact())
@example(vectors=[[1.18, 1.45], [2.0, 0.5], [0.1, 2.0]], cfg=EXACT)
@example(vectors=[[1.18, 1.45], [2.0, 0.5], [1.18 + 1.8, 1.45 + 0.64]],
         cfg=EstimatorConfig(mode="sampled", shots=50, seed=3))
def test_fig2_columns_are_the_scalar_results_row_by_row(vectors, cfg):
    """Row i of every fig2 column, bit for bit, from scalar calls: exact, the
    distance from exact_p of each pair; sampled, draw i of each reference's
    stream, numpy's default_rng of SeedSequence([seed, j]); then the labels
    by reference_nearest."""
    rows = fig2_run(cfg, vectors=vectors)["rows"]
    refs = [as_vector(FIG2_REFERENCE_A), as_vector(FIG2_REFERENCE_B)]
    assert rows["index"].tolist() == list(range(len(vectors)))
    assert {len(column) for column in rows.values()} == {len(vectors)}
    streams = [np.random.default_rng(int(np.random.SeedSequence([cfg.seed, j])
                                         .generate_state(1, np.uint64)[0]))
               for j in range(len(refs))]
    for i, u in enumerate(map(as_vector, vectors)):
        p = [exact_p(DistanceQuery(u, r)) for r in refs]
        if cfg.mode == "sampled":  # one scalar draw per row, down each stream
            p_hat = [rng.binomial(cfg.shots, x) / cfg.shots for rng, x in zip(streams, p)]
        else:
            p_hat = p
        for kind, ps in (("exact", p), ("sampled", p_hat)):
            d_a, d_b = (distance_from_p(x, u.norm, r.norm) for x, r in zip(ps, refs))
            assert rows[f"{kind}_diff"][i] == d_a - d_b
            assert rows[f"{kind}_label"][i] == reference_nearest([d_a, d_b], AB)[1]
        x, y = u.components.tolist()
        assert (rows["x"][i], rows["y"][i], rows["norm"][i]) == (x, y, u.norm)
        assert rows["angle"][i] == math.atan2(y, x)
        assert rows["misclassified"][i] == (rows["sampled_label"][i] != rows["exact_label"][i])


# values with ties and few distinct digits, where the percentile's two rules meet
ROUNDED = st.integers(-2000, 2000).map(lambda k: k / 8)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(ROUNDED | st.floats(-1e6, 1e6), min_size=1, max_size=200))
@example(values=[0.5] * 3 + [2.0])
@example(values=[-0.0])
@example(values=list(np.random.default_rng(7).exponential(size=4000)))
def test_fig2_error_p90_is_numpy_percentile_bit_for_bit(values):
    got = entdist.experiments._percentile_90(np.array(values))
    want = float(np.percentile(values, 90))
    # -0.0 and 0.0 tie, and numpy's partition may order them unlike a sort
    assert got.hex() == want.hex() or got == want == 0.0
