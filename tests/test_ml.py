import itertools
import math

import numpy as np
import pytest

import entdist.ml
from entdist.datasets import FIG3_DEMO, FIGS1_DEMO
from entdist.experiments import fig2_run
from entdist.ml import (
    LabeledReference,
    classify_two_cluster,
    nearest_neighbor_classify,
    unsupervised_cluster,
)
from entdist.protocol import EstimatorConfig
from entdist.vectors import DimensionError, as_vector

EXACT = EstimatorConfig(mode="exact")


def ref(vector, label) -> LabeledReference:
    return LabeledReference(as_vector(vector), label)


def euclid_mean(point, others) -> float:
    return float(np.mean([np.linalg.norm(np.asarray(point) - np.asarray(o)) for o in others]))


class TestTwoCluster:
    def test_table1_row1(self):
        res = classify_two_cluster([2, 0, 0, 0], ref([1, 0, 0, 0], "A"), ref([0, 0, 1, 1], "B"), EXACT)
        assert res.assigned_label == "A"
        assert res.margin == pytest.approx(1 - math.sqrt(6), abs=1e-12)

    def test_table2_row2(self):
        u = [0, 0, 0, 0, 0, 0, 0, 0.60]
        a = [1, 0, 0, 0, 0, 0, 0, 0]
        b = [0, 0, 0, 0, 0, 0, 0, 1]
        res = classify_two_cluster(u, ref(a, "A"), ref(b, "B"), EXACT)
        assert res.assigned_label == "B"
        assert res.margin == pytest.approx(math.sqrt(1.36) - 0.40, abs=1e-12)

    def test_midpoint_is_boundary(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        res = classify_two_cluster((a + b) / 2, ref(a, "A"), ref(b, "B"), EXACT)
        assert res.boundary_flag
        assert res.assigned_label == "A"  # lexicographic tie-break

    def test_tie_break_uses_smallest_label(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        res = classify_two_cluster((a + b) / 2, ref(a, "z"), ref(b, "m"), EXACT)
        assert res.assigned_label == "m"

    def test_same_labels_rejected(self):
        with pytest.raises(ValueError):
            classify_two_cluster([1, 0], ref([1, 0], "A"), ref([0, 1], "A"), EXACT)

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
            res = classify_two_cluster(u, ref(a, "A"), ref(b, "B"), EXACT)
            assert res.assigned_label == ("A" if gap < 0 else "B")

    def test_global_scaling_leaves_label_unchanged(self):
        rng = np.random.default_rng(32)
        for c in (0.1, 3.0, 250.0):
            for _ in range(50):
                u, a, b = rng.normal(size=(3, 4))
                base = classify_two_cluster(u, ref(a, "A"), ref(b, "B"), EXACT)
                scaled = classify_two_cluster(c * u, ref(c * a, "A"), ref(c * b, "B"), EXACT)
                assert scaled.assigned_label == base.assigned_label

    def test_scaling_invariance_holds_under_sampling(self):
        cfg = EstimatorConfig(mode="sampled", shots=200, seed=77)
        u, a, b = [1.0, 0.3], [0.9, 0.1], [0.1, 1.2]
        base = classify_two_cluster(u, ref(a, "A"), ref(b, "B"), cfg)
        scaled = classify_two_cluster(
            [7 * x for x in u], ref([7 * x for x in a], "A"), ref([7 * x for x in b], "B"), cfg
        )
        assert scaled.assigned_label == base.assigned_label
        assert scaled.margin == pytest.approx(7 * base.margin, rel=1e-12)

    def test_figure_references_classify_to_their_own_cluster(self):
        a, b = [1.50, 0.55], [0.86, 2.35]
        gap = float(np.linalg.norm(np.subtract(a, b)))
        res_a = classify_two_cluster(a, ref(a, "A"), ref(b, "B"), EXACT)
        res_b = classify_two_cluster(b, ref(a, "A"), ref(b, "B"), EXACT)
        assert res_a.assigned_label == "A"
        assert res_a.margin == pytest.approx(-gap, abs=1e-12)
        assert res_b.assigned_label == "B"
        assert res_b.margin == pytest.approx(gap, abs=1e-12)
        assert gap == pytest.approx(1.9104, abs=1e-4)

    def test_label_renaming_permutes_output(self):
        u, a, b = [1.0, 0.3], [0.9, 0.1], [0.1, 1.2]
        first = classify_two_cluster(u, ref(a, "A"), ref(b, "B"), EXACT)
        second = classify_two_cluster(u, ref(a, "left"), ref(b, "right"), EXACT)
        mapping = {"A": "left", "B": "right"}
        assert second.assigned_label == mapping[first.assigned_label]
        assert second.per_label_distance["left"] == first.per_label_distance["A"]


class TestNearestNeighbor:
    def test_single_training_vector(self):
        res = nearest_neighbor_classify([5, 5], [ref([0, 1], "only")], EXACT)
        assert res.assigned_label == "only"
        assert res.margin == math.inf

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbor_classify([1, 0], [], EXACT)

    def test_caption_style_distances(self):
        # distances 0.24 to the blue trainer and 0.62 to the red one
        b = np.array([1.0, 1.0])
        training = [ref(b + [0.24, 0.0], "blue"), ref(b - [0.62, 0.0], "red")]
        res = nearest_neighbor_classify(b, training, EXACT)
        assert res.assigned_label == "blue"
        assert res.per_label_distance["blue"] == pytest.approx(0.24, abs=1e-12)
        assert res.per_label_distance["red"] == pytest.approx(0.62, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(33)
        training = [ref(rng.normal(size=2), lbl) for lbl in "abcdefgh"]
        for _ in range(200):
            u = rng.normal(size=2)
            res = nearest_neighbor_classify(u, training, EXACT)
            dists = [np.linalg.norm(u - t.vector.components) for t in training]
            assert res.assigned_label == training[int(np.argmin(dists))].label

    def test_single_label_training_set_wins_everywhere(self):
        training = [ref([0.5, 0.5], "red"), ref([4.0, 4.0], "red")]
        rng = np.random.default_rng(36)
        for _ in range(20):
            res = nearest_neighbor_classify(rng.uniform(0.5, 5, size=2), training, EXACT)
            assert res.assigned_label == "red"

    def test_duplicate_training_vector_changes_nothing(self):
        demo = FIGS1_DEMO
        training = list(demo.initial_training)
        duplicated = training + [ref(training[0].vector.components, training[0].label)]
        for v in demo.vectors():
            before = nearest_neighbor_classify(v, training, EXACT)
            after = nearest_neighbor_classify(v, duplicated, EXACT)
            assert before.assigned_label == after.assigned_label

    def test_new_training_vector_flips_only_closer_points(self):
        rng = np.random.default_rng(34)
        training = [ref([0.2, 0.1], "blue"), ref([4.0, 4.0], "red")]
        extra = ref([2.8, 2.6], "blue")
        for _ in range(100):
            u = rng.uniform(0.5, 5, size=2)
            before = nearest_neighbor_classify(u, training, EXACT)
            after = nearest_neighbor_classify(u, training + [extra], EXACT)
            d_extra = np.linalg.norm(u - extra.vector.components)
            d_nearest_before = min(before.per_label_distance.values())
            if after.assigned_label != before.assigned_label:
                assert d_extra < d_nearest_before
                assert after.assigned_label == extra.label
            # oracle agreement either way
            all_training = training + [extra]
            dists = [np.linalg.norm(u - t.vector.components) for t in all_training]
            assert after.assigned_label == all_training[int(np.argmin(dists))].label


class TestMeanGroupDistance:
    """The clustering's per-vector group means, with the vector itself excluded."""

    VECTORS = [as_vector(v) for v in ([1.0, 0.0], [2.0, 0.0], [3.0, 0.0])]

    def group_mean(self, i, labels, group):
        dist = entdist.ml._pairwise_distances(self.VECTORS, EXACT)
        return entdist.ml._group_means(dist, labels, sorted(set(labels)))[i][group]

    def test_self_only_group_is_undefined(self):
        assert self.group_mean(0, ["a", "b", "b"], "a") is None

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
    # pair (i, j) of cluster round r runs on cfg.derive(r).derive(i, j) and
    # fig2 row i on cfg.derive(i).derive(0 | 1): a chain of keys, not one flat key
    seeds = []
    estimate = entdist.ml.estimate_distance

    def recording(query, cfg):
        if cfg.mode == "sampled":
            seeds.append(cfg.seed)
        return estimate(query, cfg)

    monkeypatch.setattr(entdist.ml, "estimate_distance", recording)
    cfg = EstimatorConfig(mode="sampled", shots=100, seed=5)
    unsupervised_cluster(separated_clouds(), 2, [0, 1] * 4, cfg, max_iterations=1)
    pairs = list(itertools.combinations(range(8), 2))
    assert seeds == [cfg.derive(1).derive(i, j).seed for i, j in pairs]
    assert seeds[0] != cfg.derive(1, 0, 1).seed

    seeds.clear()
    fig2_run(cfg, vectors=[[1.0, 0.5], [0.3, 2.0], [2.0, 2.0]])
    assert seeds == [cfg.derive(i).derive(k).seed for i in range(3) for k in (0, 1)]
