import hashlib
import json
import math

import numpy as np
import pytest

from entdist.datasets import (
    FIG2_ANGLE_RANGE,
    FIG2_NORM_RANGE,
    FIG2_REFERENCE_A,
    FIG2_REFERENCE_B,
    FIG3_DEMO,
    FIGS1_DEMO,
    TABLE1,
    TABLE2,
    fig2_references,
    fig2_test_vectors,
)
from entdist.experiments import fig2_run, table_run
from entdist.protocol import EstimatorConfig

# one-time transcription checksum; any edit to the published numbers must
# be deliberate enough to update this digest
TABLES_SHA256 = "3acf47d176d1b72f3a192e71625d2445fabdf682bcd3d14ed62e8aa828c66f00"


def _canonical(ds):
    return [
        ds.name,
        list(ds.reference_a),
        list(ds.reference_b),
        [
            [r.index, list(r.vector), r.theory_diff, r.experiment_diff, r.group,
             r.experiment_correct]
            for r in ds.rows
        ],
    ]


class TestTables:
    def test_row_counts(self):
        assert len(TABLE1.rows) == 17
        assert len(TABLE2.rows) == 9

    def test_dimensions(self):
        assert len(TABLE1.reference_a) == 4
        assert len(TABLE2.reference_a) == 8
        assert all(len(r.vector) == 4 for r in TABLE1.rows)
        assert all(len(r.vector) == 8 for r in TABLE2.rows)

    def test_reference_vectors(self):
        assert TABLE1.reference_a == (1.0, 0.0, 0.0, 0.0)
        assert TABLE1.reference_b == (0.0, 0.0, 1.0, 1.0)
        assert TABLE2.reference_a == (1.0,) + (0.0,) * 7
        assert TABLE2.reference_b == (0.0,) * 7 + (1.0,)

    def test_transcription_checksum(self):
        blob = json.dumps([_canonical(TABLE1), _canonical(TABLE2)], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == TABLES_SHA256

    def test_unknown_table_is_rejected(self):
        with pytest.raises(ValueError, match="unknown table dataset 'table3'"):
            table_run("table3")

    def test_one_misclassified_row_per_table(self):
        assert [r.index for r in TABLE1.rows if not r.experiment_correct] == [17]
        assert [r.index for r in TABLE2.rows if not r.experiment_correct] == [9]

    def test_printed_group_consistent_with_theory_sign(self):
        for ds in (TABLE1, TABLE2):
            for r in ds.rows:
                theory_group = "A" if r.theory_diff < 0 else "B"
                assert (r.group == theory_group) == r.experiment_correct


class TestFig2:
    def test_reference_constants(self):
        assert FIG2_REFERENCE_A == (1.50, 0.55)
        assert FIG2_REFERENCE_B == (0.86, 2.35)

    def test_reference_labels(self):
        refs = fig2_references()
        assert refs.components.tolist() == [list(FIG2_REFERENCE_A), list(FIG2_REFERENCE_B)]
        # the rows are A then B: each reference classifies as its own label
        result = fig2_run(EstimatorConfig(mode="sampled"), vectors=[FIG2_REFERENCE_A,
                                                                    FIG2_REFERENCE_B])
        assert result["rows"]["exact_label"] == ["A", "B"]
        assert [result["reference_a"], result["reference_b"]] == refs.components.tolist()

    def test_vectors_are_seeded_and_deterministic(self):
        first = fig2_test_vectors(100, seed=3)
        second = fig2_test_vectors(100, seed=3)
        np.testing.assert_array_equal(first.components, second.components)
        other = fig2_test_vectors(100, seed=4)
        assert any(
            not np.array_equal(u, w) for u, w in zip(first.components, other.components)
        )

    def test_vectors_keep_the_scalar_libm_bits(self):
        # the vectorized build must give the bits of r*math.cos(t), r*math.sin(t)
        vectors = fig2_test_vectors(2000, seed=5)
        rng = np.random.default_rng(5)
        norms = rng.uniform(*FIG2_NORM_RANGE, size=2000)
        angles = rng.uniform(*FIG2_ANGLE_RANGE, size=2000)
        want = [[r * math.cos(t), r * math.sin(t)] for r, t in zip(norms, angles)]
        assert vectors.components.tolist() == want

    def test_vectors_cover_the_polar_window(self):
        vectors = fig2_test_vectors(250, seed=0)
        for (x, y), r in zip(vectors.components, vectors.norms):
            angle = math.atan2(y, x)
            assert FIG2_NORM_RANGE[0] - 1e-12 <= r <= FIG2_NORM_RANGE[1] + 1e-12
            assert FIG2_ANGLE_RANGE[0] - 1e-12 <= angle <= FIG2_ANGLE_RANGE[1] + 1e-12


def euclid(p, q) -> float:
    return float(np.linalg.norm(np.asarray(p) - np.asarray(q)))


class TestFig3Demo:
    def test_shape(self):
        assert len(FIG3_DEMO.points) == 8
        assert FIG3_DEMO.k == 2
        assert set(FIG3_DEMO.initial_labels) == {"red", "blue"}

    def test_all_pairwise_distances_distinct(self):
        dists = sorted(
            euclid(p, q)
            for i, p in enumerate(FIG3_DEMO.points)
            for q in FIG3_DEMO.points[i + 1:]
        )
        assert min(b - a for a, b in zip(dists, dists[1:])) > 1e-3

    def test_brute_force_trajectory(self):
        # the documented walk: exactly C and D flip, then nothing changes
        points = FIG3_DEMO.points
        labels = list(FIG3_DEMO.initial_labels)

        def one_round(current):
            out = []
            for i in range(len(points)):
                means = {}
                for g in ("blue", "red"):
                    members = [j for j in range(len(points))
                               if current[j] == g and j != i]
                    if members:
                        means[g] = np.mean([euclid(points[i], points[j]) for j in members])
                out.append(min(means, key=means.get))
            return out

        after_one = one_round(labels)
        flips = [FIG3_DEMO.names[i] for i in range(8) if after_one[i] != labels[i]]
        assert flips == ["C", "D"]
        assert one_round(after_one) == after_one


class TestFigS1Demo:
    def test_shape(self):
        assert len(FIGS1_DEMO.points) == 8
        assert len(FIGS1_DEMO.training) == len(FIGS1_DEMO.training_labels) == 3
        assert set(FIGS1_DEMO.training_labels[:-1]) == {"blue", "red"}
        assert FIGS1_DEMO.training_labels[-1] == "blue"  # the added vector, last

    def test_brute_force_single_flip(self):
        *initial, extra = zip(FIGS1_DEMO.training, FIGS1_DEMO.training_labels)

        def nearest(u, training):
            return min(training, key=lambda t: euclid(u, t[0]))[1]

        before = [nearest(p, initial) for p in FIGS1_DEMO.points]
        after = [nearest(p, initial + [extra]) for p in FIGS1_DEMO.points]
        changed = [FIGS1_DEMO.names[i] for i in range(8) if before[i] != after[i]]
        assert changed == ["E"]
        assert before == ["blue"] * 4 + ["red"] * 4
