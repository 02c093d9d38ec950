import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdist.noise import NoiseModel
from entdist.oracle import ancilla_probability, ancilla_projector, entangled_state
from entdist.protocol import (
    DistanceQuery,
    EstimatorConfig,
    distance_from_p,
    estimate_distance,
    estimate_distances,
    exact_p,
    inner_product_from_p,
    sample_p,
)
from entdist.vectors import DimensionError, as_vector, encode

# the 2-D reference pair of the published figure
REF_A = (1.50, 0.55)
REF_B = (0.86, 2.35)


def query(u, v) -> DistanceQuery:
    return DistanceQuery(as_vector(u), as_vector(v))


class TestDistanceQuery:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            query([1, 0], [1, 0, 0, 0])

    def test_non_power_of_two(self):
        with pytest.raises(DimensionError):
            query([1, 0, 0], [0, 1, 0])

    def test_qubit_counts(self):
        q = query([1, 0, 0, 0], [0, 1, 0, 0])
        assert q.n_register_qubits == 2
        assert q.n_state_qubits == 3


class TestEstimatorConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            EstimatorConfig(mode="approximate")

    def test_shots_validated_in_sampled_mode(self):
        with pytest.raises(ValueError):
            EstimatorConfig(mode="sampled", shots=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            EstimatorConfig(seed=-1)
        with pytest.raises(ValueError):
            EstimatorConfig(seed=2**64)

    def test_derive_is_deterministic_and_distinct(self):
        cfg = EstimatorConfig(mode="sampled", seed=42)
        assert cfg.derive(3).seed == cfg.derive(3).seed
        assert cfg.derive(3).seed != cfg.derive(4).seed
        assert cfg.derive(1, 2).seed != cfg.derive(2, 1).seed


class TestEntangledState:
    def test_identical_vectors_give_product_state(self):
        state = entangled_state([1, 0], [1, 0])
        want = np.kron([1, 1], [1, 0]) / math.sqrt(2)
        np.testing.assert_allclose(state, want, atol=1e-15)

    def test_orthogonal_vectors_give_bell_state(self):
        state = entangled_state([1, 0], [0, 1])
        want = np.array([1, 0, 0, 1]) / math.sqrt(2)
        np.testing.assert_allclose(state, want, atol=1e-15)

    def test_branches_hold_encoded_amplitudes(self):
        u = (3.42, 1.24, 1.97, 0.72)
        state = entangled_state(u, [1, 0, 0, 0])
        np.testing.assert_allclose(state[:4], encode(u).amplitudes / math.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(state[4:], np.array([1, 0, 0, 0]) / math.sqrt(2), atol=1e-15)


class TestAncillaProjectionState:
    def test_equal_norms(self):
        a, b = ancilla_projector([0, 1], [1, 0])
        assert (a, b) == pytest.approx((1 / math.sqrt(2), -1 / math.sqrt(2)))

    def test_table_row_norms(self):
        a, b = ancilla_projector([2, 0, 0, 0], [1, 0, 0, 0])
        assert (a, b) == pytest.approx((2 / math.sqrt(5), -1 / math.sqrt(5)))


class TestExactP:
    def test_identical_vectors(self):
        assert exact_p(query([0.3, 0.4], [0.3, 0.4])) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert exact_p(query([1, 0], [0, 1])) == pytest.approx(0.5, abs=1e-15)

    def test_table_row(self):
        assert exact_p(query([2, 0, 0, 0], [1, 0, 0, 0])) == pytest.approx(0.1, abs=1e-15)

    def test_antiparallel_reaches_one(self):
        assert exact_p(query([1, 0], [-1, 0])) == pytest.approx(1.0, abs=1e-15)

    def test_agrees_with_statevector_projection(self):
        rng = np.random.default_rng(14)
        for dim in (2, 4, 8):
            for _ in range(25):
                q = query(rng.normal(size=dim), rng.normal(size=dim))
                p_state = ancilla_probability(
                    entangled_state(q.u, q.v), ancilla_projector(q.u, q.v)
                )
                assert exact_p(q) == pytest.approx(p_state, abs=1e-12)

    @pytest.mark.parametrize("u, v", [
        ([1e-200, 0], [0, 1e-200]),  # both squared norms underflow
        ([1e-200, 0], [1, 0]),
        ([1e200, 0], [1, 0]),  # the squared norm overflows
        ([1e154, 0], [0, 1e153]),  # |u|^2 + |v|^2 fits, twice it overflows
    ])
    @pytest.mark.filterwarnings("error")  # the range error comes without a numpy warning
    def test_rejects_squares_outside_float64_range(self, u, v):
        with pytest.raises(ValueError, match="float64's range"):
            exact_p(query(u, v))

    def test_extreme_scales_inside_the_range(self):
        assert exact_p(query([1e-150, 0], [0, 1e150])) == 0.5

    def test_at_most_half_for_nonnegative_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            q = query(rng.uniform(0.0, 3.0, size=4), rng.uniform(0.0, 3.0, size=4))
            assert 0.0 <= exact_p(q) <= 0.5 + 1e-15


class TestReconstruction:
    def test_inner_product_identity_case(self):
        assert inner_product_from_p(0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_inner_product_zero_at_half(self):
        assert inner_product_from_p(0.5, 2.3, 0.7) == 0.0

    def test_inner_product_table_row(self):
        assert inner_product_from_p(0.1, 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_distance_zero_at_p_zero(self):
        assert distance_from_p(0.0, 3.0, 4.0) == 0.0

    def test_distance_orthogonal_case(self):
        assert distance_from_p(0.5, 1.0, 1.0) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_distance_table_row(self):
        assert distance_from_p(0.1, 2.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_distance_requires_p_in_range(self):
        with pytest.raises(ValueError):
            distance_from_p(-0.01, 1.0, 1.0)

    def test_inner_product_requires_positive_norms(self):
        with pytest.raises(ValueError):
            inner_product_from_p(0.2, 0.0, 1.0)


class TestEstimateDistance:
    def test_figure_reference_pair(self):
        est = estimate_distance(query(REF_A, REF_B))
        want = math.dist(REF_A, REF_B)
        assert est.distance == pytest.approx(want, abs=1e-12)
        assert est.distance == pytest.approx(1.9104, abs=1e-4)

    def test_identical_vectors(self):
        est = estimate_distance(query([1.2, 3.4], [1.2, 3.4]))
        assert est.distance == 0.0
        assert est.inner_product == pytest.approx(1.0, abs=1e-12)
        assert est.shots_used == 0 and est.std_error_p == 0.0

    def test_fields_are_consistent(self):
        sampled = EstimatorConfig(mode="sampled", shots=500, seed=2)
        for cfg in (EstimatorConfig(mode="exact"), sampled):
            est = estimate_distance(query([2, 0, 0, 0], [1, 0, 0, 0]), cfg)
            z = est.norm_u**2 + est.norm_v**2
            assert est.distance == pytest.approx(math.sqrt(2 * est.p_hat * z), abs=1e-12)
            assert est.raw_inner_product == pytest.approx(
                est.inner_product * est.norm_u * est.norm_v, abs=1e-12
            )

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(16)
        for dim in (2, 4, 8):
            for _ in range(100):
                u = rng.normal(size=dim)
                v = rng.normal(size=dim)
                est = estimate_distance(query(u, v))
                assert est.distance == pytest.approx(float(np.linalg.norm(u - v)), abs=1e-9)
                unit_dot = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
                assert est.inner_product == pytest.approx(unit_dot, abs=1e-9)
                assert est.raw_inner_product == pytest.approx(float(u @ v), abs=1e-9)

    def test_symmetry_in_exact_mode(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u, v = rng.normal(size=4), rng.normal(size=4)
            fwd = estimate_distance(query(u, v))
            rev = estimate_distance(query(v, u))
            assert fwd.distance == rev.distance
            assert fwd.p_hat == rev.p_hat

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3))
    def test_scale_covariance(self, c):
        u, v = (0.6, 1.1, 0.2, 2.0), (1.0, 0.1, 0.4, 0.3)
        base = estimate_distance(query(u, v))
        scaled = estimate_distance(query(c * np.array(u), c * np.array(v)))
        assert scaled.p_hat == pytest.approx(base.p_hat, rel=1e-12)
        assert scaled.distance == pytest.approx(c * base.distance, rel=1e-9)

    def test_exact_mode_with_noise_biases_p(self):
        cfg = EstimatorConfig(mode="exact", noise=NoiseModel(state_fidelity=0.94))
        est = estimate_distance(query([1, 0], [1, 0]), cfg)
        assert est.p_hat == pytest.approx(0.04, abs=1e-12)  # (1-w)/2 at w=0.92


class TestSampleP:
    def test_requires_sampled_mode(self):
        with pytest.raises(ValueError):
            sample_p(query([1, 0], [0, 1]), EstimatorConfig(mode="exact"))

    def test_degenerate_p_zero(self):
        cfg = EstimatorConfig(mode="sampled", shots=1000, seed=3)
        p_hat, std_error = sample_p(query([1, 0], [1, 0]), cfg)
        assert p_hat == 0.0 and std_error == 0.0

    def test_deterministic_given_seed(self):
        cfg = EstimatorConfig(mode="sampled", shots=500, seed=99)
        q = query([1, 0], [0.6, 0.8])
        assert sample_p(q, cfg) == sample_p(q, cfg)

    def test_three_sigma_band_at_half(self):
        q = query([1, 0], [0, 1])
        inside = 0
        for seed in range(200):
            cfg = EstimatorConfig(mode="sampled", shots=10_000, seed=seed)
            p_hat, _ = sample_p(q, cfg)
            inside += abs(p_hat - 0.5) <= 0.015
        assert inside >= 198  # >= 99% of seeds within 3 sigma

    def test_empirical_std_tracks_binomial(self):
        q = query([1, 0], [0.8, 0.6])  # exact p = 0.1
        shots = 1000
        draws = [
            sample_p(q, EstimatorConfig(mode="sampled", shots=shots, seed=s))[0]
            for s in range(200)
        ]
        sigma = math.sqrt(0.1 * 0.9 / shots)
        ratio = np.std(draws, ddof=1) / sigma
        assert 1 / 1.5 <= ratio <= 1.5

    def test_sampled_estimate_near_exact_at_table_shots(self):
        # row (0.23, 0.19, 0.08, 0.07) vs reference (1,0,0,0) at 500 shots
        q = query([0.23, 0.19, 0.08, 0.07], [1, 0, 0, 0])
        exact = estimate_distance(q).distance
        hits = 0
        for seed in range(200):
            cfg = EstimatorConfig(mode="sampled", shots=500, seed=seed)
            hits += abs(estimate_distance(q, cfg).distance - exact) <= 0.15
        assert hits >= 190  # >= 95% of seeds

    def test_overlap_out_of_range_flag(self):
        # tiny norms against huge ones make Eq.-3 overlap escape [-1, 1]
        q = query([1e-3, 0], [10.0, 0])
        noisy = EstimatorConfig(mode="sampled", shots=10, seed=1,
                                noise=NoiseModel(state_fidelity=0.6))
        est = estimate_distance(q, noisy)
        exact = estimate_distance(q)
        assert not exact.overlap_out_of_range
        if est.p_hat != pytest.approx(exact.p_hat, abs=1e-3):
            assert est.overlap_out_of_range == (not -1 <= est.inner_product <= 1)


class TestBatch:
    def test_order_independent_streams(self):
        cfg = EstimatorConfig(mode="sampled", shots=200, seed=5)
        queries = [query([1, 0], [0.6, 0.8]), query([1, 0], [0, 1]), query([2, 1], [1, 2])]
        all_at_once = estimate_distances(queries, cfg)
        one_by_one = [estimate_distance(q, cfg.derive(i)) for i, q in enumerate(queries)]
        for a, b in zip(all_at_once, one_by_one):
            assert a.p_hat == b.p_hat
