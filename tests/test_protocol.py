import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entdist.protocol
from entdist.noise import PAPER_PRESET, NoiseModel, apply_noise, noise_preset
from entdist.oracle import ancilla_probability, ancilla_projector, encode, entangled_state
from entdist.protocol import (
    DistanceQuery,
    EstimatorConfig,
    distance_matrix,
    estimate_distance,
    exact_p,
    sample_p,
)
from entdist.vectors import DimensionError, VectorSet, ZeroVectorError, as_vector

# the 2-D reference pair of the published figure
REF_A = (1.50, 0.55)
REF_B = (0.86, 2.35)


def query(u, v) -> DistanceQuery:
    return DistanceQuery(as_vector(u), as_vector(v))


def observed_p(us, vs, cfg: EstimatorConfig = EstimatorConfig(),
               upper: bool = False) -> np.ndarray:
    """The kernel's block of p for every pair (us[i], vs[j]): the expected block, then
    in sampled mode its draw; with ``upper``, a clustering's own block."""
    p, _, _ = entdist.protocol._expected_p(VectorSet(us), VectorSet(vs), cfg, upper)
    return entdist.protocol._draw(p, cfg, upper) if cfg.mode == "sampled" else p


class TestDistanceQuery:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            query([1, 0], [1, 0, 0, 0])

    def test_non_power_of_two(self):
        with pytest.raises(DimensionError):
            query([1, 0, 0], [0, 1, 0])

    def test_qubit_counts(self):
        q = query([1, 0, 0, 0], [0, 1, 0, 0])
        assert q.u.dimension.bit_length() - 1 == 2  # register qubits
        assert q.u.dimension.bit_length() == 3  # plus the ancilla


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

    @pytest.mark.parametrize("field", ["shots", "seed"])
    @pytest.mark.parametrize("value", [True, 10.5, 7.0, "5"])
    def test_shots_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            EstimatorConfig(mode="sampled", **{field: value})

    def test_numpy_integers_act_as_python_integers(self):
        us = np.random.default_rng(1).normal(size=(5, 4))
        cfg = EstimatorConfig(mode="sampled", shots=300, seed=7)
        numpy_cfg = EstimatorConfig(mode="sampled", shots=np.int64(300), seed=np.uint64(7))
        assert observed_p(us, us, numpy_cfg).tobytes() == observed_p(us, us, cfg).tobytes()
        assert numpy_cfg.derive(3, 1).seed == cfg.derive(3, 1).seed


def numpy_stream_seed(*key: int) -> int:
    """The reference for derive: the first 64-bit word of numpy's SeedSequence(key)."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


# one word, the largest one-word seed, two words and the largest seed
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestStreamSeeds:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**64 - 1)),
           indices=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                            min_size=1, max_size=3))
    @example(seed=2**64 - 1, indices=[1, 2])
    @example(seed=2**64 - 1, indices=[2**32, 5, 2**64 - 1])  # 7 words: the mixing beyond the pool
    def test_derive_is_numpy_seed_sequence(self, seed, indices):
        assert EstimatorConfig(seed=seed).derive(*indices).seed == numpy_stream_seed(seed, *indices)

    @pytest.mark.parametrize("upper", [False, True], ids=["full", "upper"])
    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_column_j_draws_on_default_rng_of_its_seed(self, seed, upper):
        us = np.random.default_rng(2).normal(size=(40, 2))
        cfg = EstimatorConfig(mode="sampled", shots=100, seed=seed)
        ideal = observed_p(us, us, EstimatorConfig("exact", cfg.shots, cfg.seed, cfg.noise), upper)
        drawn = observed_p(us, us, cfg, upper)
        assert drawn.tolist() == _column_draws(ideal, cfg, upper).tolist()
        if upper:  # a clustering's upper block is the upper triangle of the full block
            assert drawn.tobytes() == np.triu(observed_p(us, us, cfg), 1).tobytes()
        # columns are drawn as rows of a transposed copy; the blocks come back C-ordered
        for block in (drawn, distance_matrix(us, us, cfg)):
            assert block.dtype == np.float64 and block.flags.c_contiguous


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


def tree_sum_squares(values) -> float:
    """The sum of squares in Python floats, paired as the library pairs them: the
    top half is added onto the bottom half, the middle of an odd length passing
    through, until one value is left."""
    a = [x * x for x in values]
    while len(a) > 1:
        h = len(a) // 2
        a = [x + y for x, y in zip(a[:h], a[-h:])] + a[h:len(a) - h]
    return a[0]


def fused_sum_squares(values) -> float:
    """x0 * x0 + x1 * x1 with one rounding for the add, as a fused multiply-add gives it."""
    x0, x1 = values
    return float(Fraction(x0 * x0) + Fraction(x1) ** 2)


def reference_p(u, v, sum_squares=tree_sum_squares) -> float:
    """|u - v|^2 / (2 (|u|^2 + |v|^2)) in Python floats: each norm from its row scaled
    by 2^-e (e the frexp exponent of its largest |component|), the pair scaled by
    2^-e (e the frexp exponent of its larger norm), every sum of squares by
    ``sum_squares``."""
    def norm(x):
        e = math.frexp(max(abs(c) for c in x))[1]
        return math.ldexp(math.sqrt(sum_squares([math.ldexp(c, -e) for c in x])), e)

    e = max(math.frexp(norm(u))[1], math.frexp(norm(v))[1])
    su, sv = math.ldexp(norm(u), -e), math.ldexp(norm(v), -e)
    diff = [math.ldexp(a - b, -e) for a, b in zip(u, v)]
    return min(sum_squares(diff) / (2.0 * (su * su + sv * sv)), 1.0)


class TestExactP:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 64])
    def test_entries_follow_the_pairwise_tree(self, dim):
        us, vs = np.random.default_rng(dim).normal(size=(2, 6, dim)).tolist()
        assert observed_p(us, vs).tolist() == [[reference_p(u, v) for v in vs] for u in us]

    def test_two_roundings_not_a_fused_multiply_add(self):
        # fma(x1, x1, x0 * x0) rounds the sum of each norm and of |u - v|^2 once
        u, v = [0.25, 2.2], [1.1, 1.55]
        p = exact_p(query(u, v))
        assert p == reference_p(u, v)
        assert p != reference_p(u, v, fused_sum_squares)

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

    @pytest.mark.parametrize("u, v, distance", [
        ([1e-200, 0], [0, 1e-200], 1.414213562373095e-200),  # both squared norms underflow
        ([1e-200, 0], [1, 0], 1.0),
        ([1e200, 0], [1, 0], 1e200),  # the squared norm overflows
        ([1e154, 0], [0, 1e153], 1.004987562112089e154),  # |u|^2 + |v|^2 fits, twice it does not
        ([5e-324, 0], [0, 5e-324], 5e-324),  # subnormal components
        ([1e-300, 0], [0, 1e300], 1e300),  # |u| / |v| is beyond float64's range
        ([8e307, 0], [-8e307, 0], 1.6e308),  # |u - v| near float64's largest value
    ], ids=["tiny-norms", "tiny-norm", "huge-norm", "norm-sum-overflow", "subnormal", "norm-ratio",
            "near-largest"])
    @pytest.mark.filterwarnings("error")  # and no numpy warning on the way
    def test_squares_outside_float64_range_give_the_distance(self, u, v, distance):
        est = estimate_distance(query(u, v))
        assert est.distance == distance == distance_matrix([u], [v])[0, 0]
        assert est.distance == pytest.approx(math.hypot(*np.subtract(u, v)), rel=1e-15)
        assert exact_p(query(u, v)) == est.p_hat
        if est.p_hat == 0.5:  # orthogonal, or p too near 1/2 to tell the overlap
            assert est.inner_product_unit == 0.0 and not est.overlap_out_of_range

    def test_extreme_scales_inside_the_range(self):
        assert exact_p(query([1e-150, 0], [0, 1e150])) == 0.5

    def test_at_most_half_for_nonnegative_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            q = query(rng.uniform(0.0, 3.0, size=4), rng.uniform(0.0, 3.0, size=4))
            assert 0.0 <= exact_p(q) <= 0.5 + 1e-15


def reference_overlap(p: float, norm_u: float, norm_v: float) -> float:
    """<u|v> = (0.5 - p)(|u|^2 + |v|^2) / (|u| |v|), for norms whose squares fit float64."""
    return (0.5 - p) * (norm_u * norm_u + norm_v * norm_v) / (norm_u * norm_v)


def reference_distance(p: float, norm_u: float, norm_v: float) -> float:
    """D = sqrt(2 p (|u|^2 + |v|^2)), for norms whose squares fit float64."""
    return math.sqrt(2.0 * p * (norm_u * norm_u + norm_v * norm_v))


class TestReconstruction:
    def test_inner_product_identity_case(self):
        assert estimate_distance(query([1, 0], [1, 0])).inner_product_unit == pytest.approx(1.0)

    def test_inner_product_zero_at_half(self):
        est = estimate_distance(query([2.3, 0], [0, 0.7]))
        assert est.p_hat == 0.5 and est.inner_product_unit == 0.0

    def test_inner_product_table_row(self):
        est = estimate_distance(query([2, 0, 0, 0], [1, 0, 0, 0]))
        assert est.inner_product_unit == pytest.approx(1.0, abs=1e-15)

    def test_distance_zero_at_p_zero(self):
        assert estimate_distance(query([3, 4], [3, 4])).distance == 0.0

    def test_distance_orthogonal_case(self):
        est = estimate_distance(query([1, 0], [0, 1]))
        assert est.distance == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_distance_table_row(self):
        est = estimate_distance(query([2, 0, 0, 0], [1, 0, 0, 0]))
        assert est.distance == pytest.approx(1.0, abs=1e-15)

    def test_distance_requires_p_in_range(self):
        # D is real for every p_hat: exact p is clipped into [0, 1], and a
        # sampled p_hat is a fraction of the shots, after noise or not
        noisy = NoiseModel(state_fidelity=0.6, dark_count_fraction=0.1)
        for u, v in (([1, 0], [1, 0]), ([1, 0], [-1, 0]), ([1e-3, 0], [-10.0, 0])):
            for cfg in (EstimatorConfig(), EstimatorConfig(noise=noisy),
                        EstimatorConfig(mode="sampled", shots=7, seed=3, noise=noisy)):
                est = estimate_distance(query(u, v), cfg)
                assert 0.0 <= est.p_hat <= 1.0
                assert est.distance == reference_distance(est.p_hat, est.norm_u, est.norm_v)
                assert est.inner_product_unit == reference_overlap(est.p_hat, est.norm_u,
                                                                   est.norm_v)

    def test_inner_product_requires_positive_norms(self):
        # the overlap divides by |u| |v|: a zero vector never reaches the estimator
        with pytest.raises(ZeroVectorError):
            estimate_distance(query([0.0, 0.0], [1, 0]))


class TestEstimateDistance:
    def test_figure_reference_pair(self):
        est = estimate_distance(query(REF_A, REF_B))
        want = math.dist(REF_A, REF_B)
        assert est.distance == pytest.approx(want, abs=1e-12)
        assert est.distance == pytest.approx(1.9104, abs=1e-4)

    def test_identical_vectors(self):
        est = estimate_distance(query([1.2, 3.4], [1.2, 3.4]))
        assert est.distance == 0.0
        assert est.inner_product_unit == pytest.approx(1.0, abs=1e-12)
        assert est.shots_used == 0 and est.std_error_p == 0.0

    def test_fields_are_consistent(self):
        sampled = EstimatorConfig(mode="sampled", shots=500, seed=2)
        for cfg in (EstimatorConfig(mode="exact"), sampled):
            est = estimate_distance(query([2, 0, 0, 0], [1, 0, 0, 0]), cfg)
            z = est.norm_u**2 + est.norm_v**2
            assert est.distance == pytest.approx(math.sqrt(2 * est.p_hat * z), abs=1e-12)
            assert est.inner_product_raw == pytest.approx(
                est.inner_product_unit * est.norm_u * est.norm_v, abs=1e-12
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
                assert est.inner_product_unit == pytest.approx(unit_dot, abs=1e-9)
                assert est.inner_product_raw == pytest.approx(float(u @ v), abs=1e-9)

    def test_symmetry_in_exact_mode(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u, v = rng.normal(size=4), rng.normal(size=4)
            fwd = estimate_distance(query(u, v))
            rev = estimate_distance(query(v, u))
            assert fwd.distance == rev.distance
            assert fwd.p_hat == rev.p_hat

    def test_overlap_error_grows_with_the_norm_ratio_and_the_distance_error_does_not(self):
        # <u|v> is read from p, so p's rounding is multiplied by about (r + 1/r) / 2,
        # r = |u| / |v|: at most 4 eps times that, up to r = 1e17; D stays within 2 eps
        def sqrt(x: Fraction) -> Fraction:  # to 2^-256
            return Fraction(math.isqrt(x.numerator * 4**256 // x.denominator), 2**256)

        eps = Fraction(np.finfo(float).eps)
        rng = np.random.default_rng(18)
        for k in range(18):
            for _ in range(50):
                u, v = rng.normal(size=(2, 4)) * [[1.0], [10.0**k]]
                est = estimate_distance(query(u, v))
                fu, fv = list(map(Fraction, u.tolist())), list(map(Fraction, v.tolist()))
                overlap = sum(a * b for a, b in zip(fu, fv)) / sqrt(
                    sum(a * a for a in fu) * sum(b * b for b in fv))
                r = Fraction(est.norm_u) / Fraction(est.norm_v)
                assert abs(Fraction(est.inner_product_unit) - overlap) <= 4 * eps * (r + 1 / r) / 2
                distance = sqrt(sum((a - b) ** 2 for a, b in zip(fu, fv)))
                assert abs(Fraction(est.distance) - distance) <= 2 * eps * distance

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
            assert est.overlap_out_of_range == (not -1 <= est.inner_product_unit <= 1)


def _block_vectors(dim: int, count: int):
    """count vectors of one dimension, each at its own log-uniform scale."""
    vector = st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(
            lambda c: float(np.linalg.norm(c)) >= 1e-3),
        st.floats(-120.0, 120.0),
    ).map(lambda cs: as_vector(np.array(cs[0]) * 10.0 ** cs[1]))
    return st.lists(vector, min_size=count, max_size=count)


# (dimension, noise): the paper preset has fidelities for 2-4 qubit states only
_DIM_NOISE = st.sampled_from(
    [(d, None) for d in (1, 2, 4, 8, 16)] + [(d, PAPER_PRESET) for d in (2, 4, 8)]
)


@st.composite
def _blocks(draw):
    dim, noise = draw(_DIM_NOISE)
    us = draw(_block_vectors(dim, draw(st.integers(1, 4))))
    vs = draw(_block_vectors(dim, draw(st.integers(1, 4))))
    mode = draw(st.sampled_from(["exact", "sampled"]))
    cfg = EstimatorConfig(mode=mode, shots=50, seed=draw(st.integers(0, 2**64 - 1)),
                          noise=noise_preset(noise) if noise else None)
    return us, vs, cfg


def _column_draws(p: np.ndarray, cfg: EstimatorConfig, upper: bool = False) -> np.ndarray:
    """Each column of an exact block drawn on its own numpy default_rng, seeded
    with SeedSequence([seed, j]) (the rows above the diagonal only, with ``upper``)."""
    drawn = np.zeros_like(p)
    for j in range(p.shape[1]):
        rows = slice(j if upper else None)
        rng = np.random.default_rng(numpy_stream_seed(cfg.seed, j))
        drawn[rows, j] = rng.binomial(cfg.shots, p[rows, j]) / cfg.shots
    return drawn


class TestBatch:
    def test_order_independent_streams(self, monkeypatch):
        cfg = EstimatorConfig(mode="sampled", shots=200, seed=5)
        us = [as_vector(u) for u in ([1, 0], [0, 1], [2, 1])]
        vs = [as_vector(v) for v in ([0.6, 0.8], [1, 2])]
        all_at_once = observed_p(us, vs, cfg)
        for k in range(1, len(us)):
            assert observed_p(us[:k], vs, cfg).tolist() == all_at_once[:k].tolist()
        assert estimate_distance(query(us[0], vs[0]), cfg).p_hat == all_at_once[0, 0]
        monkeypatch.setattr(entdist.protocol, "_BLOCK_ELEMENTS", 1)  # one row block per row
        assert observed_p(us, vs, cfg).tolist() == all_at_once.tolist()

    @settings(max_examples=150, deadline=None)
    @given(_blocks())
    def test_block_entries_equal_single_pair_blocks(self, block):
        # batch composition: the first k rows of a block are the k-row block,
        # and sampled column j is draw 0, 1, ... of the stream cfg.derive(j)
        us, vs, cfg = block
        dist, square = distance_matrix(us, vs, cfg), distance_matrix(us, us, cfg)
        full, upper = observed_p(us, us, cfg), observed_p(us, us, cfg, upper=True)
        for k in range(1, len(us) + 1):
            assert distance_matrix(us[:k], vs, cfg).tolist() == dist[:k].tolist()
            assert distance_matrix(us[:k], us[:k], cfg).tolist() == square[:k, :k].tolist()
            # a clustering's upper block is the upper triangle of the full block
            assert observed_p(us[:k], us[:k], cfg, upper=True).tobytes() == \
                np.triu(full[:k, :k], 1).tobytes()
        for k in range(1, len(vs) + 1):
            assert distance_matrix(us, vs[:k], cfg).tolist() == dist[:, :k].tolist()
        assert not np.tril(upper).any()
        assert distance_matrix(us[:1], vs[:1], cfg)[0, 0] == dist[0, 0]
        # the scalar API reads the 1x1 block: its p, its D, and sample_p its p and std error
        q = query(us[0], vs[0])
        estimate = estimate_distance(q, cfg)
        assert estimate.p_hat == observed_p(us, vs, cfg)[0, 0]
        assert estimate.distance == dist[0, 0]
        if cfg.mode == "sampled":
            assert sample_p(q, cfg) == (estimate.p_hat, estimate.std_error_p)
            ideal = EstimatorConfig("exact", cfg.shots, cfg.seed, cfg.noise)
            assert observed_p(us, vs, cfg).tolist() == \
                _column_draws(observed_p(us, vs, ideal), cfg).tolist()
            assert upper.tolist() == \
                _column_draws(observed_p(us, us, ideal, upper=True), cfg, upper=True).tolist()
        else:
            for i, u in enumerate(us):
                for j, v in enumerate(vs):
                    assert dist[i, j] == distance_matrix([u], [v], cfg)[0, 0]
            assert dist.tolist() == distance_matrix(vs, us, cfg).T.tolist()
            # the channel on a block matches the channel on one float
            want = exact_p(q) if cfg.noise is None else apply_noise(exact_p(q), cfg.noise,
                                                                    q.u.dimension.bit_length())
            assert observed_p(us[:1], vs[:1], cfg)[0, 0] == want

    @pytest.mark.parametrize("cfg", [
        EstimatorConfig(),
        EstimatorConfig(mode="sampled", shots=300, seed=4,
                        noise=NoiseModel(state_fidelity=0.8, dark_count_fraction=0.02)),
    ], ids=["exact", "sampled-noisy"])
    def test_upper_row_blocks_skip_the_lower_columns(self, monkeypatch, cfg):
        us = np.random.default_rng(0).normal(size=(9, 4))
        # squared norms 4.9e307 and 6.4e307 sum beyond float64's range, and so does
        # 4.9e307 twice: the pairs (4, 4), (4, 5) and (5, 5) lie in the second row
        # block of three, and every pair is computed scaled
        huge = us.copy()
        huge[4] *= 7e153 / np.linalg.norm(huge[4])
        huge[5] *= 8e153 / np.linalg.norm(huge[5])
        monkeypatch.setattr(entdist.protocol, "_BLOCK_ELEMENTS", 3 * 9 * 4)  # rows 0-2, 3-5, 6-8
        for vectors in (us, huge):
            full = observed_p(vectors, vectors, cfg)
            assert np.isfinite(full).all()
            assert observed_p(vectors, vectors, cfg, upper=True).tobytes() == \
                np.triu(full, 1).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8, 16]),
           exponent=st.floats(-300.0, 300.0), sign=st.sampled_from([1.0, -1.0]))
    @example(seed=0, dim=16, exponent=300.0, sign=-1.0)
    @example(seed=0, dim=2, exponent=-300.0, sign=1.0)
    def test_scale_covariance_across_the_range(self, seed, dim, exponent, sign):
        # D(cu, cv) = |c| D(u, v) for c log-uniform in 1e-300..1e300.  The pairs
        # are random normal vectors: rounding c * u alone moves a difference that
        # cancels to a few ulps of its components by more than any relative bound.
        u, v = np.random.default_rng(seed).normal(size=(2, dim))
        c = sign * 10.0 ** exponent
        scaled = distance_matrix([c * u], [c * v])[0, 0]
        assert scaled == pytest.approx(abs(c) * distance_matrix([u], [v])[0, 0], rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(pair=st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8, 16])).map(
               lambda s: tuple(np.random.default_rng(s[0]).normal(size=(2, s[1])))),
           e=st.integers(-60, 59))
    # C pow squared these norms off by an ulp at one of the two scales
    @example(pair=((1.017486474381074, -1.3066112595978296),
                   (-0.4116867936057472, 1.827518567008105)), e=-5)
    @example(pair=((-0.29076750945597457, 0.7807654999708792),
                   (-1.753172359519872, 0.061608256582247424)), e=-30)
    def test_power_of_two_scale_covariance_is_bitwise(self, pair, e):
        # every step of p, D and the overlap is exact under a power-of-two scale
        # short of the subnormals: sums, differences, x * x, quotients and sqrt
        u, v = np.array(pair)
        su, sv = np.ldexp(u, e), np.ldexp(v, e)
        assert observed_p([su], [sv])[0, 0] == observed_p([u], [v])[0, 0]
        assert distance_matrix([su], [sv])[0, 0] == np.ldexp(distance_matrix([u], [v])[0, 0], e)
        plain, scaled = estimate_distance(query(u, v)), estimate_distance(query(su, sv))
        assert scaled.p_hat == plain.p_hat
        assert scaled.inner_product_unit == plain.inner_product_unit

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 4, 8, 16]).flatmap(lambda dim: _block_vectors(dim, 3)))
    def test_exact_triangle_inequality(self, vectors):
        dist = distance_matrix(vectors, vectors)
        slack = 1.0 + 8 * np.finfo(float).eps  # a few ulps of rounding in each distance
        for i, j, k in itertools.permutations(range(3)):
            assert dist[i, k] <= (dist[i, j] + dist[j, k]) * slack

