import numpy as np
import pytest

from entdist.noise import (
    DEFAULT_STATE_FIDELITY,
    PAPER_PRESET,
    NoiseModel,
    UnreachableFidelityError,
    apply_noise,
    fidelity_to_mixing_weight,
    noise_preset,
)
from entdist.oracle import ancilla_projector, entangled_state
from entdist.protocol import DistanceQuery, exact_p
from entdist.vectors import as_vector

from .test_core import dense_fidelity, dense_projection_probability, random_state


class TestMixingWeight:
    def test_perfect_fidelity(self):
        assert fidelity_to_mixing_weight(1.0, 3) == pytest.approx(1.0)

    def test_two_qubit_published_value(self):
        assert fidelity_to_mixing_weight(0.94, 2) == pytest.approx(0.92, abs=1e-12)

    def test_four_qubit_published_value(self):
        want = (0.75 - 0.0625) / 0.9375
        assert fidelity_to_mixing_weight(0.75, 4) == pytest.approx(want, abs=1e-15)

    def test_unreachable_fidelity(self):
        with pytest.raises(UnreachableFidelityError):
            fidelity_to_mixing_weight(0.25, 2)
        with pytest.raises(UnreachableFidelityError):
            fidelity_to_mixing_weight(0.1, 2)

    def test_qubit_count_must_be_positive(self):
        with pytest.raises(ValueError, match="m_qubits must be positive"):
            fidelity_to_mixing_weight(0.9, 0)

    def test_just_above_floor_is_fine(self):
        assert fidelity_to_mixing_weight(0.2501, 2) > 0.0

    def test_round_trip_through_fidelity(self):
        rng = np.random.default_rng(21)
        for fidelity, m in ((0.94, 2), (0.73, 3), (0.75, 4), (0.5, 3), (0.999, 4)):
            w = fidelity_to_mixing_weight(fidelity, m)
            psi = random_state(rng, m)
            assert dense_fidelity(w, psi, psi) == pytest.approx(fidelity, abs=1e-12)


class TestNoiseModel:
    def test_defaults_by_state_size(self):
        model = NoiseModel()
        assert model.fidelity_for(2) == 0.94
        assert model.fidelity_for(3) == 0.73
        assert model.fidelity_for(4) == 0.75

    def test_no_default_outside_table(self):
        with pytest.raises(ValueError):
            NoiseModel().fidelity_for(5)

    def test_explicit_fidelity_wins(self):
        assert NoiseModel(state_fidelity=0.9).fidelity_for(4) == 0.9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(state_fidelity=1.5)
        with pytest.raises(ValueError):
            NoiseModel(dark_count_fraction=1.0)
        with pytest.raises(ValueError):
            NoiseModel(background_split=-0.1)

    def test_preset(self):
        model = noise_preset(PAPER_PRESET)
        assert model.state_fidelity is None
        assert model.dark_count_fraction == 0.02
        assert model.background_split == 0.5

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            noise_preset("nope")


class TestApplyNoise:
    def test_identity_channel(self):
        model = NoiseModel(state_fidelity=1.0)
        for p in (0.0, 0.1, 0.5, 1.0):
            assert apply_noise(p, model, 3) == pytest.approx(p, abs=1e-15)

    def test_fully_mixed_pulls_to_half(self):
        # fidelity at the +eps edge of the floor drives w toward 0
        model = NoiseModel(state_fidelity=0.25 + 1e-12)
        assert apply_noise(0.0, model, 2) == pytest.approx(0.5, abs=1e-9)
        assert apply_noise(1.0, model, 2) == pytest.approx(0.5, abs=1e-9)

    def test_published_two_qubit_example(self):
        model = NoiseModel(state_fidelity=0.94)
        assert apply_noise(0.1, model, 2) == pytest.approx(0.132, abs=1e-12)

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_noise(1.2, NoiseModel(), 2)

    def test_monotone_contraction_toward_half(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            model = NoiseModel(
                state_fidelity=float(rng.uniform(0.3, 1.0)),
                dark_count_fraction=float(rng.uniform(0, 0.5)),
                background_split=0.5,
            )
            p = float(rng.uniform(0, 1))
            p_obs = apply_noise(p, model, 2)
            assert abs(p_obs - 0.5) <= abs(p - 0.5) + 1e-15
            assert 0.0 <= p_obs <= 1.0

    def test_affine_in_p(self):
        model = NoiseModel(state_fidelity=0.8, dark_count_fraction=0.05, background_split=0.3)
        f0 = apply_noise(0.0, model, 3)
        f1 = apply_noise(1.0, model, 3)
        for p in (0.1, 0.37, 0.5, 0.93):
            assert apply_noise(p, model, 3) == pytest.approx(f0 + (f1 - f0) * p, abs=1e-12)

    def test_sequence_and_float_inputs(self):
        model = noise_preset(PAPER_PRESET)
        w, d = model.mixing_weight(2), model.dark_count_fraction
        by_hand = [(1.0 - d) * (w * p + (1.0 - w) * 0.5) + d * model.background_split
                   for p in (0.2, 0.4)]
        observed = apply_noise([0.2, 0.4], model, 2)
        assert isinstance(observed, np.ndarray) and observed.tolist() == by_hand
        single = apply_noise(0.2, model, 2)
        assert type(single) is float and single == by_hand[0]

    def test_matches_dense_density_matrix_oracle(self):
        # white-noise mixing of the protocol state, then dark counts, computed
        # on the full density matrix, must agree exactly
        rng = np.random.default_rng(9)
        for dim in (2, 4, 8):
            for _ in range(10):
                u = as_vector(rng.normal(size=dim))
                v = as_vector(rng.normal(size=dim))
                query = DistanceQuery(u, v)
                m = query.u.dimension.bit_length()
                model = NoiseModel(
                    state_fidelity=float(rng.uniform(2.0**-m + 0.05, 1.0)),
                    dark_count_fraction=float(rng.uniform(0, 0.3)),
                    background_split=float(rng.uniform(0, 1)),
                )
                p_dense = dense_projection_probability(
                    model.mixing_weight(m), entangled_state(u, v), ancilla_projector(u, v)
                )
                want = (1 - model.dark_count_fraction) * p_dense \
                    + model.dark_count_fraction * model.background_split
                got = apply_noise(exact_p(query), model, m)
                assert got == pytest.approx(want, abs=1e-12)


class TestDistanceShrinkage:
    def test_identical_vectors_gain_positive_distance(self):
        from entdist.protocol import EstimatorConfig, estimate_distance

        cfg = EstimatorConfig(mode="exact", noise=noise_preset(PAPER_PRESET))
        q = DistanceQuery(as_vector([1.0, 2.0]), as_vector([1.0, 2.0]))
        assert estimate_distance(q, cfg).distance > 0.0

    def test_orthogonal_equal_norm_unchanged(self):
        from entdist.protocol import EstimatorConfig, estimate_distance

        cfg = EstimatorConfig(mode="exact", noise=noise_preset(PAPER_PRESET))
        q = DistanceQuery(as_vector([1.0, 0.0]), as_vector([0.0, 1.0]))
        noisy = estimate_distance(q, cfg).distance
        ideal = estimate_distance(q, EstimatorConfig(mode="exact")).distance
        assert noisy == pytest.approx(ideal, abs=1e-12)

    def test_default_fidelities_reproduce_published_numbers(self):
        rng = np.random.default_rng(10)
        model = noise_preset(PAPER_PRESET)
        for m, fidelity in DEFAULT_STATE_FIDELITY.items():
            psi = random_state(rng, m)
            assert dense_fidelity(model.mixing_weight(m), psi, psi) == pytest.approx(
                fidelity, abs=1e-12
            )
