"""Checks of the statevector oracle (``entdist.oracle``) and of the dense
density-matrix oracles that the closed forms are compared against."""

import numpy as np
import pytest

from entdist.oracle import ancilla_probability, entangled_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def unit(amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=complex)
    return arr / np.linalg.norm(arr)


def random_state(rng, m) -> np.ndarray:
    return unit(rng.normal(size=2**m) + 1j * rng.normal(size=2**m))


def random_projection(rng) -> np.ndarray:
    t = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(t), np.sin(t)])


def mixture(weight, psi) -> np.ndarray:
    """w |psi><psi| + (1-w) I/2^m as a dense density matrix."""
    psi = np.asarray(psi)
    return weight * np.outer(psi, psi.conj()) + (1.0 - weight) * np.eye(psi.size) / psi.size


def dense_projection_probability(weight, psi, projector) -> float:
    """Independent oracle: Tr[(P x I) rho] with P on the leading (ancilla) qubit."""
    rho = mixture(weight, psi)
    proj = np.outer(projector, np.conj(projector))
    op = np.kron(proj, np.eye(rho.shape[0] // 2))
    return float(np.trace(op @ rho).real)


def dense_fidelity(weight, psi, target) -> float:
    """Independent oracle: <target| rho |target>."""
    target = np.asarray(target)
    return float((target.conj() @ mixture(weight, psi) @ target).real)


class TestProjectQubit:
    def test_orthogonal_ancilla_probability_zero(self):
        state = entangled_state([0.6, 0.8], [0.6, 0.8])
        assert ancilla_probability(state, (INV_SQRT2, -INV_SQRT2)) == pytest.approx(0.0, abs=1e-15)

    def test_bell_state_projection(self):
        assert ancilla_probability(unit([1, 0, 0, 1]), (1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_register_states_give_half(self):
        # (|0>|u> + |1>|v>)/sqrt(2) with <u|v> = 0 and the matched projector
        state = entangled_state([1, 0], [0, 1])
        assert ancilla_probability(state, (INV_SQRT2, -INV_SQRT2)) == pytest.approx(0.5, abs=1e-12)

    def test_qubit_indexing_is_msb_first(self):
        state = unit([0, 1, 0, 0])  # |01>: the ancilla (qubit 0) in |0>
        assert ancilla_probability(state, (1.0, 0.0)) == pytest.approx(1.0)
        assert ancilla_probability(state, (0.0, 1.0)) == pytest.approx(0.0)

    def test_probabilities_over_basis_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            state = random_state(rng, int(rng.integers(1, 5)))
            t = rng.uniform(0, 2 * np.pi)
            basis = ((np.cos(t), np.sin(t)), (-np.sin(t), np.cos(t)))
            total = sum(ancilla_probability(state, b) for b in basis)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestMixture:
    def test_maximally_mixed_gives_half(self):
        for t in (0.0, 0.3, 1.2):
            p = dense_projection_probability(0.0, unit([1, 0, 0, 0]), (np.cos(t), np.sin(t)))
            assert p == pytest.approx(0.5)

    def test_example_value(self):
        # w = 0.9 with p_pure = 0.1 must give 0.14
        p = dense_projection_probability(0.9, unit([np.sqrt(0.1), np.sqrt(0.9)]), (1.0, 0.0))
        assert p == pytest.approx(0.14, abs=1e-12)

    def test_against_dense_oracle(self):
        # the white-noise part contributes exactly 1/2 to any ancilla projection
        rng = np.random.default_rng(12)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            w, psi, onto = float(rng.uniform(0, 1)), random_state(rng, m), random_projection(rng)
            got = w * ancilla_probability(psi, onto) + (1.0 - w) * 0.5
            assert got == pytest.approx(dense_projection_probability(w, psi, onto), abs=1e-12)


class TestFidelity:
    def test_pure_self_fidelity(self):
        state = unit([0.5, 0.5, 0.5, 0.5])
        assert dense_fidelity(1.0, state, state) == pytest.approx(1.0)

    def test_maximally_mixed_two_qubits(self):
        assert dense_fidelity(0.0, unit([1, 0, 0, 0]), unit([0, 1, 0, 0])) == pytest.approx(0.25)

    def test_weight_for_published_two_qubit_fidelity(self):
        state = unit([1, 0, 0, 1])
        assert dense_fidelity(0.92, state, state) == pytest.approx(0.94, abs=1e-12)

    def test_against_dense_oracle(self):
        # w |<t|psi>|^2 + (1-w)/2^m
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            w, psi, target = float(rng.uniform(0, 1)), random_state(rng, m), random_state(rng, m)
            want = w * abs(np.vdot(target, psi)) ** 2 + (1 - w) / 2**m
            assert dense_fidelity(w, psi, target) == pytest.approx(want, abs=1e-12)
