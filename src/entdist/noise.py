"""Experimental-imperfection model: a success probability p is first pulled
toward 1/2 by white-noise mixing (weight fixed by the measured state
fidelity) and then mixed with a detector-background term for dark counts.
"""

from __future__ import annotations

import numpy as np

from .vectors import _Value

__all__ = [
    "DEFAULT_STATE_FIDELITY",
    "PAPER_PRESET",
    "UnreachableFidelityError",
    "NoiseModel",
    "fidelity_to_mixing_weight",
    "apply_noise",
    "noise_preset",
]

# measured entanglement-witness fidelities, keyed by total qubit count
# (ancilla + register): 2 qubits for N=2 vectors, 3 for N=4, 4 for N=8
DEFAULT_STATE_FIDELITY = {2: 0.94, 3: 0.73, 4: 0.75}

PAPER_PRESET = "paper-2012-optics"


class UnreachableFidelityError(ValueError):
    """Fidelity at or below 2^-m cannot be produced by pure+white-noise mixing."""


def fidelity_to_mixing_weight(fidelity: float, m_qubits: int) -> float:
    """Invert F = w + (1-w)/2^m for the pure-part weight w."""
    if m_qubits < 1:
        raise ValueError("m_qubits must be positive")
    floor = 2.0 ** -m_qubits
    if not floor < fidelity <= 1.0:
        raise UnreachableFidelityError(
            f"fidelity {fidelity} outside ({floor}, 1] for {m_qubits} qubits"
        )
    return (fidelity - floor) / (1.0 - floor)


class NoiseModel(_Value):
    """Success-probability channel parameters.

    state_fidelity None means "use the measured default for the state size"
    (DEFAULT_STATE_FIDELITY); other sizes then require an explicit value.
    dark_count_fraction is the fraction of registered events that are
    background, split between the outcomes by background_split.
    """

    def __init__(self, state_fidelity: float | None = None, dark_count_fraction: float = 0.0,
                 background_split: float = 0.5):
        vars(self).update(state_fidelity=state_fidelity, dark_count_fraction=dark_count_fraction,
                          background_split=background_split)
        if self.state_fidelity is not None and not 0.0 < self.state_fidelity <= 1.0:
            raise ValueError("state_fidelity must lie in (0, 1]")
        if not 0.0 <= self.dark_count_fraction < 1.0:
            raise ValueError("dark_count_fraction must lie in [0, 1)")
        if not 0.0 <= self.background_split <= 1.0:
            raise ValueError("background_split must lie in [0, 1]")

    def fidelity_for(self, m_qubits: int) -> float:
        if self.state_fidelity is not None:
            return self.state_fidelity
        try:
            return DEFAULT_STATE_FIDELITY[m_qubits]
        except KeyError:
            raise ValueError(
                f"no default fidelity for a {m_qubits}-qubit state; set state_fidelity"
            ) from None

    def mixing_weight(self, m_qubits: int) -> float:
        """Pure-part weight of the white-noise mixture for an m-qubit state."""
        return fidelity_to_mixing_weight(self.fidelity_for(m_qubits), m_qubits)


def apply_noise(p_ideal: float | np.ndarray, model: NoiseModel,
                m_qubits: int) -> float | np.ndarray:
    """Map the ideal success probability (a float or an array-like of them) to the observed one.

    White-noise mixing first (exact for any single-qubit projection), then dark
    counts: p1 = w p + (1-w)/2, p_obs = (1-d) p1 + d * background_split.
    """
    p = np.asarray(p_ideal, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p_ideal must lie in [0, 1]")
    w = model.mixing_weight(m_qubits)
    d = model.dark_count_fraction
    p_obs = (1.0 - d) * (w * p + (1.0 - w) * 0.5) + d * model.background_split
    return float(p_obs) if p.ndim == 0 else p_obs


NOISE_PRESETS = {
    # measured fidelities per state size, plus a small dark-count fraction
    PAPER_PRESET: NoiseModel(state_fidelity=None, dark_count_fraction=0.02),
}


def noise_preset(name: str) -> NoiseModel:
    try:
        return NOISE_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(NOISE_PRESETS))
        raise ValueError(f"unknown noise preset {name!r} (known: {known})") from None
