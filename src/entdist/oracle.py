"""Statevector oracle for the distance protocol, kept only to cross-check
the closed form of ``protocol.exact_p``; no estimator path imports it.

The ancilla is the leading qubit, so amplitudes [:N] form its |0> branch
(the encoded u) and [N:] its |1> branch (the encoded v).
"""

from __future__ import annotations

import math

import numpy as np

from .vectors import as_vector, encode

__all__ = ["entangled_state", "ancilla_projector", "ancilla_probability"]


def entangled_state(u, v) -> np.ndarray:
    """(|0>|u> + |1>|v>) / sqrt(2) as 2N real amplitudes."""
    return np.concatenate([encode(u).amplitudes, encode(v).amplitudes]) / math.sqrt(2.0)


def ancilla_projector(u, v) -> np.ndarray:
    """(|u| |0> - |v| |1>) / sqrt(|u|^2 + |v|^2)."""
    nu, nv = as_vector(u).norm, as_vector(v).norm
    return np.array([nu, -nv]) / math.sqrt(nu * nu + nv * nv)


def ancilla_probability(state, onto) -> float:
    """|a psi[:N] + b psi[N:]|^2: the chance of finding the ancilla in a|0> + b|1>."""
    psi = np.asarray(state)
    reduced = onto[0] * psi[: psi.size // 2] + onto[1] * psi[psi.size // 2 :]
    return float(np.vdot(reduced, reduced).real)
