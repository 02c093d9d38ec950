"""The entanglement-based distance estimator.

For vectors u = |u| |u> and v = |v| |v> the protocol prepares

    (|0>_anc |u> + |1>_anc |v>) / sqrt(2)

and projects the ancilla alone onto (|u| |0> - |v| |1>) / sqrt(|u|^2+|v|^2).
The success probability p of that projection carries everything:

    <u|v> = (0.5 - p) (|u|^2 + |v|^2) / (|u| |v|)
    D     = sqrt(2 p (|u|^2 + |v|^2))  =  |u - v|   (ideal case)

p is evaluated in closed form, or estimated from seeded Bernoulli shots,
optionally after the noise channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .noise import NoiseModel, apply_noise
from .vectors import DimensionError, RealVector, _is_power_of_two, as_vector

__all__ = [
    "GENERATOR_NAME",
    "DistanceQuery",
    "EstimatorConfig",
    "DistanceEstimate",
    "exact_p",
    "sample_p",
    "inner_product_from_p",
    "distance_from_p",
    "estimate_distance",
    "estimate_distances",
]

# all sampling goes through numpy's default PCG64 bit generator
GENERATOR_NAME = "numpy-pcg64"

_MAX_SEED = 2**64

# p = |u-v|^2 / (2 (|u|^2 + |v|^2)) needs |u|^2 and |v|^2 at least the smallest
# normal float64 and 2 (|u|^2 + |v|^2) at most the largest
_MIN_SQUARE = float(np.finfo(float).tiny)
_MAX_SQUARE_SUM = float(np.finfo(float).max) / 2


@dataclass(frozen=True, eq=False)
class DistanceQuery:
    """A pair (new vector u, reference vector v) of equal power-of-two dimension."""

    u: RealVector
    v: RealVector

    def __post_init__(self):
        object.__setattr__(self, "u", as_vector(self.u))
        object.__setattr__(self, "v", as_vector(self.v))
        if self.u.dimension != self.v.dimension:
            raise DimensionError(
                f"query vectors differ in dimension: {self.u.dimension} vs {self.v.dimension}"
            )
        if not _is_power_of_two(self.u.dimension):
            raise DimensionError(f"dimension {self.u.dimension} is not a power of two")

    @property
    def dimension(self) -> int:
        return self.u.dimension

    @property
    def n_register_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    @property
    def n_state_qubits(self) -> int:
        """Register qubits plus the ancilla."""
        return self.n_register_qubits + 1


@dataclass(frozen=True)
class EstimatorConfig:
    """How p is obtained: exactly, or from seeded Bernoulli sampling."""

    mode: str = "exact"
    shots: int = 10_000
    seed: int = 0
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def derive(self, *indices: int) -> "EstimatorConfig":
        """Same settings with a substream seed drawn from (seed, *indices).

        Batch callers give every query its own substream, so results do not
        depend on execution order.
        """
        child = np.random.SeedSequence([self.seed, *indices]).generate_state(
            1, dtype=np.uint64
        )[0]
        return replace(self, seed=int(child))


@dataclass(frozen=True)
class DistanceEstimate:
    """Everything recovered from one run of the protocol."""

    p_hat: float
    distance: float
    inner_product: float  # unit-state overlap <u|v>, reported unclamped
    raw_inner_product: float  # u . v = |u| |v| <u|v>
    norm_u: float
    norm_v: float
    shots_used: int  # 0 in exact mode
    std_error_p: float  # binomial estimate; 0 in exact mode
    overlap_out_of_range: bool  # shot noise pushed <u|v> outside [-1, 1]


def exact_p(query: DistanceQuery) -> float:
    """Ideal success probability |u - v|^2 / (2 (|u|^2 + |v|^2))."""
    nu2, nv2 = query.u.norm ** 2, query.v.norm ** 2
    z = nu2 + nv2
    if not (nu2 >= _MIN_SQUARE and nv2 >= _MIN_SQUARE and z <= _MAX_SQUARE_SUM):
        raise ValueError(
            f"squared norms {nu2:.3g} and {nv2:.3g} leave float64's range: each must be at "
            f"least {_MIN_SQUARE:.3g} and their sum at most {_MAX_SQUARE_SUM:.3g}"
        )
    diff = query.u.components - query.v.components
    # numerator as a sum of squares keeps p >= 0 even when u == v exactly
    p = float(np.dot(diff, diff)) / (2.0 * z)
    return min(max(p, 0.0), 1.0)


def _observed_p(query: DistanceQuery, noise: NoiseModel | None) -> float:
    p = exact_p(query)
    if noise is not None:
        p = apply_noise(p, noise, query.n_state_qubits)
    return p


def sample_p(query: DistanceQuery, cfg: EstimatorConfig) -> tuple[float, float]:
    """Estimate p from cfg.shots Bernoulli trials; returns (p_hat, std_error).

    The trials are drawn at the analytic success probability (with the
    noise channel applied when configured), which has the same distribution
    as simulating per-shot collapse.  Deterministic given cfg.seed.
    """
    if cfg.mode != "sampled":
        raise ValueError("sample_p requires a sampled-mode config")
    p = _observed_p(query, cfg.noise)
    successes = int(cfg.rng().binomial(cfg.shots, p))
    p_hat = successes / cfg.shots
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / cfg.shots)
    return p_hat, std_error


def inner_product_from_p(p: float, norm_u: float, norm_v: float) -> float:
    """<u|v> = (0.5 - p)(|u|^2 + |v|^2) / (|u| |v|)."""
    if norm_u <= 0.0 or norm_v <= 0.0:
        raise ValueError("norms must be positive")
    return (0.5 - p) * (norm_u * norm_u + norm_v * norm_v) / (norm_u * norm_v)


def distance_from_p(p: float, norm_u: float, norm_v: float) -> float:
    """D = sqrt(2 p (|u|^2 + |v|^2)); p must already lie in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]; clamp sampled estimates first")
    return math.sqrt(2.0 * p * (norm_u * norm_u + norm_v * norm_v))


def estimate_distance(query: DistanceQuery, cfg: EstimatorConfig = EstimatorConfig()) -> DistanceEstimate:
    """Run the full protocol for one query under the given estimator config."""
    nu, nv = query.u.norm, query.v.norm
    if cfg.mode == "exact":
        p_hat = _observed_p(query, cfg.noise)
        shots_used, std_error = 0, 0.0
    else:
        p_hat, std_error = sample_p(query, cfg)
        shots_used = cfg.shots
    overlap = inner_product_from_p(p_hat, nu, nv)
    return DistanceEstimate(
        p_hat=p_hat,
        distance=distance_from_p(min(max(p_hat, 0.0), 1.0), nu, nv),
        inner_product=overlap,
        raw_inner_product=overlap * nu * nv,
        norm_u=nu,
        norm_v=nv,
        shots_used=shots_used,
        std_error_p=std_error,
        overlap_out_of_range=not -1.0 <= overlap <= 1.0,
    )


def estimate_distances(queries, cfg: EstimatorConfig = EstimatorConfig()) -> list[DistanceEstimate]:
    """Batch form; query i runs on the substream derived from (seed, i)."""
    return [estimate_distance(q, cfg.derive(i)) for i, q in enumerate(queries)]
