"""The entanglement-based distance estimator.

For vectors u = |u| |u> and v = |v| |v> the protocol prepares

    (|0>_anc |u> + |1>_anc |v>) / sqrt(2)

and projects the ancilla alone onto (|u| |0> - |v| |1>) / sqrt(|u|^2+|v|^2).
The success probability p of that projection carries everything:

    <u|v> = (0.5 - p) (|u|^2 + |v|^2) / (|u| |v|)
    D     = sqrt(2 p (|u|^2 + |v|^2))  =  |u - v|   (ideal case)

p is evaluated in closed form, or estimated from seeded Bernoulli shots,
optionally after the noise channel.  ``p_matrix`` does this for a whole
block of pairs at once; the single-pair functions are 1x1 blocks of it.
In sampled mode entry (i, j) of a block is draw i of the generator seeded
from (seed, j): one stream per column, drawn down the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .noise import NoiseModel, apply_noise
from .vectors import DimensionError, RealVector, VectorSet, _is_power_of_two, as_vector

__all__ = [
    "GENERATOR_NAME",
    "DistanceQuery",
    "EstimatorConfig",
    "DistanceEstimate",
    "exact_p",
    "sample_p",
    "p_matrix",
    "distance_matrix",
    "inner_product_from_p",
    "distance_from_p",
    "estimate_distance",
]

# all sampling goes through numpy's default PCG64 bit generator
GENERATOR_NAME = "numpy-pcg64"

_MAX_SEED = 2**64

# p = |u-v|^2 / (2 (|u|^2 + |v|^2)) needs |u|^2 and |v|^2 at least the smallest
# normal float64 and 2 (|u|^2 + |v|^2) at most the largest
_MIN_SQUARE = float(np.finfo(float).tiny)
_MAX_SQUARE_SUM = float(np.finfo(float).max) / 2

# p_matrix evaluates this many pair components at a time, bounding its memory
_BLOCK_ELEMENTS = 1 << 20


def _check_dimensions(du: int, dv: int) -> None:
    if du != dv:
        raise DimensionError(f"query vectors differ in dimension: {du} vs {dv}")
    if not _is_power_of_two(du):
        raise DimensionError(f"dimension {du} is not a power of two")


@dataclass(frozen=True, eq=False)
class DistanceQuery:
    """A pair (new vector u, reference vector v) of equal power-of-two dimension."""

    u: RealVector
    v: RealVector

    def __post_init__(self):
        object.__setattr__(self, "u", as_vector(self.u))
        object.__setattr__(self, "v", as_vector(self.v))
        _check_dimensions(self.u.dimension, self.v.dimension)

    @property
    def dimension(self) -> int:
        return self.u.dimension


def _substream(*key: int) -> int:
    """The 64-bit seed of the substream keyed by (seed, *indices)."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)[0])


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
        if self.mode == "sampled" and self.shots >= 2**63:  # numpy's binomial takes a C long
            raise ValueError("sampled mode needs shots < 2**63")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")

    def derive(self, *indices: int) -> "EstimatorConfig":
        """Same settings with a substream seed drawn from (seed, *indices).

        Column j of a sampled block draws on the seed of derive(j); a
        clustering round r runs its block under derive(r).
        """
        return replace(self, seed=_substream(self.seed, *indices))


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


def p_matrix(us, vs, cfg: EstimatorConfig = EstimatorConfig(),
             upper: bool = False) -> np.ndarray:
    """Observed p for every pair (us[i], vs[j]) of two VectorSets (or their rows) under cfg.

    Checks run in one order: the two dimensions, then the noise model at that
    dimension, then the squared norms one row block at a time, where the first
    pair (row-major) that leaves float64's range raises.  With ``upper`` only
    the pairs j > i are evaluated and every other entry is 0.  In sampled mode
    entry (i, j) is draw i of the generator seeded with cfg.derive(j).seed, so
    the first k rows of a block (the leading k x k of an ``upper`` one) are
    the k-row block, and a column does not depend on the other columns.
    """
    us, vs = VectorSet(us), VectorSet(vs)
    n, m, dim = len(us), len(vs), us.dimension
    _check_dimensions(dim, vs.dimension)
    if cfg.noise is not None:  # a fidelity the channel rejects raises here, before any norm
        cfg.noise.mixing_weight(dim.bit_length())
    nu2 = np.array([x ** 2 for x in us.norms.tolist()])  # C pow, as for a single pair
    nv2 = np.array([x ** 2 for x in vs.norms.tolist()])
    u_rows, v_rows = us.components, vs.components
    p = np.empty((n, m))
    step = max(1, _BLOCK_ELEMENTS // (m * dim))
    for r in range(0, n, step):
        with np.errstate(over="ignore"):  # an overflowing sum reads inf: the range check reports it
            z = nu2[r:r + step, None] + nv2[None, :]
        bad = ~((nu2[r:r + step] >= _MIN_SQUARE)[:, None] & (nv2 >= _MIN_SQUARE)[None, :]
                & (z <= _MAX_SQUARE_SUM))
        if upper:
            bad = np.triu(bad, r + 1)  # row i of the block is row r + i: keep j > r + i
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), m)
            raise ValueError(
                f"squared norms {nu2[r + i]:.3g} and {nv2[j]:.3g} leave float64's range: each "
                f"must be at least {_MIN_SQUARE:.3g} and their sum at most {_MAX_SQUARE_SUM:.3g}"
            )
        diff = u_rows[r:r + step, None, :] - v_rows[None, :, :]
        # |u - v|^2 as a sum of squares (p >= 0, and 0 when u == v) by a stacked
        # matmul, which sums in the order np.dot does for one pair
        p[r:r + step] = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0] / (2.0 * z)
    np.clip(p, 0.0, 1.0, out=p)
    if cfg.noise is not None:
        p = apply_noise(p, cfg.noise, dim.bit_length())
    if upper:
        p = np.triu(p, 1)

    if cfg.mode == "sampled":
        # one generator per column, drawing down its rows in order as scalar calls would
        for j in range(int(upper), m):
            rows = slice(j if upper else n)
            rng = np.random.default_rng(_substream(cfg.seed, j))
            p[rows, j] = rng.binomial(cfg.shots, p[rows, j]) / cfg.shots
    return p


def distance_matrix(us, vs, cfg: EstimatorConfig = EstimatorConfig(),
                    upper: bool = False) -> np.ndarray:
    """D = sqrt(2 p (|u|^2 + |v|^2)) for every pair of the p_matrix block."""
    us, vs = VectorSet(us), VectorSet(vs)
    p = p_matrix(us, vs, cfg, upper)
    nu, nv = us.norms, vs.norms
    return np.sqrt(2.0 * p * ((nu * nu)[:, None] + (nv * nv)[None, :]))


def exact_p(query: DistanceQuery) -> float:
    """Ideal success probability |u - v|^2 / (2 (|u|^2 + |v|^2))."""
    return float(p_matrix([query.u], [query.v])[0, 0])


def sample_p(query: DistanceQuery, cfg: EstimatorConfig) -> tuple[float, float]:
    """Estimate p from cfg.shots Bernoulli trials; returns (p_hat, std_error).

    The trials are drawn at the analytic success probability (with the
    noise channel applied when configured), which has the same distribution
    as simulating per-shot collapse.  Draw 0 of the stream cfg.derive(0),
    like entry (0, 0) of any larger block.
    """
    if cfg.mode != "sampled":
        raise ValueError("sample_p requires a sampled-mode config")
    p_hat = float(p_matrix([query.u], [query.v], cfg)[0, 0])
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / cfg.shots)


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
        p_hat = float(p_matrix([query.u], [query.v], cfg)[0, 0])
        shots_used, std_error = 0, 0.0
    else:
        p_hat, std_error = sample_p(query, cfg)
        shots_used = cfg.shots
    overlap = inner_product_from_p(p_hat, nu, nv)
    return DistanceEstimate(
        p_hat=p_hat,
        distance=distance_from_p(p_hat, nu, nv),
        inner_product=overlap,
        raw_inner_product=overlap * nu * nv,
        norm_u=nu,
        norm_v=nv,
        shots_used=shots_used,
        std_error_p=std_error,
        overlap_out_of_range=not -1.0 <= overlap <= 1.0,
    )
