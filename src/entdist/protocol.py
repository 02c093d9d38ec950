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
from (seed, j): one stream per column, drawn down the rows.  The seeds and
generator states of all of a block's columns come out of one vectorised pass
of numpy's SeedSequence algorithm; they equal default_rng(s) with s the
first 64-bit word of SeedSequence([seed, j]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .noise import NoiseModel, apply_noise
from .vectors import DimensionError, RealVector, VectorSet, _is_power_of_two, _sum_squares, as_vector

__all__ = [
    "GENERATOR_NAME",
    "DistanceQuery",
    "EstimatorConfig",
    "DistanceEstimate",
    "exact_p",
    "sample_p",
    "p_matrix",
    "distance_matrix",
    "estimate_distance",
]

# all sampling goes through numpy's default PCG64 bit generator
GENERATOR_NAME = "numpy-pcg64"

_MAX_SEED = 2**64

# numpy's SeedSequence: the fixed hash constants of its pool of four uint32 words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# p_matrix evaluates this many pair components at a time, bounding its memory
_BLOCK_ELEMENTS = 1 << 20


def _pair_scale(nu, nv):
    """Each pair's exponent e, the frexp exponent of its larger norm, and (|u|^2 + |v|^2) 4^-e:
    scaled by 2^-e, no square overflows, the larger does not underflow, and p
    and the overlap stay as they are (bit for bit, short of the subnormals)."""
    e = np.maximum(np.frexp(nu)[1], np.frexp(nv)[1])
    su, sv = np.ldexp(nu, -e), np.ldexp(nv, -e)
    return e, su * su + sv * sv  # x * x, like every square: no C pow


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


def _words(n: int) -> list[int]:
    """The uint32 words of a key integer as SeedSequence splits it: low word first."""
    if n < 0:
        raise ValueError(f"a stream key must be a non-negative integer, got {n}")
    return [int(n) >> s & _MASK for s in range(0, max(int(n).bit_length(), 1), 32)]


def _seed_states(keys: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(key).generate_state(n_words, np.uint64) for every key at once.

    Column k of the (w, m) uint32 array ``keys`` holds the words of key k.
    The hash constants of numpy's algorithm do not depend on the data, so
    all keys run through its pool of four words side by side.
    """
    words = np.zeros((max(len(keys), 4), keys.shape[1]), np.uint32)
    words[:len(keys)] = keys  # short entropy hashes zeros into the pool
    # hash call k xors the k-th constant and multiplies by the next; uint32 powers wrap exactly
    a = np.uint32(_INIT_A) * np.uint32(_MULT_A) ** np.arange(4 * len(words) + 1, dtype=np.uint32)

    def hashmix(x, k, count):  # hash calls k .. k + count - 1 of the mixing
        x = (x ^ a[k:k + count, None]) * a[k + 1:k + count + 1, None]
        return x ^ (x >> 16)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> 16)

    pool = hashmix(words[:4], 0, 4)
    for s in range(4):  # the three updates from one source word are independent
        others = [d for d in range(4) if d != s]
        pool[others] = mix(pool[others], hashmix(pool[s], 4 + 3 * s, 3))
    for s in range(4, len(words)):
        pool = mix(pool, hashmix(words[s], 4 * s, 4))
    b = np.uint32(_INIT_B) * np.uint32(_MULT_B) ** np.arange(2 * n_words + 1, dtype=np.uint32)
    state = (pool[np.arange(2 * n_words) % 4] ^ b[:-1, None]) * b[1:, None]
    state ^= state >> 16
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)


def _column_generators(seed: int, m: int):
    """Yield default_rng(derive(j).seed) for j < m, one at a time.

    Both SeedSequence passes, for the column seeds and for their PCG64
    states, run on all m columns at once.
    """
    from numpy.random import PCG64, Generator  # only here: an exact run never loads numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):  # hands PCG64 a precomputed seed state
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    keys = np.array(_words(seed) + [0], np.uint32)[:, None].repeat(m, axis=1)
    keys[-1] = np.arange(m)  # a column index is one word: p would not fit in memory otherwise
    seeds = _seed_states(keys, 1)[:, 0]
    for words in _seed_states(np.array([seeds & _MASK, seeds >> 32], np.uint32), 4):
        yield Generator(PCG64(State(words)))


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
        for name in ("shots", "seed"):  # a boolean is never a number
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")
        if self.mode == "sampled" and self.shots >= 2**63:  # numpy's binomial takes a C long
            raise ValueError("sampled mode needs shots < 2**63")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be an unsigned 64-bit integer")

    def derive(self, *indices: int) -> "EstimatorConfig":
        """Same settings with a substream seed drawn from (seed, *indices).

        The seed is the first 64-bit word of numpy's
        SeedSequence([seed, *indices]), computed by the pass that seeds a
        block's columns.  Column j of a sampled block draws on the seed of
        derive(j); a clustering round r draws its block on the streams of
        derive(r).
        """
        key = [w for k in (self.seed, *indices) for w in _words(k)]
        return replace(self, seed=int(_seed_states(np.array(key, np.uint32)[:, None], 1)[0, 0]))


@dataclass(frozen=True)
class DistanceEstimate:
    """Everything recovered from one run of the protocol."""

    p_hat: float
    distance: float
    # unit-state overlap <u|v>, reported unclamped; read from p, so p's rounding (or shot
    # noise) is multiplied by about (|u|/|v| + |v|/|u|) / 2, which leaves distance alone
    inner_product_unit: float
    inner_product_raw: float  # u . v = |u| |v| <u|v>
    norm_u: float
    norm_v: float
    shots_used: int  # 0 in exact mode
    std_error_p: float  # binomial estimate; 0 in exact mode
    overlap_out_of_range: bool  # shot noise pushed <u|v> outside [-1, 1]


def _expected_p(us: VectorSet, vs: VectorSet, cfg: EstimatorConfig, upper: bool,
                scales: bool = False):
    """The closed-form p of every pair, clipped to [0, 1], under cfg's noise (no draws);
    with ``upper``, 0 on and below the diagonal.  With ``scales``, (p, e, z): e and z
    hold each pair's _pair_scale as the row blocks computed it (0 where ``upper``
    skips a pair, whose p is 0)."""
    n, m, dim = len(us), len(vs), us.dimension
    _check_dimensions(dim, vs.dimension)
    if cfg.noise is not None:  # a fidelity the channel rejects raises before any pair
        cfg.noise.mixing_weight(dim.bit_length())
    # component-major, so the sum of squares runs over contiguous rows
    u_cols, v_cols = np.ascontiguousarray(us.components.T), np.ascontiguousarray(vs.components.T)
    p = np.zeros((n, m))
    if scales:
        es, zs = np.zeros((n, m), np.intc), np.zeros((n, m))
    step = max(1, _BLOCK_ELEMENTS // (m * dim))
    for r in range(0, n, step):
        c = r + 1 if upper else 0  # an upper row block needs no column j <= r
        e, z = _pair_scale(us.norms[r:r + step, None], vs.norms[None, c:])
        if scales:
            es[r:r + step, c:], zs[r:r + step, c:] = e, z
        # finite, as VectorSet caps each norm at half of float64's largest value
        diff = u_cols[:, r:r + step, None] - v_cols[:, None, c:]
        np.ldexp(diff, -e, out=diff)
        p[r:r + step, c:] = _sum_squares(diff) / (2.0 * z)  # >= 0, and 0 when u == v
    np.clip(p, 0.0, 1.0, out=p)
    if cfg.noise is not None:
        p = apply_noise(p, cfg.noise, dim.bit_length())
    p = np.triu(p, 1) if upper else p
    return (p, es, zs) if scales else p


def _draw(p: np.ndarray, cfg: EstimatorConfig, upper: bool, out=None) -> np.ndarray:
    """A sampled block from the expected block p: column j is drawn on the
    generator of cfg.derive(j).seed, down its rows in order as scalar calls
    would (rows 0..j-1 only with ``upper``).

    The columns are drawn as the rows of a C-ordered transposed copy, so
    every draw reads and writes contiguous memory, and the counts are
    divided by the shots once, into ``out`` or a new C-ordered block.
    """
    counts = p.T.copy()  # row j is column j of p
    for j, rng in enumerate(_column_generators(cfg.seed, len(counts))):
        row = counts[j, :j] if upper else counts[j]
        row[:] = rng.binomial(cfg.shots, row)
    return np.divide(counts.T, cfg.shots, out=out, order="C")


def _distances(p: np.ndarray, e: np.ndarray, z: np.ndarray) -> np.ndarray:
    """D = sqrt(2 p (|u|^2 + |v|^2)) of every pair, from its _pair_scale (e, z)."""
    with np.errstate(over="ignore"):  # a D rounded past float64's largest value reads inf
        return np.ldexp(np.sqrt(2.0 * p * z), e)


def p_matrix(us, vs, cfg: EstimatorConfig = EstimatorConfig(),
             upper: bool = False) -> np.ndarray:
    """Observed p for every pair (us[i], vs[j]) of two VectorSets (or their rows) under cfg.

    Two steps: the expected block, then in sampled mode its draw.  The two
    dimensions are checked, then the noise model at that dimension.  Each
    pair is evaluated scaled by the power of two ``_pair_scale`` gives it,
    which leaves p as it is.  With ``upper`` only the pairs j > i are
    evaluated and every other entry is 0.  In sampled mode entry (i, j) is
    draw i of the generator seeded with cfg.derive(j).seed, so the first k
    rows of a block (the leading k x k of an ``upper`` one) are the k-row
    block, and a column does not depend on the other columns.  The column
    generators start from states computed for all columns at once, and each
    is built only when its column is drawn.  The block returned is C-ordered
    float64.  A sampled clustering evaluates its expected block once, and
    round r draws it on the cfg.derive(r) streams.
    """
    p = _expected_p(VectorSet(us), VectorSet(vs), cfg, upper)
    return _draw(p, cfg, upper, out=p) if cfg.mode == "sampled" else p


def distance_matrix(us, vs, cfg: EstimatorConfig = EstimatorConfig(),
                    upper: bool = False) -> np.ndarray:
    """D = sqrt(2 p (|u|^2 + |v|^2)) for every pair of the p_matrix block."""
    p, e, z = _expected_p(VectorSet(us), VectorSet(vs), cfg, upper, scales=True)
    if cfg.mode == "sampled":
        p = _draw(p, cfg, upper, out=p)
    return _distances(p, e, z)


def exact_p(query: DistanceQuery) -> float:
    """Ideal success probability |u - v|^2 / (2 (|u|^2 + |v|^2))."""
    return estimate_distance(query).p_hat


def sample_p(query: DistanceQuery, cfg: EstimatorConfig) -> tuple[float, float]:
    """Estimate p from cfg.shots Bernoulli trials; returns (p_hat, std_error).

    The trials are drawn at the analytic success probability (with the
    noise channel applied when configured), which has the same distribution
    as simulating per-shot collapse.  Draw 0 of the stream cfg.derive(0),
    like entry (0, 0) of any larger block.
    """
    if cfg.mode != "sampled":
        raise ValueError("sample_p requires a sampled-mode config")
    estimate = estimate_distance(query, cfg)
    return estimate.p_hat, estimate.std_error_p


def estimate_distance(query: DistanceQuery, cfg: EstimatorConfig = EstimatorConfig()) -> DistanceEstimate:
    """Run the full protocol for one query: the 1x1 block of distance_matrix and its p."""
    nu, nv = query.u.norm, query.v.norm
    p, e, z = _expected_p(VectorSet([query.u]), VectorSet([query.v]), cfg, False, scales=True)
    shots = cfg.shots if cfg.mode == "sampled" else 0
    if shots:
        p = _draw(p, cfg, False, out=p)
    p_hat = float(p[0, 0])
    # <u|v> = (0.5 - p)(|u|^2 + |v|^2) / (|u| |v|) from the pair scaled by 2^-e.  |u| |v| 4^-e
    # is 0 only where |u| / |v| leaves float64's range, so p is 1/2 to rounding; read as
    # the least subnormal, it gives the overlap 0 at p = 1/2 and beyond 1e306 elsewhere
    norms = float(np.ldexp(nu, -e[0, 0]) * np.ldexp(nv, -e[0, 0])) or math.ulp(0.0)
    overlap = (0.5 - p_hat) * float(z[0, 0]) / norms
    return DistanceEstimate(
        p_hat=p_hat,
        distance=float(_distances(p, e, z)[0, 0]),
        inner_product_unit=overlap,
        inner_product_raw=overlap * nu * nv,
        norm_u=nu,
        norm_v=nv,
        shots_used=shots,
        std_error_p=math.sqrt(p_hat * (1.0 - p_hat) / shots) if shots else 0.0,
        overlap_out_of_range=not -1.0 <= overlap <= 1.0,
    )
