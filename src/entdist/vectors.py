"""Real vectors, amplitude encoding, and product-state factorization.

An N-dimensional vector splits into a scalar norm and a unit amplitude
register over log2(N) qubits.  When the register happens to be a tensor
product of single-qubit states it can also be expressed as one unit
2-vector per qubit, which is how per-qubit wave-plate hardware sets it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DimensionError",
    "ZeroVectorError",
    "RealVector",
    "EncodedVector",
    "ProductFactorization",
    "as_vector",
    "encode",
    "decode",
    "factorize",
    "load_vectors_csv",
    "load_vectors_json",
]

DEFAULT_FACTORIZATION_TOL = 1e-9

# components at or below this magnitude count as zero for the sign convention
_SIGN_EPS = 1e-12


class DimensionError(ValueError):
    """A dimension is not a power of two, or two dimensions disagree."""


class ZeroVectorError(ValueError):
    """The all-zero vector has no normalized quantum state."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RealVector:
    """An N-dimensional real vector, immutable after construction."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError("expected a non-empty 1-D sequence of reals")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector components must be finite")
        if not arr.any():
            raise ZeroVectorError("the zero vector has no normalized quantum state")
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)
        with np.errstate(over="ignore"):  # a norm beyond float64's range reads inf
            object.__setattr__(self, "_norm", float(np.linalg.norm(arr)))

    @property
    def dimension(self) -> int:
        return int(self.components.size)

    @property
    def norm(self) -> float:
        return self._norm

    def __repr__(self) -> str:
        return f"RealVector({self.components.tolist()!r})"


def as_vector(v) -> RealVector:
    """Coerce a sequence of reals (or pass through a RealVector)."""
    if isinstance(v, RealVector):
        return v
    return RealVector(np.asarray(v, dtype=float))


@dataclass(frozen=True, eq=False)
class EncodedVector:
    """A norm |u| plus the unit amplitude register |u> on log2(N) qubits."""

    norm: float
    amplitudes: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.norm) and self.norm >= 0.0):
            raise ValueError("norm must be a finite nonnegative real")
        arr = np.array(self.amplitudes, dtype=float)
        if arr.ndim != 1 or not _is_power_of_two(arr.size):
            raise DimensionError("amplitude register length must be a power of two")
        if abs(np.dot(arr, arr) - 1.0) > 1e-12:
            raise ValueError("amplitudes must form a unit vector")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return int(self.amplitudes.size)

    @property
    def n_qubits(self) -> int:
        return self.dimension.bit_length() - 1


@dataclass(frozen=True, eq=False)
class ProductFactorization:
    """norm x (a_1|0> + b_1|1>) x ... x (a_n|0> + b_n|1>), one factor per qubit."""

    norm: float
    qubit_factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (np.isfinite(self.norm) and self.norm >= 0.0):
            raise ValueError("norm must be a finite nonnegative real")
        factors = []
        for f in self.qubit_factors:
            arr = np.array(f, dtype=float)
            if arr.shape != (2,):
                raise DimensionError("each qubit factor must be a 2-vector")
            if abs(np.dot(arr, arr) - 1.0) > 1e-12:
                raise ValueError("each qubit factor must have unit norm")
            arr.flags.writeable = False
            factors.append(arr)
        object.__setattr__(self, "qubit_factors", tuple(factors))

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_factors)

    def amplitudes(self) -> np.ndarray:
        """Tensor product of the per-qubit factors (a unit register state)."""
        out = np.array([1.0])
        for f in self.qubit_factors:
            out = np.kron(out, f)
        return out

    def to_vector(self) -> RealVector:
        return RealVector(self.norm * self.amplitudes())


def encode(v) -> EncodedVector:
    """Split a nonzero power-of-two-dimensional vector into norm and unit state."""
    vec = as_vector(v)
    if not _is_power_of_two(vec.dimension):
        raise DimensionError(
            f"dimension {vec.dimension} is not a power of two; cannot map onto qubits"
        )
    norm = vec.norm
    return EncodedVector(norm, vec.components / norm)


def decode(e: EncodedVector) -> RealVector:
    """Inverse of encode: rescale the amplitudes by the stored norm."""
    return RealVector(e.norm * e.amplitudes)


def factorize(e: EncodedVector, tol: float = DEFAULT_FACTORIZATION_TOL) -> ProductFactorization | None:
    """Split the register into per-qubit factors when it is a product state.

    Peels one qubit at a time: the remaining amplitudes are reshaped to a
    (2, rest) matrix and the split is accepted when the second singular
    value is at most ``tol``.  Sign convention: every factor's first
    nonzero entry is made nonnegative, with any residual global sign
    carried by the last factor.

    Returns None when some split is not rank-1 within ``tol`` (an
    entangled register), or when the compounded splits fail to reproduce
    the amplitudes within ``tol``.
    """
    rest = np.asarray(e.amplitudes, dtype=float)
    factors: list[np.ndarray] = []
    for _ in range(e.n_qubits - 1):
        matrix = rest.reshape(2, -1)
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        if s[1] > tol:
            return None
        factor = u[:, 0]
        rest = s[0] * vt[0]
        lead = 1 if abs(factor[0]) <= _SIGN_EPS else 0
        if factor[lead] < 0.0:
            factor = -factor
            rest = -rest
        factors.append(factor)
    factors.append(rest / np.linalg.norm(rest))

    result = ProductFactorization(e.norm, tuple(factors))
    # per-split tolerances compound, so enforce the reconstruction contract
    if np.linalg.norm(result.amplitudes() - e.amplitudes) > tol:
        return None
    return result


def load_vectors_json(path) -> list[RealVector]:
    """Read vectors from a JSON array of numbers, or an array of such arrays."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON array")
    if all(_is_number(x) for x in data):
        data = [data]
    if not all(isinstance(row, list) and all(_is_number(x) for x in row) for row in data):
        raise ValueError(f"{path}: vector components must be numbers")
    return [as_vector(row) for row in data]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_vectors_csv(path) -> list[RealVector]:
    """Read one vector per CSV row; '#' comments and leading header rows are skipped."""
    vectors: list[RealVector] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            cells = [c.strip() for c in row if c.strip()]
            if not cells or cells[0].startswith("#"):
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if vectors:
                    raise ValueError(f"{path}: non-numeric row {row!r}") from None
                continue  # tolerate a single leading header row
            vectors.append(as_vector(values))
    if not vectors:
        raise ValueError(f"{path}: no vector rows found")
    return vectors
