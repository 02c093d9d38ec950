"""Real vectors, validated vector sets, and vector file loaders.

A ``RealVector`` is one nonzero finite vector; a ``VectorSet`` holds n of
them of one dimension as a read-only (n, d) array plus their norms.  Both
come from one vectorized check, so they reject the same rows with the
same messages; the estimator and the procedures read sets as arrays.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DimensionError",
    "ZeroVectorError",
    "RealVector",
    "VectorSet",
    "as_vector",
    "load_vectors_csv",
    "load_vectors_json",
]


class DimensionError(ValueError):
    """A vector is empty or not 1-D, or dimensions disagree or are not a power of two."""


class ZeroVectorError(ValueError):
    """The all-zero vector has no normalized quantum state."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class RealVector:
    """An N-dimensional real vector, immutable after construction: a one-row VectorSet."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError("expected a non-empty 1-D sequence of reals")
        row = VectorSet(arr[None])
        object.__setattr__(self, "components", row.components[0])
        object.__setattr__(self, "_norm", float(row.norms[0]))

    @property
    def dimension(self) -> int:
        return int(self.components.size)

    @property
    def norm(self) -> float:
        return self._norm

    def __repr__(self) -> str:
        return f"RealVector({self.components.tolist()!r})"


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Vectors of one dimension: a read-only (n, d) array and the n norms.

    Built from an (n, d) array or from rows (sequences of reals, arrays or
    RealVectors).  The first bad row raises what RealVector raises for it;
    then rows of different lengths raise a DimensionError.  A VectorSet given
    as the rows is shared, not checked again.
    """

    components: np.ndarray
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = self.components
        if isinstance(rows, VectorSet):
            object.__setattr__(self, "components", rows.components)
            object.__setattr__(self, "norms", rows.norms)
            return
        if not isinstance(rows, np.ndarray):
            rows = [r.components if isinstance(r, RealVector) else r for r in rows]
        if len(rows) == 0:
            raise ValueError("expected at least one vector")
        try:
            arr = np.array(rows, dtype=float)
        except ValueError:  # rows of different lengths, or a row that is no vector
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] == 0:
            dims = sorted({RealVector(r).dimension for r in rows})  # a bad row raises first
            raise DimensionError(f"vectors differ in dimension: {dims}")
        finite = np.isfinite(arr).all(axis=1)
        ok = finite & arr.any(axis=1)
        if not ok.all():
            if not finite[np.argmin(ok)]:
                raise ValueError("vector components must be finite")
            raise ZeroVectorError("the zero vector has no normalized quantum state")
        arr.flags.writeable = False
        # sqrt(x . x) per row by a stacked matmul: the float steps of np.linalg.norm
        # on one row, which a row-wise norm (axis=1) does not keep
        with np.errstate(over="ignore"):  # a norm beyond float64's range reads inf
            norms = np.sqrt((arr[:, None, :] @ arr[:, :, None])[:, 0, 0])
        norms.flags.writeable = False
        object.__setattr__(self, "components", arr)
        object.__setattr__(self, "norms", norms)

    def __len__(self) -> int:
        return len(self.norms)

    @property
    def dimension(self) -> int:
        return int(self.components.shape[1])


def as_vector(v) -> RealVector:
    """Coerce a sequence of reals (or pass through a RealVector)."""
    return v if isinstance(v, RealVector) else RealVector(v)


def load_vectors_json(path) -> VectorSet:
    """Read vectors from a JSON array of numbers, or an array of such arrays."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty JSON array")
    if all(_is_number(x) for x in data):
        data = [data]
    if not all(isinstance(row, list) and all(_is_number(x) for x in row) for row in data):
        raise ValueError(f"{path}: vector components must be numbers")
    return VectorSet(data)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_vectors_csv(path) -> VectorSet:
    """Read one vector per CSV row; '#' comments and leading header rows are skipped."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            cells = [c.strip() for c in row if c.strip()]
            if not cells or cells[0].startswith("#"):
                continue
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if rows:
                    raise ValueError(f"{path}: non-numeric row {row!r}") from None
                continue  # every non-numeric row before the first vector is a header
    if not rows:
        raise ValueError(f"{path}: no vector rows found")
    return VectorSet(rows)
