"""Real vectors and validated vector sets.

A ``RealVector`` is one nonzero finite vector; a ``VectorSet`` holds n of
them of one dimension as a read-only (n, d) array plus their norms.  Both
come from one vectorized check, so they reject the same rows with the
same messages; the estimator and the procedures read sets as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionError",
    "ZeroVectorError",
    "RealVector",
    "VectorSet",
    "as_vector",
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
        try:
            row = VectorSet(arr[None])
        except ValueError as exc:  # a lone vector is no row of a set: drop the "[0]: "
            raise type(exc)(str(exc).removeprefix("[0]: ")) from None
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
    RealVectors).  The first bad row i raises what RealVector raises for it,
    its message prefixed with ``[i]: ``; then rows of different lengths raise
    a DimensionError.  A VectorSet given as the rows is shared, not checked
    again.
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
            dims = set()
            for i, row in enumerate(rows):  # a bad row raises first
                try:
                    dims.add(RealVector(row).dimension)
                except ValueError as exc:
                    raise type(exc)(f"[{i}]: {exc}") from None
            raise DimensionError(f"vectors differ in dimension: {sorted(dims)}")
        # sqrt(x . x) per row by a stacked matmul (the float steps of np.linalg.norm on
        # one row, which a row-wise norm does not keep), with x the row scaled by 2^-e,
        # e the frexp exponent of its largest |component|: x . x stays in float64's range
        with np.errstate(over="ignore"):  # a norm past float64's largest value reads inf
            e = np.frexp(np.abs(arr).max(axis=1))[1][:, None]
            scaled = np.ldexp(arr, -e)
            norms = np.ldexp(np.sqrt(scaled[:, None, :] @ scaled[:, :, None])[:, 0], e)[:, 0]
        # a norm above half of float64's largest value could make |u - v| overflow
        ok = (norms > 0) & (norms <= np.finfo(float).max / 2)  # inf or nan if not finite
        if not ok.all():
            i = int(np.argmin(ok))
            if not np.isfinite(arr[i]).all():
                raise ValueError(f"[{i}]: vector components must be finite")
            if not norms[i]:
                raise ZeroVectorError(f"[{i}]: the zero vector has no normalized quantum state")
            raise ValueError(f"[{i}]: vector norm {norms[i]:.3g} exceeds half of float64's "
                             "largest value")
        arr.flags.writeable = False
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
