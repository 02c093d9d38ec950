"""Built-in datasets.

The two classification tables and the 2-D reference pair are transcribed
from the published experiment.  The clustering walk-through and the
nearest-neighbor update demo ship as synthetic point sets (the original
coordinates were never published); both are constructed so the documented
trajectory is their provable behavior, which the test suite checks by
brute force.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ml import LabeledReference
from .vectors import VectorSet

__all__ = [
    "TableRow",
    "TableDataset",
    "TABLE1",
    "TABLE2",
    "TABLE_DATASETS",
    "FIG2_REFERENCE_A",
    "FIG2_REFERENCE_B",
    "FIG2_NORM_RANGE",
    "FIG2_ANGLE_RANGE",
    "FIG2_DEFAULT_COUNT",
    "fig2_references",
    "fig2_test_vectors",
    "ClusteringDemo",
    "FIG3_DEMO",
    "NearestNeighborDemo",
    "FIGS1_DEMO",
]


class TableRow(NamedTuple):
    index: int
    vector: tuple[float, ...]
    theory_diff: float  # printed two-decimal D_A - D_B
    experiment_diff: float  # printed measured value
    group: str  # printed assignment
    experiment_correct: bool


class TableDataset(NamedTuple):
    name: str
    reference_a: tuple[float, ...]
    reference_b: tuple[float, ...]
    rows: tuple[TableRow, ...]


def _rows(raw) -> tuple[TableRow, ...]:
    return tuple(
        TableRow(i, vec, theory, exp, group, correct)
        for i, (vec, theory, exp, group, correct) in enumerate(raw, start=1)
    )


TABLE1 = TableDataset(
    name="table1",
    reference_a=(1.0, 0.0, 0.0, 0.0),
    reference_b=(0.0, 0.0, 1.0, 1.0),
    rows=_rows([
        ((2.00, 0.00, 0.00, 0.00), -1.45, -0.93, "A", True),
        ((0.00, 0.00, 0.00, 2.00), 0.82, 0.50, "B", True),
        ((0.35, 0.20, 0.00, 0.00), -0.79, -0.71, "A", True),
        ((0.23, 0.19, 0.08, 0.07), -0.54, -0.51, "A", True),
        ((1.32, 3.62, 1.57, 4.32), 0.74, 0.48, "B", True),
        ((0.15, 0.17, 0.82, 0.98), 1.26, 0.72, "B", True),
        ((0.18, 0.10, 1.02, 0.59), 0.98, 0.76, "B", True),
        ((0.97, 0.17, 0.17, 0.03), -1.37, -0.93, "A", True),
        ((0.68, 0.25, 0.00, 0.00), -1.18, -0.79, "A", True),
        ((0.83, 0.48, 1.44, 0.83), 0.67, 0.17, "B", True),
        ((1.27, 1.06, 3.48, 2.92), 1.13, 0.76, "B", True),
        ((0.40, 0.40, 0.40, 0.40), -0.10, -0.26, "A", True),
        ((0.09, 0.15, 0.49, 0.85), 0.80, 0.55, "B", True),
        ((0.10, 0.55, 0.06, 0.32), -0.19, -0.28, "A", True),
        ((1.94, 0.34, 0.34, 0.06), -1.22, -1.10, "A", True),
        ((3.42, 1.24, 1.97, 0.72), -0.34, -0.39, "A", True),
        ((0.66, 0.00, 1.80, 0.00), 0.40, -0.02, "A", False),
    ]),
)

TABLE2 = TableDataset(
    name="table2",
    reference_a=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    reference_b=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    rows=_rows([
        ((2.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00), -1.24, -0.84, "A", True),
        ((0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.60), 0.77, 0.55, "B", True),
        ((1.77, 0.00, 0.00, 0.00, 1.24, 0.00, 0.00, 0.00), -0.92, -0.52, "A", True),
        ((0.40, 0.23, 0.11, 0.06, 0.03, 0.02, 0.01, 0.01), -0.45, -0.14, "A", True),
        ((0.00, 0.00, 1.23, 1.23, 0.00, 0.00, 0.33, 0.33), 0.17, 0.10, "B", True),
        ((0.30, 0.03, 0.30, 0.03, 1.12, 0.10, 1.12, 0.10), -0.11, -0.24, "A", True),
        ((0.42, 0.90, 0.35, 0.76, 0.00, 0.00, 0.00, 0.00), -0.28, -0.21, "A", True),
        ((0.54, 0.54, 0.00, 0.00, 0.54, 0.54, 0.00, 0.00), -0.43, -0.50, "A", True),
        ((0.11, 1.24, 0.19, 2.15, 0.06, 0.72, 0.11, 1.24), 0.40, -0.17, "A", False),
    ]),
)

TABLE_DATASETS = {"table1": TABLE1, "table2": TABLE2}


# 2-D reference pair; A is drawn blue and B red
FIG2_REFERENCE_A = (1.50, 0.55)
FIG2_REFERENCE_B = (0.86, 2.35)

# the published test set is unspecified beyond its size, so the stand-in
# draws (norm, angle) uniformly over the plotted quarter-disk range
FIG2_NORM_RANGE = (0.1, 3.0)
FIG2_ANGLE_RANGE = (0.0, math.pi / 2)
FIG2_DEFAULT_COUNT = 100


def fig2_references() -> tuple[LabeledReference, LabeledReference]:
    return LabeledReference(FIG2_REFERENCE_A, "A"), LabeledReference(FIG2_REFERENCE_B, "B")


def fig2_test_vectors(count: int = FIG2_DEFAULT_COUNT, seed: int = 0) -> VectorSet:
    """Seeded 2-D test vectors, uniform in (norm, angle) over the plot range."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    norms = rng.uniform(*FIG2_NORM_RANGE, size=count)
    angles = rng.uniform(*FIG2_ANGLE_RANGE, size=count)
    return VectorSet(norms[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]))


class ClusteringDemo(NamedTuple):
    """A named 2-D point set with a deliberately imperfect starting labeling."""

    names: tuple[str, ...]
    points: tuple[tuple[float, float], ...]
    initial_labels: tuple[str, ...]
    k: int = 2

    def vectors(self) -> VectorSet:
        return VectorSet(self.points)


# Two clouds of four; C and D start in the wrong group, flip together in
# round one, and round two confirms the fixed point.
FIG3_DEMO = ClusteringDemo(
    names=("A", "B", "C", "D", "E", "F", "G", "H"),
    points=(
        (0.40, 0.44),
        (0.52, 0.55),
        (0.57, 0.38),
        (0.43, 0.61),
        (1.52, 1.38),
        (1.63, 1.56),
        (1.44, 1.62),
        (1.57, 1.43),
    ),
    initial_labels=("red", "red", "blue", "blue", "blue", "blue", "blue", "blue"),
)


class NearestNeighborDemo(NamedTuple):
    """Test points plus a two-phase training set (one vector arrives late)."""

    names: tuple[str, ...]
    points: tuple[tuple[float, float], ...]
    initial_training: tuple[LabeledReference, ...]
    added_training: LabeledReference

    def vectors(self) -> VectorSet:
        return VectorSet(self.points)


# With R1/R2 alone, A-D go blue and E-H red; adding R3 pulls exactly E
# over to blue and leaves everything else in place.
FIGS1_DEMO = NearestNeighborDemo(
    names=("A", "B", "C", "D", "E", "F", "G", "H"),
    points=(
        (0.42, 0.61),
        (0.67, 0.48),
        (0.55, 0.35),
        (0.33, 0.42),
        (1.30, 1.05),
        (1.62, 1.41),
        (1.37, 1.68),
        (1.71, 1.60),
    ),
    initial_training=(
        LabeledReference((0.50, 0.50), "blue"),
        LabeledReference((1.50, 1.50), "red"),
    ),
    added_training=LabeledReference((1.20, 0.90), "blue"),
)
