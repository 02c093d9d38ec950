"""The contract of entdist's 14 value types: how they are built, that their
fields cannot be assigned or deleted, which compare by value, and the reprs
users read."""

import numpy as np
import pytest

from entdist.cli import Run, _Object
from entdist.datasets import ClusteringDemo, NearestNeighborDemo, TableDataset, TableRow
from entdist.ml import Assignment, ClusteringState
from entdist.noise import NoiseModel
from entdist.protocol import DistanceEstimate, DistanceQuery, EstimatorConfig
from entdist.vectors import RealVector, VectorSet

# type, the fields given, their values, the defaults of the fields left out
VALUE_TYPES = [
    (_Object, ("fields",), ({"a": int},), {"required": ()}),
    (Run, ("extra", "summary"), ({"k": 2}, {"converged": True}),
     {"plots": {}, "csv_columns": None, "line": None}),
    (TableRow,
     ("index", "vector", "theory_diff", "experiment_diff", "group", "experiment_correct"),
     (3, (1.0, 0.0, 0.5, 0.5), 0.25, 0.3, "A", True), {}),
    (TableDataset, ("name", "reference_a", "reference_b", "rows"),
     ("t", (1.0, 0.0), (0.0, 1.0), ()), {}),
    (ClusteringDemo, ("names", "points", "initial_labels"),
     (("A", "B"), ((0.4, 0.4), (1.5, 1.5)), ("red", "blue")), {"k": 2}),
    (NearestNeighborDemo, ("names", "points", "training", "training_labels"),
     (("A",), ((0.4, 0.6),), ((0.5, 0.5),), ("blue",)), {}),
    (Assignment, ("names", "distances", "codes", "margin"),
     (["a", "b"], np.array([[1.0, 2.0]]), np.array([0]), np.array([1.0])), {}),
    (ClusteringState, ("labels", "iteration", "converged", "history"),
     ((0, 1), 2, True, ((1, 0), (0, 1))), {}),
    (NoiseModel, (), (),
     {"state_fidelity": None, "dark_count_fraction": 0.0, "background_split": 0.5}),
    (NoiseModel, ("state_fidelity", "dark_count_fraction", "background_split"),
     (0.9, 0.01, 0.4), {}),
    (DistanceQuery, ("u", "v"), ((3.0, 4.0), (1.0, 0.0)), {}),
    (EstimatorConfig, (), (), {"mode": "exact", "shots": 10_000, "seed": 0, "noise": None}),
    (EstimatorConfig, ("mode", "shots", "seed", "noise"),
     ("sampled", 100, 7, NoiseModel(0.9)), {}),
    (DistanceEstimate,
     ("p_hat", "distance", "inner_product_unit", "inner_product_raw", "norm_u", "norm_v",
      "shots_used", "std_error_p", "overlap_out_of_range"),
     (0.25, 1.0, 0.5, 0.5, 1.0, 1.0, 100, 0.01, False), {}),
    (RealVector, ("components",), ((3.0, 4.0),), {}),
    (VectorSet, ("components",), ([[3.0, 4.0], [1.0, 0.0]],), {}),
]
IDS = [f"{t.__name__}-{len(given)}" for t, given, _, _ in VALUE_TYPES]


def plain(value):
    """A field's value as comparable Python data."""
    if isinstance(value, RealVector):
        return "RealVector", value.components.tolist()
    if isinstance(value, np.ndarray):
        return "array", value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [plain(item) for item in value]
    return value


def read(obj, names):
    return [plain(getattr(obj, name)) for name in names]


@pytest.mark.parametrize("cls, given, values, defaults", VALUE_TYPES, ids=IDS)
class TestValueTypes:
    def test_built_by_position_and_by_keyword(self, cls, given, values, defaults):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(given, values)))
        assert read(by_position, given) == read(by_keyword, given)
        for obj in (by_position, by_keyword):
            assert read(obj, defaults) == [plain(v) for v in defaults.values()]
        for name, value in zip(given, values):
            if not isinstance(value, (tuple, list, np.ndarray)):
                assert getattr(by_position, name) == value

    def test_fields_cannot_be_assigned_or_deleted(self, cls, given, values, defaults):
        obj = cls(*values)
        for name in (*given, *defaults, "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)


def test_vector_fields_are_checked_vectors():
    assert DistanceQuery((3.0, 4.0), (1.0, 0.0)).u.norm == 5.0
    assert VectorSet([[3.0, 4.0], [1.0, 0.0]]).norms.tolist() == [5.0, 1.0]
    assert RealVector((3, 4)).components.tolist() == [3.0, 4.0]


@pytest.mark.parametrize("cls, values, others", [
    (NoiseModel, (0.9, 0.01, 0.4), (0.8, 0.02, 0.6)),
    (EstimatorConfig, ("sampled", 100, 7, NoiseModel(0.9)), ("exact", 101, 8, NoiseModel(0.8))),
    (DistanceEstimate, (0.25, 1.0, 0.5, 0.5, 1.0, 1.0, 100, 0.01, False),
     (0.5, 2.0, 0.25, 0.25, 2.0, 2.0, 200, 0.02, True)),
], ids=["NoiseModel", "EstimatorConfig", "DistanceEstimate"])
def test_compare_and_hash_by_value(cls, values, others):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for i, other in enumerate(others):  # one field differs
        c = cls(*values[:i], other, *values[i + 1:])
        assert c != a and not c == a, i


def test_reprs_read_as_fields():
    assert repr(EstimatorConfig()) == "EstimatorConfig(mode='exact', shots=10000, seed=0, noise=None)"
    assert repr(NoiseModel()) == \
        "NoiseModel(state_fidelity=None, dark_count_fraction=0.0, background_split=0.5)"
    assert repr(EstimatorConfig("sampled", 5, 1, NoiseModel(0.9))) == (
        "EstimatorConfig(mode='sampled', shots=5, seed=1, noise=NoiseModel(state_fidelity=0.9, "
        "dark_count_fraction=0.0, background_split=0.5))")
    assert repr(RealVector([3, 4])) == "RealVector([3.0, 4.0])"
