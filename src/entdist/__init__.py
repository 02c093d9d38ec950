"""entdist: entanglement-based vector distance estimation and the
classification and clustering procedures built on it.
"""

from .ml import (
    BOUNDARY_TOL,
    ClassificationResult,
    ClusteringState,
    LabeledReference,
    classify_two_cluster,
    nearest_neighbor_classify,
    unsupervised_cluster,
)
from .noise import (
    DEFAULT_STATE_FIDELITY,
    PAPER_PRESET,
    NoiseModel,
    UnreachableFidelityError,
    apply_noise,
    fidelity_to_mixing_weight,
    noise_preset,
)
from .protocol import (
    GENERATOR_NAME,
    DistanceEstimate,
    DistanceQuery,
    EstimatorConfig,
    distance_from_p,
    estimate_distance,
    estimate_distances,
    exact_p,
    inner_product_from_p,
    sample_p,
)
from .vectors import (
    DimensionError,
    EncodedVector,
    ProductFactorization,
    RealVector,
    ZeroVectorError,
    as_vector,
    decode,
    encode,
    factorize,
    load_vectors_csv,
    load_vectors_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # vectors
    "RealVector",
    "EncodedVector",
    "ProductFactorization",
    "DimensionError",
    "ZeroVectorError",
    "as_vector",
    "encode",
    "decode",
    "factorize",
    "load_vectors_csv",
    "load_vectors_json",
    # noise
    "NoiseModel",
    "UnreachableFidelityError",
    "DEFAULT_STATE_FIDELITY",
    "PAPER_PRESET",
    "apply_noise",
    "fidelity_to_mixing_weight",
    "noise_preset",
    # protocol
    "DistanceQuery",
    "EstimatorConfig",
    "DistanceEstimate",
    "GENERATOR_NAME",
    "exact_p",
    "sample_p",
    "inner_product_from_p",
    "distance_from_p",
    "estimate_distance",
    "estimate_distances",
    # ml
    "BOUNDARY_TOL",
    "LabeledReference",
    "ClassificationResult",
    "ClusteringState",
    "classify_two_cluster",
    "nearest_neighbor_classify",
    "unsupervised_cluster",
]
