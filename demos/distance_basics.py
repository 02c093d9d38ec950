"""Walk through the distance estimator on a single pair of vectors:
amplitude encoding, the ancilla-entangled state, the projection that
yields p, and the exact/sampled reconstruction of distance and overlap.
"""

import numpy as np

from entdist import (
    DistanceQuery,
    EstimatorConfig,
    as_vector,
    encode,
    estimate_distance,
    exact_p,
    factorize,
)
from entdist.oracle import ancilla_probability, ancilla_projector, entangled_state

u = as_vector([3.42, 1.24, 1.97, 0.72])
v = as_vector([1.0, 0.0, 0.0, 0.0])

print("== amplitude encoding ==")
enc = encode(u)
print(f"u = {u.components.tolist()}")
print(f"  norm      {enc.norm:.4f}")
print(f"  amplitudes {np.round(enc.amplitudes, 4).tolist()}  ({enc.n_qubits} qubits)")

product = factorize(enc, tol=1e-2)
if product is None:
    print("  near-product check at tol 1e-2: entangled register (no product form)")
else:
    factors = [np.round(f, 3).tolist() for f in product.qubit_factors]
    print(f"  near-product form at tol 1e-2: {factors}")

print("\n== protocol state ==")
query = DistanceQuery(u, v)
state = entangled_state(u, v)
print(f"(|0>|u> + |1>|v>)/sqrt(2) lives on {state.size.bit_length() - 1} qubits")
a, b = ancilla_projector(u, v)
print(f"ancilla projector (|u||0> - |v||1>)/sqrt(Z): ({a:.4f}, {b:.4f})")
p = ancilla_probability(state, (a, b))
print(f"projection probability p = {p:.6f} (closed form {exact_p(query):.6f})")

print("\n== exact reconstruction ==")
est = estimate_distance(query)
print(f"distance        {est.distance:.6f}   (Euclidean {np.linalg.norm(u.components - v.components):.6f})")
print(f"unit overlap    {est.inner_product:.6f}")
print(f"raw dot product {est.raw_inner_product:.6f}   (u.v = {float(u.components @ v.components):.6f})")

print("\n== sampled reconstruction ==")
for shots in (100, 1_000, 10_000, 100_000):
    cfg = EstimatorConfig(mode="sampled", shots=shots, seed=1)
    est = estimate_distance(query, cfg)
    print(f"shots {shots:>6}: p_hat {est.p_hat:.4f} +- {est.std_error_p:.4f}"
          f"   distance {est.distance:.4f}")
