"""How the noise model is parameterized: the measured state fidelities fix
the white-noise mixing weight in closed form, and dark counts add a
background term.  Identical vectors stop reporting distance zero, while
orthogonal equal-norm vectors are untouched (the channel fixes p = 1/2).
"""

from entdist import (
    DistanceQuery,
    EstimatorConfig,
    NoiseModel,
    apply_noise,
    as_vector,
    estimate_distance,
    fidelity_to_mixing_weight,
    noise_preset,
)

print("== measured fidelities -> mixing weights ==")
for m, fidelity in ((2, 0.94), (3, 0.73), (4, 0.75)):
    w = fidelity_to_mixing_weight(fidelity, m)
    back = w + (1 - w) / 2**m  # <psi| (w |psi><psi| + (1-w) I/2^m) |psi>
    print(f"  {m}-qubit resource: F = {fidelity}  ->  w = {w:.4f}  (round trip F = {back:.4f})")

print("\n== the channel on p ==")
model = noise_preset("paper-2012-optics")
for p in (0.0, 0.1, 0.25, 0.5):
    print(f"  2-qubit state: p = {p:.2f} -> observed {apply_noise(p, model, 2):.4f}")

print("\n== effect on distances (exact mode, noise on) ==")
noisy = EstimatorConfig(mode="exact", noise=model)
clean = EstimatorConfig(mode="exact")
pairs = [
    ("identical", [1.0, 2.0], [1.0, 2.0]),
    ("orthogonal equal norm", [2.0, 0.0], [0.0, 2.0]),
    ("generic", [1.5, 0.55], [0.86, 2.35]),
]
for label, u, v in pairs:
    q = DistanceQuery(as_vector(u), as_vector(v))
    d0 = estimate_distance(q, clean).distance
    d1 = estimate_distance(q, noisy).distance
    print(f"  {label:<22} ideal D = {d0:.4f}   noisy D = {d1:.4f}")

print("\nexplicit parameters work too:")
custom = NoiseModel(state_fidelity=0.85, dark_count_fraction=0.05, background_split=0.5)
print(f"  F=0.85, d=0.05 on p=0.1 at 3 qubits -> {apply_noise(0.1, custom, 3):.4f}")
