"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

The two table criteria check the exact-mode D_A - D_B against the printed
theory columns within the precision the paper printed them at.  The
published test vectors are rounded to two decimals and the unrounded
encodings were never released, so a row passes when some vector that
rounds to the printed one has a margin that rounds to the printed theory
value.  The strict round-trip from the printed vectors still misses on
five entries (table1 rows 6, 13, 14, 17; table2 row 4, off by 0.006-0.013);
`table_run` keeps reporting them and each criterion's line lists them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from entdist.datasets import FIG3_DEMO, FIGS1_DEMO, TABLE1
from entdist.experiments import fig2_run, nn_run, rounds_to_printed, table_run
from entdist.ml import two_cluster_assignment, unsupervised_cluster
from entdist.noise import NoiseModel, apply_noise, fidelity_to_mixing_weight, noise_preset
from entdist.oracle import ancilla_projector, entangled_state
from entdist.protocol import (
    DistanceQuery,
    EstimatorConfig,
    estimate_distance,
    exact_p,
    sample_p,
)
from entdist.vectors import as_vector

from .test_core import dense_fidelity, dense_projection_probability, random_state

EXACT = EstimatorConfig(mode="exact")


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def consistent_with_printed(vector, theory: float, references, decimals: int = 2) -> bool:
    """True when some vector that rounds to the printed `vector` has an
    exact-mode D_A - D_B that rounds to the printed `theory` value, A and B
    the two rows of `references`.

    The margin is evaluated at the centre and the 2^d corners of the box of
    vectors that round to `vector`.  It is continuous on that connected box,
    so it takes every value between the least and greatest found; when the
    point of that span nearest `theory` rounds to it, such a vector exists.
    """
    half_width = 0.5 * 10.0 ** -decimals
    centre = np.asarray(vector, dtype=float)
    points = [centre] + [
        centre + half_width * np.asarray(signs)
        for signs in itertools.product((-1.0, 1.0), repeat=centre.size)
    ]
    # exact entries are bitwise equal to 1x1 blocks, so one block serves every point
    margins = two_cluster_assignment(points, references, ["A", "B"], EXACT).margin.tolist()
    return rounds_to_printed(min(max(theory, min(margins)), max(margins)), theory, decimals)


def table_criterion(name: str, budget_s: float) -> None:
    start = time.perf_counter()
    result = table_run(name)
    elapsed = time.perf_counter() - start
    references = [result["reference_a"], result["reference_b"]]
    rows = result["rows"]
    table = list(zip(rows["index"], rows["vector"], rows["theory_diff"], rows["group"]))
    inconsistent = [
        index for index, vector, theory, _ in table
        if not consistent_with_printed(vector, theory, references)
    ]
    wrong_sign = [index for index, _, theory, group in table
                  if group != ("A" if theory < 0 else "B")]
    report(
        f"{name}-theory-column",
        not inconsistent and not wrong_sign and elapsed < budget_s,
        f"elapsed {elapsed:.3f}s, outside printed precision: {inconsistent}, "
        f"group off theory sign: {wrong_sign}, "
        f"strict round-trip misses: {result['mismatched_rows']}",
    )


def test_printed_precision_check_rejects_shifted_theory():
    row = TABLE1.rows[0]
    references = [TABLE1.reference_a, TABLE1.reference_b]
    assert consistent_with_printed(row.vector, row.theory_diff, references)
    for shift in (-0.02, 0.02):
        assert not consistent_with_printed(row.vector, row.theory_diff + shift, references)


class TestAcceptance:
    def test_01_table1_theory_column(self):
        table_criterion("table1", budget_s=1.0)

    def test_02_table2_theory_column(self):
        table_criterion("table2", budget_s=1.0)

    def test_03_oracle_equivalence(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_d, worst_ip = 0.0, 0.0
        for dim in (2, 4, 8):
            for _ in range(1000):
                u = rng.normal(size=dim)
                v = rng.normal(size=dim)
                est = estimate_distance(DistanceQuery(as_vector(u), as_vector(v)), EXACT)
                worst_d = max(worst_d, abs(est.distance - float(np.linalg.norm(u - v))))
                unit_dot = float(u @ v) / float(np.linalg.norm(u) * np.linalg.norm(v))
                worst_ip = max(worst_ip, abs(est.inner_product_unit - unit_dot))
        elapsed = time.perf_counter() - start
        report(
            "oracle-equivalence",
            worst_d < 1e-9 and worst_ip < 1e-9 and elapsed < 10.0,
            f"max |D-D_euclid| {worst_d:.2e}, max overlap err {worst_ip:.2e}, {elapsed:.2f}s",
        )

    def test_04_intuition_limits(self):
        same = DistanceQuery(as_vector([0.3, 1.7]), as_vector([0.3, 1.7]))
        ortho = DistanceQuery(as_vector([2.0, 0.0]), as_vector([0.0, 2.0]))
        est_same = estimate_distance(same, EXACT)
        est_ortho = estimate_distance(ortho, EXACT)
        ok = (
            abs(exact_p(same)) <= 1e-12
            and abs(est_same.distance) <= 1e-12
            and abs(exact_p(ortho) - 0.5) <= 1e-12
            and abs(est_ortho.distance - math.sqrt(8.0)) <= 1e-12
        )
        report("intuition-limits", ok,
               f"p(u=u)={exact_p(same):.1e}, p(orth)={exact_p(ortho)}")

    def test_05_sampling_statistics(self):
        start = time.perf_counter()
        cases = []
        for p_target in (0.1, 0.25, 0.4):
            cos_angle = 1.0 - 2.0 * p_target
            q = DistanceQuery(
                as_vector([1.0, 0.0]),
                as_vector([cos_angle, math.sqrt(1.0 - cos_angle**2)]),
            )
            assert exact_p(q) == pytest.approx(p_target, abs=1e-12)
            for shots in (100, 1_000, 10_000):
                draws = [
                    sample_p(q, EstimatorConfig(mode="sampled", shots=shots, seed=s))[0]
                    for s in range(200)
                ]
                sigma = math.sqrt(p_target * (1.0 - p_target) / shots)
                ratio = float(np.std(draws, ddof=1)) / sigma
                cases.append(((p_target, shots), ratio))
        elapsed = time.perf_counter() - start
        ok = all(1 / 1.5 <= ratio <= 1.5 for _, ratio in cases) and elapsed < 30.0
        worst = max(cases, key=lambda c: abs(math.log(c[1])))
        report("sampling-statistics", ok,
               f"worst std ratio {worst[1]:.3f} at p={worst[0][0]}, shots={worst[0][1]}, "
               f"{elapsed:.2f}s")

    def test_06_noise_identities(self):
        rng = np.random.default_rng(6)
        ok = True
        worst = 0.0
        # fidelity -> mixing weight -> fidelity round trip
        for fidelity in (0.94, 0.73, 0.75):
            for m in (2, 3, 4):
                w = fidelity_to_mixing_weight(fidelity, m)
                psi = random_state(rng, m)
                err = abs(dense_fidelity(w, psi, psi) - fidelity)
                worst = max(worst, err)
                ok &= err <= 1e-12
        # apply_noise against the dense density-matrix oracle on the protocol state
        for dim in (2, 4, 8):
            for _ in range(10):
                q = DistanceQuery(as_vector(rng.normal(size=dim)),
                                  as_vector(rng.normal(size=dim)))
                m = q.u.dimension.bit_length()
                model = NoiseModel(
                    state_fidelity=float(rng.uniform(2.0**-m + 0.05, 1.0)),
                    dark_count_fraction=float(rng.uniform(0.0, 0.3)),
                    background_split=float(rng.uniform(0.0, 1.0)),
                )
                dense = dense_projection_probability(
                    model.mixing_weight(m), entangled_state(q.u, q.v), ancilla_projector(q.u, q.v)
                )
                want = (1 - model.dark_count_fraction) * dense \
                    + model.dark_count_fraction * model.background_split
                err = abs(apply_noise(exact_p(q), model, m) - want)
                worst = max(worst, err)
                ok &= err <= 1e-12
        report("noise-identities", ok, f"max deviation {worst:.2e}")

    def test_07_boundary_concentration(self):
        cfg = EstimatorConfig(mode="sampled", shots=10_000, seed=0,
                              noise=noise_preset("paper-2012-optics"))
        result = fig2_run(cfg)
        # exact mode must agree with the classical Euclidean classifier everywhere
        a = np.asarray(result["reference_a"])
        b = np.asarray(result["reference_b"])
        rows = result["rows"]
        exact_wrong = sum(
            label != ("A" if np.linalg.norm([x, y] - a) < np.linalg.norm([x, y] - b) else "B")
            for x, y, label in zip(rows["x"], rows["y"], rows["exact_label"])
        )
        ok = exact_wrong == 0 and result["misclassified_count"] > 0 \
            and result["boundary_concentrated"]
        report(
            "boundary-concentration",
            ok,
            f"{result['misclassified_count']} noisy misclassifications, all inside the "
            f"90th-percentile error band ({result['error_p90']:.3f}); exact errors: {exact_wrong}",
        )

    def test_08_clustering_fixed_point(self):
        start = time.perf_counter()
        demo = FIG3_DEMO
        vectors = demo.vectors()
        state = unsupervised_cluster(vectors, demo.k, list(demo.initial_labels), EXACT)
        flips_round1 = [i for i in range(8) if state.history[1][i] != state.history[0][i]]
        trajectory_ok = (
            state.converged
            and state.iteration == 2
            and flips_round1 == [2, 3]
            and state.history[2] == state.history[1]
        )
        points = vectors.components
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        minimal_ok = True
        for i, label in enumerate(state.labels):
            means = {}
            for g in sorted(set(state.labels)):
                others = [j for j, lbl in enumerate(state.labels) if lbl == g and j != i]
                if others:
                    means[g] = float(dist[i, others].mean())
            minimal_ok &= means[label] <= min(means.values()) + 1e-12
        elapsed = time.perf_counter() - start
        report(
            "clustering-fixed-point",
            trajectory_ok and minimal_ok and elapsed < 5.0,
            f"round-1 flips {flips_round1}, converged in {state.iteration} rounds, "
            f"{elapsed:.2f}s",
        )

    def test_09_nearest_neighbor_update(self):
        demo = FIGS1_DEMO
        training, labels = demo.training, demo.training_labels  # the added vector last
        result = nn_run(demo.vectors(), training, labels, EXACT)
        single_flip = result["changed_indices"] == [4]  # exactly vector E

        def oracle(u, count):
            """The label of u's nearest among the first `count` training vectors."""
            nearest = min(range(count), key=lambda j: np.linalg.norm(u - np.array(training[j])))
            return labels[nearest]

        rows = result["rows"]
        oracle_ok = all(
            before == oracle(v, len(training) - 1) and after == oracle(v, len(training))
            for before, after, v in zip(rows["label_before"], rows["label_after"],
                                        demo.vectors().components)
        )
        report(
            "nearest-neighbor-update",
            single_flip and oracle_ok,
            f"changed indices {result['changed_indices']}, oracle agreement {oracle_ok}",
        )

    def test_10_determinism(self, tmp_path, capsys):
        from entdist.cli import main

        ok = True
        detail = []
        for command, files in (
            (["repro", "table1", "--seed", "11"], ["results.csv", "summary.json"]),
            (["repro", "fig2", "--seed", "11", "--count", "40"],
             ["results.csv", "summary.json", "plot.svg"]),
            (["repro", "fig3"], ["results.csv", "summary.json"]),
            (["repro", "figS1"], ["results.csv", "summary.json"]),
        ):
            first = tmp_path / ("a-" + command[1])
            second = tmp_path / ("b-" + command[1])
            assert main(command + ["--out", str(first)]) == 0
            assert main(command + ["--out", str(second)]) == 0
            same = all(
                (first / f).read_bytes() == (second / f).read_bytes() for f in files
            )
            ok &= same
            detail.append(f"{command[1]}:{'=' if same else '!='}")
        capsys.readouterr()  # swallow command chatter; the report line follows
        report("determinism", ok, " ".join(detail))
