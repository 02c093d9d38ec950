"""Seeded workload inputs, their logical query counts and output checks.

Each workload is one entdist CLI command.  ``prepare`` writes its config
and vector files from the benchmark seed; the program sees nothing else.
The checks read the files the command wrote and compare them with an
independent numpy recomputation.  They do not depend on how sampled
streams are keyed: exact columns are compared value by value, sampled
ones only against a binomial bound.

Sizes: each command takes 1-2 s on one core of a 2-core Xeon, so a
40 s run holds about 20 processes per workload, each followed by a 0.3 s
reference process (see run.py).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# fig2: the published 2-D reference pair and the paper's noise preset
FIG2_COUNT = 4000
FIG2_SHOTS = 10_000
FIG2_REF_A = (1.50, 0.55)
FIG2_REF_B = (0.86, 2.35)
FIG2_NORM_RANGE = (0.1, 3.0)
FIG2_NOISE = "paper-2012-optics"
# measured two-qubit state fidelity and dark-count fraction of that preset
FIG2_FIDELITY = 0.94
FIG2_DARK = 0.02
# sampled p must lie within this many binomial standard errors of the
# noisy expectation; 6 sigma over 8000 draws fails by chance with p < 1e-4
SAMPLED_SIGMAS = 6.0

# cluster: three blobs 6*sqrt(2) apart with spread 0.4 per axis; a quarter
# of each blob starts in the next group, so the first round moves exactly
# those vectors and the second confirms the fixed point.  Over 300 seeds
# the closest exact group means still differ by 60 %, so every seed takes
# the same two rounds and sampling noise cannot change that.
CLUSTER_N = 150
CLUSTER_DIM = 4
CLUSTER_K = 3
CLUSTER_SHOTS = 2000
CLUSTER_SEPARATION = 6.0
CLUSTER_SPREAD = 0.4
CLUSTER_MISLABELED = 0.25

# nn: two-phase nearest neighbour, exact mode
NN_DIM = 16
NN_TRAIN = 64
NN_LABELS = 4
NN_TEST = 300
NN_SPREAD = 1.5

# entdist's exact-tie tolerance for nearest-neighbour labels
TIE_TOL = 1e-12
# how far an exact distance may sit from the numpy one
EXACT_TOL = 1e-9


@dataclass
class Inputs:
    """What one workload runs, and what its checks expect."""

    argv: list[str]  # entdist arguments, without --out
    logical_queries: int | None  # None: rounds (from summary.json) x pairs
    expected: dict = field(default_factory=dict)


def _write_vectors_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def prepare_fig2(seed: int, directory: Path) -> Inputs:
    config = {
        "task": "fig2",
        "count": FIG2_COUNT,
        "estimator": {"mode": "sampled", "shots": FIG2_SHOTS, "seed": seed},
        "noise": FIG2_NOISE,
        "emit_plot": True,
    }
    path = directory / "fig2.json"
    _write_config(path, config)
    return Inputs(["repro", "fig2", "--config", str(path)], 4 * FIG2_COUNT,
                  {"count": FIG2_COUNT, "shots": FIG2_SHOTS})


def prepare_cluster(seed: int, directory: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(CLUSTER_DIM, CLUSTER_DIM)))
    centers = CLUSTER_SEPARATION * basis[:CLUSTER_K]
    truth = np.arange(CLUSTER_N) % CLUSTER_K
    points = centers[truth] + rng.normal(0.0, CLUSTER_SPREAD, (CLUSTER_N, CLUSTER_DIM))
    init = truth.copy()
    for g in range(CLUSTER_K):
        members = np.flatnonzero(truth == g)
        moved = rng.choice(members, round(CLUSTER_MISLABELED * members.size), replace=False)
        init[moved] = (g + 1) % CLUSTER_K
    vectors = directory / "cluster_vectors.csv"
    _write_vectors_csv(vectors, points)
    config = {
        "task": "cluster",
        "vectors": str(vectors),
        "k": CLUSTER_K,
        "init": init.tolist(),
        "estimator": {"mode": "sampled", "shots": CLUSTER_SHOTS, "seed": seed},
    }
    path = directory / "cluster.json"
    _write_config(path, config)
    return Inputs(["cluster", "--config", str(path)], None,
                  {"truth": truth.tolist(), "init": init.tolist()})


def prepare_nn(seed: int, directory: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (NN_LABELS, NN_DIM))
    train_labels = np.arange(NN_TRAIN) % NN_LABELS
    train = centers[train_labels] + rng.normal(0.0, NN_SPREAD, (NN_TRAIN, NN_DIM))
    test = (centers[rng.integers(0, NN_LABELS, NN_TEST)]
            + rng.normal(0.0, NN_SPREAD, (NN_TEST, NN_DIM)))
    # the late training vector sits in label 1's region but carries label 0
    added = centers[1] + rng.normal(0.0, NN_SPREAD, NN_DIM)
    labels = [f"L{g}" for g in train_labels]
    vectors = directory / "nn_test.csv"
    _write_vectors_csv(vectors, test)
    config = {
        "task": "nn",
        "vectors": str(vectors),
        "training": {
            "initial": [{"label": label, "vector": v.tolist()} for label, v in zip(labels, train)],
            "added": {"label": "L0", "vector": added.tolist()},
        },
        "estimator": {"mode": "exact"},
    }
    path = directory / "nn.json"
    _write_config(path, config)
    return Inputs(["nn", "--config", str(path)], NN_TEST * (NN_TRAIN + 1),
                  {"test": test, "train": train, "labels": labels, "added": added})


# ---------------------------------------------------------------- checks


def read_results_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _noisy_p(p: float) -> float:
    """The paper preset's channel for a two-qubit state (ancilla + one qubit)."""
    floor = 0.25
    w = (FIG2_FIDELITY - floor) / (1.0 - floor)
    return (1.0 - FIG2_DARK) * (w * p + (1.0 - w) * 0.5) + FIG2_DARK * 0.5


def _sampled_distance_range(u, ref, shots: int) -> tuple[float, float]:
    z = float(u @ u + ref @ ref)
    p = _noisy_p(float((u - ref) @ (u - ref)) / (2.0 * z))
    half = SAMPLED_SIGMAS * math.sqrt(p * (1.0 - p) / shots)
    lo, hi = max(p - half, 0.0), min(p + half, 1.0)
    return math.sqrt(2.0 * lo * z), math.sqrt(2.0 * hi * z)


def check_fig2(out: Path, inputs: Inputs) -> list[str]:
    rows = read_results_csv(out / "results.csv")
    expected = inputs.expected
    errors = []
    if len(rows) != expected["count"]:
        return [f"fig2: {len(rows)} rows, expected {expected['count']}"]
    a, b = np.array(FIG2_REF_A), np.array(FIG2_REF_B)
    misclassified = 0
    for r in rows:
        u = np.array([float(r["x"]), float(r["y"])])
        norm = float(np.linalg.norm(u))
        if not FIG2_NORM_RANGE[0] <= norm <= FIG2_NORM_RANGE[1]:
            errors.append(f"fig2 row {r['index']}: norm {norm} outside {FIG2_NORM_RANGE}")
        exact = float(np.linalg.norm(u - a) - np.linalg.norm(u - b))
        if abs(float(r["exact_diff"]) - exact) > EXACT_TOL:
            errors.append(f"fig2 row {r['index']}: exact_diff {r['exact_diff']} != {exact!r}")
        if abs(exact) > EXACT_TOL and r["exact_label"] != ("A" if exact < 0 else "B"):
            errors.append(f"fig2 row {r['index']}: exact_label {r['exact_label']}")
        a_lo, a_hi = _sampled_distance_range(u, a, expected["shots"])
        b_lo, b_hi = _sampled_distance_range(u, b, expected["shots"])
        sampled = float(r["sampled_diff"])
        if not a_lo - b_hi - EXACT_TOL <= sampled <= a_hi - b_lo + EXACT_TOL:
            errors.append(f"fig2 row {r['index']}: sampled_diff {sampled} outside "
                          f"[{a_lo - b_hi}, {a_hi - b_lo}]")
        is_wrong = r["sampled_label"] != r["exact_label"]
        misclassified += is_wrong
        if r["misclassified"] != ("true" if is_wrong else "false"):
            errors.append(f"fig2 row {r['index']}: misclassified flag {r['misclassified']}")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary.get("misclassified_count") != misclassified:
        errors.append(f"fig2: summary misclassified_count {summary.get('misclassified_count')} "
                      f"!= {misclassified}")
    svg = (out / "plot.svg").read_text(encoding="utf-8")
    if "<svg" not in svg or not svg.rstrip().endswith("</svg>"):
        errors.append("fig2: plot.svg is not a complete SVG document")
    return errors


def check_cluster(out: Path, inputs: Inputs) -> list[str]:
    rows = read_results_csv(out / "results.csv")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    truth, init = inputs.expected["truth"], inputs.expected["init"]
    if len(rows) != len(truth):
        return [f"cluster: {len(rows)} rows, expected {len(truth)}"]
    errors = []
    if summary.get("converged") is not True:
        errors.append(f"cluster: not converged after {summary.get('iterations')} rounds")
    if [int(r["initial_label"]) for r in rows] != init:
        errors.append("cluster: initial labels differ from the configured init")
    final_of = {}
    for r, t in zip(rows, truth):
        final_of.setdefault(t, set()).add(r["final_label"])
    if any(len(s) != 1 for s in final_of.values()) or \
            len({next(iter(s)) for s in final_of.values()}) != CLUSTER_K:
        errors.append(f"cluster: final partition differs from the blobs: {final_of}")
    return errors


def nn_expected_labels(test, train, labels) -> list[str]:
    """Label of the nearest training vector, ties to the smallest label."""
    dist = np.linalg.norm(test[:, None, :] - train[None, :, :], axis=2)
    out = []
    for row in dist:
        per_label = {}
        for d, label in zip(row, labels):
            per_label[label] = min(d, per_label.get(label, math.inf))
        best = min(per_label.values())
        out.append(min(label for label, d in per_label.items() if d - best < TIE_TOL))
    return out


def check_nn(out: Path, inputs: Inputs) -> list[str]:
    rows = read_results_csv(out / "results.csv")
    e = inputs.expected
    if len(rows) != len(e["test"]):
        return [f"nn: {len(rows)} rows, expected {len(e['test'])}"]
    before = nn_expected_labels(e["test"], e["train"], e["labels"])
    after = nn_expected_labels(e["test"], np.vstack([e["train"], e["added"]]),
                               e["labels"] + ["L0"])
    errors = []
    for r, want_before, want_after in zip(rows, before, after):
        got = (r["label_before"], r["label_after"])
        if got != (want_before, want_after):
            errors.append(f"nn row {r['index']}: labels {got}, expected "
                          f"{(want_before, want_after)}")
        if r["changed"] != ("true" if got[0] != got[1] else "false"):
            errors.append(f"nn row {r['index']}: changed flag {r['changed']}")
    return errors


def output_bytes(out: Path) -> dict[str, int]:
    """Sizes of the written artifacts: CSV + JSON, and SVG."""
    data = sum((out / name).stat().st_size for name in ("results.csv", "summary.json"))
    svg = sum(p.stat().st_size for p in out.glob("*.svg"))
    return {"data": data, "svg": svg}


def cluster_rounds(out: Path) -> int:
    return int(json.loads((out / "summary.json").read_text(encoding="utf-8"))["iterations"])


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Inputs]  # (seed, input directory)
    check: Callable[[Path, Inputs], list[str]]  # (output directory, inputs) -> errors

    def logical_queries(self, inputs: Inputs, out: Path) -> int:
        """Distance estimates the command needs, whatever the code computes."""
        if inputs.logical_queries is not None:
            return inputs.logical_queries
        return cluster_rounds(out) * CLUSTER_N * (CLUSTER_N - 1) // 2


WORKLOADS = {
    w.name: w for w in (
        Workload("fig2_plot", prepare_fig2, check_fig2),
        Workload("cluster_sampled", prepare_cluster, check_cluster),
        Workload("nn_exact", prepare_nn, check_nn),
    )
}


# ---------------------------------------------------------------- smoke checks

def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _smoke_table(expected_rows):
    def check(out: Path) -> list[str]:
        got = _summary(out).get("mismatched_rows")
        return [] if got == expected_rows else [f"mismatched rows {got}, expected {expected_rows}"]
    return check


def _smoke_fig3(out: Path) -> list[str]:
    s = _summary(out)
    history = s.get("history", [])
    moved = [i for i, (a, b) in enumerate(zip(history[0], history[1]))
             if a != b] if len(history) > 1 else None
    if s.get("converged") is not True or moved != [2, 3] or history[-1] != history[1]:
        return [f"fig3: converged={s.get('converged')}, round-1 moves {moved} (want C, D = [2, 3])"]
    return []


def _smoke_figs1(out: Path) -> list[str]:
    s = _summary(out)
    names = [s["rows"][i]["name"] for i in s.get("changed_indices", [])]
    return [] if names == ["E"] else [f"figS1: changed {names}, expected ['E']"]


# the documented repro state at default settings; table1/table2 keep their
# by-design mismatches (printed two-decimal theory column)
SMOKE_CHECKS = {
    "table1": _smoke_table([6, 13, 14, 17]),
    "table2": _smoke_table([4]),
    "fig3": _smoke_fig3,
    "figS1": _smoke_figs1,
}
