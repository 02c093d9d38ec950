"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))


def _input_files(directory: Path) -> dict[str, str]:
    # configs name their vector files by path; compare them without it
    return {p.name: p.read_text(encoding="utf-8").replace(str(directory), "DIR")
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    made = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        directory = tmp_path / sub
        directory.mkdir()
        inputs = WORKLOADS[name].prepare(seed, directory)
        made.append((_input_files(directory), inputs.logical_queries))
    assert made[0] == made[1]
    assert made[0][0] != made[2][0]


def test_corrupted_results_fail_the_check(tmp_path):
    workload = WORKLOADS["nn_exact"]
    inputs = workload.prepare(3, tmp_path)
    smoke = {"table1": []}

    clean = run.run_process(inputs.argv, tmp_path, "clean", traced=False)
    run.measure(workload, inputs, clean)
    assert clean["errors"] == []
    assert run.tally(smoke, [clean]) == (2, 0)

    corrupt = run.run_process(inputs.argv, tmp_path, "corrupt", traced=False)
    results = corrupt["out"] / "results.csv"
    lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[5].split(",")
    row[-2] = "L9"  # label_after of the first data row
    lines[5] = ",".join(row)
    results.write_text("".join(lines), encoding="utf-8")
    run.measure(workload, inputs, corrupt)
    assert corrupt["errors"]
    assert run.tally(smoke, [clean, corrupt]) == (3, 1)


def _current(owner_name: str, attribute: str):
    return tracing.resolve(owner_name).__dict__[attribute]


def test_tracer_restores_entdist(tmp_path):
    targets = [(owner, attribute) for owner, attribute, _ in tracing.FUNCTION_TARGETS]
    targets += [("entdist.protocol", "sample_p"), ("entdist.cli", "contour_segments"),
                ("entdist.vectors:RealVector", "norm")]
    originals = {t: _current(*t) for t in targets}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(_current(*t) is not originals[t] for t in targets)
        assert tracer.run_main(["repro", "fig3", "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()

    assert all(_current(*t) is originals[t] for t in targets)
    spans = tmp_path / "spans.jsonl"
    tracer.write(spans)
    stats = tracing.summarize(spans)
    assert stats["cli.main"]["calls"] == 1
    assert stats["ml.unsupervised_cluster"]["calls"] == 1
    # self times partition the root span's duration
    total = sum(entry["self_s"] for entry in stats.values())
    assert total == pytest.approx(stats["cli.main"]["total_s"])


def test_reference_scaling_cancels_host_speed(tmp_path):
    assert run.run_reference(tmp_path, "0", timeout=60) > 0

    quiet = run.REFERENCE_S
    sample = {"wall_s": 1.2, "setup_s": 0.2, "main_s": 0.9, "logical_queries": 9000}
    at_quiet = run.at_reference_speed(sample, quiet, quiet)
    assert at_quiet == pytest.approx({"wall_s": 1.2, "setup_s": 0.2, "queries_per_s": 10_000})

    slower = {k: 2 * v if k.endswith("_s") else v for k, v in sample.items()}
    assert run.at_reference_speed(slower, 2 * quiet, 2 * quiet) == pytest.approx(at_quiet)
