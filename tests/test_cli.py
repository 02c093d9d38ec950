import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entdist.vectors
from entdist.cli import CONFIG_SCHEMA, _check, _clipped, load_vectors_csv, main
from entdist.vectors import RealVector, VectorSet


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_metadata_lines(path) -> dict:
    header = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(": ")
        header[key] = value
    return header


SRC = Path(__file__).resolve().parent.parent / "src"
# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PRINT_THREADS = "print(open('/proc/self/status').read().split('Threads:')[1].split()[0])"


def fresh_python(code: str, cwd, **env) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on src/, with none of BLAS_THREADS set but those given."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          env={**base, "PYTHONPATH": str(SRC), **env}, timeout=60)


class TestEstimate:
    def test_orthogonal_pair(self, capsys):
        code, out, _ = run(capsys, "estimate", "--u", "1,0", "--v", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["distance"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert doc["p_hat"] == pytest.approx(0.5)
        assert doc["metadata"]["generator"] == "numpy-pcg64"

    def test_identical_pair(self, capsys):
        code, out, _ = run(capsys, "estimate", "--u", "1,0", "--v", "1,0")
        doc = json.loads(out)
        assert code == 0 and doc["distance"] == 0.0

    def test_raw_inner_product_reported(self, capsys):
        code, out, _ = run(capsys, "estimate", "--u", "2,0,0,0", "--v", "1,0,0,0")
        doc = json.loads(out)
        assert doc["inner_product_unit"] == pytest.approx(1.0)
        assert doc["inner_product_raw"] == pytest.approx(2.0)

    def test_missing_vector_is_validation_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--u", "1,0")
        assert code == 1 and "error" in err

    def test_zero_vector_is_validation_error(self, capsys):
        code, _, _ = run(capsys, "estimate", "--u", "0,0", "--v", "1,0")
        assert code == 1

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "estimate", "u": [3, 4], "v": [3, 4]}))
        code, out, _ = run(capsys, "estimate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["distance"] == 0.0

    def test_config_task_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "cluster"}))
        code, _, err = run(capsys, "estimate", "--config", str(cfg), "--u", "1,0", "--v", "0,1")
        assert code == 1 and "task" in err

    def test_toml_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text('task = "estimate"\nu = [1.0, 0.0]\nv = [0.0, 1.0]\n')
        code, out, _ = run(capsys, "estimate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(math.sqrt(2))

    def test_sampled_mode_flag(self, capsys):
        code, out, _ = run(capsys, "estimate", "--u", "1,0", "--v", "0,1",
                           "--shots", "100", "--seed", "5")
        doc = json.loads(out)
        assert code == 0 and doc["shots_used"] == 100

    def test_noise_file_gives_the_inline_model_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model = {"state_fidelity": 0.9, "dark_count_fraction": 0.01}
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "c.json").write_text(json.dumps({"noise": model}))
        argv = ["estimate", "--u", "1,2", "--v", "2,1", "--shots", "100"]
        from_file = run(capsys, *argv, "--noise", "model.json", "--out", "a")
        inline = run(capsys, *argv, "--config", "c.json", "--out", "b")
        assert from_file[0] == 0 and '"state_fidelity": 0.9' in from_file[1]
        assert from_file == inline
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_exact_and_shots_conflict(self, capsys):
        code, _, err = run(capsys, "estimate", "--u", "1,0", "--v", "0,1",
                           "--shots", "10", "--exact")
        assert code == 1


class TestTableRepro:
    def test_table1_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "t1"
        code, out, _ = run(capsys, "repro", "table1", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.json").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["rows"]) == 17
        # honest report: four printed theory values do not survive recomputation
        assert summary["mismatched_rows"] == [6, 13, 14, 17]
        assert "rows off the printed two decimals" in out

    def test_table2_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "t2"
        code, _, _ = run(capsys, "repro", "table2", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["rows"]) == 9
        assert summary["mismatched_rows"] == [4]

    def test_metadata_header(self, capsys, tmp_path):
        out_dir = tmp_path / "t1"
        run(capsys, "repro", "table1", "--out", str(out_dir), "--seed", "9")
        header = read_metadata_lines(out_dir / "results.csv")
        assert header["artifact"].startswith("entdist")
        assert header["generator"] == "numpy-pcg64"
        assert header["numpy"] == np.__version__
        assert header["seed"] == "9"
        assert json.loads(header["config"])["task"] == "table1"

    def test_exact_flag_drops_sampled_column(self, capsys, tmp_path):
        out_dir = tmp_path / "t1"
        run(capsys, "repro", "table1", "--out", str(out_dir), "--exact")
        lines = [l for l in (out_dir / "results.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert "sampled_diff" not in lines[0]

    def test_sampled_column_present_by_default(self, capsys, tmp_path):
        out_dir = tmp_path / "t1"
        run(capsys, "repro", "table1", "--out", str(out_dir))
        lines = [l for l in (out_dir / "results.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert "sampled_diff" in lines[0] and "sampled_group" in lines[0]

    def test_missing_out_is_validation_error(self, capsys):
        code, _, err = run(capsys, "repro", "table1")
        assert code == 1 and "--out" in err

    def test_out_collides_with_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        code, _, _ = run(capsys, "repro", "table1", "--out", str(blocker))
        assert code == 2


class TestFig2Repro:
    def test_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "f2"
        code, _, _ = run(capsys, "repro", "fig2", "--out", str(out_dir), "--count", "30")
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["rows"]) == 30
        svg = (out_dir / "plot.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
        assert "<desc>" in svg and '"artifact": "entdist"' in svg

    def test_plot_can_be_disabled(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"emit_plot": False}))
        out_dir = tmp_path / "f2"
        code, _, _ = run(capsys, "repro", "fig2", "--out", str(out_dir),
                         "--config", str(cfg), "--count", "10")
        assert code == 0
        assert not (out_dir / "plot.svg").exists()

    def test_exact_column_matches_euclidean(self, capsys, tmp_path):
        out_dir = tmp_path / "f2"
        run(capsys, "repro", "fig2", "--out", str(out_dir), "--count", "20")
        summary = json.loads((out_dir / "summary.json").read_text())
        a = summary["reference_a"]
        b = summary["reference_b"]
        for row in summary["rows"]:
            want = math.dist([row["x"], row["y"]], a) - math.dist([row["x"], row["y"]], b)
            assert row["exact_diff"] == pytest.approx(want, abs=1e-9)


_4D_TRAINING = [{"label": "x", "vector": [1, 0, 0, 0]}, {"label": "y", "vector": [0, 1, 0, 0]}]


class TestClusterAndNN:
    def test_fig3_round_plots(self, capsys, tmp_path):
        out_dir = tmp_path / "f3"
        code, _, _ = run(capsys, "repro", "fig3", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["iterations"] == 2
        for r in range(summary["iterations"] + 1):
            assert "<line" not in (out_dir / f"round_{r}.svg").read_text()  # no boundary

    def test_figs1_single_flip(self, capsys, tmp_path):
        out_dir = tmp_path / "fs1"
        code, out, _ = run(capsys, "repro", "figS1", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["changed_indices"] == [4]
        for phase in (1, 2):
            assert "<line" in (out_dir / f"phase_{phase}.svg").read_text()  # the boundary
        assert "E" in out

    def test_generic_cluster_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "task": "cluster",
            "vectors": [[1.0, 1.0], [1.1, 1.0], [1.2, 1.0], [5.0, 5.0], [5.1, 5.0]],
            "k": 2,
            "init": [0, 0, 1, 1, 1],
        }))
        out_dir = tmp_path / "cl"
        code, _, _ = run(capsys, "cluster", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged"] is True
        labels = [r["final_label"] for r in summary["rows"]]
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] != labels[0]

    def test_non_convergence_still_exits_zero(self, capsys, tmp_path):
        # one point of each cloud per group: synchronous updates swap forever
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "vectors": [[1.0, 1.0], [1.1, 1.0], [5.0, 5.0], [5.1, 5.0]],
            "k": 2,
            "init": [0, 1, 0, 1],
        }))
        out_dir = tmp_path / "cl"
        code, _, err = run(capsys, "cluster", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged"] is False
        assert "not converged" in err

    def test_generic_nn_two_phase(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "vectors": [[0.6, 0.6], [2.4, 2.4]],
            "training": {
                "initial": [
                    {"label": "blue", "vector": [0.5, 0.5]},
                    {"label": "red", "vector": [2.5, 2.5]},
                ],
                "added": {"label": "blue", "vector": [2.35, 2.35]},
            },
        }))
        out_dir = tmp_path / "nn"
        code, _, _ = run(capsys, "nn", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["rows"][0]["label_before"] == "blue"
        assert summary["rows"][1]["label_before"] == "red"
        assert summary["rows"][1]["label_after"] == "blue"

    @pytest.mark.parametrize("command, added", [("nn", None),
                                                 ("nn", {"label": "blue", "vector": [2.35, 2.35]}),
                                                 ("classify", None)],
                             ids=["one-phase", "two-phase", "classify"])
    def test_nn_checks_its_training_rows_once(self, capsys, tmp_path, monkeypatch, command, added):
        # one norm pass over the training rows (classify: the references), (d, n) as VectorSet
        # passes them, then one over the test vectors; the distance block shares the checked set
        calls, lengths = [], entdist.vectors._lengths
        monkeypatch.setattr(entdist.vectors, "_lengths",
                            lambda x: calls.append(x.shape) or lengths(x))
        initial = [{"label": "blue", "vector": [0.5, 0.5]}, {"label": "red", "vector": [2.5, 2.5]}]
        labelled = ({"references": initial} if command == "classify" else
                    {"training": {"initial": initial, "added": added}})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"vectors": [[0.6, 0.6], [2.4, 2.4], [1.4, 1.6], [3, 1]],
                                   **labelled}))
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0, err
        assert calls == [(2, 3 if added else 2), (2, 4)]

    def test_the_datasets_load_no_procedure(self, tmp_path):
        # the built-in sets are rows and labels: importing them builds no vector, and loads
        # neither the procedures nor the estimator
        code = ("import sys; import entdist.datasets; "
                "print('entdist.ml' in sys.modules, 'entdist.protocol' in sys.modules)")
        result = fresh_python(code, tmp_path)
        assert result.stdout.split() == ["False", "False"], result.stderr

    def test_an_exact_run_never_imports_numpy_random(self, tmp_path):
        # exact mode seeds no stream, and the import would add to every exact run's start-up
        (tmp_path / "c.json").write_text(json.dumps(VALID_RUNS["nn"][0]))
        code = ("import sys; from entdist.cli import main; "
                "print(main(['nn', '--config', 'c.json', '--out', 'o']), 'numpy.random' in sys.modules)")
        result = fresh_python(code, tmp_path)
        assert result.stdout.split()[-2:] == ["0", "False"], result.stderr

    def test_start_up_never_imports_dataclasses(self, tmp_path):
        # the value types generate no code at import: dataclasses cost every process milliseconds
        (tmp_path / "c.json").write_text(json.dumps(VALID_RUNS["nn"][0]))
        code = ("import sys; import entdist; import entdist.cli; "
                "print(entdist.cli.main(['nn', '--config', 'c.json', '--out', 'o']), "
                "'dataclasses' in sys.modules)")
        result = fresh_python(code, tmp_path)
        assert result.stdout.split()[-2:] == ["0", "False"], result.stderr

    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                             ids=["unset", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"])
    def test_start_up_runs_one_blas_thread_unless_the_user_sets_one(self, tmp_path, env):
        # entdist makes no BLAS call, and OpenBLAS's idle worker spins through the start-up of
        # every process; the count is read only while numpy loads, so the CLI sets it just then
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/self/status to read the thread count from")
        bare = fresh_python(f"import numpy; {PRINT_THREADS}", tmp_path, **env)
        if bare.stdout.split() == ["1"]:
            pytest.skip("numpy starts one thread here anyway")
        code = (f"import os; env = dict(os.environ); import entdist.cli; {PRINT_THREADS}; "
                "print(dict(os.environ) == env)")
        result = fresh_python(code, tmp_path, **env)
        assert result.stdout.split() == [bare.stdout.strip() if env else "1", "True"], result.stderr

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    def test_a_start_up_that_loads_numpy_freezes_its_heap(self, tmp_path, enabled):
        # the start-up heap, numpy's mostly, lives until the exit, whose full collections would
        # traverse it again; freezing leaves the collector on or off as it was
        code = (f"import gc; {'' if enabled else 'gc.disable(); '}import entdist.cli; "
                "print(gc.get_freeze_count() > 0, gc.isenabled())")
        result = fresh_python(code, tmp_path)
        assert result.stdout.split() == ["True", str(enabled)], result.stderr

    def test_a_caller_that_loaded_numpy_first_keeps_its_freeze_count(self, tmp_path):
        code = ("import gc, numpy; before = gc.get_freeze_count(); import entdist.cli; "
                "print(gc.get_freeze_count() == before)")
        result = fresh_python(code, tmp_path)
        assert result.stdout.split() == ["True"], result.stderr

    def test_the_package_root_loads_no_numpy(self, tmp_path):
        # so `import entdist.cli` can start numpy itself, and a library caller's process keeps
        # its thread count
        code = ("import os, sys; env = dict(os.environ); import entdist; "
                "print('numpy' in sys.modules, dict(os.environ) == env)")
        result = fresh_python(code, tmp_path)
        assert result.stdout.split() == ["False", "True"], result.stderr

    def test_package_surface(self, tmp_path):
        # the names of `from entdist import *`, bound to their own modules' objects; the modules
        # resolve as attributes right after a bare import, and nothing else does
        code = """if True:
            import sys
            import entdist
            assert entdist.ml is sys.modules["entdist.ml"]
            assert entdist.vectors is sys.modules["entdist.vectors"]
            for name in ("svgplot", "no_such_name"):
                try:
                    getattr(entdist, name)
                    raise SystemExit(f"entdist.{name} resolved")
                except AttributeError:
                    pass
            from entdist import ml, noise, protocol, vectors
            modules = (vectors, noise, protocol, ml)
            public = ["__version__", *vectors.__all__, *noise.__all__, *protocol.__all__,
                      *ml.__all__]
            assert entdist.__all__ == public, entdist.__all__
            star = {}
            exec("from entdist import *", star)
            del star["__builtins__"]
            home = {name: module for module in modules for name in module.__all__}
            assert sorted(star) == sorted(public), sorted(star)
            assert all(star[name] is getattr(home.get(name, entdist), name) for name in public)
            assert set(public) <= set(dir(entdist)), set(public) - set(dir(entdist))
            print("ok")
        """
        result = fresh_python(code, tmp_path)
        assert result.stdout.split() == ["ok"], result.stderr

    def test_classify_with_flags(self, capsys, tmp_path):
        out_dir = tmp_path / "cls"
        code, _, _ = run(capsys, "classify", "--vector", "2,0", "--vector", "0,2",
                         "--ref-a", "1.5,0.55", "--ref-b", "0.86,2.35",
                         "--out", str(out_dir), "--plot")
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [r["assigned"] for r in summary["rows"]] == ["A", "B"]
        assert (out_dir / "plot.svg").exists()

    def test_classify_vectors_from_csv(self, capsys, tmp_path):
        data = tmp_path / "vectors.csv"
        data.write_text("2,0\n0,2\n")
        out_dir = tmp_path / "cls"
        code, _, _ = run(capsys, "classify", "--vectors", str(data),
                         "--ref-a", "1.5,0.55", "--ref-b", "0.86,2.35",
                         "--out", str(out_dir))
        assert code == 0

    @pytest.mark.parametrize("argv, config", [
        (["classify", "--vector", "2,0,0,0", "--ref-a", "1,0,0,0", "--ref-b", "0,0,1,1"], None),
        (["nn"], {"vectors": [[2, 0, 0, 1], [0, 2, 1, 0]],
                  "training": {"initial": _4D_TRAINING}}),
        (["nn"], {"vectors": [[2, 0, 0, 1], [0, 2, 1, 0]],
                  "training": {"initial": _4D_TRAINING,
                               "added": {"label": "x", "vector": [0, 0, 1, 1]}}}),
        (["cluster", "--vector", "2,0,0,1", "--vector", "0,2,1,0"], None),
    ], ids=["classify", "nn-one-phase", "nn-two-phase", "cluster"])
    def test_plot_rejected_for_high_dimensional_data(self, capsys, tmp_path, argv, config):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "c.json")]
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir), "--plot")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "2-D" in err
        assert not out_dir.exists()


# config (written to c.json) and arguments of one run per command; each run
# samples where the command can, so the test covers the sampled streams
DETERMINISM_RUNS = {
    "estimate": (None, ["estimate", "--u", "1,2", "--v", "2,1", "--shots", "100"]),
    "classify": (None, ["classify", "--vector", "2,0", "--vector", "1.2,1.2", "--ref-a", "1.5,0.55",
                        "--ref-b", "0.86,2.35", "--shots", "200", "--plot"]),
    "nn": ({"vectors": [[0.6, 0.6], [2.4, 2.4]],
            "training": {"initial": [{"label": "blue", "vector": [0.5, 0.5]},
                                     {"label": "red", "vector": [2.5, 2.5]}]}},
           ["nn", "--config", "c.json", "--shots", "200", "--plot"]),
    "nn-two-phase": ({"vectors": [[0.6, 0.6], [2.4, 2.4]],
                      "training": {"initial": [{"label": "blue", "vector": [0.5, 0.5]},
                                               {"label": "red", "vector": [2.5, 2.5]}],
                                   "added": {"label": "blue", "vector": [2.35, 2.35]}}},
                     ["nn", "--config", "c.json", "--shots", "200", "--plot"]),
    "cluster": ({"vectors": [[1.0, 1.0], [1.1, 1.0], [1.2, 1.0], [5.0, 5.0], [5.1, 5.0]],
                 "k": 2, "init": 3, "estimator": {"mode": "sampled", "shots": 200}},
                ["cluster", "--config", "c.json", "--plot"]),
    "table1": (None, ["repro", "table1"]),
    "table2": (None, ["repro", "table2"]),
    "fig3": (None, ["repro", "fig3", "--shots", "300"]),
    "figS1": (None, ["repro", "figS1", "--shots", "300"]),
}

def _entries(*vectors, label="x"):
    return [{"label": label, "vector": v} for v in vectors]


NN_64 = _entries(*([math.sin(i), math.cos(i)] for i in range(64)))


# inputs that once ran silently, crashed with a traceback or gave a misleading
# error, and what their one error line must name
BAD_INPUTS = {
    "unknown-key": ({"u": [1, 0], "v": [0, 1], "shot": 5}, ["estimate"], "unknown key 'shot'"),
    "float-shots": ({"u": [1, 0], "v": [0, 1], "estimator": {"shots": 2.5}}, ["estimate"],
                    "config.estimator.shots"),
    "string-estimator": ({"u": [1, 0], "v": [0, 1], "estimator": "x"}, ["estimate"],
                         "config.estimator"),
    "float-k": ({"vectors": [[1, 0], [0, 1], [1, 1]], "k": 2.7}, ["cluster"], "config.k"),
    "bool-config-vector": ({"u": [True, False], "v": [0, 1]}, ["estimate"], "config.u[0]"),
    "bool-vector-file": ({"vectors": "bools.json", "references": [
        {"label": "A", "vector": [1, 0]}, {"label": "B", "vector": [0, 1]}]}, ["classify"],
        "bools.json[0][0] has the wrong type: True"),
    "reference-without-vector": ({"vectors": [[1, 0]], "references": [
        {"label": "A"}, {"label": "B", "vector": [0, 1]}]}, ["classify"], "'vector'"),
    "reference-without-label": ({"vectors": [[1, 0]], "references": [
        {"label": "A", "vector": [1, 0]}, {"vector": [0, 1]}]}, ["classify"], "'label'"),
    "initial-without-label": ({"vectors": [[1, 0]], "training": {"initial": [
        {"vector": [1, 0]}]}}, ["nn"], "'label'"),
    "added-without-vector": ({"vectors": [[1, 0]], "training": {
        "initial": [{"label": "x", "vector": [1, 0]}], "added": {"label": "y"}}}, ["nn"],
        "'vector'"),
    "mixed-init-labels": ({"vectors": [[1, 0], [0, 1], [1, 1]], "k": 2, "init": [0, "a", 0]},
                          ["cluster"], "init labels"),
    "noise-file-naming-a-file": ({"u": [1, 0], "v": [0, 1], "noise": "self.json"}, ["estimate"],
                                 "noise file self.json"),
    "cluster-3d": ({"vectors": [[1, 0, 0], [0, 1, 0], [5, 5, 0]]}, ["cluster"],
                   "dimension 3 is not a power of two"),
    "classify-dimension-mismatch": ({"vectors": [[1, 0]], "references": [
        {"label": "A", "vector": [1, 0, 0, 0]}, {"label": "B", "vector": [0, 0, 1, 1]}]},
        ["classify"], "query vectors differ in dimension: 2 vs 4"),
    "nn-dimension-mismatch": ({"vectors": [[1, 0]], "training": {"initial": [
        {"label": "x", "vector": [1, 0, 0, 0]}]}}, ["nn"],
        "query vectors differ in dimension: 2 vs 4"),
    "fig2-3d": ({"vectors": [[1, 0, 0]]}, ["repro", "fig2"], "3 vs 2"),
    # a vector is refused when it is read, before the kernel checks the noise model
    "bad-vector-before-the-noise-model": ({"vectors": [[1.0, 0.5], [1e308, 1e308]],
                                           "noise": {"state_fidelity": 0.2}}, ["repro", "fig2"],
                                          "config.vectors[1]: vector norm 1.41e+308 exceeds"),
    # a norm above half of float64's largest value would let |u - v| overflow
    "norm-above-half-of-float64": ({"v": [1, 0]}, ["estimate", "--u", "1e308,1e308"],
                                   "config.u: vector norm 1.41e+308 exceeds half of float64's "
                                   "largest value"),
    # an empty set is refused before the run (was an IndexError traceback)
    "fig2-empty-vectors": ({"vectors": []}, ["repro", "fig2"], "config.vectors"),
    # a vector list holds vectors only: the first entry that is not one is named
    "number-then-vector": ({"vectors": [1, [2, 3]]}, ["cluster"], "config.vectors[0]"),
    "vector-then-number": ({"vectors": [[1, 0], 2]}, ["cluster"], "config.vectors[1]"),
    "negative-init-seed": ({"vectors": [[1, 0], [0, 1], [1, 1]], "init": -1}, ["cluster"],
                           "init seed must be a non-negative integer, got -1"),
    # two vector sources: neither is dropped in favour of the other
    "vector-and-vectors": ({"references": [{"label": "A", "vector": [1, 0]},
                                           {"label": "B", "vector": [0, 1]}]},
                           ["classify", "--vector", "1,0", "--vectors", "v.csv"],
                           "choose one of --vector and --vectors"),
    "fig2-count-and-vectors": ({"vectors": [[1, 0], [0, 1]]}, ["repro", "fig2", "--count", "30"],
                               "choose one of 'count' (--count) and 'vectors'"),
    # noise has one home, the top-level key
    "noise-and-estimator-noise": ({"u": [1, 0], "v": [0, 1], "noise": "none",
                                   "estimator": {"noise": "paper-2012-optics"}}, ["estimate"],
                                  "config.estimator: unknown key 'noise'"),
    # an empty cell is not dropped: "1,,0" was read as the vector (1, 0)
    "csv-empty-cell": ({"vectors": "gap.csv"}, ["cluster"],
                       "gap.csv[1]: empty cell before the row's last value"),
    "ref-a-without-ref-b": ({"vectors": [[1, 0]]}, ["classify", "--ref-a", "1,0"],
                            "pass both --ref-a and --ref-b"),
    "classify-one-reference": ({"vectors": [[1, 0]], "references": [
        {"label": "A", "vector": [1, 0]}]}, ["classify"], "classify needs two references"),
    "nn-without-training": ({"vectors": [[1, 0]]}, ["nn"], "'training' section"),
    "nn-empty-training": ({"vectors": [[1, 0]], "training": {"initial": []}}, ["nn"],
                          "training set must be non-empty"),
    # training takes one form, the object
    "training-list": ({"vectors": [[1, 0]], "training": [{"label": "x", "vector": [1, 0]}]},
                      ["nn"], "config.training has the wrong type"),
    "empty-vector-argument": ({"v": [1, 0]}, ["estimate", "--u", ","],
                              "config.u: empty vector argument ','"),
    # an empty cell is not dropped: "1,,0" was read as the vector (1, 0)
    "empty-cell-in-a-vector-flag": ({"v": [1, 0]}, ["estimate", "--u", "1, ,0"],
                                    "config.u[1] is an empty cell"),
    # usage errors are one line too, not argparse's usage block
    "shots-not-an-integer": ({"u": [1, 0], "v": [0, 1]}, ["estimate", "--shots", "abc"],
                             "error: argument --shots: invalid int value: 'abc'"),
    "unknown-command": ({}, ["frobnicate"],
                        "error: argument command: invalid choice: 'frobnicate'"),
    # a token that is no number is named by the config key its flag sets
    "non-numeric-u-flag": ({"v": [1, 0]}, ["estimate", "--u", "1,x"],
                           "config.u[1] is not a number: 'x'"),
    "non-numeric-vector-flag": ({}, ["cluster", "--vector", "1,0", "--vector", "2 q"],
                                "config.vectors[1][1] is not a number: 'q'"),
    "non-numeric-ref-b-flag": ({"vectors": [[1, 0]]}, ["classify", "--ref-a", "1,0",
                                                       "--ref-b", "0,y"],
                               "config.references[1].vector[1] is not a number: 'y'"),
    "csv-text-row": ({"vectors": "text.csv"}, ["cluster"],
                     "text.csv[1]: non-numeric row ['2', 'zz']"),
    "no-vectors": ({}, ["cluster"], "no vectors"),
    # numpy's binomial takes shots as a C long
    "shots-2-63": ({"u": [1, 0], "v": [0, 1]}, ["estimate", "--shots", str(2**63)],
                   "sampled mode needs shots < 2**63"),
    # numpy cannot allocate the test vectors
    "fig2-count-beyond-memory": ({}, ["repro", "fig2", "--count", str(10**15)],
                                 "Unable to allocate"),
    # an integer component beyond float64 (was an OverflowError traceback)
    "int-beyond-float64": ({"u": [10**400, 0], "v": [0, 1]}, ["estimate"],
                           "config.u[0] is an integer beyond float64's range"),
    "int-beyond-float64-in-a-file": ({"vectors": "big.json"}, ["cluster"],
                                     "big.json[0][0] is an integer beyond float64's range"),
    # a vectors file follows the rule for config.vectors
    "flat-vector-file": ({"vectors": "flat.json"}, ["cluster"], "flat.json[0] has the wrong type"),
    "empty-vector-file": ({"vectors": "empty.json"}, ["cluster"],
                          "empty.json: expected at least one vector"),
    # a file that does not parse is named
    "vector-file-does-not-parse": ({"vectors": "broken.json"}, ["cluster"],
                                   "broken.json: Expecting ',' delimiter"),
    "noise-file-does-not-parse": ({"u": [1, 0], "v": [0, 1], "noise": "broken.json"},
                                  ["estimate"], "broken.json: Expecting ',' delimiter"),
    "csv-without-rows": ({}, ["cluster", "--vectors", "header.csv"],
                         "header.csv: no vector rows found"),
    # a bad vector is named by its source and index
    "non-finite-row-in-a-file": ({"vectors": "inf.json"}, ["cluster"],
                                 "inf.json[0]: vector components must be finite"),
    "zero-row-in-a-csv": ({}, ["cluster", "--vectors", "zero.csv"],
                          "zero.csv[1]: the zero vector has no normalized quantum state"),
    "zero-row-in-the-config": ({"vectors": [[1, 0], [0, 1], [0, 0]]}, ["cluster"],
                               "config.vectors[2]: the zero vector"),
    # so is a single vector, by its config key; a flag reads as the key it sets
    "zero-u-flag": ({"v": [0, 1]}, ["estimate", "--u", "0,0"],
                    "config.u: the zero vector has no normalized quantum state"),
    "non-finite-u-flag": ({"v": [0, 1]}, ["estimate", "--u", "nan,1"],
                          "config.u: vector components must be finite"),
    "zero-v-in-the-config": ({"u": [1, 0], "v": [0, 0]}, ["estimate"], "config.v: the zero vector"),
    "zero-ref-a-flag": ({"vectors": [[1, 0]]}, ["classify", "--ref-a", "0,0", "--ref-b", "0,1"],
                        "config.references[0].vector: the zero vector"),
    "non-finite-reference": ({"vectors": [[1, 0]], "references": [
        {"label": "A", "vector": [1, 0]}, {"label": "B", "vector": [math.inf, 1]}]}, ["classify"],
        "config.references[1].vector: vector components must be finite"),
    "zero-training-entry": ({"vectors": [[1, 0]], "training": {"initial": [
        {"label": "x", "vector": [1, 0]}, {"label": "y", "vector": [0, 0]}]}}, ["nn"],
        "config.training.initial[1].vector: the zero vector"),
    "zero-added-vector": ({"vectors": [[1, 0]], "training": {
        "initial": [{"label": "x", "vector": [1, 0]}], "added": {"label": "y", "vector": [0, 0]}}},
        ["nn"], "config.training.added.vector: the zero vector"),
    # the nn training set is checked as one block: the whole message of a bad entry,
    # named before the vectors are read, and of several dimensions, named after them
    "nn-zero-entry": ({"vectors": [[1, 0]], "training": {"initial": _entries([1, 0], [0, 0])}},
                      ["nn"], "error: config.training.initial[1].vector: the zero vector has no "
                      "normalized quantum state\n"),
    "nn-non-finite-entry-37-of-64": ({"vectors": [[1, 0]], "training": {"initial": [
        *NN_64[:37], *_entries([math.inf, 0]), *NN_64[38:]]}}, ["nn"],
        "error: config.training.initial[37].vector: vector components must be finite\n"),
    "nn-empty-entry": ({"vectors": [[1, 0]], "training": {"initial": _entries([1, 0], [])}},
                       ["nn"], "error: config.training.initial[1].vector: expected a non-empty "
                       "1-D sequence of reals\n"),
    "nn-3d-entry": ({"vectors": [[1, 0]], "training": {"initial": _entries([1, 0], [1, 0, 0])}},
                    ["nn"], "error: vectors differ in dimension: [2, 3]\n"),
    "nn-3d-training": ({"vectors": [[1, 0]], "training": {"initial": _entries([1, 0, 0],
                                                                                [0, 1, 0])}},
                       ["nn"], "error: query vectors differ in dimension: 2 vs 3\n"),
    "nn-3d-entry-bad-vectors-file": ({"vectors": "zero.csv", "training": {
        "initial": _entries([1, 0], [1, 0, 0])}}, ["nn"],
        "error: zero.csv[1]: the zero vector has no normalized quantum state\n"),
    "nn-bad-entry-before-3d-entry": ({"vectors": "zero.csv", "training": {
        "initial": _entries([1, 0, 0], [1, 0], [math.nan, 0])}}, ["nn"],
        "error: config.training.initial[2].vector: vector components must be finite\n"),
    "nn-non-finite-added": ({"vectors": [[1, 0]], "training": {
        "initial": _entries([1, 0]), "added": _entries([math.nan, 1])[0]}}, ["nn"],
        "error: config.training.added.vector: vector components must be finite\n"),
    "nn-zero-added-after-64": ({"vectors": [[1, 0]], "training": {
        "initial": NN_64, "added": _entries([0, 0])[0]}}, ["nn"],
        "error: config.training.added.vector: the zero vector has no normalized quantum state\n"),
    "nn-bad-entry-before-bad-added": ({"vectors": [[1, 0]], "training": {
        "initial": _entries([1, 0], [0, 0]), "added": _entries([math.nan, 1])[0]}}, ["nn"],
        "error: config.training.initial[1].vector: the zero vector has no normalized quantum "
        "state\n"),
    "nn-4d-added": ({"vectors": [[1, 0]], "training": {
        "initial": _entries([1, 0], [0, 1, 0]), "added": _entries([1, 0, 0, 0])[0]}}, ["nn"],
        "error: vectors differ in dimension: [2, 3, 4]\n"),
}


# inputs once refused because a squared norm, or the sum of two, left float64's
# range: each pair is now evaluated scaled by a power of two
FLOAT_RANGE_RUNS = {
    "tiny-norm": ({"u": [1e-200, 0], "v": [1, 0]}, ["estimate"]),
    "tiny-norms": ({"u": [1e-200, 0], "v": [0, 1e-200]}, ["estimate"]),
    "huge-norm": ({"u": [1e200, 0], "v": [1, 0]}, ["estimate"]),
    "cluster-tiny-norm": ({"vectors": [[1e-200, 0], [0, 1], [1, 1]]}, ["cluster"]),
    "norm-sum-overflow": ({"u": [1e154, 0], "v": [0, 1e154]}, ["estimate"]),
}


class TestFloatRange:
    @pytest.mark.parametrize("config, argv", FLOAT_RANGE_RUNS.values(),
                             ids=FLOAT_RANGE_RUNS.keys())
    @pytest.mark.filterwarnings("error")
    def test_former_range_error_runs(self, capsys, tmp_path, monkeypatch, config, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", "c.json", "--out", "out")
        assert code == 0 and err == "", err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        if "u" in config:  # the reference: math.hypot of u - v, which never overflows
            assert json.loads(out)["distance"] == summary["distance"] == pytest.approx(
                math.hypot(*np.subtract(config["u"], config["v"])), rel=1e-15)
        else:
            assert summary["converged"]


class TestErrorContract:
    @pytest.mark.parametrize("config, argv, names", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_is_one_error_line(self, capsys, tmp_path, monkeypatch, config, argv, names):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bools.json").write_text("[[true, false], [0, 1]]")
        (tmp_path / "self.json").write_text('"self.json"')
        (tmp_path / "v.csv").write_text("0,1\n")
        (tmp_path / "header.csv").write_text("# comments and a header only\nx,y\n")
        (tmp_path / "big.json").write_text(json.dumps([[10**400, 0]]))
        (tmp_path / "flat.json").write_text("[1, 0]")
        (tmp_path / "empty.json").write_text("[]")
        (tmp_path / "broken.json").write_text('[[1, 0]\n[0, 1]]')
        (tmp_path / "inf.json").write_text("[[1e400, 0], [0, 1]]")  # JSON reads 1e400 as inf
        (tmp_path / "zero.csv").write_text("1,0\n0,0\n")
        (tmp_path / "gap.csv").write_text("1,0,\n1,,0\n")  # a trailing comma, then a gap
        (tmp_path / "text.csv").write_text("1,0\n2,zz\n")
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, out, err = run(capsys, *argv, "--config", "c.json", "--out", "out")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err and names in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--vector", "2,0,0,0", "--ref-a", "1,0,0,0", "--ref-b", "0,0,1,1", "--plot"],
        ["cluster", "--vector", "1,0", "--vector", "0,1", "--k", "5"],
        ["cluster", "--vector", "1,0,0,0", "--vector", "0,1,0,0", "--plot"],
    ], ids=["classify-plot-4d", "cluster-k-too-large", "cluster-plot-4d"])
    def test_failing_run_leaves_no_output(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1 and err.startswith("error:")
        assert not out_dir.exists()

    @pytest.mark.parametrize("error, code", [(OSError("No space left on device"), 2),
                                             (MemoryError("out of memory"), 1)],
                             ids=["os-error", "memory-error"])
    def test_a_stream_that_raises_after_its_first_chunk_leaves_no_file(
            self, capsys, tmp_path, monkeypatch, error, code):
        import entdist.cli

        def failing_after_first(write):
            calls = []

            def written(*args):
                calls.append(None)
                if len(calls) > 1:
                    raise error
                return write(*args)
            return written

        class Lines(list):  # an SVG whose second block of lines raises
            def __getitem__(self, index):
                if isinstance(index, slice) and index.start:
                    raise error
                return super().__getitem__(index)

        monkeypatch.setattr(entdist.cli, "_BLOCK_CELLS", 10)  # fig2's 10 columns: a row a block
        monkeypatch.setattr(entdist.cli, "_json_parts",
                            failing_after_first(entdist.cli._json_parts))
        out_dir = tmp_path / "out"
        got = run(capsys, "repro", "fig2", "--count", "5", "--out", str(out_dir))
        assert got == (code, "", f"error: {error}\n")
        assert out_dir.is_dir() and not list(out_dir.iterdir())

        monkeypatch.undo()
        monkeypatch.setattr(entdist.cli, "_BLOCK_CELLS", 10)
        render = entdist.cli.polar_scatter_svg
        monkeypatch.setattr(entdist.cli, "polar_scatter_svg", lambda *a: Lines(render(*a)))
        got = run(capsys, "repro", "fig2", "--count", "5", "--out", str(out_dir))
        assert got == (code, "", f"error: {error}\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["results.csv", "summary.json"]

    @pytest.mark.parametrize("value, shown", [
        (True, "True"),
        # 40 entries: the first 60 characters are shown
        ([{"label": str(i), "vector": [1, 0]} for i in range(40)],
         "[{'label': '0', 'vector': [1, 0]}, {'label': '1', 'vector': ..."),
    ], ids=["short", "long"])
    def test_wrong_typed_value_is_shown_clipped(self, capsys, tmp_path, value, shown):
        (tmp_path / "c.json").write_text(json.dumps({"vectors": [[1, 0]], "training": value}))
        code, _, err = run(capsys, "nn", "--config", str(tmp_path / "c.json"), "--out", "out")
        assert code == 1 and err == f"error: config.training has the wrong type: {shown}\n"

    @pytest.mark.parametrize("argv, shown", [
        (["estimate", "--v", "1,0", "--u", "1," + "x" * 500],
         "config.u[1] is not a number: '" + "x" * 59 + "..."),
        (["estimate", "--v", "1,0", "--u", "," * 500],
         "config.u: empty vector argument '" + "," * 59 + "..."),
        (["cluster", "--vectors", "long.csv"],
         "long.csv[1]: non-numeric row " + repr(["zz"] * 5000)[:60] + "..."),
    ], ids=["long-token", "long-empty-flag", "long-csv-row"])
    def test_repeated_input_text_is_clipped(self, capsys, tmp_path, monkeypatch, argv, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "long.csv").write_text("1,0\n" + ",".join(["zz"] * 5000) + "\n")
        code, _, err = run(capsys, *argv, "--out", "out")
        assert code == 1 and err == f"error: {shown}\n"

    def test_estimate_prints_no_result_when_out_fails(self, capsys, tmp_path):
        (tmp_path / "blocker").write_text("x")
        code, out, err = run(capsys, "estimate", "--u", "1,0", "--v", "0,1",
                             "--out", str(tmp_path / "blocker"))
        assert code == 2 and out == "" and err.count("\n") == 1

    @pytest.mark.parametrize("name, text", [
        ("c.json", '{"u": [1, 0]\n"v": [0, 1]}'),
        ("c.toml", "u = [1, 0\nv = [0, 1]\n"),
    ], ids=["json", "toml"])
    def test_config_that_does_not_parse_is_named(self, capsys, tmp_path, name, text):
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "estimate", "--config", str(tmp_path / name))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {tmp_path / name}: ") and err.count("\n") == 1, err


# one valid config (and command) per command; the generated-config property
# swaps one of its fields, or one of EXTRA_FIELDS, for a drawn value
VALID_RUNS = {
    "estimate": ({"u": [1, 2], "v": [2, 1], "estimator": {"mode": "sampled", "shots": 20}},
                 ["estimate"]),
    "classify": ({"vectors": [[2, 0], [0, 2], [1, 1]],
                  "references": [{"label": "A", "vector": [1, 0]},
                                 {"label": "B", "vector": [0, 1]}]}, ["classify"]),
    "nn": ({"vectors": [[0.6, 0.6], [2.4, 2.4]],
            "training": {"initial": [{"label": "blue", "vector": [0.5, 0.5]},
                                     {"label": "red", "vector": [2.5, 2.5]}],
                         "added": {"label": "blue", "vector": [2.35, 2.35]}}}, ["nn"]),
    "cluster": ({"vectors": [[1, 1], [1.1, 1], [5, 5], [5.1, 5]], "k": 2, "init": 3,
                 "max_iterations": 5}, ["cluster"]),
    "table1": ({"estimator": {"shots": 20, "seed": 3}, "noise": "paper-2012-optics"},
               ["repro", "table1"]),
    "fig2": ({"count": 5, "estimator": {"shots": 20}, "emit_plot": False}, ["repro", "fig2"]),
    "fig3": ({"max_iterations": 5, "emit_plot": False}, ["repro", "fig3"]),
    "figS1": ({"estimator": {"mode": "exact"}, "emit_plot": False}, ["repro", "figS1"]),
}
EXTRA_FIELDS = ("noise", "task", "estimator.mode", "estimator.shots", "estimator.seed")
FIELDS = [(name, key) for name, (config, _) in VALID_RUNS.items()
          for key in dict.fromkeys([*config, *EXTRA_FIELDS])]

# counts stay at 50 or less but for the sentinels, lists at 8 entries or less
_INTEGERS = st.one_of(st.integers(-2, 50), st.sampled_from([2**63, 10**15, 10**400]))
_FLOATS = st.one_of(st.floats(), st.sampled_from([1e154, math.nan]))
_STRINGS = st.one_of(st.text(alphabet="ab,.- 01\n", max_size=6),
                     st.sampled_from(["none", "exact", "sampled", "paper-2012-optics"]))
_SCALARS = st.one_of(_INTEGERS, _FLOATS, _STRINGS, st.booleans(), st.none())
_VALUES = st.one_of(_INTEGERS, _FLOATS, _STRINGS, st.booleans(), st.none(),
                    st.lists(_SCALARS, max_size=8),
                    st.lists(st.lists(st.one_of(_INTEGERS, _FLOATS), min_size=1, max_size=4),
                             max_size=8))


# nested entries, as dotted paths with list indices
NESTED_FIELDS = [
    ("estimate", "u.0"), ("estimate", "v.1"),
    ("classify", "vectors.2"), ("classify", "vectors.2.0"), ("classify", "references.0.vector"),
    ("classify", "references.1.label"), ("classify", "references.1.vector.1"),
    ("nn", "vectors.1.0"), ("nn", "training.initial.0.vector"), ("nn", "training.initial.1.label"),
    ("nn", "training.initial.0"), ("nn", "training.added"), ("nn", "training.added.vector"),
    ("nn", "training.added.label"), ("cluster", "vectors.2.0"), ("cluster", "vectors.3"),
]


def _replaced(config: dict, path: str, value) -> dict:
    """A copy of config with the entry at a dotted path set to value; a
    missing mapping on the way is created."""
    config = copy.deepcopy(config)
    *outer, last = path.split(".")
    node = config
    for part in outer:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[int(last) if isinstance(node, list) else last] = value
    return config


def _keeps_the_error_contract(name: str, path: str | None, value) -> None:
    """Run name's valid config with the entry at path set to value; with no
    path, value is the content of a JSON vectors file passed with --vectors."""
    config, argv = VALID_RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        if path is None:
            (Path(tmp) / "v.json").write_text(json.dumps(value))
            argv = [*argv, "--vectors", f"{tmp}/v.json"]
        else:
            config = _replaced(config, path, value)
        (Path(tmp) / "c.json").write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", f"{tmp}/c.json", "--out", f"{tmp}/out"])
        assert code in (0, 1, 2)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
            assert not (Path(tmp) / "out").exists()


class TestGeneratedConfigs:
    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(FIELDS), value=_VALUES)
    # the inputs that once ended in a traceback or a numpy warning
    @example(field=("estimate", "estimator.shots"), value=2**63)
    @example(field=("fig2", "count"), value=10**15)
    @example(field=("cluster", "vectors"), value=[[1e154, 0.0], [0.0, 1e154]])
    @example(field=("cluster", "vectors"), value=[[10**400, 0]])
    def test_one_field_swapped_keeps_the_error_contract(self, field, value):
        _keeps_the_error_contract(*field, value)

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(NESTED_FIELDS), value=_VALUES)
    @example(field=("nn", "training.added.vector"), value=[10**400, 0])
    def test_one_nested_field_swapped_keeps_the_error_contract(self, field, value):
        _keeps_the_error_contract(*field, value)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["classify", "nn", "cluster"]), value=_VALUES)
    @example(name="cluster", value=[[10**400, 0]])
    @example(name="cluster", value=[[True, 0]])
    def test_vectors_file_keeps_the_error_contract(self, name, value):
        _keeps_the_error_contract(name, None, value)


class TestInputFiles:
    @pytest.mark.parametrize("name, text", [
        ("c.json", '{"u": [1, 0], "v": [0, 1]}'),
        ("c.toml", "u = [1, 0]\nv = [0, 1]\n"),
    ], ids=["json", "toml"])
    def test_config_with_a_byte_order_mark_runs(self, capsys, tmp_path, name, text):
        (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--config", str(tmp_path / name))
        assert code == 0, err
        assert json.loads(out)["distance"] == pytest.approx(math.sqrt(2))

    def test_ampersand_in_a_label_keeps_every_svg_well_formed(self, capsys, tmp_path):
        config = copy.deepcopy(VALID_RUNS["nn"][0])
        config["training"]["initial"][0]["label"] = "a&b <c>"
        (tmp_path / "c.json").write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "nn", "--config", str(tmp_path / "c.json"),
                           "--out", str(out_dir), "--plot")
        assert code == 0, err
        embedded = json.loads((out_dir / "summary.json").read_text())["metadata"]
        svgs = sorted(out_dir.glob("*.svg"))
        assert [p.name for p in svgs] == ["phase_1.svg", "phase_2.svg"]
        for svg in svgs:
            desc = ElementTree.parse(svg).getroot().find("{http://www.w3.org/2000/svg}desc")
            assert json.loads(desc.text) == embedded


class TestConfigPaths:
    @pytest.fixture
    def tree(self, tmp_path, monkeypatch):
        """cfg/ holds a config and the files it names; the working directory
        holds other files of the same names."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        for where, vectors, fidelity in ((tmp_path / "cfg", "1,1\n1.1,1\n5,5\n5.1,5\n", 0.8),
                                         (tmp_path, "1,1\n5,5\n5.1,5\n", 0.9)):
            (where / "v.csv").write_text(vectors)
            (where / "n.json").write_text(json.dumps({"state_fidelity": fidelity}))
        return tmp_path

    def embedded(self, capsys, *argv) -> dict:
        code, _, err = run(capsys, "cluster", *argv, "--out", "out")
        assert code == 0, err
        return json.loads(Path("out/summary.json").read_text())["metadata"]["config"]

    def test_files_in_a_config_lie_beside_it(self, capsys, tree):
        (tree / "cfg" / "c.json").write_text(json.dumps({"vectors": "v.csv", "noise": "n.json"}))
        config = self.embedded(capsys, "--config", "cfg/c.json")
        assert config["n_vectors"] == 4 and config["noise"]["state_fidelity"] == 0.8

    def test_flags_absolute_paths_and_presets_are_kept(self, capsys, tree):
        (tree / "cfg" / "c.json").write_text(json.dumps({"vectors": str(tree / "v.csv"),
                                                         "noise": "paper-2012-optics"}))
        config = self.embedded(capsys, "--config", "cfg/c.json")
        assert config["n_vectors"] == 3 and config["noise"]["dark_count_fraction"] == 0.02
        config = self.embedded(capsys, "--config", "cfg/c.json", "--vectors", "v.csv",
                               "--noise", "n.json")
        assert config["n_vectors"] == 3 and config["noise"]["state_fidelity"] == 0.9


# five 2-D vectors and the labelled sets of the row-prefix runs: (command, labelled set)
_PREFIX_VECTORS = [[0.6, 0.6], [2.4, 2.4], [1.4, 1.6], [3.0, 1.0], [0.2, 2.1]]
_PREFIX_TRAINING = [{"label": "blue", "vector": [0.5, 0.5]}, {"label": "red", "vector": [2.5, 2.5]}]
_PREFIX_COMMANDS = {
    "classify": (["classify"], {"references": [{"label": "A", "vector": [1.5, 0.55]},
                                               {"label": "B", "vector": [0.86, 2.35]}]}),
    "nn-one-phase": (["nn"], {"training": {"initial": _PREFIX_TRAINING}}),
    "nn-two-phase": (["nn"], {"training": {"initial": _PREFIX_TRAINING,
                                           "added": {"label": "blue", "vector": [2.35, 2.35]}}}),
    "fig2": (["repro", "fig2"], {}),
}
_PREFIX_RUNS = {f"{name}-{mode}": (argv, labelled, flags)
                for name, (argv, labelled) in _PREFIX_COMMANDS.items()
                for mode, flags in (("exact", ["--exact"]),
                                    ("sampled", ["--shots", "400", "--seed", "7"]),
                                    ("default", []))
                if mode != "default" or name == "fig2"}


class TestDeterminism:
    @pytest.mark.parametrize("argv, labelled, flags", _PREFIX_RUNS.values(),
                             ids=_PREFIX_RUNS.keys())
    def test_the_first_k_vectors_write_the_first_k_rows(self, capsys, tmp_path, argv, labelled,
                                                         flags):
        # a row of a block does not depend on the rows after it, through every writer
        def written(n):
            config, out_dir = tmp_path / f"c{n}.json", tmp_path / f"out{n}"
            config.write_text(json.dumps({"vectors": _PREFIX_VECTORS[:n], **labelled}))
            code, _, err = run(capsys, *argv, "--config", str(config), *flags,
                               "--out", str(out_dir))
            assert code == 0, err
            table = [line for line in (out_dir / "results.csv").read_text().splitlines()
                     if not line.startswith("# ")]
            return table, json.loads((out_dir / "summary.json").read_text())["rows"]

        (header, *rows), summary_rows = written(5)
        assert len(rows) == len(summary_rows) == 5
        for k in (1, 3):
            assert written(k) == ([header, *rows[:k]], summary_rows[:k])

    @pytest.mark.parametrize("config, argv", DETERMINISM_RUNS.values(),
                             ids=DETERMINISM_RUNS.keys())
    def test_every_command_byte_identical(self, capsys, tmp_path, monkeypatch, config, argv):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
        outputs = []
        for out_dir in ("a", "b"):
            code, out, err = run(capsys, *argv, "--out", out_dir)
            assert code == 0, err
            files = {p.name: p.read_bytes() for p in sorted((tmp_path / out_dir).iterdir())}
            outputs.append((out, files))
        assert "summary.json" in outputs[0][1]
        assert outputs[0] == outputs[1]

    @staticmethod
    def nn_and_cluster_files(tmp_path, start: str, **env) -> dict:
        """The files of an exact nn and a sampled cluster, each run in a fresh interpreter
        that runs start before it imports the CLI."""
        runs = {"nn": (VALID_RUNS["nn"][0], ["nn", "--config", "c.json", "--exact"]),
                "cluster": DETERMINISM_RUNS["cluster"]}
        work, files = Path(tempfile.mkdtemp(dir=tmp_path)), {}
        for name, (config, argv) in runs.items():
            (work / "c.json").write_text(json.dumps(config))
            code = f"{start}; from entdist.cli import main; print(main({[*argv, '--out', name]}))"
            result = fresh_python(code, work, **env)
            assert result.stdout.split()[-1:] == ["0"], result.stderr
            files.update({f"{name}/{p.name}": p.read_bytes()
                          for p in sorted((work / name).iterdir())})
        assert {"nn/summary.json", "cluster/summary.json"} <= set(files)
        return files

    def test_bytes_do_not_follow_the_blas_thread_count(self, tmp_path):
        # no BLAS routine is on any path, so a user's thread count moves no byte
        assert (self.nn_and_cluster_files(tmp_path, "pass")
                == self.nn_and_cluster_files(tmp_path, "pass", OPENBLAS_NUM_THREADS="2"))

    def test_bytes_do_not_follow_the_start_up_order(self, tmp_path):
        # the CLI freezes its start-up heap and pins one BLAS thread only where it loads numpy
        assert (self.nn_and_cluster_files(tmp_path, "pass")
                == self.nn_and_cluster_files(tmp_path, "import numpy"))

    def test_fig2_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run(capsys, "repro", "fig2", "--out", str(first), "--seed", "3", "--count", "25")
        run(capsys, "repro", "fig2", "--out", str(second), "--seed", "3", "--count", "25")
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
        assert (first / "plot.svg").read_bytes() == (second / "plot.svg").read_bytes()

    def test_different_seed_changes_fig2(self, capsys, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run(capsys, "repro", "fig2", "--out", str(first), "--seed", "3", "--count", "25")
        run(capsys, "repro", "fig2", "--out", str(second), "--seed", "4", "--count", "25")
        assert (first / "results.csv").read_bytes() != (second / "results.csv").read_bytes()


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_version_exits_zero(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0 and out.startswith("entdist ") and err == ""

    @pytest.mark.parametrize("text", ["1,0", "1, 0", "1 0", " 1,\t0 ", "1,0,", "1,0 , "])
    def test_vector_flag_separators(self, capsys, text):
        code, out, err = run(capsys, "estimate", "--u", text, "--v", "0,1")
        assert code == 0, err
        assert json.loads(out)["u"] == [1.0, 0.0]

    @pytest.mark.parametrize("text, want", [("-1,0", [-1.0, 0.0]), ("-1.5,2", [-1.5, 2.0]),
                                            ("-1e3,0", [-1000.0, 0.0]), ("-.5,1", [-0.5, 1.0])])
    def test_vector_flag_may_start_with_a_minus_sign(self, capsys, text, want):
        code, out, err = run(capsys, "estimate", "--u", text, "--v", "1,0")
        assert code == 0, err
        assert json.loads(out)["u"] == want

    def test_negative_first_components_estimate_and_classify(self, capsys, tmp_path):
        code, out, err = run(capsys, "estimate", "--u", "-1,0", "--v", "1,0")
        assert code == 0, err
        assert json.loads(out)["distance"] == 2.0
        code, _, err = run(capsys, "classify", "--vector", "-1,-1", "--ref-a", "-1,0",
                           "--ref-b", "1,0", "--out", str(tmp_path / "out"))
        assert code == 0, err
        assert (tmp_path / "out" / "results.csv").read_text().splitlines()[-1].split(",")[-2] == "A"

    def test_negative_seed_is_still_read_as_a_value(self, capsys):
        code, _, err = run(capsys, "estimate", "--u", "1,0", "--v", "0,1", "--seed", "-1")
        assert (code, err) == (1, "error: seed must be an unsigned 64-bit integer\n")

    def test_a_minus_sign_before_a_letter_is_still_an_option(self, capsys):
        code, _, err = run(capsys, "estimate", "--u", "-x", "--v", "1,0")
        assert code == 1
        assert err == "error: argument --u: expected one argument\n"

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_repro_target_exits_one(self, capsys):
        assert main(["repro", "fig9"]) == 1

    def test_unknown_noise_preset(self, capsys, tmp_path):
        code, _, err = run(capsys, "repro", "table1", "--out", str(tmp_path / "x"),
                           "--noise", "bogus")
        assert code == 1 and "noise" in err


def _csv_reference(path):
    """The per-cell CSV loop: every cell stripped, trailing empty cells and
    comment rows dropped, each cell read by float(); then each row checked as
    a vector, a bad one named by its place in the file, and the rows as a set."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            cells = [c.strip() for c in row]
            while cells and not cells[-1]:
                cells.pop()
            if not cells or cells[0].startswith("#"):
                continue
            try:
                vector = [float(c) for c in cells if c]
            except ValueError:
                if rows:
                    raise ValueError(f"{path}[{len(rows)}]: non-numeric row "
                                     f"{_clipped(cells)}") from None
                continue
            if len(vector) < len(cells):
                raise ValueError(f"{path}[{len(rows)}]: empty cell before the row's last value")
            rows.append(vector)
    if not rows:
        raise ValueError(f"{path}: no vector rows found")
    for i, row in enumerate(rows):
        try:
            RealVector(row)
        except ValueError as exc:
            raise ValueError(f"{path}[{i}]: {exc}") from None
    return VectorSet(rows)


def _outcome(load, path):
    """The rows a loader read, or its error message."""
    try:
        return load(path).components.tolist()
    except ValueError as exc:
        return str(exc)


CSV_TEXTS = {
    "padded cells": " 1.5 , 2 \n3 ,  4\n",
    "tab-padded cells": "\t1\t,\t2\n3,\t4\t\n",
    "a tab between numbers": "1\t2\n3,4\n",
    "a quoted number": '"1.5",2\n3,"4"\n',
    "trailing empty cells": "1,2,,\n3,4,\n",
    "comments before and after": "# a\n#b,c\n1,2\n# between\n3,4\n# end\n",
    "a header": "x,y\n1,2\n3,4\n",
    "an empty cell": "1,0\n1,,0\n",
    "a whitespace-only cell": "1,0\n1, ,0\n",
    "a trailing whitespace-only cell": "1,0, \n1,0,\t\n",
    "blank lines": "\n1,2\n\n3,4\n\n",
    "a separator str.strip strips": "\x1c1,2\n3,4\x1f\n",
    "late text": "1,0\n2,zz\n",
    "no rows": "x,y\n# nothing\n",
    "rows of two lengths": "1,2\n3,4,5\n",
}


class TestReaders:
    @pytest.mark.parametrize("text", CSV_TEXTS.values(), ids=CSV_TEXTS)
    def test_load_vectors_csv_is_the_per_cell_loop(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_vectors_csv, path) == _outcome(_csv_reference, path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["1", " 2.5", "\t-3\t", '"4"', "1e3", "", " ",
                                              "#x", "x", "nan", "0"]),
                             max_size=4), max_size=5))
    def test_generated_csv_files_read_as_the_per_cell_loop(self, rows):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "v.csv"
            path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
            assert _outcome(load_vectors_csv, path) == _outcome(_csv_reference, path)

    @pytest.mark.parametrize("config, message", [
        ({"u": [0.5, True]}, "config.u[1] has the wrong type: True"),
        ({"u": [0.5, 1.5, 10**400]}, "config.u[2] is an integer beyond float64's range"),
        ({"u": [0.5, -10**400, 1.0]}, "config.u[1] is an integer beyond float64's range"),
        ({"u": [0.5, [1.0]]}, "config.u[1] has the wrong type: [1.0]"),
        ({"vectors": [[1.0, 2.0], [3.0, None]]}, "config.vectors[1][1] has the wrong type: None"),
        ({"training": {"initial": [{"label": "a", "vector": [1.0, "2"]}]}},
         "config.training.initial[0].vector[1] has the wrong type: '2'"),
    ])
    def test_check_names_the_bad_item_of_a_float_list(self, config, message):
        with pytest.raises(ValueError) as info:
            _check(config, CONFIG_SCHEMA, "config")
        assert str(info.value) == message

    @pytest.mark.parametrize("config", [
        {"u": [0.5, -0.0, 1e308], "v": [1, 2]}, {"u": [], "vectors": [[1.0], [2, 3.5], []]},
    ])
    def test_check_accepts_floats_and_integers(self, config):
        _check(config, CONFIG_SCHEMA, "config")
