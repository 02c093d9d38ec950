"""Command-line front end.

Commands: estimate, classify, nn, cluster, and repro <fig2|table1|table2|
fig3|figS1>.  Experiments are described by a JSON (optionally TOML) config
file; flags override config fields.  Every output file embeds the resolved
config, seed, generator name, numpy version and artifact version, so
identical runs are byte-identical.

Each command turns the checked config into a ``Run``; ``_write`` alone
creates the output directory, writes files and prints results, once every
check has passed, so a failing run writes nothing.

Exit status: 0 success (including reported non-convergence), 1 validation
error (or an input too large for memory), 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import FIG2_DEFAULT_COUNT, FIG2_NORM_RANGE, FIG3_DEMO, FIGS1_DEMO
from .experiments import cluster_run, estimate_run, fig2_run, nn_run, table_run
from .ml import LabeledReference, classify_batch, nearest_neighbors
# bench/tracing.py patches these two names here
from .ml import classify_two_cluster, nearest_neighbor_classify  # noqa: F401
from .noise import NOISE_PRESETS, PAPER_PRESET, NoiseModel, noise_preset
from .protocol import GENERATOR_NAME, EstimatorConfig, distance_matrix
from .svgplot import cartesian_scatter_svg, contour_segments, polar_scatter_svg
from .vectors import VectorSet

REPRO_TARGETS = ("fig2", "table1", "table2", "fig3", "figS1")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        _run(args)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdist",
        description="Entanglement-based distance estimation and classification.",
    )
    parser.add_argument("--version", action="version", version=f"entdist {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON (or TOML) experiment config")
    common.add_argument("--shots", type=int, default=None, help="sampled mode with this many shots")
    common.add_argument("--exact", action="store_const", const=True, default=None,
                        help="exact mode (no sampling)")
    common.add_argument("--seed", type=int, default=None, help="unsigned 64-bit RNG seed")
    common.add_argument("--noise", metavar="PRESET|PATH", default=None,
                        help=f"noise preset ({', '.join(sorted(NOISE_PRESETS))}), JSON file, or 'none'")
    common.add_argument("--out", metavar="DIR", default=None, help="output directory")
    common.add_argument("--plot", action="store_const", const=True, default=None,
                        help="emit SVG plots (2-D data only)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[common], help="distance between two vectors")
    p.add_argument("--u", metavar="NUMS", help="new vector, e.g. '1,0'")
    p.add_argument("--v", metavar="NUMS", help="reference vector")

    vectors = argparse.ArgumentParser(add_help=False)
    vectors.add_argument("--vector", action="append", metavar="NUMS", help="vector (repeatable)")
    vectors.add_argument("--vectors", metavar="PATH", help="CSV or JSON file of vectors")

    p = sub.add_parser("classify", parents=[common, vectors], help="two-cluster assignment")
    p.add_argument("--ref-a", metavar="NUMS", help="cluster A reference vector")
    p.add_argument("--ref-b", metavar="NUMS", help="cluster B reference vector")

    sub.add_parser("nn", parents=[common, vectors], help="nearest-neighbor classification")

    p = sub.add_parser("cluster", parents=[common, vectors], help="unsupervised clustering")
    p.add_argument("--k", type=int, default=None, help="number of groups (default 2)")
    p.add_argument("--init", type=int, default=None, metavar="SEED",
                   help="seed for the random initial labeling")
    p.add_argument("--max-iterations", type=int, default=None)

    p = sub.add_parser("repro", parents=[common], help="reproduce a published table or figure")
    p.add_argument("target", choices=REPRO_TARGETS)
    p.add_argument("--count", type=int, default=None, help="fig2: number of test vectors")

    return parser


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class _Object:
    """A JSON object with no keys but these; the ``required`` ones must be present."""

    fields: dict
    required: tuple = ()


# The JSON types each config key accepts.  A spec is a scalar type (float takes
# any number within float64's range, int only integers; a boolean is never a
# number), _NULL for null, [spec] for an array, an _Object, or a tuple of
# alternatives of distinct types.
_NULL = type(None)
_VECTOR = [float]
_ENTRY = _Object({"vector": _VECTOR, "label": (str, int)}, required=("vector", "label"))
_NOISE_MODEL = _Object({"state_fidelity": (float, _NULL), "dark_count_fraction": float,
                        "background_split": float})
CONFIG_SCHEMA = _Object({
    "task": str,
    "u": _VECTOR,
    "v": _VECTOR,
    "vectors": (str, [_VECTOR]),  # a file or a list of vectors
    "references": [_ENTRY],
    "training": _Object({"initial": [_ENTRY], "added": (_ENTRY, _NULL)}),
    "k": int,
    "init": (int, [(int, str)]),
    "max_iterations": int,
    "estimator": _Object({"mode": str, "shots": int, "seed": int}),
    "noise": (str, _NULL, _NOISE_MODEL),  # a preset, 'none', a file, or the model itself
    "output": str,
    "emit_plot": bool,
    "count": int,
})


def _check(value, spec, where: str) -> None:
    """Raise ValueError unless value has one of the JSON types spec allows."""
    for alt in spec if isinstance(spec, tuple) else (spec,):
        if isinstance(alt, list) and isinstance(value, list):
            for i, item in enumerate(value):
                _check(item, alt[0], f"{where}[{i}]")
            return
        if isinstance(alt, _Object) and isinstance(value, dict):
            for key, item in value.items():
                if key not in alt.fields:
                    raise ValueError(f"{where}: unknown key {key!r}")
                _check(item, alt.fields[key], f"{where}.{key}")
            for key in alt.required:
                if key not in value:
                    raise ValueError(f"{where}: missing key {key!r}")
            return
        # an int compares with a float exactly, where float(value) would overflow
        if alt is float and type(value) is int and abs(value) > sys.float_info.max:
            raise ValueError(f"{where} is an integer beyond float64's range")
        if type(value) is alt or alt is float and type(value) is int:
            return
    raise ValueError(f"{where} has the wrong type: {value!r}")


def _read(path, spec, where: str):
    """Parse a JSON input file (TOML for a .toml config) and check it against spec.

    A byte-order mark is skipped, and a file that does not parse is an error
    that names it.  A value of the wrong type is named from ``where`` on, as
    in ``config.u[0]``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
        if spec is not CONFIG_SCHEMA or path.suffix.lower() != ".toml":
            data = json.loads(text)
        else:
            try:
                import tomllib  # Python >= 3.11
            except ImportError:
                try:
                    import tomli as tomllib
                except ImportError:
                    raise ValueError("TOML configs need Python >= 3.11 "
                                     "or the tomli package") from None
            data = tomllib.loads(text)
    except ValueError as exc:  # undecodable bytes, or a JSON or TOML syntax error
        raise ValueError(f"{path}: {exc}") from None
    _check(data, spec, where)
    return data


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    data = _read(path, CONFIG_SCHEMA, "config")
    # a file named in a config lies beside it; a preset or 'none' names no file
    for key, names in (("vectors", ()), ("noise", ("none", *NOISE_PRESETS))):
        if isinstance(data.get(key), str) and data[key] not in names:
            data[key] = str(Path(path).parent / data[key])
    return data


def _parse_vector_arg(text: str) -> list[float]:
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise ValueError(f"empty vector argument {text!r}")
    return [float(t) for t in tokens]


def _apply_flags(args, config: dict) -> None:
    """Lay the non-estimator flags over the config, so commands read the config alone."""
    keys = {"out": "output", "plot": "emit_plot", "count": "count", "k": "k", "init": "init",
            "max_iterations": "max_iterations", "vectors": "vectors"}  # flag -> config key
    if getattr(args, "vector", None) and getattr(args, "vectors", None) is not None:
        raise ValueError("choose one of --vector and --vectors")
    ref_a, ref_b = getattr(args, "ref_a", None), getattr(args, "ref_b", None)
    if ref_a or ref_b:
        if not (ref_a and ref_b):
            raise ValueError("pass both --ref-a and --ref-b")
        config["references"] = [{"vector": _parse_vector_arg(ref_a), "label": "A"},
                                {"vector": _parse_vector_arg(ref_b), "label": "B"}]
    for dest, key in keys.items():
        if getattr(args, dest, None) is not None:
            config[key] = getattr(args, dest)
    if getattr(args, "vector", None):
        config["vectors"] = [_parse_vector_arg(s) for s in args.vector]
    for key in ("u", "v"):
        if getattr(args, key, None):
            config[key] = _parse_vector_arg(getattr(args, key))


def _estimator(args, config: dict, mode: str, shots: int, noise: str | None) -> EstimatorConfig:
    """Flags over the config's estimator section over the task's defaults."""
    if args.exact and args.shots is not None:
        raise ValueError("choose one of --exact and --shots")
    est = config.get("estimator", {})
    mode, shots = est.get("mode", mode), est.get("shots", shots)
    if args.exact:
        mode = "exact"
    elif args.shots is not None:
        mode, shots = "sampled", args.shots
    seed = args.seed if args.seed is not None else est.get("seed", 0)
    noise = args.noise if args.noise is not None else config.get("noise", noise)
    return EstimatorConfig(mode=mode, shots=shots, seed=seed, noise=_noise_from(noise))


def _noise_from(source) -> NoiseModel | None:
    if source is None or source == "none":
        return None
    if isinstance(source, str):
        if source in NOISE_PRESETS:
            return noise_preset(source)
        if Path(source).exists():
            return _noise_from(_read(source, (_NULL, _NOISE_MODEL), f"noise file {source}"))
        raise ValueError(f"unknown noise preset or missing file: {source!r}")
    return NoiseModel(**source)


def _vectors(config: dict) -> VectorSet:
    """The vectors of a config: its list, or a CSV or JSON file it names."""
    source, where = config.get("vectors"), "config.vectors"
    if source is None:
        raise ValueError("no vectors: pass --vector/--vectors or set 'vectors' in the config")
    if isinstance(source, str):
        if Path(source).suffix.lower() != ".json":
            return load_vectors_csv(source)
        source, where = _read(source, [_VECTOR], source), source
    if not source:  # a vector set is never empty
        raise ValueError(f"{where}: expected at least one vector")
    return VectorSet(source)


def load_vectors_csv(path) -> VectorSet:
    """Read one vector per CSV row; '#' comments and leading header rows are skipped."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            cells = [c.strip() for c in row if c.strip()]
            if not cells or cells[0].startswith("#"):
                continue
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if rows:
                    raise ValueError(f"{path}: non-numeric row {row!r}") from None
                continue  # every non-numeric row before the first vector is a header
    if not rows:
        raise ValueError(f"{path}: no vector rows found")
    return VectorSet(rows)


def _labeled(entry: dict) -> LabeledReference:
    return LabeledReference(entry["vector"], str(entry["label"]))


# ---------------------------------------------------------------- output


@dataclass(frozen=True)
class Run:
    """What one command computed; ``_write`` turns it into files and stdout."""

    extra: dict  # embedded config entries besides task, estimator and noise
    summary: dict  # summary.json without its metadata
    fields: list | None = None  # results.csv columns; None: no CSV, summary to stdout
    rows: list = field(default_factory=list)
    plots: dict = field(default_factory=dict)  # file name -> render(metadata) -> SVG
    plot_vectors: VectorSet | None = None  # must be 2-D to plot
    line: str | None = None  # printed once the files are written


def _metadata(task: str, cfg: EstimatorConfig, extra: dict) -> dict:
    estimator = {"mode": cfg.mode, "shots": cfg.shots, "seed": cfg.seed}
    noise = asdict(cfg.noise) if cfg.noise is not None else None
    config = {"task": task, "estimator": estimator, "noise": noise, **extra}
    # sampled bytes hold for one numpy binomial implementation only
    return {"artifact": "entdist", "version": __version__, "generator": GENERATOR_NAME,
            "numpy": np.__version__, "seed": cfg.seed, "config": config}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(f"{x:g}" for x in value)
    return str(value)


def _csv_text(fieldnames: list[str], rows: list[dict], metadata: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# artifact: entdist {__version__}\n")
    buf.write(f"# generator: {metadata['generator']}\n")
    buf.write(f"# numpy: {metadata['numpy']}\n")
    buf.write(f"# seed: {metadata['seed']}\n")
    buf.write(f"# config: {json.dumps(metadata['config'], sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_cell(row[f]) for f in fieldnames])
    return buf.getvalue()


def _json_text(payload: dict, metadata: dict) -> str:
    return json.dumps({"metadata": metadata, **payload}, indent=2, sort_keys=True) + "\n"


def _write(run: Run, task: str, cfg: EstimatorConfig, config: dict, plot_default: bool) -> None:
    """Check the run's plots, then write its files and print its result."""
    meta = _metadata(task, cfg, run.extra)
    out = config.get("output")
    plots = run.plots if config.get("emit_plot", plot_default) else {}
    if plots and run.plot_vectors is not None and run.plot_vectors.dimension != 2:
        raise ValueError(f"{task} plots need 2-D vectors")
    if out is not None:
        files = {"results.csv": partial(_csv_text, run.fields, run.rows)} if run.fields else {}
        files["summary.json"] = partial(_json_text, run.summary)
        files.update(plots)
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        for name, render in files.items():
            (path / name).write_text(render(meta), encoding="utf-8")
    if run.fields is None:  # estimate: the summary is the result; files only on request
        print(_json_text(run.summary, meta), end="")
    if run.line is not None:
        print(run.line)


# ---------------------------------------------------------------- commands


def _estimate(config: dict, cfg: EstimatorConfig) -> Run:
    u, v = config.get("u"), config.get("v")
    if u is None or v is None:
        raise ValueError("estimate needs both vectors: --u/--v or config keys 'u'/'v'")
    return Run({}, estimate_run(u, v, cfg))


def _classify(config: dict, cfg: EstimatorConfig) -> Run:
    refs = config.get("references")
    if refs is None or len(refs) != 2:
        raise ValueError("classify needs two references: --ref-a/--ref-b or config 'references'")
    ref_a, ref_b = (_labeled(r) for r in refs)
    vectors = _vectors(config)
    results = classify_batch(vectors, ref_a, ref_b, cfg)
    rows = [{
        "index": i,
        "vector": u,
        f"distance_{ref_a.label}": res.per_label_distance[ref_a.label],
        f"distance_{ref_b.label}": res.per_label_distance[ref_b.label],
        "margin": res.margin,
        "assigned": res.assigned_label,
        "boundary_flag": res.boundary_flag,
    } for i, (u, res) in enumerate(zip(vectors.components.tolist(), results))]
    extra = {
        "references": {ref_a.label: ref_a.vector.components.tolist(),
                       ref_b.label: ref_b.vector.components.tolist()},
        "n_vectors": len(vectors),
    }
    fields = ["index", "vector", f"distance_{ref_a.label}", f"distance_{ref_b.label}",
              "margin", "assigned", "boundary_flag"]
    counts = Counter(row["assigned"] for row in rows)
    a, b = ref_a.vector.components.tolist(), ref_b.vector.components.tolist()
    plots = {"plot.svg": lambda metadata: _scatter_svg(  # 2-D only: _bisector unpacks a and b
        vectors, [r["assigned"] for r in rows], [ref_a, ref_b], _bisector(a, b), (),
        "two-cluster assignment", metadata)}
    return Run(extra, {"rows": rows, "assigned_counts": counts}, fields, rows, plots, vectors)


def _nn(config: dict, cfg: EstimatorConfig) -> Run:
    spec = config.get("training")
    if spec is None:
        raise ValueError("nn needs a 'training' section in the config")
    initial, added = spec.get("initial", []), spec.get("added")
    if not initial:
        raise ValueError("training set must be non-empty")
    training = [_labeled(t) for t in initial]
    added = _labeled(added) if added is not None else None
    vectors = _vectors(config)
    extra = {
        "training": [{"label": t.label, "vector": t.vector.components.tolist()} for t in training],
        "added": ({"label": added.label, "vector": added.vector.components.tolist()}
                  if added else None),
        "n_vectors": len(vectors),
    }
    if added is not None:
        result = nn_run(vectors, training, added, cfg)
        return Run(extra, result, ["index", "vector", "label_before", "label_after", "changed"],
                   result["rows"], _nn_phase_plots(vectors, result, training, added), vectors)
    dist = distance_matrix(vectors, [t.vector for t in training], cfg)
    results = nearest_neighbors(dist, training)
    rows = [{
        "index": i,
        "vector": u,
        "assigned": res.assigned_label,
        "margin": res.margin,
        "boundary_flag": res.boundary_flag,
    } for i, (u, res) in enumerate(zip(vectors.components.tolist(), results))]
    plot = partial(_scatter_svg, vectors, [r["assigned"] for r in rows], training,
                   _nn_gap(training), (), "nearest neighbor")
    return Run(extra, {"rows": rows}, ["index", "vector", "assigned", "margin", "boundary_flag"],
               rows, {"plot.svg": plot}, vectors)


def _cluster(config: dict, cfg: EstimatorConfig) -> Run:
    vectors = _vectors(config)
    k, init = config.get("k", 2), config.get("init", cfg.seed)
    max_iter = config.get("max_iterations", 100)
    return _clustering(vectors, k, init, cfg, max_iter,
                       {"k": k, "init": init, "max_iterations": max_iter,
                        "n_vectors": len(vectors)})


def _fig3(config: dict, cfg: EstimatorConfig) -> Run:
    demo = FIG3_DEMO
    init = list(demo.initial_labels)
    return _clustering(demo.vectors(), demo.k, init, cfg, config.get("max_iterations", 100),
                       {"dataset": "builtin-fig3-demo", "k": demo.k, "init": init}, demo.names)


def _clustering(vectors, k, init, cfg, max_iterations, extra, names=()) -> Run:
    state = cluster_run(vectors, k, init, cfg, max_iterations)
    if not state.converged:
        print(f"note: not converged after {state.iteration} rounds", file=sys.stderr)
    rows = [{
        "index": i,
        "name": names[i] if i < len(names) else str(i),
        "vector": v,
        "initial_label": state.history[0][i],
        "final_label": state.labels[i],
    } for i, v in enumerate(vectors.components.tolist())]
    summary = {
        "converged": state.converged,
        "iterations": state.iteration,
        "history": [list(h) for h in state.history],
        "rows": rows,
    }
    plots = {f"round_{r}.svg": partial(_scatter_svg, vectors, labels, (), None, names,
                                       f"round {r}")
             for r, labels in enumerate(state.history)}
    return Run(extra, summary, ["index", "name", "vector", "initial_label", "final_label"],
               rows, plots, vectors)


def _table(config: dict, cfg: EstimatorConfig) -> Run:
    name = config["task"]
    sampled_cfg = cfg if cfg.mode == "sampled" else None
    result = table_run(name, sampled_cfg)
    fields = ["index", "vector", "theory_diff", "computed_diff", "group", "matches_paper_theory"]
    if sampled_cfg is not None:
        fields += ["sampled_diff", "sampled_group"]
    rows = [{**r, "theory_diff": f"{r['theory_diff']:.2f}"} for r in result["rows"]]
    status = ("all rows match" if result["all_match_paper_theory"]
              else f"rows off the printed two decimals: {result['mismatched_rows']}")
    return Run({"dataset": name, "sampled_column": sampled_cfg is not None}, result, fields, rows,
               line=f"{name}: {len(result['rows'])} rows; {status}")


def _fig2(config: dict, cfg: EstimatorConfig) -> Run:
    if "count" in config and "vectors" in config:
        raise ValueError("choose one of 'count' (--count) and 'vectors'")
    vectors = _vectors(config) if "vectors" in config else None
    result = fig2_run(cfg, count=config.get("count", FIG2_DEFAULT_COUNT), vectors=vectors)
    fields = ["index", "x", "y", "norm", "angle", "exact_diff", "exact_label",
              "sampled_diff", "sampled_label", "misclassified"]
    line = (f"fig2: {len(result['rows'])} vectors, {result['misclassified_count']} misclassified "
            f"under noise (mean |error| {result['mean_abs_error']:.3f})")
    return Run({"count": len(result["rows"])}, result, fields, result["rows"],
               {"plot.svg": partial(_fig2_svg, result)}, line=line)


def _figs1(config: dict, cfg: EstimatorConfig) -> Run:
    demo = FIGS1_DEMO
    vectors, training = demo.vectors(), list(demo.initial_training)
    result = nn_run(vectors, training, demo.added_training, cfg)
    for row, name in zip(result["rows"], demo.names):
        row["name"] = name
    changed = [result["rows"][i].get("name", i) for i in result["changed_indices"]]
    return Run({"dataset": "builtin-figS1-demo"}, result,
               ["index", "name", "vector", "label_before", "label_after", "changed"],
               result["rows"],
               _nn_phase_plots(vectors, result, training, demo.added_training, demo.names),
               line=f"figS1: labels changed after the new training vector: {changed or 'none'}")


# task -> (command, then the estimator mode, shots, noise and plot switch it
# runs with where neither a flag nor the config sets them)
TASKS = {
    "estimate": (_estimate, "exact", 10_000, None, False),
    "classify": (_classify, "exact", 10_000, None, False),
    "nn": (_nn, "exact", 10_000, None, False),
    "cluster": (_cluster, "exact", 10_000, None, False),
    "table1": (_table, "sampled", 500, PAPER_PRESET, False),
    "table2": (_table, "sampled", 500, PAPER_PRESET, False),
    "fig2": (_fig2, "sampled", 10_000, PAPER_PRESET, True),
    "fig3": (_fig3, "exact", 10_000, None, True),
    "figS1": (_figs1, "exact", 10_000, None, True),
}


def _run(args) -> None:
    name = getattr(args, "target", args.command)
    command, mode, shots, noise, plot = TASKS[name]
    config = _load_config(args.config)
    if config.setdefault("task", name) != name:
        raise ValueError(f"config task {config['task']!r} does not match invoked command {name!r}")
    cfg = _estimator(args, config, mode, shots, noise)
    _apply_flags(args, config)
    if name != "estimate" and config.get("output") is None:  # fail before the work, not after
        raise ValueError("this command writes files: pass --out DIR (or 'output' in the config)")
    _write(command(config, cfg), name, cfg, config, plot)


# ---------------------------------------------------------------- plots


def _square_limits(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo = min(min(xs), min(ys)) - 0.25
    hi = max(max(xs), max(ys)) + 0.25
    return (lo, hi), (lo, hi)


def _bisector(a, b):
    """D_a - D_b at (x, y): its zero contour is the two-reference boundary."""
    (a0, a1), (b0, b1) = a, b
    return lambda x, y: math.hypot(x - a0, y - a1) - math.hypot(x - b0, y - b1)


def _nn_gap(training):
    """Distance to the nearest vector of the first label minus that to the
    nearest of the second, labels sorted; None unless there are exactly two."""
    labels = sorted({t.label for t in training})
    if len(labels) != 2:
        return None
    first, second = ([tuple(t.vector.components.tolist()) for t in training if t.label == label]
                     for label in labels)
    return lambda x, y: (min(math.hypot(x - q0, y - q1) for q0, q1 in first)
                         - min(math.hypot(x - q0, y - q1) for q0, q1 in second))


def _fig2_svg(result: dict, metadata: dict) -> str:
    a = tuple(result["reference_a"])
    b = tuple(result["reference_b"])
    r_max = FIG2_NORM_RANGE[1]
    segments = contour_segments(_bisector(a, b), (0.0, r_max), (0.0, r_max))
    boundary = [  # clipped to the plotted quarter disk
        seg for seg in segments
        if math.hypot(*seg[0]) <= r_max and math.hypot(*seg[1]) <= r_max
    ]
    scale = max(max(abs(r["exact_diff"]), abs(r["sampled_diff"])) for r in result["rows"]) or 1.0
    panels = [(title, [(r["x"], r["y"], r[f"{kind}_diff"], r[f"{kind}_label"])
                       for r in result["rows"]])
              for kind, title in (("exact", "exact"), ("sampled", "sampled with noise"))]
    refs = [(a[0], a[1], "A"), (b[0], b[1], "B")]
    return polar_scatter_svg(panels, refs, boundary, scale, r_max, metadata)


def _scatter_svg(vectors, labels, references, gap, names, title, metadata) -> str:
    """Labelled 2-D points, a cross at each labelled reference, and the zero
    contour of ``gap`` unless it is None, in a square window around them."""
    points = [tuple(v) for v in vectors.components.tolist()]
    crosses = [(*r.vector.components.tolist(), r.label) for r in references]
    xlim, ylim = _square_limits(points + [(x, y) for x, y, _ in crosses])
    boundary = contour_segments(gap, xlim, ylim) if gap is not None else ()
    return cartesian_scatter_svg(points, list(labels), xlim, ylim, crosses, boundary, names,
                                 title, metadata)


def _nn_phase_plots(vectors, result, training, added, names=()) -> dict:
    """Renderers for the nearest-neighbor labels before and after the added vector."""
    extended = list(training) + [added]
    return {
        "phase_1.svg": partial(_scatter_svg, vectors, [r["label_before"] for r in result["rows"]],
                               training, _nn_gap(training), names, "initial training set"),
        "phase_2.svg": partial(_scatter_svg, vectors, [r["label_after"] for r in result["rows"]],
                               extended, _nn_gap(extended), names, "after the new training vector"),
    }


if __name__ == "__main__":
    sys.exit(main())
