"""Command-line front end.

Commands: estimate, classify, nn, cluster, and repro <fig2|table1|table2|
fig3|figS1>.  Experiments are described by a JSON (optionally TOML) config
file; flags override config fields.  Every output file embeds the resolved
config, seed, generator name, and artifact version, so identical runs are
byte-identical.

Each command turns the checked config into a ``Run``; ``_write`` alone
creates the output directory, writes files and prints results, once every
check has passed, so a failing run writes nothing.

Exit status: 0 success (including reported non-convergence), 1 validation
error, 2 I/O error.
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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from . import __version__
from .datasets import FIG2_DEFAULT_COUNT, FIG2_NORM_RANGE, FIG3_DEMO, FIGS1_DEMO
from .experiments import cluster_run, estimate_run, fig2_run, nn_run, table_run
from .ml import LabeledReference, classify_two_cluster, nearest_neighbor_classify
from .noise import NOISE_PRESETS, PAPER_PRESET, NoiseModel, noise_preset
from .protocol import GENERATOR_NAME, EstimatorConfig
from .svgplot import cartesian_scatter_svg, contour_segments, polar_scatter_svg
from .vectors import as_vector, load_vectors_csv, load_vectors_json

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
    except ValueError as exc:
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

    p = sub.add_parser("classify", parents=[common], help="two-cluster assignment")
    p.add_argument("--vector", action="append", metavar="NUMS", help="test vector (repeatable)")
    p.add_argument("--vectors", metavar="PATH", help="CSV/JSON file of test vectors")
    p.add_argument("--ref-a", metavar="NUMS", help="cluster A reference vector")
    p.add_argument("--ref-b", metavar="NUMS", help="cluster B reference vector")

    p = sub.add_parser("nn", parents=[common], help="nearest-neighbor classification")
    p.add_argument("--vector", action="append", metavar="NUMS", help="test vector (repeatable)")
    p.add_argument("--vectors", metavar="PATH", help="CSV/JSON file of test vectors")

    p = sub.add_parser("cluster", parents=[common], help="unsupervised clustering")
    p.add_argument("--vector", action="append", metavar="NUMS", help="input vector (repeatable)")
    p.add_argument("--vectors", metavar="PATH", help="CSV/JSON file of input vectors")
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
# any number, int only integers; a boolean is never a number), _NULL for null,
# [spec] for an array, an _Object, or a tuple of alternatives of distinct types.
_NULL = type(None)
_VECTOR = [float]
_ENTRY = _Object({"vector": _VECTOR, "label": (str, int)}, required=("vector", "label"))
_NOISE_MODEL = _Object({"state_fidelity": (float, _NULL), "dark_count_fraction": float,
                        "background_split": float})
_NOISE = (str, _NULL, _NOISE_MODEL)  # a preset, 'none', a file, or the model itself
CONFIG_SCHEMA = _Object({
    "task": str,
    "u": _VECTOR,
    "v": _VECTOR,
    "vectors": (str, [(float, _VECTOR)]),  # a file, one vector, or a list of vectors
    "references": [_ENTRY],
    "training": ([_ENTRY], _Object({"initial": [_ENTRY], "added": (_ENTRY, [_ENTRY], _NULL)})),
    "k": int,
    "init": (int, [(int, str)]),
    "max_iterations": int,
    "estimator": _Object({"mode": str, "shots": int, "seed": int, "noise": _NOISE}),
    "noise": _NOISE,
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
        if type(value) is alt or alt is float and type(value) is int:
            return
    raise ValueError(f"{where} has the wrong type: {value!r}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if p.suffix.lower() == ".toml":
        try:
            import tomllib  # Python >= 3.11
        except ImportError:
            try:
                import tomli as tomllib
            except ImportError:
                raise ValueError("TOML configs need Python >= 3.11 or the tomli package") from None
        data = tomllib.loads(p.read_text(encoding="utf-8"))
    else:
        data = json.loads(p.read_text(encoding="utf-8"))
    _check(data, CONFIG_SCHEMA, "config")
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
    noise = args.noise if args.noise is not None else config.get("noise", est.get("noise", noise))
    return EstimatorConfig(mode=mode, shots=shots, seed=seed, noise=_noise_from(noise))


def _noise_from(source) -> NoiseModel | None:
    if source is None or source == "none" or source == "off":
        return None
    if isinstance(source, str):
        if source in NOISE_PRESETS:
            return noise_preset(source)
        path = Path(source)
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
            _check(data, (_NULL, _NOISE_MODEL), f"noise file {source}")
            return _noise_from(data)
        raise ValueError(f"unknown noise preset or missing file: {source!r}")
    return NoiseModel(**source)


def _vectors(config: dict):
    source = config.get("vectors")
    if source is None:
        raise ValueError("no vectors: pass --vector/--vectors or set 'vectors' in the config")
    if isinstance(source, str):
        path = Path(source)
        if path.suffix.lower() == ".json":
            return load_vectors_json(path)
        return load_vectors_csv(path)
    if source and all(isinstance(x, (int, float)) for x in source):
        source = [source]
    return [as_vector(row) for row in source]


def _labeled(entry: dict) -> LabeledReference:
    return LabeledReference(as_vector(entry["vector"]), str(entry["label"]))


# ---------------------------------------------------------------- output


@dataclass(frozen=True)
class Run:
    """What one command computed; ``_write`` turns it into files and stdout."""

    extra: dict  # embedded config entries besides task, estimator and noise
    summary: dict  # summary.json without its metadata
    fields: list | None = None  # results.csv columns; None: no CSV, summary to stdout
    rows: list = field(default_factory=list)
    plots: dict = field(default_factory=dict)  # file name -> render(metadata) -> SVG
    plot_vectors: list = field(default_factory=list)  # must be 2-D to plot
    line: str | None = None  # printed once the files are written


def _metadata(task: str, cfg: EstimatorConfig, extra: dict) -> dict:
    estimator = {"mode": cfg.mode, "shots": cfg.shots, "seed": cfg.seed}
    noise = cfg.noise.as_dict() if cfg.noise is not None else None
    config = {"task": task, "estimator": estimator, "noise": noise, **extra}
    return {"artifact": "entdist", "version": __version__, "generator": GENERATOR_NAME,
            "seed": cfg.seed, "config": config}


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
    if run.fields is None:  # estimate: the summary is the result; files only on request
        print(_json_text(run.summary, meta), end="")
    plots = run.plots if config.get("emit_plot", plot_default) else {}
    if plots and any(v.dimension != 2 for v in run.plot_vectors):
        raise ValueError(f"{task} plots need 2-D vectors")
    if out is None:
        return
    files = {"results.csv": partial(_csv_text, run.fields, run.rows)} if run.fields else {}
    files["summary.json"] = partial(_json_text, run.summary)
    files.update(plots)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    for name, render in files.items():
        (path / name).write_text(render(meta), encoding="utf-8")
    if run.line is not None:
        print(run.line)


# ---------------------------------------------------------------- commands


def _estimate(args, config: dict, cfg: EstimatorConfig) -> Run:
    u, v = config.get("u"), config.get("v")
    if u is None or v is None:
        raise ValueError("estimate needs both vectors: --u/--v or config keys 'u'/'v'")
    return Run({}, estimate_run(u, v, cfg))


def _classify(args, config: dict, cfg: EstimatorConfig) -> Run:
    refs = config.get("references")
    if refs is None or len(refs) != 2:
        raise ValueError("classify needs two references: --ref-a/--ref-b or config 'references'")
    ref_a, ref_b = (_labeled(r) for r in refs)
    vectors = _vectors(config)
    rows = []
    for i, u in enumerate(vectors):
        res = classify_two_cluster(u, ref_a, ref_b, cfg.derive(i))
        d = res.per_label_distance
        rows.append({
            "index": i,
            "vector": u.components.tolist(),
            f"distance_{ref_a.label}": d[ref_a.label],
            f"distance_{ref_b.label}": d[ref_b.label],
            "margin": res.margin,
            "assigned": res.assigned_label,
            "boundary_flag": res.boundary_flag,
        })
    extra = {
        "references": {ref_a.label: ref_a.vector.components.tolist(),
                       ref_b.label: ref_b.vector.components.tolist()},
        "n_vectors": len(vectors),
    }
    fields = ["index", "vector", f"distance_{ref_a.label}", f"distance_{ref_b.label}",
              "margin", "assigned", "boundary_flag"]
    counts = Counter(row["assigned"] for row in rows)
    plots = {"plot.svg": partial(_classification_svg, rows, ref_a, ref_b)}
    return Run(extra, {"rows": rows, "assigned_counts": counts}, fields, rows, plots, vectors)


def _nn(args, config: dict, cfg: EstimatorConfig) -> Run:
    spec = config.get("training")
    if spec is None:
        raise ValueError("nn needs a 'training' section in the config")
    if isinstance(spec, list):
        spec = {"initial": spec}
    initial, added = spec.get("initial", []), spec.get("added")
    if not initial:
        raise ValueError("training set must be non-empty")
    if isinstance(added, list):
        if len(added) != 1:
            raise ValueError("'added' must hold exactly one training vector")
        added = added[0]
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
    rows = []
    for i, u in enumerate(vectors):
        res = nearest_neighbor_classify(u, training, cfg.derive(i))
        rows.append({
            "index": i,
            "vector": u.components.tolist(),
            "assigned": res.assigned_label,
            "margin": res.margin,
            "boundary_flag": res.boundary_flag,
        })
    plot = partial(_nn_phase_svg, vectors, [r["assigned"] for r in rows], training, (),
                   title="nearest neighbor")
    return Run(extra, {"rows": rows}, ["index", "vector", "assigned", "margin", "boundary_flag"],
               rows, {"plot.svg": plot}, vectors)


def _cluster(args, config: dict, cfg: EstimatorConfig) -> Run:
    vectors = _vectors(config)
    k, init = config.get("k", 2), config.get("init", cfg.seed)
    max_iter = config.get("max_iterations", 100)
    return _clustering(vectors, k, init, cfg, max_iter,
                       {"k": k, "init": init, "max_iterations": max_iter,
                        "n_vectors": len(vectors)})


def _fig3(args, config: dict, cfg: EstimatorConfig) -> Run:
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
        "vector": v.components.tolist(),
        "initial_label": state.history[0][i],
        "final_label": state.labels[i],
    } for i, v in enumerate(vectors)]
    summary = {
        "converged": state.converged,
        "iterations": state.iteration,
        "history": [list(h) for h in state.history],
        "rows": rows,
    }
    plots = {f"round_{r}.svg": partial(_round_svg, vectors, labels, names, r)
             for r, labels in enumerate(state.history)}
    return Run(extra, summary, ["index", "name", "vector", "initial_label", "final_label"],
               rows, plots, vectors)


def _table(args, config: dict, cfg: EstimatorConfig) -> Run:
    name = args.target
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


def _fig2(args, config: dict, cfg: EstimatorConfig) -> Run:
    vectors = _vectors(config) if "vectors" in config else None
    result = fig2_run(cfg, count=config.get("count", FIG2_DEFAULT_COUNT), vectors=vectors)
    fields = ["index", "x", "y", "norm", "angle", "exact_diff", "exact_label",
              "sampled_diff", "sampled_label", "misclassified"]
    line = (f"fig2: {len(result['rows'])} vectors, {result['misclassified_count']} misclassified "
            f"under noise (mean |error| {result['mean_abs_error']:.3f})")
    return Run({"count": len(result["rows"])}, result, fields, result["rows"],
               {"plot.svg": partial(_fig2_svg, result)}, line=line)


def _figs1(args, config: dict, cfg: EstimatorConfig) -> Run:
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
               vectors, f"figS1: labels changed after the new training vector: {changed or 'none'}")


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
    if config.get("task", name) != name:
        raise ValueError(f"config task {config['task']!r} does not match invoked command {name!r}")
    cfg = _estimator(args, config, mode, shots, noise)
    _apply_flags(args, config)
    if name != "estimate" and config.get("output") is None:  # fail before the work, not after
        raise ValueError("this command writes files: pass --out DIR (or 'output' in the config)")
    _write(command(args, config, cfg), name, cfg, config, plot)


# ---------------------------------------------------------------- plots


def _square_limits(points, pad: float = 0.25):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo = min(min(xs), min(ys)) - pad
    hi = max(max(xs), max(ys)) + pad
    return (lo, hi), (lo, hi)


def _euclid(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _bisector_segments(a, b, r_max: float):
    """Theory boundary D_A = D_B, clipped to the plotted quarter disk."""
    segments = contour_segments(
        lambda x, y: _euclid((x, y), a) - _euclid((x, y), b),
        (0.0, r_max), (0.0, r_max),
    )
    return [
        seg for seg in segments
        if math.hypot(*seg[0]) <= r_max and math.hypot(*seg[1]) <= r_max
    ]


def _fig2_svg(result: dict, metadata: dict) -> str:
    a = tuple(result["reference_a"])
    b = tuple(result["reference_b"])
    r_max = FIG2_NORM_RANGE[1]
    boundary = _bisector_segments(a, b, r_max)
    scale = max(
        (max(abs(r["exact_diff"]), abs(r["sampled_diff"])) for r in result["rows"]),
        default=1.0,
    ) or 1.0
    refs = [(a[0], a[1], "A"), (b[0], b[1], "B")]
    panels = []
    for key_diff, key_label, title in (
        ("exact_diff", "exact_label", "exact"),
        ("sampled_diff", "sampled_label", "sampled with noise"),
    ):
        panels.append({
            "title": title,
            "points": [(r["x"], r["y"], r[key_diff], r[key_label]) for r in result["rows"]],
            "fill_scale": scale,
            "labels": ["A", "B"],
            "references": refs,
            "boundary": boundary,
        })
    return polar_scatter_svg(panels, r_max, metadata=metadata)


def _classification_svg(rows, ref_a, ref_b, metadata: dict) -> str:
    a = tuple(ref_a.vector.components.tolist())
    b = tuple(ref_b.vector.components.tolist())
    points = [tuple(r["vector"]) for r in rows]
    xlim, ylim = _square_limits(points + [a, b])
    boundary = contour_segments(
        lambda x, y: _euclid((x, y), a) - _euclid((x, y), b), xlim, ylim
    )
    return cartesian_scatter_svg(
        points, [r["assigned"] for r in rows], xlim, ylim,
        references=[(a[0], a[1], ref_a.label), (b[0], b[1], ref_b.label)],
        boundary=boundary, title="two-cluster assignment", metadata=metadata,
    )


def _round_svg(vectors, labels, names, r: int, metadata: dict) -> str:
    points = [tuple(v.components.tolist()) for v in vectors]
    xlim, ylim = _square_limits(points)
    return cartesian_scatter_svg(points, list(labels), xlim, ylim, names=names,
                                 title=f"round {r}", metadata=metadata)


def _nn_boundary(training, xlim, ylim):
    """Piecewise boundary between the two label groups of the training set."""
    labels = sorted({t.label for t in training})
    if len(labels) != 2:
        return []
    first = [tuple(t.vector.components.tolist()) for t in training if t.label == labels[0]]
    second = [tuple(t.vector.components.tolist()) for t in training if t.label == labels[1]]

    def gap(x, y):
        p = (x, y)
        return min(_euclid(p, q) for q in first) - min(_euclid(p, q) for q in second)

    return contour_segments(gap, xlim, ylim)


def _nn_phase_svg(vectors, labels, training, names, metadata, title: str) -> str:
    points = [tuple(v.components.tolist()) for v in vectors]
    train_pts = [tuple(t.vector.components.tolist()) for t in training]
    xlim, ylim = _square_limits(points + train_pts)
    return cartesian_scatter_svg(
        points, labels, xlim, ylim,
        references=[(p[0], p[1], t.label) for p, t in zip(train_pts, training)],
        boundary=_nn_boundary(training, xlim, ylim),
        names=names, title=title, metadata=metadata,
    )


def _nn_phase_plots(vectors, result, training, added, names=()) -> dict:
    """Renderers for the nearest-neighbor labels before and after the added vector."""
    before = [r["label_before"] for r in result["rows"]]
    after = [r["label_after"] for r in result["rows"]]
    return {
        "phase_1.svg": partial(_nn_phase_svg, vectors, before, training, names,
                               title="initial training set"),
        "phase_2.svg": partial(_nn_phase_svg, vectors, after, list(training) + [added], names,
                               title="after the new training vector"),
    }


if __name__ == "__main__":
    sys.exit(main())
