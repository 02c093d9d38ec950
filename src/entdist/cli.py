"""Command-line front end.

Commands: estimate, classify, nn, cluster, and repro <fig2|table1|table2|
fig3|figS1>.  Experiments are described by a JSON (optionally TOML) config
file; flags override config fields.  Every output file embeds the resolved
config, seed, generator name, numpy version and artifact version, so
identical runs are byte-identical.

Each command turns the checked config into a ``Run``; ``_write`` alone
creates the output directory, writes files and prints results, once every
check has passed, so a failing run writes nothing.  Files are written as
streams of row blocks, and a file whose stream fails is removed.

Exit status: 0 success (including reported non-convergence), 1 validation
error (or an input too large for memory), 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import re
import sys
from collections import Counter
from contextlib import ExitStack
from functools import lru_cache, partial, reduce
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

# an import that loads numpy is a process's start-up, as in the entdist command: a caller that
# loaded numpy first keeps its own thread count and collector
_STARTS_NUMPY = "numpy" not in sys.modules
# OpenBLAS sizes its thread pool from the first of these that is set, and reads it only while
# numpy loads; entdist makes no BLAS call, and an idle worker spins through the process's
# start-up, so unless the user chose a count, numpy loads with one thread
_PINNED = _STARTS_NUMPY and not ({"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
                                 & set(os.environ))
if _PINNED:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _PINNED:  # child processes and later readers see the user's environment
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .datasets import FIG2_DEFAULT_COUNT, FIG2_NORM_RANGE, FIG3_DEMO, FIGS1_DEMO
from .experiments import cluster_run, estimate_run, fig2_run, nn_run, table_run
from .ml import nearest_neighbor_assignment, two_cluster_assignment
# bench/tracing.py patches these two names here
from .ml import classify_two_cluster, nearest_neighbor_classify  # noqa: F401
from .noise import NOISE_PRESETS, PAPER_PRESET, NoiseModel, noise_preset
from .protocol import GENERATOR_NAME, EstimatorConfig, distance_matrix
from .svgplot import cartesian_scatter_svg, contour_segments, polar_scatter_svg
from .vectors import VectorSet, _lengths

REPRO_TARGETS = ("fig2", "table1", "table2", "fig3", "figS1")


def main(argv=None) -> int:
    try:
        _run(build_parser().parse_args(argv))
        return 0
    except SystemExit as exc:  # --help and --version
        return exc.code or 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        # argparse takes only -1 and -1.5 for negative numbers, so it would read the vector
        # -1,0 as an option; no option starts with - or -. and a digit, so such a token is a value
        return None if re.match(r"-\.?\d", arg_string) else super()._parse_optional(arg_string)

    def error(self, message):  # a usage error is one error line and status 1, like any bad input
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


class _Object(NamedTuple):
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


_REPR_LIMIT = 60  # characters of a bad value an error repeats


def _clipped(value) -> str:
    """repr(value), clipped: a misplaced list or a long row would otherwise fill the error line."""
    text = repr(value)
    return text[:_REPR_LIMIT] + "..." if len(text) > _REPR_LIMIT else text


def _check(value, spec, where: str) -> None:
    """Raise ValueError unless value has one of the JSON types spec allows."""
    for alt in spec if type(spec) is tuple else (spec,):  # an _Object is a tuple too
        if isinstance(alt, list) and isinstance(value, list):
            if alt[0] is not float or list(map(type, value)).count(float) < len(value):
                for i, item in enumerate(value):  # an item to check, or to name
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
    raise ValueError(f"{where} has the wrong type: {_clipped(value)}")


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


def _parse_vector_arg(text: str, where: str) -> list[float]:
    """The numbers of a vector flag, split at commas and whitespace; an error names
    the config key the flag sets.  As in a CSV row, a trailing comma is no cell."""
    tokens = re.split(r"\s*,\s*|\s+", text.strip())
    while tokens and not tokens[-1]:
        tokens.pop()
    if not tokens:
        raise ValueError(f"{where}: empty vector argument {_clipped(text)}")
    vector = []
    for i, token in enumerate(tokens):
        try:
            vector.append(float(token))
        except ValueError:
            what = f"not a number: {_clipped(token)}" if token else "an empty cell"
            raise ValueError(f"{where}[{i}] is {what}") from None
    return vector


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
        config["references"] = [
            {"vector": _parse_vector_arg(ref_a, "config.references[0].vector"), "label": "A"},
            {"vector": _parse_vector_arg(ref_b, "config.references[1].vector"), "label": "B"}]
    for dest, key in keys.items():
        if getattr(args, dest, None) is not None:
            config[key] = getattr(args, dest)
    if getattr(args, "vector", None):
        config["vectors"] = [_parse_vector_arg(s, f"config.vectors[{i}]")
                             for i, s in enumerate(args.vector)]
    for key in ("u", "v"):
        if getattr(args, key, None):
            config[key] = _parse_vector_arg(getattr(args, key), f"config.{key}")


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
    return VectorSet(_checked(source, lambda i: f"{where}[{i}]"))


def load_vectors_csv(path) -> VectorSet:
    """One vector per CSV row; skips '#' comments, leading headers and trailing empty cells."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            try:  # float() strips no whitespace that str.strip() keeps
                vector = list(map(float, row))
            except ValueError:  # a comment, a header, an empty cell or an error
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
                    continue  # every non-numeric row before the first vector is a header
                if len(vector) < len(cells):
                    raise ValueError(f"{path}[{len(rows)}]: empty cell before the row's last value")
            if vector:  # an empty line is no row
                rows.append(vector)
    if not rows:
        raise ValueError(f"{path}: no vector rows found")
    return VectorSet(_checked(rows, lambda i: f"{path}[{i}]"))


def _checked(rows: list, where) -> VectorSet | list:
    """The rows as one VectorSet; an error in row i reads ``{where(i)}: ...``.  Rows of
    several dimensions stay a list: the distance block names them, after other errors."""
    try:
        return VectorSet(rows)
    except ValueError as exc:
        index, _, message = str(exc).partition("]: ")
        if index[:1] != "[":  # no row is bad: they differ in dimension
            return rows
        raise type(exc)(f"{where(int(index[1:]))}: {message}") from None


# ---------------------------------------------------------------- output


class Run(NamedTuple):
    """What one command computed; ``_write`` turns it into files and stdout."""

    extra: dict  # embedded config entries besides task, estimator and noise
    summary: dict  # summary.json without its metadata; "rows", if there, the results table
    plots: dict = {}  # file name -> render(metadata) -> SVG lines; never written to
    csv_columns: dict | None = None  # results.csv if not the table's flat and 2-D columns
    line: str | None = None  # printed once the files are written


def _metadata(task: str, cfg: EstimatorConfig, extra: dict) -> dict:
    estimator = {"mode": cfg.mode, "shots": cfg.shots, "seed": cfg.seed}
    noise = dict(vars(cfg.noise)) if cfg.noise is not None else None
    config = {"task": task, "estimator": estimator, "noise": noise, **extra}
    # sampled bytes hold for one numpy binomial implementation only
    return {"artifact": "entdist", "version": __version__, "generator": GENERATOR_NAME,
            "numpy": np.__version__, "seed": cfg.seed, "config": config}


# the C-level formatter of a flat column's items, by kind
_FORMAT = {float: float.__repr__, int: int.__repr__, bool: {True: "true", False: "false"}.get}
_KINDS = {"f": float, "i": int, "b": bool}  # a flat array's dtype kind -> its kind


# the writers format a results table this many cells at a time, so what they hold
# beyond the run's own columns is one block's texts
_BLOCK_CELLS = 1 << 11

_QUOTABLE = re.compile('[,"\r\n]')  # csv.writer may quote for these, as the Python version has it


def _cells(column) -> tuple[type, list[str]]:
    """A flat or 2-D column's kind and results.csv texts.  A flat column's kind is its
    dtype's, or its first item's type; a 2-D column's is list, and a row's text its %g items."""
    if isinstance(column, np.ndarray):
        if column.ndim == 2:
            row = " ".join(["%g"] * column.shape[1])
            return list, [row % tuple(items) for items in column.tolist()]
        kind, column = _KINDS[column.dtype.kind], column.tolist()
    else:
        kind = type(column[0]) if column else str
    return kind, column if kind is str else list(map(_FORMAT[kind], column))


def _csv_lines(rows, texts: list[list[str]]) -> str:
    """The rows joined with commas, or written by csv.writer where a cell of texts
    (the rows' text cells, by column) is empty or _QUOTABLE: the same lines either way."""
    if not any("" in text or _QUOTABLE.search("".join(text)) for text in texts):
        return "\n".join(map(",".join, rows)) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_head(fieldnames: list[str], metadata: dict) -> str:
    """The metadata comment lines and the header row of results.csv."""
    return (f"# artifact: entdist {__version__}\n"
            f"# generator: {metadata['generator']}\n"
            f"# numpy: {metadata['numpy']}\n"
            f"# seed: {metadata['seed']}\n"
            f"# config: {json.dumps(metadata['config'], sort_keys=True)}\n"
            + _csv_lines([fieldnames], [fieldnames]))


_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)  # json.JSONEncoder.encode would build a new one on every call
def _encoder(depth: int):
    """The C JSON encoder whose item separator is a newline and depth + 1 indents."""
    # CPython's _json: markers, default, key encoder, indent, key and item
    # separators, sort_keys, skipkeys, allow_nan
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * (depth + 1), True, False, True)


def _artifacts(run: Run, metadata: dict):
    """summary.json, json.dumps({"metadata": metadata, **run.summary}, indent=2, sort_keys=True)
    newline-ended, and if it holds a results table "rows", results.csv (the table's flat and 2-D
    columns in order, or run.csv_columns), as (file name, text) chunks of one row block at most."""
    summary, columns = {"metadata": metadata, **run.summary}, run.csv_columns
    if "rows" in summary:
        if columns is None:
            columns = {name: c for name, c in summary["rows"].items() if not isinstance(c, dict)}
        yield "results.csv", _csv_head(list(columns), metadata)
    lead = "{"
    for key in sorted(summary):
        yield "summary.json", f"{lead}\n  {encode_basestring_ascii(key)}: "
        lead, value = ",", summary[key]
        if key == "rows":  # results.csv is written with the results table
            yield from _table_chunks(value, columns)
        else:
            yield "summary.json", _json_value(value, 1)
    yield "summary.json", "\n}\n"


def _json_value(obj, depth: int) -> str:
    """The indent=2, sorted-keys JSON text of obj where it sits at nesting depth.

    A scalar, an empty container or one of scalars only (most of a payload)
    is one C encoder call, whose item separator already lays out the items;
    only the bracket lines are added here.  Keys are strings.
    """
    encode = _encoder(depth)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return "".join(encode(obj, 0))
    is_dict = isinstance(obj, dict)
    inner = "  " * (depth + 1)
    if not any(map(isinstance, obj.values() if is_dict else obj, repeat(_CONTAINERS))):
        body = "".join(encode(obj, 0))[1:-1]
    elif is_dict:
        body = (",\n" + inner).join(
            f"{encode_basestring_ascii(key)}: {_json_value(obj[key], depth + 1)}"
            for key in sorted(obj))
    else:
        body = (",\n" + inner).join(_json_value(value, depth + 1) for value in obj)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}{body}\n{inner[2:]}{closing}"


_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # else float.__repr__


def _length(columns: dict) -> int:
    """The rows of a table or a dict column."""
    return max((_length(c) if isinstance(c, dict) else len(c) for c in columns.values()),
               default=0)


def _table_chunks(table: dict, csv_columns: dict):
    """The JSON text of a results table's rows as dicts where it sits at depth 1, as
    ("summary.json", text) chunks, one per block of about _BLOCK_CELLS cells, each led by
    the block's results.csv lines of csv_columns, columns of the same rows; a flat column
    they share with the table has its block's texts made once, for both files.

    A results table is columns, name -> one value per row, in one of three shapes:
    - flat: a 1-D float64, int64 or bool array, or a list whose items share
      one type (str labels, or Python int labels, which keep their text)
    - a 2-D float64 array: one float list per row, such as a vector
    - a dict of flat columns: one object per row, such as nn's distances per label
    """
    n, outer = _length(table), "    "  # a row's indent
    step = max(1, _BLOCK_CELLS // max(len(table), 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        cells = {name: _cells(column[rows]) for name, column in csv_columns.items()}
        yield "results.csv", _csv_lines(zip(*(t for _, t in cells.values())),
                                        [t for k, t in cells.values() if k not in _FORMAT])
        count = min(step, n - start)
        leads = [f"{',' if start else '['}\n{outer}", *repeat(f",\n{outer}", count - 1)]
        shared = {name: cells[name] for name in cells if csv_columns[name] is table.get(name)}
        parts = _json_parts(table, rows, 2, shared)
        fields = [leads, *(repeat(part) if type(part) is str else part for part in parts)]
        yield "summary.json", "".join(chain.from_iterable(zip(*fields)))
    yield "summary.json", "\n  ]" if n else "[]"


def _json_parts(columns, rows: slice, depth: int, cells: dict) -> list:
    """The JSON texts of a block of rows of a table or a dict column (an object per row,
    keys sorted) or a 2-D column (a list per row), where each sits at nesting depth, as
    parts: a str is the same in every row, a list holds one text per row.  A flat
    column's texts are its results.csv texts (those in ``cells``, by name, if there)."""
    keyed = isinstance(columns, dict)
    inner = "  " * (depth + 1)
    parts = []
    for name in sorted(columns) if keyed else range(columns.shape[1]):
        column = columns[name] if keyed else columns[:, name]
        parts.append(f",\n{inner}{encode_basestring_ascii(name)}: " if keyed else f",\n{inner}")
        if isinstance(column, dict) or getattr(column, "ndim", 1) == 2:
            parts += _json_parts(column, rows, depth + 1, {})
            continue
        kind, texts = cells.get(name) or _cells(column[rows])
        parts.append(list(map(_JSON_FLOAT.get, texts, texts)) if kind is float
                     else list(map(encode_basestring_ascii, texts)) if kind is str else texts)
    opening, closing = "{}" if keyed else "[]"
    if not parts:
        return [opening + closing]
    parts[0] = opening + parts[0][1:]
    return [*parts, f"\n{inner[2:]}{closing}"]


def _stream(directory: Path, chunks) -> None:
    """Write (file name, text) chunks, each file created at its first chunk.  If the
    stream or a write raises, the files it created are removed before the error goes on."""
    made = []
    try:
        with ExitStack() as stack:
            files = {}
            for name, text in chunks:
                if name not in files:
                    files[name] = stack.enter_context(open(directory / name, "w",
                                                           encoding="utf-8"))
                    made.append(directory / name)
                files[name].write(text)
    except BaseException:
        for path in made:
            path.unlink(missing_ok=True)
        raise


def _write(run: Run, task: str, cfg: EstimatorConfig, config: dict, plot_default: bool) -> None:
    """Check the run's plots, then write its files and print its result."""
    meta = _metadata(task, cfg, run.extra)
    out = config.get("output")
    plots = run.plots if config.get("emit_plot", plot_default) else {}
    table = run.summary.get("rows", {})
    if plots and "vector" in table and table["vector"].shape[1] != 2:
        raise ValueError(f"{task} plots need 2-D vectors")
    if out is not None:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        _stream(path, _artifacts(run, meta))
        for name, render in plots.items():
            lines = render(meta)  # an SVG's lines, written a block of lines at a time
            _stream(path, ((name, "\n".join(lines[r:r + _BLOCK_CELLS]) + "\n")
                           for r in range(0, len(lines), _BLOCK_CELLS)))
    if "rows" not in run.summary:  # estimate: the summary is the result; files only on request
        sys.stdout.writelines(text for _, text in _artifacts(run, meta))
    if run.line is not None:
        print(run.line)


# ---------------------------------------------------------------- commands


def _estimate(config: dict, cfg: EstimatorConfig) -> Run:
    u, v = config.get("u"), config.get("v")
    if u is None or v is None:
        raise ValueError("estimate needs both vectors: --u/--v or config keys 'u'/'v'")
    _checked([u, v], ("config.u", "config.v").__getitem__)
    return Run({}, estimate_run(u, v, cfg))


def _classify(config: dict, cfg: EstimatorConfig) -> Run:
    refs = config.get("references")
    if refs is None or len(refs) != 2:
        raise ValueError("classify needs two references: --ref-a/--ref-b or config 'references'")
    references = _checked([ref["vector"] for ref in refs], "config.references[{}].vector".format)
    labels = [str(ref["label"]) for ref in refs]
    vectors = _vectors(config)
    result = two_cluster_assignment(vectors, references, labels, cfg)
    assigned = result.labels
    rows = {
        "index": np.arange(len(vectors)),
        "vector": vectors.components,
        **{f"distance_{label}": d for label, d in zip(labels, result.distances.T)},
        "margin": result.margin,
        "assigned": assigned,
        "boundary_flag": result.boundary,
    }
    points = references.components.tolist()  # a VectorSet: the distance block took it
    extra = {"references": dict(zip(labels, points)), "n_vectors": len(vectors)}
    plots = {"plot.svg": partial(_scatter_svg, vectors, assigned, (points, labels),
                                 ([points[0]], [points[1]]), (), "two-cluster assignment")}
    return Run(extra, {"rows": rows, "assigned_counts": Counter(assigned)}, plots)


def _nn(config: dict, cfg: EstimatorConfig) -> Run:
    spec = config.get("training")
    if spec is None:
        raise ValueError("nn needs a 'training' section in the config")
    initial, added = spec.get("initial", []), spec.get("added")
    if not initial:
        raise ValueError("training set must be non-empty")
    entries = [*initial, added] if added else initial
    training = _checked([e["vector"] for e in entries], lambda i: "config.training." + (
        f"initial[{i}].vector" if i < len(initial) else "added.vector"))
    labels = [str(e["label"]) for e in entries]
    vectors = _vectors(config)
    if added:
        summary = nn_run(vectors, training, labels, cfg)
    else:
        result = nearest_neighbor_assignment(distance_matrix(vectors, training, cfg), labels)
        summary = {"rows": {
            "index": np.arange(len(vectors)),
            "vector": vectors.components,
            "assigned": result.labels,
            "margin": result.margin,
            "boundary_flag": result.boundary,
        }}
    rows = summary["rows"]
    points = training.components.tolist()  # a VectorSet: the distance block took it
    extra = {
        "training": [{"label": label, "vector": point}
                     for label, point in zip(labels, points[:len(initial)])],
        "added": {"label": labels[-1], "vector": points[-1]} if added else None,
        "n_vectors": len(vectors),
    }
    plots = (_nn_phase_plots(vectors, rows, points, labels) if added else
             {"plot.svg": partial(_scatter_svg, vectors, rows["assigned"], (points, labels),
                                  _nn_sets(points, labels), (), "nearest neighbor")})
    return Run(extra, summary, plots)


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
    n = len(vectors)
    rows = {
        "index": np.arange(n),
        "name": [*names[:n], *map(str, range(len(names), n))],
        "vector": vectors.components,
        "initial_label": list(state.history[0]),
        "final_label": list(state.labels),
    }
    summary = {
        "converged": state.converged,
        "iterations": state.iteration,
        "history": [list(h) for h in state.history],
        "rows": rows,
    }
    plots = {f"round_{r}.svg": partial(_scatter_svg, vectors, labels, ((), ()), None, names,
                                       f"round {r}")
             for r, labels in enumerate(state.history)}
    return Run(extra, summary, plots)


def _table(config: dict, cfg: EstimatorConfig) -> Run:
    name = config["task"]
    sampled_cfg = cfg if cfg.mode == "sampled" else None
    result = table_run(name, sampled_cfg)
    table = result["rows"]  # results.csv: all but the paper's columns, theory as printed
    columns = {key: c for key, c in table.items() if not key.startswith("paper_")}
    columns["theory_diff"] = list(map("{:.2f}".format, table["theory_diff"].tolist()))
    status = ("all rows match" if result["all_match_paper_theory"]
              else f"rows off the printed two decimals: {result['mismatched_rows']}")
    return Run({"dataset": name, "sampled_column": sampled_cfg is not None}, result,
               csv_columns=columns, line=f"{name}: {len(table['index'])} rows; {status}")


def _fig2(config: dict, cfg: EstimatorConfig) -> Run:
    if "count" in config and "vectors" in config:
        raise ValueError("choose one of 'count' (--count) and 'vectors'")
    vectors = _vectors(config) if "vectors" in config else None
    result = fig2_run(cfg, count=config.get("count", FIG2_DEFAULT_COUNT), vectors=vectors)
    count = len(result["rows"]["index"])
    line = (f"fig2: {count} vectors, {result['misclassified_count']} misclassified "
            f"under noise (mean |error| {result['mean_abs_error']:.3f})")
    return Run({"count": count}, result, {"plot.svg": partial(_fig2_svg, result)}, line=line)


def _figs1(config: dict, cfg: EstimatorConfig) -> Run:
    demo = FIGS1_DEMO
    vectors, training, labels = demo.vectors(), demo.training, demo.training_labels
    result = nn_run(vectors, training, labels, cfg)
    rows = result["rows"]  # the demo's names after the index
    result["rows"] = rows = {"index": rows.pop("index"), "name": list(demo.names), **rows}
    changed = [demo.names[i] for i in result["changed_indices"]]
    return Run({"dataset": "builtin-figS1-demo"}, result,
               _nn_phase_plots(vectors, rows, training, labels, demo.names),
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


def _square_limits(points: np.ndarray) -> tuple[float, float]:
    """The square window around an (n, 2) array of points: each axis from the least
    coordinate less 0.25 to the greatest plus 0.25, or to the neighbouring floats where
    the two ends round to one value."""
    lo, hi = float(points.min()) - 0.25, float(points.max()) + 0.25
    return (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)) if lo == hi else (lo, hi)


def _distance_gap(first, second):
    """D_first - D_second at (x, y), where D_s is the distance to the nearest
    point of s: its zero contour is the boundary between the two sets."""
    def gap(x, y):
        d1, d2 = (reduce(np.minimum, (_lengths(np.stack([x - q0, y - q1])) for q0, q1 in s))
                  for s in (first, second))
        return d1 - d2

    return gap


def _nn_sets(points, labels):
    """The points of the first label and those of the second, labels sorted;
    None unless there are exactly two labels."""
    names = sorted(set(labels))
    if len(names) != 2:
        return None
    return tuple([p for p, label in zip(points, labels) if label == name] for name in names)


def _boundary(sets, lim) -> np.ndarray:
    """The (n, 2, 2) segments of the zero contour of _distance_gap(*sets) in the
    window lim x lim, traced in the window scaled by 2^-e, e the frexp exponent
    of its larger |limit|: that keeps the grid and the distances finite however
    wide the window, and a power-of-two scale is exact."""
    e = np.frexp(np.abs(lim).max())[1]
    lim = np.ldexp(lim, -e)
    segments = contour_segments(_distance_gap(*(np.ldexp(s, -e) for s in sets)), lim)
    return np.ldexp(np.reshape(segments, (-1, 2, 2)), e)


def _fig2_svg(result: dict, metadata: dict) -> list[str]:
    a, b = result["reference_a"], result["reference_b"]
    r_max = FIG2_NORM_RANGE[1]
    segments = _boundary(([a], [b]), (0.0, r_max))
    # clipped to the plotted quarter disk
    boundary = segments[(_lengths(np.moveaxis(segments, -1, 0)) <= r_max).all(axis=1)]
    rows = result["rows"]
    xs, ys, *diffs = np.array([rows["x"], rows["y"], rows["exact_diff"], rows["sampled_diff"]])
    scale = float(np.abs(diffs).max()) or 1.0
    panels = [(title, diff, rows[f"{kind}_label"]) for diff, kind, title
              in zip(diffs, ("exact", "sampled"), ("exact", "sampled with noise"))]
    refs = [(a[0], a[1], "A"), (b[0], b[1], "B")]
    return polar_scatter_svg(xs, ys, panels, refs, boundary, scale, r_max, metadata)


def _scatter_svg(vectors, labels, references, sets, names, title, metadata) -> list[str]:
    """Labelled 2-D points, a cross at each of the references (points, labels), and the
    boundary between the two point sets unless ``sets`` is None, in a square window."""
    crosses = [(*point, label) for point, label in zip(*references)]
    lim = _square_limits(np.vstack([vectors.components, *references[0]]))
    boundary = _boundary(sets, lim) if sets is not None else ()
    return cartesian_scatter_svg(vectors.components, list(labels), lim, crosses, boundary,
                                 names, title, metadata)


def _nn_phase_plots(vectors, rows, points, labels, names=()) -> dict:
    """Renderers for the nearest-neighbor labels before and after the added vector,
    the last of the training points."""
    initial = points[:-1], labels[:-1]
    return {
        "phase_1.svg": partial(_scatter_svg, vectors, rows["label_before"], initial,
                               _nn_sets(*initial), names, "initial training set"),
        "phase_2.svg": partial(_scatter_svg, vectors, rows["label_after"], (points, labels),
                               _nn_sets(points, labels), names, "after the new training vector"),
    }


# the start-up heap (about 22,000 objects, numpy's mostly) lives until the exit; frozen, it is
# traversed by no later collection, the exit's full ones included
if _STARTS_NUMPY:
    gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
