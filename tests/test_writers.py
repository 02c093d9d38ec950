"""The artifact writers against the straightforward code they replace.

``summary.json`` must be ``json.dumps(indent=2, sort_keys=True)`` text (a
results table as the list of its rows as dicts), ``results.csv`` the
per-cell loop, the plotted boundary the marching-squares loop over every
grid cell of a gap evaluated point by point in Python floats, and the fig2
fills the scalar diverging colour map; each reference below is that code,
kept here.  A results table's columns come in the three shapes the writers
name (flat, 2-D, a dict of flat columns), and every command's columns are
checked to be of them, and its results.csv to hold the flat and 2-D ones.
The two table files are written as one stream of row blocks, so the tables
below cross block edges: a block of B rows, tables of B - 1, B, B + 1 and
3B + 1 rows.
"""

import csv
import io
import json
import math
import tracemalloc
from collections import Counter
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import entdist.cli
from entdist import __version__
from entdist.cli import (TASKS, Run, _artifacts, _cells, _distance_gap, _noise_from, _nn_sets,
                         _square_limits, _stream)
from entdist.experiments import fig2_run
from entdist.protocol import EstimatorConfig
from entdist.svgplot import _GRID, _diverging_fills, _lerp, contour_segments

METADATA = {"artifact": "entdist", "generator": "numpy-pcg64", "numpy": "x", "seed": 3,
            "config": {"task": "t", "label": 'a"b\\é'}}

# strings with every character JSON escapes or csv.writer may quote, plus
# non-ASCII ones
TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\r", "\t", "é", " ", "😀", "a", ",",
                                " "]), max_size=6)
SCALARS = (st.none() | st.booleans() | TEXT
           | st.integers(-2**70, 2**70) | st.sampled_from([2**63, -2**63 - 1, 10**30])
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
           | st.floats().map(np.float64))  # a float subclass


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(TEXT, st.integers(), max_size=4).map(Counter))


PAYLOADS = st.dictionaries(TEXT, st.recursive(SCALARS, _containers, max_leaves=30), max_size=5)

# column names with every character that CSV quoting or JSON key escaping
# touches, and braces
NAMES = st.text(st.sampled_from(['"', "\\", "{", "}", "é", ",", "\r", "a", "_"]),
                max_size=5)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
# dict keys: every character JSON escapes, and labels whose text order is not
# their numeric order
LABELS = TEXT | st.sampled_from(["10", "9", "2"])
# Python int labels, some beyond int64: their text must survive
INT_LABELS = st.integers(-2**70, 2**70) | st.sampled_from([2**63, -2**63 - 1, 10**30])


def _items(items, n: int):
    return st.lists(items, min_size=n, max_size=n)


def _flat(n: int):
    """A flat column of n rows: a float64, int64 or bool array (a strided view too),
    or a list of str or of Python int labels."""
    return st.one_of(
        _items(FLOATS, n).map(lambda v: np.array(v, np.float64)),
        _items(FLOATS, 2 * n).map(lambda v: np.array(v, np.float64)[::2]),
        _items(st.integers(-2**63, 2**63 - 1), n).map(lambda v: np.array(v, np.int64)),
        _items(st.booleans(), n).map(lambda v: np.array(v, bool)),
        _items(TEXT, n),
        _items(INT_LABELS, n),
    )


def _two_d(n: int, m=st.integers(0, 4)):
    """A 2-D float64 column of n rows of m items."""
    return m.flatmap(lambda m: _items(FLOATS, n * m).map(
        lambda v: np.array(v, np.float64).reshape(n, m)))


def _columns(n: int):
    """A results column of n rows, of any of the three shapes: a dict column's keys are
    drawn in any order, and its columns may be one 2-D block's, as nn's are."""
    keys = st.lists(LABELS, unique=True, min_size=1, max_size=4)
    return st.one_of(
        _flat(n),
        _two_d(n),
        keys.flatmap(lambda k: st.tuples(*(_flat(n) for _ in k)).map(lambda c: dict(zip(k, c)))),
        keys.flatmap(lambda k: _two_d(n, st.just(len(k))).map(lambda d: dict(zip(k, d.T)))),
    )


@st.composite
def tables(draw, rows=st.integers(0, 5)):
    """A results table of 0-5 rows (or as many as ``rows`` draws) of any columns."""
    n = draw(rows)
    names = draw(st.lists(NAMES, unique=True, max_size=5))
    return {name: draw(_columns(n)) for name in names}


def _csv_fields(table: dict) -> list:
    """The columns results.csv can name, in table order: all but the dict columns."""
    return [name for name, column in table.items() if not isinstance(column, dict)]


# (rows per block B, rows of a table around B's edges)
EDGES = st.integers(1, 3).flatmap(
    lambda b: st.tuples(st.just(b), st.sampled_from([b - 1, b, b + 1, 3 * b + 1])))


def _streams(run: Run, block_rows: int | None = None) -> dict:
    """The run's table files, each the join of its chunks; with block_rows, the
    table's blocks hold that many rows."""
    cells = (block_rows * max(len(run.summary.get("rows", ())), 1) if block_rows
             else entdist.cli._BLOCK_CELLS)
    files = {}
    with mock.patch.object(entdist.cli, "_BLOCK_CELLS", cells):
        for name, text in _artifacts(run, METADATA):
            files[name] = files.get(name, "") + text
    return files


def _json_text(payload: dict, block_rows: int | None = None) -> str:
    return _streams(Run({}, payload), block_rows)["summary.json"]


def _csv_text(fields: list, table: dict, block_rows: int | None = None) -> str:
    """results.csv of the table's fields, under a summary table of as many rows."""
    run = Run({}, {"rows": {"row": list(range(_row_count(table)))}},
              csv_columns={name: table[name] for name in fields})
    return _streams(run, block_rows)["results.csv"]


def _row_count(table: dict) -> int:
    """The length of any column that is not a dict, else of a dict's column; 0 without."""
    columns = [c for c in table.values() if not isinstance(c, dict)]
    columns += [c for d in table.values() if isinstance(d, dict) for c in d.values()]
    return len(columns[0]) if columns else 0


def _item(column, i: int):
    """Row i of a results column, as Python values."""
    if isinstance(column, dict):
        return {key: _item(c, i) for key, c in column.items()}
    return column[i].tolist() if isinstance(column, np.ndarray) else column[i]


def _as_rows(table: dict) -> list:
    """The table as the list of its rows as dicts."""
    return [{name: _item(column, i) for name, column in table.items()}
            for i in range(_row_count(table))]


@settings(max_examples=600, deadline=None)
@given(PAYLOADS)
@example({})
@example({"list": [], "counts": Counter(), "nested": [[], {}, ()], "deep": [[[[{"a": [1]}]]]]})
@example({"big": [2**63, -2**64, 10**40], "odd": [math.nan, math.inf, -math.inf, -0.0]})
def test_json_text_is_json_dumps(payload):
    want = json.dumps({"metadata": METADATA, **payload}, indent=2, sort_keys=True) + "\n"
    assert _json_text(payload) == want


def _cell_reference(value) -> str:
    """The text of one cell: a float as float.__repr__, a bool as true/false, a list
    as its %g items."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, list):
        return " ".join(f"{x:g}" for x in value)
    return str(value)


@pytest.mark.parametrize("value, text", [
    (np.float64(0.5), "0.5"), (np.float64(-0.0), "-0.0"), (np.float64("nan"), "nan"),
    (np.bool_(True), "true"), (np.bool_(False), "false"), (True, "true"), (0.1, "0.1"),
    (2**64, "18446744073709551616"), ([1.0, 0.25], "1 0.25"), ("a,b", "a,b"),
])
def test_cell_writes_numpy_scalars_as_python_ones(value, text):
    """The cell of a one-row column holding value: an array for a number, a bool or
    a row of floats, whose items are written as the Python values they hold; a list
    for a str or an int beyond int64."""
    label = isinstance(value, (str, int)) and not isinstance(value, bool)
    column = [value] if label else np.array([value])
    assert _cells(column)[1] == [_cell_reference(_item(column, 0))] == [text]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(0, 4).flatmap(lambda n: _two_d(n, st.integers(0, 6))
                                      | _two_d(n, st.integers(0, 6)).map(lambda d: d[:, ::-1])),
       special=_items(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5,
                                       9.999995e15, 1.5e-5, 2.0**53 + 2]), 2))
@example(rows=np.array([[1.0, 0.25]]), special=[1e16, -0.0])
def test_list_cells_are_each_item_formatted_with_g(rows, special):
    """A 2-D column's cell is each item of its row formatted with g, values whose
    g text is special (nan, inf, -0.0, the least subnormal) or switches notation
    among them."""
    if rows.shape[1] >= 2:
        rows = rows.copy()
        rows[:, :2] = special
    assert _cells(rows) == (list, [" ".join(map(format, row, repeat("g")))
                                   for row in rows.tolist()])


def _csv_reference(fieldnames, table, metadata):
    """The per-cell writer: row by row, every cell through _cell_reference."""
    buf = io.StringIO()
    buf.write(f"# artifact: entdist {__version__}\n")
    buf.write(f"# generator: {metadata['generator']}\n")
    buf.write(f"# numpy: {metadata['numpy']}\n")
    buf.write(f"# seed: {metadata['seed']}\n")
    buf.write(f"# config: {json.dumps(metadata['config'], sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in _as_rows(table):
        writer.writerow([_cell_reference(row[f]) for f in fieldnames])
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_csv_text_is_the_per_cell_loop(data):
    block_rows, n = data.draw(EDGES)
    table = data.draw(tables(st.just(n)))
    # every column it can name, or a subset in any order, as a command names them
    names = _csv_fields(table)
    fields = data.draw(st.just(names) | st.permutations(names).map(lambda f: f[:4]))
    assume(fields or not n)  # every command's results.csv names a column
    assert _csv_text(fields, table, block_rows) == _csv_reference(fields, table, METADATA)


@pytest.mark.parametrize("table", [
    {'say "A", é': np.array([1.5, math.nan]), "{0}": np.array([True, False])},
    {"a": [1, 2**70], "b": ["x", "y z"], "c": np.array([[1.0, 0.0], [2.0, 0.5]])},
    {"a": ["", "x"]},  # a row of one empty cell: csv.writer writes ""
    # a dict column results.csv does not name, and a 2-D column of empty rows: ""
    {"a": {"b": np.array([1.0]), "c": ["d"]}, "e": np.array([0.5]), "v": np.empty((1, 0))},
], ids=["quoted-name", "joined", "one-empty-cell", "dict-cell"])
@pytest.mark.parametrize("block_rows", [1, 2])
def test_csv_text_of_a_table_is_the_per_cell_loop(table, block_rows):
    fields = _csv_fields(table)
    assert _csv_text(fields, table, block_rows) == _csv_reference(fields, table, METADATA)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS,
       EDGES.flatmap(lambda edge: st.tuples(st.just(edge[0]), tables(rows=st.just(edge[1])))))
@example({}, (1, {}))
@example({}, (2, {"a": np.empty(0), "b": []}))
@example({}, (1, {"v": np.empty((2, 0)), "d": {"x": np.empty((2, 0))[:, :0].sum(1)}}))
@example({"more": [1.0]},
         (1, {"{0}": np.array([0.5, -0.0]), '"}': np.array([math.nan, 5e-324]),
              "é\\": [2**64, -1], "v": np.array([[1.0, 2.0], [3.0, math.inf]]),
              "d": {"b": np.array([1.0, 2.0]), "a": np.array([3, 4])},
              "f": np.array([0.1, -math.inf]), "m": np.array([False, True])}))
def test_json_text_of_a_table_is_json_dumps_of_its_rows(payload, sized):
    block_rows, rows = sized
    payload = {**payload, "rows": rows}
    want = json.dumps({"metadata": METADATA, **payload, "rows": _as_rows(rows)}, indent=2,
                      sort_keys=True)
    fields = _csv_fields(rows)
    assume(fields or not _row_count(rows))  # every command's results.csv names a column
    files = _streams(Run({}, payload), block_rows)
    assert files["summary.json"] == want + "\n"
    # the files share each block of the table and the texts of its cells; results.csv
    # holds its flat and 2-D columns in table order
    assert files["results.csv"] == _csv_reference(fields, rows, METADATA)


ODD = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
# name -> a column of two rows.  The first six are of the contract's nested
# shapes; the others hold a Python container per row, which no command makes
# any more: the writers refuse such a column rather than guess its layout.
NESTED = {
    "float rows": np.array([ODD, [1.5, 0.1, -2.0, 1e300, 2.5]]),
    "one float row": np.array([[math.inf], [0.0]]),
    "empty rows": np.empty((2, 0)),
    "dicts of one key order": {"9": np.array([0.5, 5e-324]), "10": np.array([math.nan, -math.inf]),
                               '"\\é': np.array([-0.0, 2.0])},
    "one key": {"b": np.array([1.0, math.inf])},
    "empty dicts": {},
    "ragged rows": [[1.0, 2.0], [3.0]],
    "an int among floats": [[1.0, 2.0], [3.0, 4]],
    "np.float64 items": [[np.float64(1.0)], [np.float64(math.nan)]],
    "a list in a row": [[1.0, [2.0]], [3.0, 4.0]],
    "dicts of two key orders": [{"a": 1.0, "b": 2.0}, {"b": 1.0, "a": 2.0}],
    "dicts of two key sets": [{"a": 1.0}, {"b": 1.0}],
    "tuples": [(1.0, 2.0), (3.0, 4.0)],
}


EDGES_AT_BLOCK = ["B-1", "B", "B+1", "3B+1"]


def _edge(label: str, columns: int) -> int:
    """The rows of a table of that many columns at the block edge the label names."""
    b = max(1, entdist.cli._BLOCK_CELLS // columns)
    return {"B-1": b - 1, "B": b, "B+1": b + 1, "3B+1": 3 * b + 1}[label]


def _taken(column, rows: list):
    """The column's rows at the given indices."""
    if isinstance(column, dict):
        return {key: _taken(c, rows) for key, c in column.items()}
    return column[rows] if isinstance(column, np.ndarray) else [column[i] for i in rows]


@pytest.mark.parametrize("column", NESTED.values(), ids=NESTED)
@pytest.mark.parametrize("rows", [0, 1, 2, *EDGES_AT_BLOCK])
def test_nested_columns_are_json_dumps_of_their_rows(column, rows):
    if rows in EDGES_AT_BLOCK:  # the first row of the shape, and a quotable name, last only
        n = _edge(rows, 2)
        table = {"name": ["x"] * (n - 1) + ['say "A", é'],
                 "nested": _taken(column, [1] * (n - 1) + [0])}
    else:
        table = {"name": ["x", "y"][:rows], "nested": _taken(column, list(range(rows)))}
    if isinstance(column, list) and rows:
        with pytest.raises(KeyError):  # a per-row container is no flat column's kind
            _json_text({"rows": table})
        return
    want = json.dumps({"metadata": METADATA, "rows": _as_rows(table)}, indent=2, sort_keys=True)
    assert _json_text({"rows": table}) == want + "\n"


@pytest.mark.parametrize("rows", EDGES_AT_BLOCK)
def test_cells_only_the_last_block_holds_change_no_byte(rows):
    """A quotable text, an empty text and non-finite floats in the last block only:
    each block picks its own way to write, and both files are the whole table's."""
    n = _edge(rows, 6)
    table = {"index": np.arange(n), "x": np.arange(n) / 7,
             "label": ["a", "b"] * (n // 2) + ["a"] * (n % 2),
             "flag": np.arange(n) % 3 == 0,
             "vector": np.column_stack([np.arange(n) / 3, np.ones(n)]),
             "note": ["ok"] * n}
    table["label"][-1] = 'say "A", é'
    table["note"][-1] = ""
    table["x"][-3:] = [math.nan, math.inf, -math.inf]
    table["vector"][-1] = [math.nan, -math.inf]
    fields = ["index", "label", "x", "note", "vector", "flag"]
    files = _streams(Run({}, {"rows": table, "count": n},
                         csv_columns={name: table[name] for name in fields}))
    assert files["results.csv"] == _csv_reference(fields, table, METADATA)
    want = json.dumps({"metadata": METADATA, "rows": _as_rows(table), "count": n}, indent=2,
                      sort_keys=True)
    assert files["summary.json"] == want + "\n"


# task -> a small config of it; nn twice, with and without an added training vector
TRAINING = [{"label": "blue", "vector": [0.5, 0.5]}, {"label": "red", "vector": [2.5, 2.5]}]
TASK_CONFIGS = {
    "estimate": {"u": [3.0, 4.0], "v": [1.0, 0.0]},
    "classify": {"vectors": [[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                 "references": [{"label": "A", "vector": [1.5, 0.55]},
                                {"label": "B", "vector": [0.86, 2.35]}]},
    "nn": {"vectors": [[0.6, 0.6], [2.4, 2.4]], "training": {"initial": TRAINING}},
    "nn-two-phase": {"vectors": [[0.6, 0.6], [2.4, 2.4], [1.4, 1.6]],
                     "training": {"initial": TRAINING,
                                  "added": {"label": "blue", "vector": [2.35, 2.35]}}},
    "cluster": {"vectors": [[1.0, 1.0], [1.1, 1.0], [5.0, 5.0], [5.1, 5.0]], "k": 2,
                "init": [2**70, 0, 2**70, 0]},
    "table1": {}, "table2": {}, "fig2": {"count": 12}, "fig3": {}, "figS1": {},
}


def _shape(column, n: int) -> str | None:
    """Which of the three shapes a column of n rows has: flat, 2-D or dict; None if none."""
    if isinstance(column, dict):
        return "dict" if all(_shape(c, n) == "flat" for c in column.values()) else None
    if isinstance(column, np.ndarray):
        if column.shape == (n,) and column.dtype in (np.float64, np.int64, np.bool_):
            return "flat"
        two_d = column.ndim == 2 and len(column) == n and column.dtype == np.float64
        return "2-D" if two_d else None
    kinds = set(map(type, column))
    return "flat" if type(column) is list and len(column) == n and kinds in ({str}, {int}) \
        else None


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("task", TASK_CONFIGS)
def test_every_command_makes_columns_of_the_three_shapes(task, mode):
    name = task.partition("-")[0]
    command, _, _, noise, _ = TASKS[name]
    run = command({"task": name, **TASK_CONFIGS[task]},
                  EstimatorConfig(mode=mode, shots=200, seed=1, noise=_noise_from(noise)))
    table, files = run.summary.get("rows"), _streams(run)
    assert (table is None) == (name == "estimate") == ("results.csv" not in files)
    if table is None:
        return
    n = len(table["index"])
    shapes = {key: _shape(column, n) for key, column in table.items()}
    assert None not in shapes.values(), shapes
    assert None not in map(_shape, (run.csv_columns or {}).values(), repeat(n))
    assert ("dict" in shapes.values()) == (task in ("nn-two-phase", "figS1"))
    # results.csv: the table's flat and 2-D columns in order, but the paper's columns of
    # table1/table2, whose theory column is written as printed, to two decimals
    tabulated = name in ("table1", "table2")
    header, *rows = csv.reader(line for line in io.StringIO(files["results.csv"])
                               if not line.startswith("# "))
    assert header == [key for key, shape in shapes.items()
                      if shape != "dict" and not (tabulated and key.startswith("paper_"))]
    assert len(rows) == n
    if tabulated:
        theory = [row[header.index("theory_diff")] for row in rows]
        assert theory == ["%.2f" % value for value in table["theory_diff"].tolist()]


def test_fig2_columns_hold_less_than_100_bytes_a_row():
    """fig2's numeric columns are arrays, not lists of Python floats (about 256 bytes a row)."""
    cfg = EstimatorConfig(mode="sampled", shots=1000)
    fig2_run(cfg, count=10)  # what a first run allocates once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fig2_run(cfg, count=20_000)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(result["rows"]["index"]) == 20_000
    assert held < 100 * 20_000


def _fig2_write_peak(directory, count: int) -> int:
    """The bytes the writers allocate at their peak for exact fig2's table of count rows."""
    run = Run({}, fig2_run(EstimatorConfig(mode="exact"), count=count))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _stream(directory, _artifacts(run, METADATA))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writing_holds_one_block_not_the_file(tmp_path):
    # whole-file texts made the peak grow with the table: about 4x from 10,000 to 40,000 rows
    assert _fig2_write_peak(tmp_path, 40_000) <= 1.25 * _fig2_write_peak(tmp_path, 10_000)


def _contour_reference(f, xlim, ylim):
    """Marching squares over every grid cell."""
    x0, x1 = xlim
    y0, y1 = ylim
    xs = [x0 + (x1 - x0) * i / _GRID for i in range(_GRID + 1)]
    ys = [y0 + (y1 - y0) * j / _GRID for j in range(_GRID + 1)]
    grid = [[f(x, y) for x in xs] for y in ys]
    segments = []
    for j in range(_GRID):
        for i in range(_GRID):
            corners = [
                (xs[i], ys[j], grid[j][i]),
                (xs[i + 1], ys[j], grid[j][i + 1]),
                (xs[i + 1], ys[j + 1], grid[j + 1][i + 1]),
                (xs[i], ys[j + 1], grid[j + 1][i]),
            ]
            crossings = []
            for k in range(4):
                xa, ya, fa = corners[k]
                xb, yb, fb = corners[(k + 1) % 4]
                if (fa < 0.0) != (fb < 0.0):
                    t = fa / (fa - fb)
                    crossings.append((_lerp(xa, xb, t), _lerp(ya, yb, t)))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                center = sum(c[2] for c in corners) / 4.0
                if (corners[0][2] < 0.0) != (center < 0.0):
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


def _length(x, y):
    """|(x, y)| with (x, y) scaled by 2^-e, e the frexp exponent of the larger
    |component|, and its squares summed x * x + y * y."""
    e = math.frexp(max(abs(x), abs(y)))[1]
    x, y = math.ldexp(x, -e), math.ldexp(y, -e)
    return math.ldexp(math.sqrt(x * x + y * y), e)


def _nearest_gap(first, second):
    """The distance from (x, y) to the nearest point of first minus that to
    the nearest of second, point by point."""
    return lambda x, y: (min(_length(x - q0, y - q1) for q0, q1 in first)
                         - min(_length(x - q0, y - q1) for q0, q1 in second))


def _saddles(x, y):  # sign changes in many cells, with saddles of both orientations
    return np.sin(37.0 * x) * np.sin(41.0 * y) + 0.05 * np.sin(3.0 * x)


FIG2_REFS = [(1.5, 0.55), (0.86, 2.35)]
DIAGONAL = [(1.0, 0.0), (0.0, 1.0)]  # exact zeros on the grid
# the bisector runs through grid points, where the sign of the gap rests on its last bits
THROUGH_GRID_POINTS = [(-0.77, -1.41), (-0.76, -1.40)]
NN_FIRST, NN_SECOND = [(0.5, 0.25), (0.3, 1.1)], [(1.0, 0.25), (1.2, 0.9)]


@pytest.mark.parametrize("f, at_point, lim", [
    (_distance_gap(*([r] for r in FIG2_REFS)), _nearest_gap(*([r] for r in FIG2_REFS)),
     (0.0, 3.0)),
    (_distance_gap(*([r] for r in DIAGONAL)), _nearest_gap(*([r] for r in DIAGONAL)),
     _square_limits(np.array(DIAGONAL))),
    (_saddles, _saddles, (-0.5, 0.5)),
    (_distance_gap(*([r] for r in THROUGH_GRID_POINTS)),
     _nearest_gap(*([r] for r in THROUGH_GRID_POINTS)),
     _square_limits(np.array(THROUGH_GRID_POINTS))),
    (_distance_gap(*_nn_sets(NN_FIRST + NN_SECOND, ["a"] * len(NN_FIRST) + ["b"] * len(NN_SECOND))),
     _nearest_gap(NN_FIRST, NN_SECOND), _square_limits(np.array(NN_FIRST + NN_SECOND))),
], ids=["fig2-bisector", "diagonal-bisector", "saddle-grid", "bisector-through-grid-points",
        "nearest-neighbor"])
def test_contour_segments_is_the_full_grid_loop(f, at_point, lim):
    got = contour_segments(f, lim)
    assert got and got == _contour_reference(at_point, lim, lim)


def _scaled(values, k):
    """values, nested lists and tuples of floats, each times 2^k."""
    if isinstance(values, float):
        return math.ldexp(values, k)
    return type(values)(_scaled(v, k) for v in values)


@pytest.mark.parametrize("k", [-1000, -1, 1, 1000])
@pytest.mark.parametrize("first, second, window", [
    (FIG2_REFS[:1], FIG2_REFS[1:], (0.0, 3.0)),
    (THROUGH_GRID_POINTS[:1], THROUGH_GRID_POINTS[1:],
     _square_limits(np.array(THROUGH_GRID_POINTS))),
    (NN_FIRST, NN_SECOND, _square_limits(np.array(NN_FIRST + NN_SECOND))),
], ids=["fig2-bisector", "bisector-through-grid-points", "nearest-neighbor"])
def test_plotted_boundaries_are_power_of_two_covariant(first, second, window, k):
    def segments(k):
        return contour_segments(_distance_gap(_scaled(first, k), _scaled(second, k)),
                                _scaled(window, k))

    want = segments(0)
    assert want and segments(k) == _scaled(want, k)


def _diverging_color(t: float) -> str:
    """Blue (-1) through white (0) to red (+1), clipped outside [-1, 1]."""
    t = min(max(t, -1.0), 1.0)
    blue, white, red = (33, 102, 172), (247, 247, 247), (178, 24, 43)
    lo, hi, s = (blue, white, t + 1.0) if t < 0 else (white, red, t)
    rgb = tuple(int(round(_lerp(a, b, s))) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0) | st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
                min_size=1, max_size=50))
@example([i / 138.0 for i in range(-140, 141)])  # 0.5 / 69 steps: many channel halves
def test_polar_fills_are_the_scalar_diverging_color(values):
    assert _diverging_fills(np.array(values)) == [_diverging_color(t) for t in values]
