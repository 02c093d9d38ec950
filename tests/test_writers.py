"""The artifact writers against the straightforward code they replace.

``summary.json`` must be ``json.dumps(indent=2, sort_keys=True)`` text (a
results table as the list of its rows as dicts), ``results.csv`` the
per-cell loop, the plotted boundary the marching-squares loop over every
grid cell of a gap evaluated point by point in Python floats, and the fig2
fills the scalar diverging colour map; each reference below is that code,
kept here.  The two table files are written as one stream of row blocks, so
the tables below cross block edges: a block of B rows, tables of B - 1, B,
B + 1 and 3B + 1 rows.
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entdist.cli
from entdist import __version__
from entdist.cli import (Run, Table, _artifacts, _cell, _distance_gap, _nested_json, _nn_sets,
                         _square_limits, _stream)
from entdist.experiments import fig2_run
from entdist.ml import LabeledReference
from entdist.protocol import EstimatorConfig
from entdist.svgplot import _GRID, _diverging_fills, _lerp, contour_segments

METADATA = {"artifact": "entdist", "generator": "numpy-pcg64", "numpy": "x", "seed": 3,
            "config": {"task": "t", "label": 'a"b\\é'}}

# strings with every character JSON escapes or csv.writer may quote, plus
# non-ASCII ones
TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\r", "\t", "é", " ", "😀", "a", ",",
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
NAMES = st.text(st.sampled_from(['"', "\\", "{", "}", "\u00e9", ",", "\r", "a", "_"]),
                max_size=5)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
# dict keys: every character JSON escapes, and labels whose text order is not
# their numeric order
LABELS = TEXT | st.sampled_from(["10", "9", "2"])


def _rows(items):
    """The values of a column of lists of one length, drawn once per column."""
    return st.integers(0, 4).map(lambda m: st.lists(items, min_size=m, max_size=m))


def _keyed(items, reordered=False):
    """The values of a column of dicts over one drawn key list, in the drawn
    order, or in an order drawn per row."""
    def values(keys):
        order = st.permutations(keys) if reordered else st.just(keys)
        return st.tuples(order, st.lists(items, min_size=len(keys), max_size=len(keys)))\
            .map(lambda pair: dict(zip(*pair)))
    return st.lists(LABELS, unique=True, max_size=4).map(values)


# the values of one column: of one type, as a command builds them, or mixed
COLUMN_CELLS = st.sampled_from([
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-2**70, 2**70) | st.sampled_from([2**63, -2**63 - 1, 10**30]),
    st.booleans(),
    TEXT,
    SCALARS,
    st.lists(st.floats(allow_nan=False), max_size=3),
    st.dictionaries(TEXT, FLOATS, max_size=3),
]) | st.one_of(
    # nested columns summary.json formats a column at a time
    _rows(FLOATS), _keyed(FLOATS),
    # and nested columns it formats cell by cell
    _rows(FLOATS | st.integers(-3, 3)), _rows(FLOATS.map(np.float64)), _keyed(FLOATS, True),
)


@st.composite
def tables(draw, cells=COLUMN_CELLS, rows=st.integers(0, 5)):
    """A Table of 0-5 rows (or as many as ``rows`` draws) whose every column draws
    its values from one strategy."""
    n = draw(rows)
    names = draw(st.lists(NAMES, unique=True, max_size=5))
    return Table({name: draw(st.lists(draw(cells), min_size=n, max_size=n)) for name in names})


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


def _csv_text(fields: list, table: Table, block_rows: int | None = None) -> str:
    """results.csv of the table, under a summary table of as many rows (the cells may
    be numpy scalars, which summary.json would not take)."""
    n = len(next(iter(table.values()), ()))
    run = Run({}, {"rows": Table({"row": list(range(n))})}, fields, table)
    return _streams(run, block_rows)["results.csv"]


def _as_rows(obj):
    """obj with every Table replaced by the list of its rows as dicts."""
    if isinstance(obj, Table):
        return [dict(zip(obj, values)) for values in zip(*obj.values())]
    if isinstance(obj, dict):
        return type(obj)({key: _as_rows(value) for key, value in obj.items()})
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_as_rows, obj))
    return obj


@settings(max_examples=600, deadline=None)
@given(PAYLOADS)
@example({})
@example({"rows": [], "counts": Counter(), "nested": [[], {}, ()], "deep": [[[[{"a": [1]}]]]]})
@example({"big": [2**63, -2**64, 10**40], "odd": [math.nan, math.inf, -math.inf, -0.0]})
def test_json_text_is_json_dumps(payload):
    want = json.dumps({"metadata": METADATA, **payload}, indent=2, sort_keys=True) + "\n"
    assert _json_text(payload) == want


def _cell_reference(value) -> str:
    """The text of one cell: a float (numpy's too) as float.__repr__, a bool
    (numpy's too) as true/false, a list or tuple as its %g items."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return " ".join(f"{x:g}" for x in value)
    return str(value)


@pytest.mark.parametrize("value, text", [
    (np.float64(0.5), "0.5"), (np.float64(-0.0), "-0.0"), (np.float64("nan"), "nan"),
    (np.bool_(True), "true"), (np.bool_(False), "false"), (True, "true"), (0.1, "0.1"),
    (2**64, "18446744073709551616"), ([1.0, 0.25], "1 0.25"), ("a,b", "a,b"),
])
def test_cell_writes_numpy_scalars_as_python_ones(value, text):
    assert _cell(value) == _cell_reference(value) == text


# list-cell items: floats, ints, bools and np.float64, with the values whose %g text
# is special (nan, ±inf, −0.0, the least subnormal) or switches notation (1e16, 1e-5)
LIST_ITEMS = (st.floats() | st.integers(-2**70, 2**70) | st.booleans()
              | st.floats().map(np.float64)
              | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5,
                                 9.999995e15, 1.5e-5, 2**53 + 1]))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(LIST_ITEMS, max_size=6)
                     | st.lists(LIST_ITEMS, max_size=6).map(tuple), max_size=4))
@example(rows=[[1.0, 0.25], [], (3,), [True, False, np.float64(-0.0)]])  # ragged rows
def test_list_cells_are_each_item_formatted_with_g(rows):
    for row in rows:
        assert _cell(row) == " ".join(map(format, row, repeat("g")))


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


CELLS = (SCALARS | st.booleans().map(np.bool_) | st.lists(st.floats(allow_nan=False), max_size=3)
         | st.lists(st.integers(-9, 9), max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_csv_text_is_the_per_cell_loop(data):
    block_rows, n = data.draw(EDGES)
    table = data.draw(tables(COLUMN_CELLS | st.just(CELLS), st.just(n)))
    # every column, or a subset in any order, as a command names them
    fields = data.draw(st.just(list(table)) | st.permutations(list(table)).map(lambda f: f[:4]))
    assert _csv_text(fields, table, block_rows) == _csv_reference(fields, table, METADATA)


@pytest.mark.parametrize("table", [
    Table({'say "A", \u00e9': [1.5, math.nan], "{0}": [np.bool_(True), False]}),
    Table({"a": [1.5, 2**70], "b": ["x", "y z"], "c": [[1.0], [2.0, 0.5]]}),  # joined
    Table({"a": ["", "x"]}),  # a row of one empty cell: csv.writer writes ""
    Table({"a": [{"b": 1.0, "c": "d"}], "e": [0.5]}),  # "{'b': 1.0, 'c': 'd'}"
], ids=["quoted-name", "joined", "one-empty-cell", "dict-cell"])
@pytest.mark.parametrize("block_rows", [1, 2])
def test_csv_text_of_a_table_is_the_per_cell_loop(table, block_rows):
    assert _csv_text(list(table), table, block_rows) == _csv_reference(list(table), table,
                                                                       METADATA)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(TEXT, st.recursive(SCALARS | tables(), _containers, max_leaves=8),
                       max_size=4),
       EDGES.flatmap(lambda edge: st.tuples(st.just(edge[0]), tables(rows=st.just(edge[1])))))
@example({}, (1, Table()))
@example({}, (2, Table({"a": [], "b": []})))
@example({}, (1, Table({"v": [[], []], "d": [{}, {}]})))  # no column holds a text per row
@example({"more": [Table({"x": [1.0]})]},
         (1, Table({"{0}": [0.5, -0.0], '"}': [math.nan, 5e-324], "\u00e9\\": [2**64, -1],
                    "v": [[1.0, 2.0], []], "d": [{"b": 1.0, "a": math.inf}, {}],
                    "f": [np.float64(0.1), np.float64(-math.inf)], "m": [None, True]})))
def test_json_text_of_a_table_is_json_dumps_of_its_rows(payload, sized):
    block_rows, rows = sized
    payload = {**payload, "rows": rows}
    want = json.dumps({"metadata": METADATA, **_as_rows(payload)}, indent=2, sort_keys=True)
    files = _streams(Run({}, payload, list(rows), rows), block_rows)
    assert files["summary.json"] == want + "\n"
    # the files share each block of the table and the texts of its cells
    assert files["results.csv"] == _csv_reference(list(rows), rows, METADATA)


ODD = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
NESTED = {  # name -> (column, formatted a column at a time)
    "float rows": ([ODD, [1.5, 0.1, -2.0, 1e300, 2.5]], True),
    "one float row": ([[math.inf], [0.0]], True),
    "empty rows": ([[], []], False),
    "dicts of one key order": ([{"9": 0.5, "10": math.nan, '"\\\u00e9': -0.0},
                                {"9": 5e-324, "10": -math.inf, '"\\\u00e9': 2.0}], True),
    "one key": ([{"b": 1.0}, {"b": math.inf}], True),
    "empty dicts": ([{}, {}], False),
    "ragged rows": ([[1.0, 2.0], [3.0]], False),
    "an int among floats": ([[1.0, 2.0], [3.0, 4]], False),
    "np.float64 items": ([[np.float64(1.0)], [np.float64(math.nan)]], False),
    "a list in a row": ([[1.0, [2.0]], [3.0, 4.0]], False),
    "dicts of two key orders": ([{"a": 1.0, "b": 2.0}, {"b": 1.0, "a": 2.0}], False),
    "dicts of two key sets": ([{"a": 1.0}, {"b": 1.0}], False),
    "tuples": ([(1.0, 2.0), (3.0, 4.0)], False),
}


EDGES_AT_BLOCK = ["B-1", "B", "B+1", "3B+1"]


def _edge(label: str, columns: int) -> int:
    """The rows of a table of that many columns at the block edge the label names."""
    b = max(1, entdist.cli._BLOCK_CELLS // columns)
    return {"B-1": b - 1, "B": b, "B+1": b + 1, "3B+1": 3 * b + 1}[label]


@pytest.mark.parametrize("column, at_once", NESTED.values(), ids=NESTED)
@pytest.mark.parametrize("rows", [0, 1, 2, *EDGES_AT_BLOCK])
def test_nested_columns_are_json_dumps_of_their_rows(column, at_once, rows):
    if rows in EDGES_AT_BLOCK:  # the first row of the shape, and a quotable name, last only
        n = _edge(rows, 2)
        table = Table({"name": ["x"] * (n - 1) + ['say "A", \u00e9'],
                       "nested": [column[-1]] * (n - 1) + [column[0]]})
    else:
        table = Table({"name": ["x", "y"][:rows], "nested": column[:rows]})
    want = json.dumps({"metadata": METADATA, "rows": _as_rows(table)}, indent=2, sort_keys=True)
    assert _json_text({"rows": table}) == want + "\n"
    if rows == len(column):  # one row of any of these shapes is a column of one shape
        assert (_nested_json(column, table.kind("nested"), 2) is not None) == at_once


@pytest.mark.parametrize("rows", EDGES_AT_BLOCK)
def test_cells_only_the_last_block_holds_change_no_byte(rows):
    """A quotable text, an empty text and non-finite floats in the last block only:
    each block picks its own way to write, and both files are the whole table's."""
    n = _edge(rows, 6)
    table = Table({"index": list(range(n)), "x": [i / 7 for i in range(n)],
                   "label": ["a", "b"] * (n // 2) + ["a"] * (n % 2),
                   "flag": [i % 3 == 0 for i in range(n)],
                   "vector": [[i / 3, 1.0] for i in range(n)],
                   "note": ["ok"] * n})
    table["label"][-1] = 'say "A", \u00e9'
    table["note"][-1] = ""
    table["x"][-3:] = [math.nan, math.inf, -math.inf]
    table["vector"][-1] = [math.nan, -math.inf]
    fields = ["index", "label", "x", "note", "vector", "flag"]
    files = _streams(Run({}, {"rows": table, "count": n}, fields, table))
    assert files["results.csv"] == _csv_reference(fields, table, METADATA)
    want = json.dumps({"metadata": METADATA, "rows": _as_rows(table), "count": n}, indent=2,
                      sort_keys=True)
    assert files["summary.json"] == want + "\n"


def _fig2_write_peak(directory, count: int) -> int:
    """The bytes the writers allocate at their peak for exact fig2's table of count rows."""
    result = fig2_run(EstimatorConfig(mode="exact"), count=count)
    rows = Table(result["rows"])
    run = Run({}, {**result, "rows": rows}, list(rows), rows)
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
    (_distance_gap(*_nn_sets([LabeledReference(q, label) for label, points
                              in (("a", NN_FIRST), ("b", NN_SECOND)) for q in points])),
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
