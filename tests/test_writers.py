"""The artifact writers against the straightforward code they replace.

``summary.json`` must be ``json.dumps(indent=2, sort_keys=True)`` text,
``results.csv`` the per-cell ``_cell`` loop, the plotted boundary the
marching-squares loop over every grid cell, and the fig2 fills the scalar
diverging colour map; each reference below is that code, kept here.
"""

import csv
import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entdist import __version__
from entdist.cli import _bisector, _cell, _csv_text, _json_text
from entdist.svgplot import _GRID, _diverging_fills, _lerp, contour_segments

METADATA = {"artifact": "entdist", "generator": "numpy-pcg64", "numpy": "x", "seed": 3,
            "config": {"task": "t", "label": 'a"b\\é'}}

# strings with every character JSON escapes, plus non-ASCII ones
TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\t", "é", " ", "😀", "a", ",", " "]),
               max_size=6)
SCALARS = (st.none() | st.booleans() | TEXT
           | st.integers(-2**70, 2**70) | st.sampled_from([2**63, -2**63 - 1, 10**30])
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
           | st.floats().map(np.float64))  # a float subclass


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(TEXT, st.integers(), max_size=4).map(Counter))


PAYLOADS = st.dictionaries(TEXT, st.recursive(SCALARS, _containers, max_leaves=30), max_size=5)


@settings(max_examples=600, deadline=None)
@given(PAYLOADS)
@example({})
@example({"rows": [], "counts": Counter(), "nested": [[], {}, ()], "deep": [[[[{"a": [1]}]]]]})
@example({"big": [2**63, -2**64, 10**40], "odd": [math.nan, math.inf, -math.inf, -0.0]})
def test_json_text_is_json_dumps(payload):
    want = json.dumps({"metadata": METADATA, **payload}, indent=2, sort_keys=True) + "\n"
    assert _json_text(payload, METADATA) == want


def _csv_reference(fieldnames, rows, metadata):
    """The per-cell writer: every cell goes through _cell."""
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


CELLS = (SCALARS | st.lists(st.floats(allow_nan=False), max_size=3)
         | st.lists(st.integers(-9, 9), max_size=3).map(tuple))
FIELDS = ["index", "a", "b", "c"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fixed_dictionaries({f: CELLS for f in FIELDS}), max_size=6),
       st.sampled_from([None, bool, float, str]))
def test_csv_text_is_the_per_cell_loop(rows, column_type):
    # a column of one type, as every real column is, next to mixed ones
    if column_type is not None:
        for i, row in enumerate(rows):
            row["index"] = column_type(i % 2)
    assert _csv_text(FIELDS, rows, METADATA) == _csv_reference(FIELDS, rows, METADATA)


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


@pytest.mark.parametrize("f, xlim, ylim", [
    (_bisector((1.5, 0.55), (0.86, 2.35)), (0.0, 3.0), (0.0, 3.0)),  # the fig2 boundary
    (_bisector((1.0, 0.0), (0.0, 1.0)), (-0.25, 1.25), (-0.25, 1.25)),  # exact zeros on the grid
    # sign changes in most cells, with saddles of both orientations
    (lambda x, y: math.sin(37.0 * x) * math.sin(41.0 * y) + 0.05 * math.sin(3.0 * x),
     (0.0, 1.0), (-0.5, 0.5)),
], ids=["fig2-bisector", "diagonal-bisector", "saddle-grid"])
def test_contour_segments_is_the_full_grid_loop(f, xlim, ylim):
    got = contour_segments(f, xlim, ylim)
    assert got and got == _contour_reference(f, xlim, ylim)


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
