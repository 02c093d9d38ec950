"""Geometry of the plotted decision boundaries."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from entdist.cli import _distance_gap, _nn_sets, _square_limits, main
from entdist.svgplot import _Panel, _ticks, contour_segments


def test_bisector_contour_lies_on_the_perpendicular_bisector():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = (tuple(rng.uniform(-3.0, 3.0, 2).tolist()) for _ in range(2))
        gap = _distance_gap([a], [b])
        assert gap(*a) < 0.0 < gap(*b)
        lim = _square_limits(np.array([a, b]))
        segments = contour_segments(gap, lim)
        assert segments
        mx, my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        nx, ny = b[0] - a[0], b[1] - a[1]
        worst = max(abs((x - mx) * nx + (y - my) * ny) / math.hypot(nx, ny)
                    for segment in segments for x, y in segment)
        assert worst <= 1e-3 * (lim[1] - lim[0])


@pytest.mark.parametrize("center_sign", [1.0, -1.0])
def test_saddle_cell_cuts_off_the_corners_of_the_other_sign(center_sign):
    h = 1.0 / 160  # one contour grid cell of the unit window
    lo, hi = 80 * h, 81 * h
    c = (lo + hi) / 2.0

    def f(x, y):  # corners alternate in sign; the center takes center_sign
        return (x - c) * (y - c) + center_sign * 0.1 * h * h

    in_cell = [segment for segment in contour_segments(f, (0.0, 1.0))
               if all(lo - 1e-12 <= v <= hi + 1e-12 for point in segment for v in point)]
    assert len(in_cell) == 2
    cut_off = set()
    for (ax, ay), (bx, by) in in_cell:
        # the midpoint lies in the quadrant of the corner the segment cuts off
        corner = (hi if (ax + bx) / 2.0 > c else lo, hi if (ay + by) / 2.0 > c else lo)
        assert (f(*corner) < 0.0) != (f(c, c) < 0.0)
        cut_off.add(corner)
    assert len(cut_off) == 2


@pytest.mark.parametrize("labels", [["a"], ["a", "a"], ["a", "b", "c"]])
def test_nn_gap_needs_exactly_two_labels(labels):
    points = [[float(i), 1.0] for i in range(len(labels))]
    assert _nn_sets(points, labels) is None


def test_nn_gap_is_the_first_sorted_label_minus_the_second():
    gap = _distance_gap(*_nn_sets([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]], ["red", "blue", "red"]))
    assert gap(0.0, 1.0) < 0.0 < gap(1.0, 0.0)  # "blue" sorts first
    assert gap(0.0, 2.0) == pytest.approx(1.0 - math.sqrt(5.0))
    assert gap(3.0, 2.5) == pytest.approx(math.hypot(3.0, 1.5) - 0.5)


@pytest.mark.parametrize("label", ["x]]>y", "a > b", "<&>"])
def test_desc_holds_the_metadata_whatever_the_labels(capsys, tmp_path, label):
    # "]]>" may not appear in XML text: the desc escapes ">" as JSON does "<" and "&"
    references = [{"label": label, "vector": [1, 0]}, {"label": "B", "vector": [0, 1]}]
    (tmp_path / "c.json").write_text(json.dumps({"vectors": [[2, 0]], "references": references}))
    out = tmp_path / "out"
    code = main(["classify", "--config", str(tmp_path / "c.json"), "--out", str(out), "--plot"])
    assert code == 0, capsys.readouterr().err
    svg = ElementTree.parse(out / "plot.svg").getroot()
    metadata = json.loads(svg.find("{http://www.w3.org/2000/svg}desc").text)
    assert metadata == json.loads((out / "summary.json").read_text())["metadata"]
    assert metadata["config"]["references"] == {label: [1.0, 0.0], "B": [0.0, 1.0]}


def _boundary_lines(capsys, tmp_path, k):
    """The <line> elements of the classify plot of the fig2 pair and (2, 0), all times 2^k."""
    def scaled(v):
        return [math.ldexp(x, k) for x in v]

    config = {"vectors": [scaled([2.0, 0.0])],
              "references": [{"label": "A", "vector": scaled([1.5, 0.55])},
                             {"label": "B", "vector": scaled([0.86, 2.35])}]}
    (tmp_path / f"{k}.json").write_text(json.dumps(config))
    out = tmp_path / f"out{k}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow would raise
        code = main(["classify", "--config", str(tmp_path / f"{k}.json"), "--out", str(out),
                     "--plot"])
    assert (code, capsys.readouterr().err) == (0, "")
    return [line for line in (out / "plot.svg").read_text().splitlines()
            if line.startswith("<line")]


def test_a_window_near_float64s_largest_value_draws_the_same_boundary(capsys, tmp_path):
    # (hi - lo) * 160 overflows at 2^1020: each boundary is traced in its window scaled
    # by a power of two
    lines = _boundary_lines(capsys, tmp_path, 60)
    assert len(lines) > 100
    assert _boundary_lines(capsys, tmp_path, 1020) == lines


def _f_string_lines(panel, segs, dash, xs, ys, fills, edges):
    """A panel's segment and circle lines built one f-string per element: the reference."""
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    lines = [f'<line x1="{panel.x(ax):.2f}" y1="{panel.y(ay):.2f}" '
             f'x2="{panel.x(bx):.2f}" y2="{panel.y(by):.2f}" '
             f'stroke="#888888" stroke-width="1.8"{dash_attr}/>'
             for (ax, ay), (bx, by) in segs]
    circles = [f'<circle cx="{panel.x(x):.2f}" cy="{panel.y(y):.2f}" r="5.0" '
               f'fill="{fill}" stroke="{edge}" stroke-width="1.6"/>'
               for x, y, fill, edge in zip(xs.tolist(), ys.tolist(), fills, edges)]
    return lines, circles


@pytest.mark.parametrize("lim, dash", [((0.0, 2.5), None), ((-3.0, 1.5), "6 4"),
                                       ((1e300, 1.5e300), "6 4")],
                         ids=["polar", "cartesian-dashed", "near-the-largest-float"])
@pytest.mark.parametrize("n_segments", [0, 1, 40])
def test_panel_lines_are_the_per_element_f_strings(lim, dash, n_segments):
    rng = np.random.default_rng(n_segments)
    lo, hi = lim
    # a few points on and past the window's edges, and -0.0
    xs, ys = lo + (hi - lo) * rng.uniform(-0.1, 1.1, (2, 50))
    xs[:3], ys[:3] = [lo, hi, -0.0], [hi, lo, -0.0]
    ends = lo + (hi - lo) * rng.uniform(0.0, 1.0, (n_segments, 2, 2))
    segs = [tuple(map(tuple, segment)) for segment in ends.tolist()]
    fills = [f"#{i:06x}" for i in range(50)]
    edges = ["#333333", "%s 50%"] * 25  # an argument is never read as a template
    panel = _Panel(50.0, 55.0, 420.0, lim)
    lines, circles = _f_string_lines(panel, segs, dash, xs, ys, fills, edges)
    assert len(lines) == n_segments
    # segments arrive as tuples from contour_segments and as cli._boundary's array, which
    # fig2 draws on each of its panels: a call leaves it as it was
    assert panel.segments(segs, dash) == lines
    assert panel.segments(ends, dash) == panel.segments(ends, dash) == lines
    assert panel.points(xs, ys, fills, iter(edges)) == circles


def test_ticks_of_a_window_below_a_step_at_its_magnitude_are_bounded():
    # at 2e15 the step 0.1 is below half an ulp, so a tick stepped by addition would never
    # pass hi; a child process, capped in memory and time, since such a loop never ends
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from entdist.svgplot import _ticks; print(_ticks(2e15 - 0.25, 2e15 + 0.25))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=10)
    ticks = json.loads(result.stdout)
    assert 1 <= len(ticks) <= 6
    assert all(2e15 - 0.25 <= t <= 2e15 + 0.25 for t in ticks)


def test_a_tick_at_zero_reads_0():
    # -0.6 + 0.2 + 0.2 + 0.2 is -5.6e-17, which rounds to -0.0; 0 * 0.2 is 0.0
    ticks = _ticks(-0.7079599890205065, 0.015379207945795809)
    assert [f"{t:g}" for t in ticks] == ["-0.6", "-0.4", "-0.2", "0"]


@pytest.mark.parametrize("x", [2e15, 1e17])
def test_coincident_points_plot_in_the_neighbouring_floats(capsys, tmp_path, x):
    # three copies of one point: at 2e15 the window is narrower than a tick step's ulp, and
    # from 4e15 on the point less 0.25 and plus 0.25 round to the point itself
    point = f"{x!r},{x!r}"
    code = main(["cluster", "--vector", point, "--vector", point, "--vector", point, "--k", "2",
                 "--init", "0", "--plot", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert svgs == ["round_0.svg", "round_1.svg"]
    for name in svgs:
        ElementTree.parse(tmp_path / name)
