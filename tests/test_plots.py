"""Geometry of the plotted decision boundaries."""

import math

import numpy as np
import pytest

from entdist.cli import _distance_gap, _nn_gap, _square_limits
from entdist.ml import LabeledReference
from entdist.svgplot import contour_segments


def test_bisector_contour_lies_on_the_perpendicular_bisector():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = (tuple(rng.uniform(-3.0, 3.0, 2).tolist()) for _ in range(2))
        gap = _distance_gap([a], [b])
        assert gap(*a) < 0.0 < gap(*b)
        xlim, ylim = _square_limits([a, b])
        segments = contour_segments(gap, xlim, ylim)
        assert segments
        mx, my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        nx, ny = b[0] - a[0], b[1] - a[1]
        worst = max(abs((x - mx) * nx + (y - my) * ny) / math.hypot(nx, ny)
                    for segment in segments for x, y in segment)
        assert worst <= 1e-3 * (xlim[1] - xlim[0])


@pytest.mark.parametrize("center_sign", [1.0, -1.0])
def test_saddle_cell_cuts_off_the_corners_of_the_other_sign(center_sign):
    h = 1.0 / 160  # one contour grid cell of the unit window
    lo, hi = 80 * h, 81 * h
    c = (lo + hi) / 2.0

    def f(x, y):  # corners alternate in sign; the center takes center_sign
        return (x - c) * (y - c) + center_sign * 0.1 * h * h

    in_cell = [segment for segment in contour_segments(f, (0.0, 1.0), (0.0, 1.0))
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
    training = [LabeledReference([float(i), 1.0], label) for i, label in enumerate(labels)]
    assert _nn_gap(training) is None


def test_nn_gap_is_the_first_sorted_label_minus_the_second():
    training = [LabeledReference([1.0, 0.0], "red"), LabeledReference([0.0, 1.0], "blue"),
                LabeledReference([3.0, 3.0], "red")]
    gap = _nn_gap(training)
    assert gap(0.0, 1.0) < 0.0 < gap(1.0, 0.0)  # "blue" sorts first
    assert gap(0.0, 2.0) == pytest.approx(1.0 - math.sqrt(5.0))
    assert gap(3.0, 2.5) == pytest.approx(math.hypot(3.0, 1.5) - 0.5)
