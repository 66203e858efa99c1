import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxebm.geometry import Box3D, BoxBEV, bev_corners, bev_iou, iou_3d, iou_matrix, polygon_area, to_bev
from helpers import aligned_bev_iou, mc_bev_iou, random_bev_box


def corners_set(corners):
    return sorted(map(tuple, np.round(corners, 9)))


box_bev_st = st.builds(
    BoxBEV,
    cx=st.floats(-10, 10),
    cy=st.floats(-10, 10),
    w=st.floats(0.2, 4),
    l=st.floats(0.2, 6),
    yaw=st.floats(-7, 7),
)

box3d_st = st.builds(
    Box3D,
    cx=st.floats(-10, 10),
    cy=st.floats(-10, 10),
    cz=st.floats(-2, 2),
    h=st.floats(0.2, 3),
    w=st.floats(0.2, 4),
    l=st.floats(0.2, 6),
    yaw=st.floats(-7, 7),
)


class TestToBev:
    def test_drops_vertical_fields(self):
        b = Box3D(1, 2, 3, h=1.5, w=1.6, l=3.9, yaw=0.3)
        assert to_bev(b) == BoxBEV(1, 2, 1.6, 3.9, 0.3)

    def test_unit_box(self):
        assert to_bev(Box3D(0, 0, 0, 1, 1, 1, 0)) == BoxBEV(0, 0, 1, 1, 0)

    def test_no_vertical_fields(self):
        bev = to_bev(Box3D(0, 0, 5, 1, 1, 1, 0))
        assert not hasattr(bev, "cz") and not hasattr(bev, "h")


class TestBevCorners:
    def test_axis_aligned(self):
        poly = bev_corners(BoxBEV(0, 0, w=2, l=4, yaw=0))
        assert corners_set(poly) == sorted([(-2.0, -1.0), (-2.0, 1.0), (2.0, -1.0), (2.0, 1.0)])

    def test_quarter_turn(self):
        poly = bev_corners(BoxBEV(0, 0, w=2, l=4, yaw=math.pi / 2))
        assert corners_set(poly) == sorted([(-1.0, 2.0), (-1.0, -2.0), (1.0, -2.0), (1.0, 2.0)])

    def test_rotated_square(self):
        # direct trigonometric evaluation: unit square about (1,1) at 45 deg
        poly = bev_corners(BoxBEV(1, 1, w=1, l=1, yaw=math.pi / 4))
        # hand-evaluated: R(45) @ (+-0.5, +-0.5)
        r2 = math.sqrt(2) / 2
        expected = sorted([(1.0, 1.0 + r2), (1.0 - r2, 1.0), (1.0, 1.0 - r2), (1.0 + r2, 1.0)])
        assert corners_set(poly) == [tuple(np.round(p, 9)) for p in expected]

    @given(box_bev_st)
    @settings(max_examples=50, deadline=None)
    def test_ccw_and_area(self, box):
        v = bev_corners(box)
        x, y = v[:, 0], v[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0
        assert polygon_area(v) == pytest.approx(box.w * box.l, rel=1e-12)


class TestBevIou:
    def test_identical(self):
        b = BoxBEV(0.3, -0.2, 1.7, 4.1, 0.37)
        assert bev_iou(b, b) == 1.0

    def test_disjoint(self):
        a = BoxBEV(0, 0, 1, 1, 0.2)
        b = BoxBEV(100, 0, 1, 1, 0.9)
        assert bev_iou(a, b) == 0.0

    def test_axis_aligned_third(self):
        # overlap 2*1 = 2, union 4+4-2 = 6
        a = BoxBEV(0, 0, 2, 2, 0)
        b = BoxBEV(1, 0, 2, 2, 0)
        assert bev_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_monte_carlo(self, rng):
        for k in range(20):
            a = random_bev_box(rng)
            b = BoxBEV(a.cx + rng.uniform(-1, 1), a.cy + rng.uniform(-1, 1),
                       float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 5)),
                       float(rng.uniform(-math.pi, math.pi)))
            assert bev_iou(a, b) == pytest.approx(mc_bev_iou(a, b, 18, seed=k), abs=2e-3)

    def test_matches_axis_aligned_closed_form(self, rng):
        for _ in range(50):
            a = random_bev_box(rng)
            b = random_bev_box(rng)
            a = BoxBEV(a.cx, a.cy, a.w, a.l, 0.0)
            b = BoxBEV(b.cx / 4, b.cy / 4, b.w, b.l, 0.0)
            assert bev_iou(a, b) == pytest.approx(aligned_bev_iou(a, b), abs=1e-12)

    @given(box_bev_st, box_bev_st)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = bev_iou(a, b)
        assert bev_iou(b, a) == v
        assert 0.0 <= v <= 1.0

    @given(box_bev_st)
    @settings(max_examples=40, deadline=None)
    def test_two_pi_invariance(self, a):
        b = BoxBEV(a.cx, a.cy, a.w, a.l, a.yaw + 2 * math.pi)
        assert bev_iou(a, b) == pytest.approx(1.0, abs=1e-9)

    @given(box_bev_st, box_bev_st, st.floats(-3, 3), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_rigid_invariance(self, a, b, ang, tx, ty):
        def move(bx):
            c, s = math.cos(ang), math.sin(ang)
            return BoxBEV(c * bx.cx - s * bx.cy + tx, s * bx.cx + c * bx.cy + ty, bx.w, bx.l, bx.yaw + ang)

        assert bev_iou(move(a), move(b)) == pytest.approx(bev_iou(a, b), abs=1e-9)

    @given(box_bev_st)
    @settings(max_examples=40, deadline=None)
    def test_pi_rotation_of_identical_pair(self, a):
        b = BoxBEV(a.cx, a.cy, a.w, a.l, a.yaw + math.pi)
        assert bev_iou(a, b) == pytest.approx(1.0, abs=1e-9)


class TestIou3d:
    def test_identical(self):
        b = Box3D(1, 2, 0.5, 1.5, 1.7, 4.0, -0.7)
        assert iou_3d(b, b) == 1.0

    def test_no_vertical_overlap(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0.3)
        b = Box3D(0, 0, 1.5, 1, 1, 1, 0.3)
        assert iou_3d(a, b) == 0.0

    def test_half_vertical_overlap(self):
        # same BEV, vertical overlap h/2: vol ratio v/(2h - v) = 1/3
        a = Box3D(0, 0, 0.0, 1.0, 1, 1, 0.3)
        b = Box3D(0, 0, 0.5, 1.0, 1, 1, 0.3)
        assert iou_3d(a, b) == pytest.approx(1 / 3, abs=1e-12)

    @given(box3d_st, box3d_st)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou_3d(a, b)
        assert iou_3d(b, a) == v
        assert 0.0 <= v <= 1.0

    @given(box3d_st)
    @settings(max_examples=40, deadline=None)
    def test_two_pi_invariance(self, a):
        b = Box3D(a.cx, a.cy, a.cz, a.h, a.w, a.l, a.yaw + 2 * math.pi)
        assert iou_3d(a, b) == pytest.approx(1.0, abs=1e-9)


@st.composite
def related_box(draw, a: Box3D) -> Box3D:
    """A box in one of the relations to `a` that stress the far-pair test and the clip."""
    kind = draw(st.sampled_from(["random", "identical", "two_pi", "edge", "circle", "corner", "stacked"]))
    if kind == "random":
        return draw(box3d_st)
    if kind == "identical":
        return a
    if kind == "two_pi":
        return Box3D(a.cx, a.cy, a.cz, a.h, a.w, a.l, a.yaw + 2 * math.pi)
    if kind == "stacked":  # zero vertical overlap: b's bottom is a's top
        h = draw(st.floats(0.2, 3))
        return Box3D(a.cx, a.cy, a.top + h / 2.0, h, a.w, a.l, a.yaw)
    if kind == "edge":  # same heading and width, sharing the front edge
        l = draw(st.floats(0.2, 6))
        d = (a.l + l) / 2.0
        return Box3D(a.cx + d * math.cos(a.yaw), a.cy + d * math.sin(a.yaw), a.cz, a.h, a.w, l, a.yaw)
    # circumscribed circles just apart, touching or just overlapping; for
    # "corner" the two boxes point a corner at each other along the center
    # line, so they overlap exactly when the circles do
    b = draw(box3d_st)
    factor = draw(st.sampled_from([1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6]))
    ang, yaw = draw(st.floats(-math.pi, math.pi)), b.yaw
    if kind == "corner":
        ang = a.yaw + math.atan2(a.w, a.l)
        yaw = ang + math.pi - math.atan2(b.w, b.l)
    d = (math.hypot(a.w, a.l) + math.hypot(b.w, b.l)) / 2.0 * factor
    return Box3D(a.cx + d * math.cos(ang), a.cy + d * math.sin(ang), b.cz, b.h, b.w, b.l, yaw)


@st.composite
def box_lists(draw):
    a_boxes = draw(st.lists(box3d_st, min_size=1, max_size=5))
    b_boxes = [draw(related_box(draw(st.sampled_from(a_boxes)))) for _ in range(draw(st.integers(1, 6)))]
    return a_boxes, b_boxes


class TestIouMatrix:
    @given(box_lists())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_scalar(self, lists):
        a_boxes, b_boxes = lists
        scalar = {
            "3d": [[iou_3d(a, b) for b in b_boxes] for a in a_boxes],
            "bev": [[bev_iou(to_bev(a), to_bev(b)) for b in b_boxes] for a in a_boxes],
        }
        for mode, expect in scalar.items():
            got = iou_matrix(a_boxes, b_boxes, mode)
            assert got.shape == (len(a_boxes), len(b_boxes))
            assert got.tobytes() == np.array(expect).tobytes(), mode

    def test_far_and_stacked_pairs_are_zero(self):
        a = Box3D(0, 0, 1.0, 2.0, 1.7, 4.0, 0.3)
        far = Box3D(30, 0, 1.0, 2.0, 1.7, 4.0, 0.3)
        above = Box3D(0, 0, 3.0, 2.0, 1.7, 4.0, 0.3)  # bottom 2.0 == a's top
        assert iou_matrix([a], [a, far, above], "3d").tolist() == [[1.0, 0.0, 0.0]]
        assert iou_matrix([a], [a, far, above], "bev").tolist() == [[1.0, 0.0, 1.0]]

    def test_empty_and_unknown_mode(self):
        a = Box3D(0, 0, 0.8, 1.6, 1.7, 4.0, 0.3)
        assert iou_matrix([], [a], "3d").shape == (0, 1)
        assert iou_matrix([a], [], "bev").shape == (1, 0)
        with pytest.raises(ValueError):
            iou_matrix([a], [a], "2d")


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        Box3D(0, 0, 0, h=-1, w=1, l=1, yaw=0)
    with pytest.raises(ValueError):
        BoxBEV(0, 0, w=0, l=1, yaw=0)
