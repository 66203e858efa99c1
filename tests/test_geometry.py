import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxebm import geometry
from boxebm.geometry import (Box3D, BoxBEV, bev_corners, bev_iou, box_rows, iou_3d, iou_matrix, pair_iou,
                             polygon_area, to_bev)
from helpers import (MERGE_EPS, OLD_MERGE_EPS, aligned_bev_iou, mc_bev_iou, random_bev_box, reference_clip,
                     reference_iou)


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
    kind = draw(st.sampled_from(["random", "identical", "two_pi", "edge", "circle", "corner", "stacked",
                                 "nested", "on_edge", "through_corner", "collinear", "quarter"]))
    if kind == "random":
        return draw(box3d_st)
    if kind == "identical":
        return a
    if kind == "two_pi":
        return Box3D(a.cx, a.cy, a.cz, a.h, a.w, a.l, a.yaw + 2 * math.pi)
    if kind == "quarter":
        return Box3D(a.cx, a.cy, a.cz, a.h, a.w, a.l, a.yaw + draw(st.sampled_from([-1, 1, 2])) * math.pi / 2)
    if kind == "stacked":  # zero vertical overlap: b's bottom is a's top
        h = draw(st.floats(0.2, 3))
        return Box3D(a.cx, a.cy, a.top + h / 2.0, h, a.w, a.l, a.yaw)
    if kind == "edge":  # same heading and width, sharing the front edge
        l = draw(st.floats(0.2, 6))
        d = (a.l + l) / 2.0
        return Box3D(a.cx + d * math.cos(a.yaw), a.cy + d * math.sin(a.yaw), a.cz, a.h, a.w, l, a.yaw)
    if kind == "nested":  # inside a in BEV (its circumscribed circle is), any heading
        side = min(a.w, a.l) / math.sqrt(2.0)
        return Box3D(a.cx, a.cy, a.cz, a.h * draw(st.floats(0.1, 1.0)), side * draw(st.floats(0.1, 0.99)),
                     side * draw(st.floats(0.1, 0.99)), draw(st.floats(-7, 7)))
    if kind == "on_edge":  # a corner of b on an edge of a (to rounding), b's body outside or across it
        corners = bev_corners(to_bev(a))
        k, u = draw(st.integers(0, 3)), draw(st.floats(0.0, 1.0))
        px, py = corners[k] + u * (corners[(k + 1) % 4] - corners[k])
        b = draw(box3d_st)
        c, s = math.cos(b.yaw), math.sin(b.yaw)
        return Box3D(px - c * b.l / 2 + s * b.w / 2, py - s * b.l / 2 - c * b.w / 2, b.cz, b.h, b.w, b.l, b.yaw)
    if kind == "through_corner":  # an edge of b through a corner of a (to rounding), b on either side
        px, py = bev_corners(to_bev(a))[draw(st.integers(0, 3))]
        b = draw(box3d_st)
        side, along = draw(st.sampled_from([-0.5, 0.5])) * b.w, draw(st.floats(-0.5, 0.5)) * b.l
        c, s = math.cos(b.yaw), math.sin(b.yaw)
        return Box3D(px + c * along - s * side, py + s * along + c * side, b.cz, b.h, b.w, b.l, b.yaw)
    if kind == "collinear":  # a side of b almost on a's side: tiny turn and offset across it
        turn = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9]))
        gap = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9]))
        w, along = draw(st.floats(0.2, 4)), draw(st.floats(-3, 3))
        d = (a.w + w) / 2.0 + gap
        c, s = math.cos(a.yaw), math.sin(a.yaw)
        return Box3D(a.cx + along * c - d * s, a.cy + along * s + d * c, a.cz, a.h, w, draw(st.floats(0.2, 6)),
                     a.yaw + turn)
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


def assert_equals_reference(a_boxes, b_boxes, merge_eps=MERGE_EPS):
    """`iou_matrix`, `iou_3d` and `bev_iou` equal the scalar reference clip bit for bit."""
    for mode in ("3d", "bev"):
        expect = np.array([[reference_iou(a, b, mode, merge_eps) for b in b_boxes] for a in a_boxes])
        got = iou_matrix(a_boxes, b_boxes, mode)
        assert got.shape == (len(a_boxes), len(b_boxes))
        assert got.tobytes() == expect.tobytes(), mode
        pair = iou_3d if mode == "3d" else lambda a, b: bev_iou(to_bev(a), to_bev(b))
        assert np.array([[pair(a, b) for b in b_boxes] for a in a_boxes]).tobytes() == expect.tobytes(), mode


def aligned(x0, x1, y0, y1, z0=0.0, z1=1.0) -> Box3D:
    """Axis-aligned box over [x0, x1] x [y0, y1] x [z0, z1], corners exact in floats."""
    return Box3D((x0 + x1) / 2, (y0 + y1) / 2, (z0 + z1) / 2, z1 - z0, y1 - y0, x1 - x0, 0.0)


class TestIouMatrix:
    @given(box_lists())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scalar(self, lists):
        assert_equals_reference(*lists)

    @given(box_lists())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_scalar_at_old_merge_eps(self, lists):
        # the kernel departs from the scalar clip only in its merge distance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "VERTEX_MERGE_EPS", OLD_MERGE_EPS)
            assert_equals_reference(*lists, merge_eps=OLD_MERGE_EPS)

    def test_merge_keeps_corner_where_near_parallel_edges_cross(self):
        # the right edges of a box and its yaw + 2*pi twin cross 2e-10 m
        # from a corner; merging within 1e-9 dropped the corner and a sliver
        a = Box3D(0.5, 1.0, 0.0, 1.0, 0.2, 0.2, 1e-9)
        twin = Box3D(0.5, 1.0, 0.0, 1.0, 0.2, 0.2, 1e-9 + 2 * math.pi)
        assert geometry.VERTEX_MERGE_EPS == MERGE_EPS
        assert_equals_reference([a], [twin])
        assert iou_matrix([a], [twin], "bev").tolist() == [[1.0]]
        assert reference_iou(a, twin, "bev", OLD_MERGE_EPS) == 0.9999999989999999

    def test_exact_contacts(self):
        a = aligned(0.0, 4.0, 0.0, 2.0)
        b_boxes = [
            aligned(1.0, 3.0, 0.0, 3.0),  # two vertices on a's bottom edge, sides across a
            aligned(1.0, 3.0, 0.5, 1.5, 0.25, 0.75),  # nested
            aligned(4.0, 6.0, 2.0, 3.0),  # corner to corner
            aligned(4.0, 6.0, 0.5, 1.5),  # edge to edge
            aligned(-1.0, 5.0, 0.0, 2.0),  # collinear top and bottom edges
        ]
        assert_equals_reference([a], b_boxes)
        assert iou_matrix([a], b_boxes, "bev").tolist() == [[0.4, 0.25, 0.0, 0.0, 8 / 12]]

    def test_last_vertex_merged_into_first(self):
        # an edge of the 45-degree box runs through a corner of the square:
        # the clip ends with a vertex within VERTEX_MERGE_EPS of its first
        square = Box3D(4.679261899246464, -4.852936950346307, 0.0, 1.0, 2.8185598215614, 2.8185598215614, 0.0)
        turned = Box3D(6.078935472816652, -8.325544989088867, 0.0, 1.0, 2.9315720345573872, 4.504710000742342,
                       -math.pi / 4)
        assert_equals_reference([square], [turned])

    def test_batch_mixes_empty_triangle_and_octagon_clips(self):
        square = Box3D(0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 0.0)
        turned = Box3D(0.0, 0.0, 0.0, 1.0, 2.0, 2.0, math.pi / 4)  # octagon with the square
        poking = Box3D(1.0 + math.sqrt(2) - 0.3, 1.0, 0.0, 1.0, 2.0, 2.0, math.pi / 4)  # corner across a corner
        apart = Box3D(2.2, 2.2, 0.0, 1.0, 2.0, 2.0, math.pi / 4)  # circles meet, boxes do not
        pairs = [(square, turned), (square, poking), (square, apart), (turned, square), (apart, square)]
        sizes = [len(reference_clip(bev_corners(to_bev(a)), bev_corners(to_bev(b)))) for a, b in pairs[:3]]
        assert sizes == [8, 3, 0]
        a, b = box_rows([a for a, _ in pairs]), box_rows([b for _, b in pairs])
        for mode in ("3d", "bev"):
            expect = np.array([reference_iou(a, b, mode) for a, b in pairs])
            assert pair_iou(a, b, mode).tobytes() == expect.tobytes()
        assert 0.7 < expect[0] < 0.71 and 0.0 < expect[1] < 0.05 and expect[2] == 0.0

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
