import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxebm.errors import InputError, ParseError
from boxebm.geometry import Box3D, BoxBEV, bev_iou, to_bev
from boxebm.kittiio import (
    KittiLabel,
    format_label,
    from_box3d,
    parse_label_file,
    to_box3d,
    wrap_angle,
    write_result_file,
)

DEVKIT_LINE = "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"


def q6(v: float) -> float:
    """Quantize onto the 6-decimal output lattice."""
    return float(f"{v:.6f}")


def random_label(rng, with_score=True) -> KittiLabel:
    left, top = rng.uniform(0, 500), rng.uniform(0, 200)
    return KittiLabel(
        type=str(rng.choice(["Car", "Van", "Truck"])),
        truncated=q6(rng.uniform(0, 1)),
        occluded=int(rng.integers(0, 4)),
        alpha=q6(rng.uniform(-math.pi, math.pi)),
        bbox_left=q6(left), bbox_top=q6(top),
        bbox_right=q6(left + rng.uniform(1, 300)), bbox_bottom=q6(top + rng.uniform(1, 150)),
        h=q6(rng.uniform(1.2, 2.2)), w=q6(rng.uniform(1.4, 2.0)), l=q6(rng.uniform(3.0, 5.0)),
        x=q6(rng.uniform(-30, 30)), y=q6(rng.uniform(0.5, 2.5)), z=q6(rng.uniform(3, 80)),
        rotation_y=q6(rng.uniform(-math.pi, math.pi)),
        score=q6(rng.uniform(0.01, 0.99)) if with_score else None,
    )


class TestParse:
    def test_devkit_field_positions(self):
        labels = parse_label_file(DEVKIT_LINE + "\n")
        assert len(labels) == 1
        lab = labels[0]
        assert lab.type == "Car"
        assert lab.truncated == 0.0
        assert lab.occluded == 0
        assert lab.alpha == -1.58
        assert (lab.bbox_left, lab.bbox_top, lab.bbox_right, lab.bbox_bottom) == (587.01, 173.33, 614.12, 200.12)
        assert (lab.h, lab.w, lab.l) == (1.65, 1.67, 3.64)
        assert (lab.x, lab.y, lab.z) == (-0.65, 1.71, 46.70)
        assert lab.rotation_y == -1.59
        assert lab.score is None

    def test_empty_file(self):
        assert parse_label_file("") == []
        assert parse_label_file("\n\n") == []

    def test_dontcare_flagged_non_evaluable(self):
        line = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"
        labels = parse_label_file(line)
        assert labels[0].type == "DontCare"
        assert not labels[0].is_evaluable
        with pytest.raises(InputError):
            to_box3d(labels[0])

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_label_file(DEVKIT_LINE + "\nCar 1 2 3\n")

    def test_unparsable_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_file(DEVKIT_LINE.replace("46.70", "forty") + "\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_number(self, token):
        with pytest.raises(ParseError, match="line 1: non-finite"):
            parse_label_file(DEVKIT_LINE.replace(" 0 ", f" {token} ", 1) + "\n")

    def test_sixteen_fields_gives_score(self):
        labels = parse_label_file(DEVKIT_LINE + " 0.875000\n")
        assert labels[0].score == 0.875


class TestToBox3d:
    def test_hand_mapping(self):
        # mapping: cx = z, cy = -x, cz = -y + h/2, yaw = -ry - pi/2
        lab = KittiLabel(type="Car", truncated=0, occluded=0, alpha=0,
                         bbox_left=0, bbox_top=0, bbox_right=0, bbox_bottom=0,
                         h=1.65, w=1.7, l=4.0, x=0.0, y=1.65, z=10.0,
                         rotation_y=-math.pi / 2)
        box = to_box3d(lab)
        assert box.cx == pytest.approx(10.0, abs=1e-12)
        assert box.cy == pytest.approx(0.0, abs=1e-12)
        # bottom at -y = -1.65, so the center sits at -1.65 + h/2 = -0.825
        assert box.cz == pytest.approx(-0.825, abs=1e-12)
        assert box.yaw == pytest.approx(0.0, abs=1e-12)
        assert (box.h, box.w, box.l) == (1.65, 1.7, 4.0)

    def test_round_trip_inverse_pair(self, rng):
        for _ in range(50):
            lab = random_label(rng)
            box = to_box3d(lab)
            back = to_box3d(from_box3d(box, score=lab.score))
            assert np.allclose(box.as_array(), back.as_array(), atol=1e-9)

    def test_rotation_two_pi_equivalence(self, rng):
        lab = random_label(rng)
        lab2 = KittiLabel(**{**lab.__dict__, "rotation_y": lab.rotation_y + 2 * math.pi})
        a, b = to_box3d(lab), to_box3d(lab2)
        assert a.yaw == pytest.approx(b.yaw, abs=1e-9)
        assert np.allclose(a.as_array()[:6], b.as_array()[:6], atol=0)

    def test_bev_iou_preserved(self, rng):
        # ground-plane IoU in camera coordinates must equal world-frame IoU
        for _ in range(30):
            la, lb = random_label(rng), random_label(rng)
            lb = KittiLabel(**{**lb.__dict__, "x": la.x + rng.uniform(-3, 3), "z": la.z + rng.uniform(-3, 3)})
            cam_a = BoxBEV(cx=la.x, cy=la.z, w=la.w, l=la.l, yaw=-la.rotation_y)
            cam_b = BoxBEV(cx=lb.x, cy=lb.z, w=lb.w, l=lb.l, yaw=-lb.rotation_y)
            world = bev_iou(to_bev(to_box3d(la)), to_bev(to_box3d(lb)))
            assert world == pytest.approx(bev_iou(cam_a, cam_b), abs=1e-9)


class TestWrite:
    def test_empty(self):
        assert write_result_file([]) == ""

    def test_score_formatting(self, rng):
        lab = KittiLabel(**{**random_label(rng).__dict__, "score": 0.5})
        assert write_result_file([lab]).rstrip().endswith("0.500000")

    def test_lines_newline_terminated(self, rng):
        text = write_result_file([random_label(rng), random_label(rng)])
        assert text.count("\n") == 2 and text.endswith("\n")

    def test_missing_score_rejected(self, rng):
        with pytest.raises(InputError):
            write_result_file([random_label(rng, with_score=False)])

    def test_round_trip_random_corpus(self, rng):
        labels = [random_label(rng) for _ in range(100)]
        assert parse_label_file(write_result_file(labels)) == labels

    def test_parse_write_parse_identity(self, rng):
        def write_label_file(labels):  # 15 fields per line
            return "".join(format_label(label) + "\n" for label in labels)

        labels = [random_label(rng, with_score=False) for _ in range(20)]
        text = write_label_file(labels)
        assert parse_label_file(write_label_file(parse_label_file(text))) == parse_label_file(text)


@given(st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi <= w < math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
