import math
from dataclasses import replace

import numpy as np
import pytest

from boxebm.errors import ConfigError, GenerationError
from boxebm.geometry import Box3D, box_rows, pair_iou
from boxebm.synthscene import (
    FileScenes,
    LazyScenes,
    Scene,
    SynthConfig,
    gen_scene_by_index,
    load_scene,
    read_manifest,
    render_features,
    save_dataset,
    save_scene,
    scene_rng,
    split_indices,
)

# small grid keeps the tests fast; same code paths as the full-size default
TEST_CFG = SynthConfig(grid_w=48, grid_l=48, channels=8, res=0.25, cars_min=1, cars_max=3, seed=42)


def scenes_equal(a: Scene, b: Scene) -> bool:
    if a.id != b.id or len(a.gts) != len(b.gts) or len(a.initial_dets) != len(b.initial_dets):
        return False
    if not np.array_equal(a.grid.data, b.grid.data):
        return False
    if (a.grid.origin_x, a.grid.origin_y, a.grid.res) != (b.grid.origin_x, b.grid.origin_y, b.grid.res):
        return False
    for ga, gb in zip(a.gts, b.gts):
        if not np.array_equal(ga.box.as_array(), gb.box.as_array()):
            return False
    for da, db in zip(a.initial_dets, b.initial_dets):
        if not np.array_equal(da.box.as_array(), db.box.as_array()) or da.score != db.score:
            return False
    return True


class TestGenScene:
    def test_deterministic(self):
        a = gen_scene_by_index(TEST_CFG, 3)
        b = gen_scene_by_index(TEST_CFG, 3)
        assert scenes_equal(a, b)

    def test_no_cars(self):
        cfg = replace(TEST_CFG, cars_min=0, cars_max=0)
        scene = gen_scene_by_index(cfg, 0)
        assert scene.gts == [] and scene.initial_dets == []
        assert np.all(np.isfinite(scene.grid.data))

    def test_zero_perturbation_gives_exact_detections(self):
        cfg = replace(TEST_CFG, det_noise=(0.0,) * 7)
        scene = gen_scene_by_index(cfg, 1)
        dets = box_rows([det.box for det in scene.initial_dets])
        assert pair_iou(dets, box_rows([gt.box for gt in scene.gts]), "bev").tolist() == [1.0] * len(dets)
        for det, gt in zip(scene.initial_dets, scene.gts):
            assert np.array_equal(det.box.as_array(), gt.box.as_array())
            assert 0.0 < det.score < 1.0

    def test_boxes_inside_margin_and_separated(self):
        cfg = replace(TEST_CFG, cars_min=3, cars_max=3)
        pairs = []
        for sid in range(5):
            scene = gen_scene_by_index(cfg, sid)
            for gt in scene.gts:
                assert abs(gt.box.cx) <= cfg.half_extent - cfg.margin
                assert abs(gt.box.cy) <= cfg.half_extent - cfg.margin
            pairs += [(a.box, b.box) for i, a in enumerate(scene.gts) for b in scene.gts[i + 1:]]
        assert np.all(pair_iou(*(box_rows(boxes) for boxes in zip(*pairs)), "bev") < cfg.max_pair_iou)

    def test_scores_decrease_with_perturbation(self):
        means = []
        for scale in (0.5, 1.0, 2.0):
            cfg = replace(TEST_CFG, det_noise=tuple(scale * s for s in TEST_CFG.det_noise),
                          cars_min=2, cars_max=3)
            pairs = []
            for sid in range(30):
                scene = gen_scene_by_index(cfg, sid)
                pairs += [(d.box, g.box) for d, g in zip(scene.initial_dets, scene.gts)]
            means.append(np.mean(pair_iou(*(box_rows(boxes) for boxes in zip(*pairs)), "bev")))
        assert means[0] > means[1] > means[2]

    def test_impossible_placement_raises(self):
        cfg = replace(TEST_CFG, grid_w=16, grid_l=16, cars_min=40, cars_max=40)
        with pytest.raises(GenerationError):
            gen_scene_by_index(cfg, 0)

    def test_crowded_world_keeps_the_boxes_that_fit(self):
        # a 3.75 m world: the drawn count is a target, cars_min the floor
        cfg = replace(TEST_CFG, grid_w=16, grid_l=16, margin=1.0, cars_min=0, cars_max=40)
        drawn = int(scene_rng(cfg, 0).integers(cfg.cars_min, cfg.cars_max + 1))
        scene = gen_scene_by_index(cfg, 0)
        assert 0 < len(scene.gts) < drawn
        assert len(scene.initial_dets) == len(scene.gts)
        with pytest.raises(GenerationError):
            gen_scene_by_index(replace(cfg, cars_min=3), 0)  # at most two fit


class TestRenderFeatures:
    def noise_free(self, **kw):
        return replace(TEST_CFG, feature_noise=0.0, **kw)

    def test_far_cell_background_values(self):
        cfg = self.noise_free()
        box = Box3D(0.0, 0.0, 0.8, 1.6, 1.7, 4.0, 0.3)
        grid = render_features(cfg, [box], scene_rng(cfg, 0))
        corner = grid.data[0, 0]  # ~8 m from the box
        assert abs(corner[0]) < 1e-6  # occupancy ~ 0
        assert corner[1] == 2.0  # clipped distance
        assert corner[2] == 0.0 and corner[3] == 0.0

    def test_center_cell_occupied(self):
        cfg = self.noise_free()
        box = Box3D(0.0, 0.0, 0.8, 1.6, 1.7, 4.0, 0.0)
        grid = render_features(cfg, [box], scene_rng(cfg, 0))
        i = j = cfg.grid_w // 2
        assert grid.data[i, j, 0] > 0.9
        assert grid.data[i, j, 1] < 0.0  # inside: negative signed distance
        assert grid.data[i, j, 2] == pytest.approx(1.0)  # cos(0)

    def test_symmetric_rendering_pi_invariant(self):
        cfg = self.noise_free(symmetric_rendering=True)
        a = Box3D(0.5, -0.5, 0.8, 1.6, 1.7, 4.0, 0.0)
        b = Box3D(0.5, -0.5, 0.8, 1.6, 1.7, 4.0, math.pi)  # fl(0 + pi) is exact
        ga = render_features(cfg, [a], scene_rng(cfg, 0))
        gb = render_features(cfg, [b], scene_rng(cfg, 0))
        assert np.array_equal(ga.data, gb.data)
        ya = Box3D(0.5, -0.5, 0.8, 1.6, 1.7, 4.0, 0.7)
        yb = Box3D(0.5, -0.5, 0.8, 1.6, 1.7, 4.0, 0.7 + math.pi)
        ga = render_features(cfg, [ya], scene_rng(cfg, 0))
        gb = render_features(cfg, [yb], scene_rng(cfg, 0))
        assert np.allclose(ga.data, gb.data, atol=1e-12)

    def test_asymmetric_rendering_distinguishes_pi(self):
        cfg = self.noise_free()
        a = Box3D(0.5, -0.5, 0.8, 1.6, 1.7, 4.0, 0.0)
        b = Box3D(0.5, -0.5, 0.8, 1.6, 1.7, 4.0, math.pi)
        ga = render_features(cfg, [a], scene_rng(cfg, 0))
        gb = render_features(cfg, [b], scene_rng(cfg, 0))
        assert not np.allclose(ga.data, gb.data, atol=1e-6)

    def test_noise_is_seeded(self):
        cfg = TEST_CFG
        box = Box3D(0.0, 0.0, 0.8, 1.6, 1.7, 4.0, 0.3)
        a = render_features(cfg, [box], scene_rng(cfg, 5))
        b = render_features(cfg, [box], scene_rng(cfg, 5))
        c = render_features(cfg, [box], scene_rng(cfg, 6))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestDataset:
    def test_split_arithmetic(self):
        train, val = split_indices(10)
        assert len(train) == 8 and len(val) == 2
        assert set(train) | set(val) == set(range(10))

    def test_gen_dataset(self):
        scenes = LazyScenes(TEST_CFG, range(5))
        assert [scenes[i].id for i in range(5)] == [0, 1, 2, 3, 4]
        assert split_indices(5) == ([0, 1, 2, 3], [4])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty dataset requested"):
            split_indices(0)

    def test_seeds_differ(self):
        a = gen_scene_by_index(TEST_CFG, 0)
        b = gen_scene_by_index(replace(TEST_CFG, seed=43), 0)
        assert not scenes_equal(a, b)

    def test_lazy_matches_materialized(self):
        scenes = [gen_scene_by_index(TEST_CFG, i) for i in range(3)]
        lazy = LazyScenes(TEST_CFG, range(3))
        assert len(lazy) == 3
        for a, i in zip(scenes, range(3)):
            assert scenes_equal(a, lazy[i])


class TestSceneFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        scene = gen_scene_by_index(TEST_CFG, 7)
        path = tmp_path / "scene.bin"
        save_scene(scene, path)
        assert scenes_equal(scene, load_scene(path))
        # byte-identical re-serialization
        save_scene(load_scene(path), tmp_path / "scene2.bin")
        assert path.read_bytes() == (tmp_path / "scene2.bin").read_bytes()

    def test_dataset_round_trip(self, tmp_path):
        scenes = [gen_scene_by_index(TEST_CFG, i) for i in range(5)]
        splits = ["train"] * 4 + ["val"]
        save_dataset(scenes, splits, tmp_path)
        entries = read_manifest(tmp_path)
        assert [e.id for e in entries] == [0, 1, 2, 3, 4]
        assert [e.split for e in entries] == splits
        val = FileScenes(tmp_path, split="val")
        assert len(val) == 1
        assert scenes_equal(val[0], scenes[4])
        everything = FileScenes(tmp_path)
        assert len(everything) == 5
