import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxebm.cli import main
from boxebm.config import build_run_config, parse_config_file, resolved_line
from boxebm.errors import ConfigError

# tiny but fully functional pipeline configuration
TINY = [
    "--set", "synth.grid_w=32", "--set", "synth.grid_l=32", "--set", "synth.channels=6",
    "--set", "synth.cars_min=1", "--set", "synth.cars_max=2",
    "--set", "synth.margin=1.5",
    "--set", "net.head1=24", "--set", "net.head2=24", "--set", "net.enc_dim=4",
    "--set", "train.noise_samples=8", "--set", "train.epochs=2", "--set", "train.batch_size=2",
    "--set", "n_scenes=6",
]


def run(argv):
    return main([a for a in argv if a is not None])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth-gen + train once; reused by the downstream command tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    runout = root / "run"
    assert run(["synth-gen", *TINY, "--out", str(data)]) == 0
    assert run(["train", *TINY, "--dataset", str(data), "--out", str(runout)]) == 0
    return data, runout


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# boxebm ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfig:
    def test_defaults_match_paper_values(self):
        cfg = build_run_config()
        assert cfg.refine.steps == 10
        assert cfg.refine.step_size == 2e-4
        assert cfg.refine.decay == 0.5
        assert cfg.train.noise_samples == 256
        assert cfg.eval.thresholds == (0.7, 0.75, 0.8, 0.85, 0.9)
        assert cfg.noise.ratios == (0.25, 0.5, 1.0)
        assert cfg.noise.sigma3 == (0.25, 0.25, 0.125, 0.125, 0.125, 0.125, 0.0625)
        assert cfg.synth.grid_w == 128 and cfg.synth.channels == 16 and cfg.synth.res == 0.25

    def test_file_and_override_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\ntrain.epochs = 7\nseed = 3\n")
        cfg = build_run_config(parse_config_file(f), {"train.epochs": "9"})
        assert cfg.train.epochs == 9
        assert cfg.seed == 3
        assert cfg.synth.seed == 3  # follows the top-level seed

    def test_explicit_module_seed_wins(self):
        cfg = build_run_config({}, {"seed": "3", "synth.seed": "11"})
        assert cfg.synth.seed == 11 and cfg.train.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({}, {"nope.key": "1"})
        with pytest.raises(ConfigError):
            build_run_config({}, {"synth.nope": "1"})

    def test_tuple_parsing(self):
        cfg = build_run_config({}, {"eval.thresholds": "0.5,0.6", "sweep.t_values": "0,2,4"})
        assert cfg.eval.thresholds == (0.5, 0.6)
        assert cfg.sweep.t_values == (0, 2, 4)

    def test_resolved_line_roundtrippable(self):
        line = resolved_line(build_run_config())
        assert "refine.steps=10" in line and line.startswith("boxebm ")


class TestSynthGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth-gen", *TINY, "--out", str(a)]) == 0
        assert run(["synth-gen", *TINY, "--out", str(b)]) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_ids(self, pipeline):
        data, _ = pipeline
        lines = (data / "manifest.txt").read_text().splitlines()
        assert [line.split()[0] for line in lines] == [f"{i:06d}" for i in range(6)]
        assert [line.split()[1] for line in lines] == ["train"] * 5 + ["val"]

    def test_empty_dataset_error(self, tmp_path, capsys):
        assert run(["synth-gen", *TINY, "--set", "n_scenes=0", "--out", str(tmp_path / "x")]) == 1
        assert "error:config: empty dataset requested" in capsys.readouterr().err


class TestTrain:
    def test_outputs_exist(self, pipeline):
        _, runout = pipeline
        assert (runout / "checkpoint.ckpt").exists()
        header, rows = read_csv(runout / "loss.csv")
        assert header == ["epoch", "step", "loss", "seconds"]
        assert len(rows) == 2 * 3  # 2 epochs x ceil(5/2) steps
        assert all(math.isfinite(float(r[2])) for r in rows)

    def test_loss_csv_deterministic_apart_from_seconds(self, pipeline, tmp_path):
        data, runout = pipeline
        again = tmp_path / "again"
        assert run(["train", *TINY, "--dataset", str(data), "--out", str(again)]) == 0
        _, rows_a = read_csv(runout / "loss.csv")
        _, rows_b = read_csv(again / "loss.csv")
        assert [r[:3] for r in rows_a] == [r[:3] for r in rows_b]
        assert (runout / "checkpoint.ckpt").read_bytes() == (again / "checkpoint.ckpt").read_bytes()

    def test_resume_continues_near_previous_loss(self, tmp_path):
        # separable single-scene task trained to a clear improvement; the
        # resumed run must hold that level: the head-of-resume loss stays
        # within 10% of the total improvement of the first run (a restart
        # would give back the full improvement)
        toy = [
            "--set", "synth.grid_w=32", "--set", "synth.grid_l=32",
            "--set", "synth.channels=6", "--set", "synth.cars_min=1",
            "--set", "synth.cars_max=1", "--set", "synth.margin=1.5",
            "--set", "net.head1=24", "--set", "net.head2=24", "--set", "net.enc_dim=4",
            "--set", "noise.sigma3=0.5,0.5,0.5,0.5,0.5,0.5,0.5", "--set", "noise.ratios=1.0",
            "--set", "train.noise_samples=64", "--set", "train.learning_rate=0.02",
            "--set", "train.lr_schedule=constant", "--set", "train.batch_size=1",
            "--set", "n_scenes=1",
        ]
        data = tmp_path / "data"
        first = tmp_path / "first"
        resumed = tmp_path / "resumed"
        assert run(["synth-gen", *toy, "--out", str(data)]) == 0
        assert run(["train", *toy, "--set", "train.epochs=60",
                    "--dataset", str(data), "--out", str(first)]) == 0
        assert run(["train", *toy, "--set", "train.epochs=10",
                    "--dataset", str(data), "--out", str(resumed),
                    "--resume", str(first / "checkpoint.ckpt")]) == 0
        _, rows_prev = read_csv(first / "loss.csv")
        _, rows_new = read_csv(resumed / "loss.csv")
        initial = float(rows_prev[0][2])
        prev_tail = np.mean([float(r[2]) for r in rows_prev[-10:]])
        new_head = np.mean([float(r[2]) for r in rows_new[:10]])
        improvement = initial - prev_tail
        assert improvement > 1.0  # the first run actually learned
        assert abs(new_head - prev_tail) <= 0.1 * improvement

    def test_dimension_mismatch_is_config_error(self, pipeline, tmp_path, capsys):
        data, runout = pipeline
        assert run(["train", *TINY, "--set", "pool.grid_w=5",
                    "--dataset", str(data), "--out", str(tmp_path / "x"),
                    "--resume", str(runout / "checkpoint.ckpt")]) == 1
        assert "error:config:" in capsys.readouterr().err


class TestRefine:
    def test_refine_writes_kitti_files(self, pipeline, tmp_path):
        data, runout = pipeline
        out = tmp_path / "ref"
        assert run(["refine", *TINY, "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"),
                    "--out", str(out), "--traces"]) == 0
        files = sorted((out / "dets").glob("*.txt"))
        assert [f.stem for f in files] == ["000005"]  # the val scene
        fields = files[0].read_text().splitlines()[0].split()
        assert len(fields) == 16
        header, rows = read_csv(out / "traces.csv")
        # every per-detection trace is non-decreasing in accepted f
        by_det = {}
        for r in rows:
            by_det.setdefault((r[0], r[1]), []).append(r)
        for rows_d in by_det.values():
            accepted = [float(r[4]) for r in rows_d if r[5] == "1"]
            assert all(b > a for a, b in zip(accepted, accepted[1:]))

    def test_zero_steps_outputs_equal_inputs(self, pipeline, tmp_path):
        data, runout = pipeline
        out = tmp_path / "ref0"
        assert run(["refine", *TINY, "--set", "refine.steps=0", "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"), "--out", str(out)]) == 0
        from boxebm.kittiio import parse_label_file, to_box3d
        from boxebm.synthscene import FileScenes
        scene = FileScenes(data, split="val")[0]
        labels = parse_label_file((out / "dets" / "000005.txt").read_text())
        for lab, det in zip(labels, scene.initial_dets):
            assert np.allclose(to_box3d(lab).as_array()[:6], det.box.as_array()[:6], atol=1e-6)

    def test_deterministic(self, pipeline, tmp_path):
        data, runout = pipeline
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["refine", *TINY, "--dataset", str(data),
                        "--checkpoint", str(runout / "checkpoint.ckpt"), "--out", str(out)]) == 0
        assert (a / "dets" / "000005.txt").read_bytes() == (b / "dets" / "000005.txt").read_bytes()


class TestEval:
    def test_eval_initial_vs_refined(self, pipeline, tmp_path):
        data, runout = pipeline
        ref = tmp_path / "ref"
        assert run(["refine", *TINY, "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"), "--out", str(ref)]) == 0
        out = tmp_path / "eval"
        assert run(["eval", *TINY, "--dataset", str(data), "--dets", str(ref),
                    "--out", str(out)]) == 0
        header, rows = read_csv(out / "ap.csv")
        assert header == ["mode", "threshold", "difficulty", "ap_initial", "ap_refined", "rel_improvement"]
        assert len(rows) == 2 * 5  # modes x thresholds
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0
            assert 0.0 <= float(r[4]) <= 1.0
        header, pr_rows = read_csv(out / "pr.csv")
        assert len(header) == 5 + 80
        assert len(pr_rows) == 2 * 5 * 2

    def test_perfect_detections_ap_one(self, tmp_path):
        args = [a if a != "synth.cars_min=1" else a for a in TINY]
        data = tmp_path / "data"
        assert run(["synth-gen", *TINY, "--set", "synth.det_noise=0,0,0,0,0,0,0",
                    "--out", str(data)]) == 0
        # evaluate the (exact) initial detections only
        out = tmp_path / "eval"
        assert run(["eval", *TINY, "--dataset", str(data), "--split", "train",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out / "ap.csv")
        for r in rows:
            assert float(r[3]) == 1.0
            assert r[4] == "" and r[5] == ""

    def test_identical_runs_identical_csv(self, pipeline, tmp_path):
        data, _ = pipeline
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["eval", *TINY, "--dataset", str(data), "--split", "train",
                        "--out", str(out)]) == 0
        assert (a / "ap.csv").read_bytes() == (b / "ap.csv").read_bytes()
        assert (a / "pr.csv").read_bytes() == (b / "pr.csv").read_bytes()


class TestSweepAndScan:
    def test_sweep_t(self, pipeline, tmp_path):
        data, runout = pipeline
        out = tmp_path / "sweep"
        assert run(["sweep-T", *TINY, "--set", "sweep.t_values=0,2",
                    "--set", "eval.thresholds=0.5,0.7",
                    "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"), "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep_t.csv")
        assert header == ["T", "mean_ap_3d", "scenes_per_sec"]
        assert [r[0] for r in rows] == ["0", "2"]
        assert float(rows[0][2]) > float(rows[1][2])  # throughput decreases with T

    def test_angle_scan(self, pipeline, tmp_path):
        data, runout = pipeline
        out = tmp_path / "scan"
        assert run(["angle-scan", *TINY, "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"),
                    "--scene-id", "5", "--det-index", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out / "angle_scan.csv")
        assert header == ["delta_phi", "energy"]
        assert len(rows) == 101
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(2 * math.pi)
        # periodicity: first and last rows agree
        assert float(rows[0][1]) == pytest.approx(float(rows[-1][1]), abs=1e-9)

    def test_angle_scan_zero_network_constant(self, pipeline, tmp_path):
        data, _ = pipeline
        from boxebm.energynet import EnergyNetDims, init_params, save_checkpoint
        dims = EnergyNetDims(feat_len=4 * 7 * 6, enc_dim=4, head_dims=(24, 24))
        params = init_params(0, dims)
        params = params.from_vector(np.zeros(params.n_params))
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(params, ckpt)
        out = tmp_path / "scan0"
        assert run(["angle-scan", *TINY, "--dataset", str(data), "--checkpoint", str(ckpt),
                    "--scene-id", "0", "--det-index", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out / "angle_scan.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_angle_scan_bad_index(self, pipeline, tmp_path, capsys):
        data, runout = pipeline
        assert run(["angle-scan", *TINY, "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"),
                    "--scene-id", "5", "--det-index", "99", "--out", str(tmp_path)]) == 1
        assert "error:input:" in capsys.readouterr().err


# KITTI label line: type truncated occluded alpha bbox(4) h w l x y z rotation_y
KITTI_CAR = "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"


class TestEvalKittiInputs:
    """`eval --kitti-gt --dets` ends bad inputs in `error:input:` and takes any finite score."""

    def eval_kitti(self, tmp_path, gt_line, det_line, out="out"):
        for name, line in (("gt", gt_line), ("dets", det_line)):
            (tmp_path / name).mkdir(exist_ok=True)
            (tmp_path / name / "000000.txt").write_text(line + "\n")
        return run(["eval", "--kitti-gt", str(tmp_path / "gt"), "--dets", str(tmp_path / "dets"),
                    "--out", str(tmp_path / out)])

    @staticmethod
    def field(line, index, value):
        tokens = line.split()
        tokens[index] = value
        return " ".join(tokens)

    @pytest.mark.parametrize("where,index,value", [
        ("gt", 2, "nan"),  # occlusion
        ("gt", 12, "inf"),  # y
        ("dets", 11, "nan"),  # x
        ("dets", 15, "nan"),  # score
        ("dets", 15, "-inf"),
    ])
    def test_non_finite_field(self, tmp_path, capsys, where, index, value):
        gt, det = KITTI_CAR, KITTI_CAR + " 0.5"
        if where == "gt":
            gt = self.field(gt, index, value)
        else:
            det = self.field(det, index, value)
        assert self.eval_kitti(tmp_path, gt, det) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and "non-finite" in err

    @pytest.mark.parametrize("where,index,value", [
        ("gt", 9, "0"), ("gt", 8, "-1.67"), ("dets", 10, "-3.64"), ("dets", 8, "0"),
    ])
    def test_non_positive_dimension(self, tmp_path, capsys, where, index, value):
        gt, det = KITTI_CAR, KITTI_CAR + " 0.5"
        if where == "gt":
            gt = self.field(gt, index, value)
        else:
            det = self.field(det, index, value)
        assert self.eval_kitti(tmp_path, gt, det) == 1
        assert capsys.readouterr().err.startswith("error:input:")

    @pytest.mark.parametrize("score", ["1.000000", "-3.5", "250"])
    def test_any_finite_score(self, tmp_path, score):
        assert self.eval_kitti(tmp_path, KITTI_CAR, KITTI_CAR + " 0.5", out="ref") == 0
        assert self.eval_kitti(tmp_path, KITTI_CAR, KITTI_CAR + " " + score) == 0
        assert (tmp_path / "out" / "ap.csv").read_bytes() == (tmp_path / "ref" / "ap.csv").read_bytes()
        _, rows = read_csv(tmp_path / "out" / "ap.csv")
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_scene_file_non_positive_dimension(self, tmp_path, capsys):
        import struct

        from boxebm.synthscene import read_manifest

        data = tmp_path / "data"
        assert run(["synth-gen", *TINY, "--out", str(data)]) == 0
        entry = next(e for e in read_manifest(data) if e.split == "val")
        path = data / entry.filename
        raw = bytearray(path.read_bytes())
        w, length, c = struct.unpack_from("<III", raw, 16)
        struct.pack_into("<d", raw, 60 + 8 * w * length * c + 8 * 3, -1.0)  # first GT's h
        path.write_bytes(bytes(raw))
        assert run(["eval", *TINY, "--dataset", str(data), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:input:")


class TestErrorReporting:
    def test_missing_required_flag(self, capsys):
        assert run(["train", "--out", "/tmp/nowhere_out"]) == 1
        assert "error:config:" in capsys.readouterr().err

    def test_missing_dataset_dir(self, tmp_path, capsys):
        assert run(["train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")


class TestMalformedInputs:
    """Bad config values, truncated files and odd KITTI file names end in one error line."""

    def test_non_numeric_set_value(self, tmp_path, capsys):
        assert run(["synth-gen", "--set", "n_scenes=abc", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and "n_scenes" in err

    def test_non_numeric_kitti_file_name(self, tmp_path, capsys):
        for name in ("gt", "dets"):
            (tmp_path / name).mkdir()
        (tmp_path / "gt" / "abc.txt").write_text(KITTI_CAR + "\n")
        (tmp_path / "dets" / "000000.txt").write_text(KITTI_CAR + " 0.5\n")
        assert run(["eval", "--kitti-gt", str(tmp_path / "gt"), "--dets", str(tmp_path / "dets"),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and "abc.txt" in err

    @pytest.mark.parametrize("where", ["gt", "dets"])
    def test_two_kitti_files_for_one_scene(self, tmp_path, capsys, where):
        # 000001.txt and 1.txt are both scene 1: neither may silently win
        lines = {"gt": KITTI_CAR, "dets": KITTI_CAR + " 0.5"}
        for name, line in lines.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "000001.txt").write_text(line + "\n")
        (tmp_path / where / "1.txt").write_text(lines[where] + "\n")
        assert run(["eval", "--kitti-gt", str(tmp_path / "gt"), "--dets", str(tmp_path / "dets"),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and "000001.txt" in err and "/1.txt" in err

    @staticmethod
    def tiny_dataset(root: Path, n: int = 1) -> Path:
        """n one-box val scenes; returns the last scene's file."""
        from boxebm.evalkit import GroundTruth
        from boxebm.featuregrid import FeatureGrid
        from boxebm.geometry import Box3D
        from boxebm.refine import Detection
        from boxebm.synthscene import Scene, save_dataset

        box = Box3D(0.0, 0.0, 0.8, 1.5, 1.6, 3.9, 0.1)
        scenes = [Scene(id=i, grid=FeatureGrid(np.ones((2, 2, 4)), -1.0, -1.0, 1.0),
                        gts=[GroundTruth(box, 40.0, 0, 0.0)], initial_dets=[Detection(box, 0.5)])
                  for i in range(n)]
        save_dataset(scenes, ["val"] * n, root)
        return root / f"scene_{n - 1:06d}.bin"

    def test_scene_file_non_finite_grid(self, tmp_path, capsys):
        path = self.tiny_dataset(tmp_path / "data")
        raw = bytearray(path.read_bytes())
        raw[60:68] = np.float64(np.nan).tobytes()  # first grid value
        path.write_bytes(bytes(raw))
        assert run(["eval", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and "non-finite" in err

    def test_truncated_checkpoint_at_every_offset(self, tmp_path, capsys):
        from boxebm.energynet import EnergyNetDims, init_params, save_checkpoint

        data = tmp_path / "data"
        self.tiny_dataset(data)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(init_params(0, EnergyNetDims(feat_len=4, enc_dim=2, head_dims=(3, 2))), ckpt)
        raw = ckpt.read_bytes()
        for cut in range(len(raw)):
            ckpt.write_bytes(raw[:cut])
            assert run(["refine", "--dataset", str(data), "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(("error:config:", "error:input:")), (cut, err)
            assert err.count("\n") == 1, (cut, err)

    @pytest.mark.parametrize("edit", ["intact", "reordered", "renamed", "extra", "missing"])
    def test_checkpoint_tensor_table_must_match_layout(self, tmp_path, capsys, edit):
        import struct

        from boxebm.energynet import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, EnergyNetDims, init_params
        from boxebm.pooling import PoolConfig

        data = tmp_path / "data"
        self.tiny_dataset(data)
        dims = EnergyNetDims(feat_len=PoolConfig().feature_len(4), enc_dim=2, head_dims=(3, 2))
        tensors = list(init_params(0, dims).named_tensors())
        if edit == "reordered":
            tensors[0], tensors[1] = tensors[1], tensors[0]
        elif edit == "renamed":
            tensors[-1] = ("head.2.bias", tensors[-1][1])
        elif edit == "extra":
            tensors.append(("head.3.W", np.ones((1, 1))))
        elif edit == "missing":
            del tensors[-1]
        # the checkpoint format, written tensor by tensor
        raw = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(tensors))
        for name, arr in tensors:
            raw += struct.pack("<H", len(name)) + name.encode()
            raw += struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        raw += b"".join(arr.astype("<f8").tobytes() for _, arr in tensors)
        ckpt = tmp_path / "net.ckpt"
        ckpt.write_bytes(raw)
        code = run(["refine", "--dataset", str(data), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if edit == "intact":
            assert code == 0, err
        else:
            assert code == 1 and err.startswith("error:config:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command,setting", [
        ("train", "train.epochs=0"),
        ("train", "train.batch_size=0"),
        ("angle-scan", "angle_points=-1"),
        ("eval", "eval.thresholds=nan"),
        ("synth-gen", "synth.size_l=5"),
        ("synth-gen", "synth.cz_std=-1"),
        ("synth-gen", "synth.cz_std=inf"),
        ("synth-gen", "synth.cz_mean=nan"),
        ("synth-gen", "synth.cz_mean=-inf"),
        ("synth-gen", "synth.det_noise=0,0,0,0,0,0,inf"),
        ("synth-gen", "synth.det_noise=0,0,0,0,0,0,nan"),
        ("synth-gen", "synth.det_noise=0,0,0,0,0,0,-1"),
        ("synth-gen", "synth.size_h="),
        ("train", "noise.ratios="),
        ("train", "net.enc_dim=0"),
        ("train", "net.head1=0"),
        ("train", "net.head2=0"),
        ("synth-gen", "synth.res=nan"),
        ("synth-gen", "synth.res=0"),
        ("synth-gen", "synth.margin=-5"),
        ("synth-gen", "synth.margin=inf"),
        ("synth-gen", "synth.max_pair_iou=nan"),
        ("synth-gen", "synth.max_pair_iou=0"),
        ("train", "train.learning_rate=-1"),
        ("train", "train.learning_rate=nan"),
        ("train", "noise.beta=nan"),
    ])
    def test_out_of_range_config_value(self, pipeline, tmp_path, capsys, command, setting):
        data, runout = pipeline
        extra = ["--scene-id", "5"] if command == "angle-scan" else []
        assert run([command, *TINY, "--set", setting, "--dataset", str(data),
                    "--checkpoint", str(runout / "checkpoint.ckpt"), *extra,
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        key = setting.split("=")[0].split(".")[-1]
        assert err.startswith("error:config:") and key in err and err.count("\n") == 1

    def test_non_numeric_manifest_id(self, tmp_path, capsys):
        data = tmp_path / "data"
        self.tiny_dataset(data)
        (data / "manifest.txt").write_text("abc val scene_000000.bin\n")
        assert run(["eval", "--dataset", str(data), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and "manifest line 1" in err

    def test_refine_error_in_a_later_scene_writes_no_result_file(self, tmp_path, capsys):
        from boxebm.energynet import EnergyNetDims, init_params, save_checkpoint
        from boxebm.pooling import PoolConfig

        data = tmp_path / "data"
        second = self.tiny_dataset(data, n=2)
        ckpt = tmp_path / "net.ckpt"
        dims = EnergyNetDims(feat_len=PoolConfig().feature_len(4), enc_dim=2, head_dims=(3, 2))
        save_checkpoint(init_params(0, dims), ckpt)
        argv = ["refine", "--dataset", str(data), "--checkpoint", str(ckpt), "--traces", "--out"]
        assert run([*argv, str(tmp_path / "intact")]) == 0
        assert len(list((tmp_path / "intact" / "dets").glob("*.txt"))) == 2
        second.write_bytes(second.read_bytes()[:-1])
        assert run([*argv, str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and err.count("\n") == 1, err
        assert not any(path.is_file() for path in (tmp_path / "out").rglob("*"))

    def test_truncated_scene_file_at_every_offset(self, tmp_path, capsys):
        data = tmp_path / "data"
        path = self.tiny_dataset(data)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            assert run(["eval", "--dataset", str(data), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:input:"), (cut, err)
            assert err.count("\n") == 1, (cut, err)


def fails(capsys, argv, category, *needles):
    """`argv` exits 1 with one `error:<category>:` line on stderr holding every needle."""
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:{category}:") and err.count("\n") == 1, err
    assert all(needle in err for needle in needles), err


class TestErrorPaths:
    """Each bad argument, config value or file ends in its one error line."""

    # scene files of `TestMalformedInputs.tiny_dataset`: a 60-byte header, a
    # 2x2x4 float64 grid, then the ground-truth record (7 box values, a
    # metadata flag, bbox height, occlusion, truncation)
    GT_AT = 60 + 8 * 2 * 2 * 4
    META_AT = {"bbox_height": GT_AT + 57, "occlusion": GT_AT + 65}

    @staticmethod
    def patch(path: Path, offset: int, fmt: str, value):
        import struct

        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))

    def kitti_dirs(self, tmp_path, gt_files, det_files):
        for name, files in (("gt", gt_files), ("dets", det_files)):
            (tmp_path / name).mkdir()
            for fname, line in files.items():
                (tmp_path / name / fname).write_text(line + "\n")
        return ["eval", "--kitti-gt", str(tmp_path / "gt"), "--dets", str(tmp_path / "dets"),
                "--out", str(tmp_path / "out")]

    def test_empty_split(self, tmp_path, capsys):
        data = tmp_path / "data"
        TestMalformedInputs.tiny_dataset(data)
        fails(capsys, ["eval", "--dataset", str(data), "--split", "test", "--out", str(tmp_path / "out")],
              "input", "'test'")

    def test_kitti_gt_without_label_files(self, tmp_path, capsys):
        argv = self.kitti_dirs(tmp_path, {}, {"000000.txt": KITTI_CAR + " 0.5"})
        fails(capsys, argv, "input", "no label files")

    def test_detection_without_score(self, tmp_path, capsys):
        argv = self.kitti_dirs(tmp_path, {"000000.txt": KITTI_CAR}, {"000000.txt": KITTI_CAR})
        fails(capsys, argv, "input", "without a score")

    def test_detection_and_gt_scene_sets_differ(self, tmp_path, capsys):
        argv = self.kitti_dirs(tmp_path, {"000000.txt": KITTI_CAR}, {"000001.txt": KITTI_CAR + " 0.5"})
        fails(capsys, argv, "input", "missing=[0] extra=[1]")

    @pytest.mark.parametrize("where,text,needle", [
        ("dets", KITTI_CAR + " 0.5\nCar 0 0", "line 2: expected 15 or 16 fields, got 3"),
        ("gt", KITTI_CAR.replace("46.70", "nan"), "line 1: non-finite number"),
        # bbox_bottom - bbox_top overflows
        ("gt", KITTI_CAR.replace("173.33", "-1e308").replace("200.12", "1e308"),
         "bbox_height must be finite and >= 0, got inf"),
    ], ids=["malformed-line", "non-finite-field", "bbox-height-overflow"])
    def test_kitti_input_error_names_the_file(self, tmp_path, capsys, where, text, needle):
        files = {"gt": KITTI_CAR, "dets": KITTI_CAR + " 0.5", where: text}
        argv = self.kitti_dirs(tmp_path, {"000000.txt": files["gt"]}, {"000000.txt": files["dets"]})
        fails(capsys, argv, "input", f"{tmp_path / where / '000000.txt'}: {needle}")

    def test_kitti_file_not_text(self, tmp_path, capsys):
        argv = self.kitti_dirs(tmp_path, {"000000.txt": KITTI_CAR}, {"000000.txt": KITTI_CAR + " 0.5"})
        (tmp_path / "dets" / "000000.txt").write_bytes(b"\xff\xfe not UTF-8\n")  # was a UnicodeDecodeError traceback
        fails(capsys, argv, "input", f"{tmp_path / 'dets' / '000000.txt'}: ", "can't decode")

    @pytest.mark.parametrize("command,key,value", [
        ("eval", "eval.modes", "xyz"),  # was error:input: from evaluate
        ("eval", "eval.modes", ""),  # was a table with no rows
        ("eval", "eval.difficulties", "easy,foo"),
        ("eval", "eval.difficulties", ""),
        ("sweep-T", "sweep.t_values", ""),
        ("sweep-T", "sweep.t_values", "4,-1"),  # was "steps must be >= 0", naming no key
    ])
    def test_eval_and_sweep_keys_checked_as_config(self, tmp_path, capsys, command, key, value):
        data = tmp_path / "data"
        TestMalformedInputs.tiny_dataset(data)
        fails(capsys, [command, "--dataset", str(data), "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--set", f"{key}={value}", "--out", str(tmp_path / "out")], "config", key)

    def test_eval_without_ground_truth(self, tmp_path, capsys):
        fails(capsys, ["eval", "--out", str(tmp_path / "out")], "config", "--kitti-gt")

    def test_eval_kitti_gt_without_dets(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "gt" / "000000.txt").write_text(KITTI_CAR + "\n")
        fails(capsys, ["eval", "--kitti-gt", str(tmp_path / "gt"), "--out", str(tmp_path / "out")],
              "config", "nothing to evaluate")

    def test_angle_scan_unknown_scene_id(self, tmp_path, capsys):
        data = tmp_path / "data"
        TestMalformedInputs.tiny_dataset(data)
        fails(capsys, ["angle-scan", "--dataset", str(data), "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--scene-id", "7", "--out", str(tmp_path / "out")], "input", "scene id 7")

    def test_set_without_equals(self, tmp_path, capsys):
        fails(capsys, ["synth-gen", "--set", "n_scenes", "--out", str(tmp_path)], "config", "'n_scenes'")

    @pytest.mark.parametrize("text,value", [("yes", True), ("off", False), ("1", True), ("FALSE", False)])
    def test_boolean_values(self, text, value):
        cfg = build_run_config({}, {"synth.symmetric_rendering": text})
        assert cfg.synth.symmetric_rendering is value

    def test_invalid_boolean(self, tmp_path, capsys):
        fails(capsys, ["synth-gen", "--set", "synth.symmetric_rendering=maybe", "--out", str(tmp_path)],
              "config", "symmetric_rendering", "boolean")

    def test_config_file_line_without_equals(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("# comment\nseed = 3\ntrain.epochs 4\n")
        fails(capsys, ["synth-gen", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)],
              "config", "line 3")

    def test_key_without_group(self, tmp_path, capsys):
        fails(capsys, ["synth-gen", "--set", "nope=1", "--out", str(tmp_path)], "config", "'nope'")

    def test_scene_file_unsupported_version(self, tmp_path, capsys):
        path = TestMalformedInputs.tiny_dataset(tmp_path / "data")
        self.patch(path, 8, "<I", 2)
        fails(capsys, ["eval", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")],
              "input", str(path), "unsupported scene version 2")

    def test_checkpoint_unsupported_version(self, tmp_path, capsys):
        from boxebm.energynet import EnergyNetDims, init_params, save_checkpoint
        from boxebm.pooling import PoolConfig

        TestMalformedInputs.tiny_dataset(tmp_path / "data")
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(init_params(0, EnergyNetDims(PoolConfig().feature_len(4), 2, (3, 2))), ckpt)
        self.patch(ckpt, 8, "<I", 2)
        fails(capsys, ["refine", "--dataset", str(tmp_path / "data"), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "out")], "config", "unsupported checkpoint version 2")

    def test_manifest_line_with_two_fields(self, tmp_path, capsys):
        data = tmp_path / "data"
        TestMalformedInputs.tiny_dataset(data)
        (data / "manifest.txt").write_text("000000 val\n")
        fails(capsys, ["eval", "--dataset", str(data), "--out", str(tmp_path / "out")],
              "input", "manifest line 1")

    @pytest.mark.parametrize("field,value", [
        ("occlusion", math.inf),  # was an OverflowError traceback
        ("occlusion", 2.7),  # loaded as 2
        ("bbox_height", math.nan),  # counted at no difficulty
        ("bbox_height", -1.0),
    ])
    def test_scene_file_bad_difficulty_metadata(self, tmp_path, capsys, field, value):
        path = TestMalformedInputs.tiny_dataset(tmp_path / "data")
        self.patch(path, self.META_AT[field], "<d", value)
        fails(capsys, ["eval", "--dataset", str(tmp_path / "data"), "--set", "eval.difficulties=easy",
                       "--out", str(tmp_path / "out")], "input", str(path), field)

    def test_scene_file_integral_occlusion_loads(self, tmp_path):
        path = TestMalformedInputs.tiny_dataset(tmp_path / "data")
        self.patch(path, self.META_AT["occlusion"], "<d", 2.0)
        assert run(["eval", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["eval", "refine"])
    def test_scene_file_non_finite_origin(self, tmp_path, capsys, command):
        path = TestMalformedInputs.tiny_dataset(tmp_path / "data")
        self.patch(path, 36, "<d", math.nan)  # origin x, after the resolution at 28
        fails(capsys, [command, "--dataset", str(tmp_path / "data"), "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--out", str(tmp_path / "out")], "input", str(path), "origin")


class TestScripts:
    """Both experiment scripts run end to end at tiny sizes."""

    @pytest.mark.parametrize("script,header", [
        ("run_benchmark.py", "AP initial"),
        ("run_analysis_sweeps.py", "mean 3D AP"),
    ])
    def test_runs(self, script, header):
        path = Path(__file__).resolve().parent.parent / "scripts" / script
        done = subprocess.run([sys.executable, str(path), "--train-scenes", "2", "--val-scenes", "1",
                               "--epochs", "1"], capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert header in done.stdout
