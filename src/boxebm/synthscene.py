"""Synthetic BEV world: deterministic feature rendering and perturbed detections.

Stands in for a LiDAR detector backbone at desk scale. Each scene draws a
few non-overlapping car-like boxes, renders a feature grid from them, and
emits one noisy initial detection per box whose score decreases with the
perturbation magnitude. The rendering is an analytic function of the boxes
(plus seeded channel noise), so the conditional density of boxes given the
grid is sharp and a trained energy model has something real to recover.

Base channels: 0 soft occupancy (sigmoid of inside-distance, 0.25 m
softness), 1 signed distance to the nearest box boundary (positive
outside, clipped to +-2 m), 2/3 heading cos/sin of the nearest box within
2 m (zero elsewhere). With symmetric_rendering the rendering uses the
heading mod pi (doubled for the cos/sin channels), making it invariant
under yaw -> yaw + pi: the harness analog of heading ambiguity in real
point clouds. Remaining channels are fixed random mixtures of channels
0-3; all channels receive zero-mean Gaussian noise.
"""

from __future__ import annotations

import math

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GenerationError, InputError
from .evalkit import GroundTruth
from .featuregrid import FeatureGrid
from .geometry import Box3D, bev_iou, to_bev
from .refine import Detection

SCENE_MAGIC = b"BEVSCENE"
SCENE_VERSION = 1

OCCUPANCY_SOFTNESS = 0.25  # m
DISTANCE_CLIP = 2.0  # m


@dataclass(frozen=True)
class SynthConfig:
    grid_w: int = 128
    grid_l: int = 128
    channels: int = 16
    res: float = 0.25  # 32 m x 32 m world
    cars_min: int = 1
    cars_max: int = 6
    size_h: tuple = (1.4, 1.8)
    size_w: tuple = (1.5, 1.9)
    size_l: tuple = (3.4, 4.6)
    cz_mean: float = 0.85
    cz_std: float = 0.04
    margin: float = 2.0  # keep box centers this far inside the extent
    max_pair_iou: float = 0.05
    det_noise: tuple = (0.25, 0.25, 0.1, 0.08, 0.08, 0.15, 0.1)
    feature_noise: float = 0.02
    symmetric_rendering: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.channels < 4:
            raise ConfigError("need at least the 4 base feature channels")
        if len(self.det_noise) != 7 or any(s < 0 for s in self.det_noise):
            raise ConfigError("det_noise must be 7 non-negative scales")
        if self.cars_min < 0 or self.cars_max < self.cars_min:
            raise ConfigError("invalid cars-per-scene range")
        for key in ("size_h", "size_w", "size_l"):
            size = getattr(self, key)
            if len(size) != 2 or not 0.0 < size[0] <= size[1] < math.inf:
                raise ConfigError(f"synth.{key} must be two finite values 0 < low <= high, got {size}")
        if not self.cz_std >= 0.0:
            raise ConfigError(f"synth.cz_std must be >= 0, got {self.cz_std}")
        if not 0.0 < self.res < math.inf:
            raise ConfigError(f"synth.res must be finite and > 0, got {self.res}")
        if not 0.0 <= self.margin < math.inf:
            raise ConfigError(f"synth.margin must be finite and >= 0, got {self.margin}")
        if not 0.0 < self.max_pair_iou <= 1.0:
            raise ConfigError(f"synth.max_pair_iou must be in (0, 1], got {self.max_pair_iou}")

    @property
    def origin(self) -> float:
        # grid centered on the world origin
        return -(self.grid_w - 1) / 2.0 * self.res

    @property
    def half_extent(self) -> float:
        return (self.grid_w - 1) / 2.0 * self.res


@dataclass
class Scene:
    id: int
    grid: FeatureGrid
    gts: list
    initial_dets: list


def _mixing_matrix(cfg: SynthConfig) -> np.ndarray:
    """Fixed per-config mixture of the base channels into the extra ones."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF00D]))
    return 0.5 * rng.normal(size=(cfg.channels - 4, 4))


def render_features(cfg: SynthConfig, boxes: list[Box3D], rng: np.random.Generator) -> FeatureGrid:
    """Render the feature grid for a set of boxes (noise from `rng`)."""
    w, length, c = cfg.grid_w, cfg.grid_l, cfg.channels
    xs = cfg.origin + cfg.res * np.arange(w)
    ys = cfg.origin + cfg.res * np.arange(length)
    gx = xs[:, None] * np.ones((1, length))
    gy = np.ones((w, 1)) * ys[None, :]

    if boxes:
        # in symmetric mode the whole rendering depends on yaw only mod pi:
        # canonicalize with IEEE remainder (exact), so a box and its
        # pi-rotation use the same yaw float whenever yaw + pi is itself
        # exact, and render bit-identically
        if cfg.symmetric_rendering:
            yaw_of = [math.remainder(b.yaw, math.pi) for b in boxes]
            per_box = np.array([2.0 * y for y in yaw_of])
        else:
            yaw_of = [b.yaw for b in boxes]
            per_box = np.array(yaw_of)
        inside = np.full((w, length), -np.inf)
        nearest = np.zeros((w, length), dtype=np.int64)
        for bi, box in enumerate(boxes):
            dx = gx - box.cx
            dy = gy - box.cy
            cos, sin = np.cos(yaw_of[bi]), np.sin(yaw_of[bi])
            u = cos * dx + sin * dy
            v = -sin * dx + cos * dy
            sd = np.minimum(box.l / 2.0 - np.abs(u), box.w / 2.0 - np.abs(v))
            better = sd > inside
            inside = np.where(better, sd, inside)
            nearest = np.where(better, bi, nearest)
        yaws = per_box[nearest]
        near_mask = -inside < DISTANCE_CLIP
        ch0 = 1.0 / (1.0 + np.exp(-inside / OCCUPANCY_SOFTNESS))
        ch1 = np.clip(-inside, -DISTANCE_CLIP, DISTANCE_CLIP)
        ch2 = np.where(near_mask, np.cos(yaws), 0.0)
        ch3 = np.where(near_mask, np.sin(yaws), 0.0)
    else:
        ch0 = np.zeros((w, length))
        ch1 = np.full((w, length), DISTANCE_CLIP)
        ch2 = np.zeros((w, length))
        ch3 = np.zeros((w, length))

    base = np.stack([ch0, ch1, ch2, ch3], axis=2)
    data = np.empty((w, length, c))
    data[:, :, :4] = base
    if c > 4:
        data[:, :, 4:] = base @ _mixing_matrix(cfg).T
    if cfg.feature_noise > 0:
        data += rng.normal(scale=cfg.feature_noise, size=data.shape)
    return FeatureGrid(data, origin_x=cfg.origin, origin_y=cfg.origin, res=cfg.res)


def _place_boxes(cfg: SynthConfig, n: int, rng: np.random.Generator) -> list[Box3D]:
    lo = -cfg.half_extent + cfg.margin
    hi = cfg.half_extent - cfg.margin
    if n > 0 and lo >= hi:
        raise GenerationError("world extent too small for the placement margin")
    boxes: list[Box3D] = []
    attempts = 0
    while len(boxes) < n:
        if attempts > 200 * n + 200:  # the drawn count is a target, cars_min a floor
            if len(boxes) >= cfg.cars_min:
                break
            raise GenerationError(f"could not place {cfg.cars_min} boxes with pair IoU < {cfg.max_pair_iou}")
        attempts += 1
        cand = Box3D(
            cx=float(rng.uniform(lo, hi)),
            cy=float(rng.uniform(lo, hi)),
            cz=float(rng.normal(cfg.cz_mean, cfg.cz_std)),
            h=float(rng.uniform(*cfg.size_h)),
            w=float(rng.uniform(*cfg.size_w)),
            l=float(rng.uniform(*cfg.size_l)),
            yaw=float(rng.uniform(-np.pi, np.pi)),
        )
        if all(bev_iou(to_bev(cand), to_bev(b)) < cfg.max_pair_iou for b in boxes):
            boxes.append(cand)
    return boxes


def _perturb_detection(cfg: SynthConfig, box: Box3D, rng: np.random.Generator) -> Detection:
    noise = np.asarray(cfg.det_noise)
    for _ in range(1000):
        eps = rng.normal(size=7) * noise
        arr = box.as_array() + eps
        if np.all(arr[3:6] > 0):
            break
    else:
        raise GenerationError("could not draw a valid detection perturbation")
    active = noise > 0
    if np.any(active):
        magnitude = float(np.sqrt(np.mean((eps[active] / noise[active]) ** 2)))
    else:
        magnitude = 0.0
    score = 1.0 / (1.0 + np.exp(magnitude - 2.0))  # monotone decreasing, in (0, 1)
    return Detection(box=Box3D.from_array(arr), score=score)


def gen_scene(cfg: SynthConfig, rng: np.random.Generator, scene_id: int = 0) -> Scene:
    """One scene: boxes, rendered grid, and perturbed initial detections."""
    n = int(rng.integers(cfg.cars_min, cfg.cars_max + 1))
    boxes = _place_boxes(cfg, n, rng)
    grid = render_features(cfg, boxes, rng)
    gts = [GroundTruth(box=b) for b in boxes]
    dets = [_perturb_detection(cfg, b, rng) for b in boxes]
    return Scene(id=scene_id, grid=grid, gts=gts, initial_dets=dets)


def scene_rng(cfg: SynthConfig, scene_id: int) -> np.random.Generator:
    """Per-scene stream derived from (config seed, scene id)."""
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, scene_id]))


def gen_scene_by_index(cfg: SynthConfig, scene_id: int) -> Scene:
    return gen_scene(cfg, scene_rng(cfg, scene_id), scene_id)


def split_indices(n_scenes: int):
    """Deterministic split: last 20% of ids are validation."""
    if n_scenes < 1:
        raise ConfigError("empty dataset requested")
    n_train = n_scenes - n_scenes // 5
    return list(range(n_train)), list(range(n_train, n_scenes))


class LazyScenes:
    """Sequence of scenes regenerated deterministically on access."""

    def __init__(self, cfg: SynthConfig, ids):
        self.cfg = cfg
        self.ids = list(ids)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i) -> Scene:
        return gen_scene_by_index(self.cfg, self.ids[i])


def save_scene(scene: Scene, path):
    g = scene.grid
    w, length, c = g.data.shape
    with open(path, "wb") as f:
        f.write(SCENE_MAGIC)
        f.write(struct.pack("<II", SCENE_VERSION, scene.id))
        f.write(struct.pack("<III", w, length, c))
        f.write(struct.pack("<ddd", g.res, g.origin_x, g.origin_y))
        f.write(struct.pack("<II", len(scene.gts), len(scene.initial_dets)))
        f.write(np.ascontiguousarray(g.data, dtype="<f8").tobytes())
        for gt in scene.gts:
            f.write(np.ascontiguousarray(gt.box.as_array(), dtype="<f8").tobytes())
            has_meta = gt.has_difficulty_meta
            f.write(struct.pack("<B", int(has_meta)))
            meta = (gt.bbox_height, float(gt.occlusion), gt.truncation) if has_meta else (0.0, 0.0, 0.0)
            f.write(struct.pack("<ddd", *meta))
        for det in scene.initial_dets:
            row = np.append(det.box.as_array(), det.score)
            f.write(np.ascontiguousarray(row, dtype="<f8").tobytes())


def _finite_row(raw: bytes, count: int, offset: int) -> np.ndarray:
    row = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(row).all():
        raise ValueError(f"non-finite values {row.tolist()}")
    return row


def load_scene(path) -> Scene:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != SCENE_MAGIC:
        raise InputError(f"not a scene file: {path}")
    try:  # a file cut short, a bad grid, non-finite values, non-positive sizes and bad scores are input errors
        version, scene_id = struct.unpack_from("<II", raw, 8)
        if version != SCENE_VERSION:
            raise InputError(f"unsupported scene version {version}")
        w, length, c = struct.unpack_from("<III", raw, 16)
        res, ox, oy = struct.unpack_from("<ddd", raw, 28)
        n_gts, n_dets = struct.unpack_from("<II", raw, 52)
        pos = 60
        count = w * length * c
        data = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(w, length, c).copy()
        pos += 8 * count
        grid = FeatureGrid(data, origin_x=ox, origin_y=oy, res=res)
        gts, dets = [], []
        for _ in range(n_gts):
            box = Box3D.from_array(_finite_row(raw, 7, pos))
            pos += 56
            (has_meta,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            bh, occ, trunc = struct.unpack_from("<ddd", raw, pos)
            pos += 24
            if has_meta:
                gts.append(GroundTruth(box=box, bbox_height=bh, occlusion=int(occ), truncation=trunc))
            else:
                gts.append(GroundTruth(box=box))
        for _ in range(n_dets):
            row = _finite_row(raw, 8, pos)
            pos += 64
            dets.append(Detection(box=Box3D.from_array(row[:7]), score=float(row[7])))
    except (struct.error, ValueError, ConfigError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return Scene(id=scene_id, grid=grid, gts=gts, initial_dets=dets)


def scene_filename(scene_id: int) -> str:
    return f"scene_{scene_id:06d}.bin"


def save_dataset(scenes, splits, out_dir) -> Path:
    """Write scene files and a plain-text manifest (id, split, filename)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for scene, split in zip(scenes, splits):
        fname = scene_filename(scene.id)
        save_scene(scene, out / fname)
        lines.append(f"{scene.id:06d} {split} {fname}")
    manifest = out / "manifest.txt"
    manifest.write_text("".join(line + "\n" for line in lines))
    return manifest


@dataclass(frozen=True)
class ManifestEntry:
    id: int
    split: str
    filename: str


def read_manifest(dataset_dir) -> list[ManifestEntry]:
    path = Path(dataset_dir) / "manifest.txt"
    if not path.exists():
        raise InputError(f"no manifest.txt under {dataset_dir}")
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"manifest line {lineno}: expected 'id split filename'")
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise InputError(f"manifest line {lineno}: scene id {parts[0]!r} is not a number")
        entries.append(ManifestEntry(id=int(parts[0]), split=parts[1], filename=parts[2]))
    return entries


class FileScenes:
    """Lazy sequence over scene files listed in a dataset manifest."""

    def __init__(self, dataset_dir, split: str | None = None):
        self.root = Path(dataset_dir)
        self.entries = [e for e in read_manifest(dataset_dir) if split in (None, e.split)]

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i) -> Scene:
        return load_scene(self.root / self.entries[i].filename)
