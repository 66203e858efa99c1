"""Command-line pipeline: generate, train, refine, evaluate, and the two
analysis sweeps (refinement-iteration sweep, heading-angle energy scan).

Every command prints the fully resolved configuration, embeds it in a
comment line at the top of each CSV it writes, and is deterministic under
a fixed seed except for the two documented timing fields (the seconds
column of the training loss log and the scenes-per-second column of the
iteration sweep), which are genuine wall-clock measurements.

Failures exit nonzero with one machine-parsable line on stderr:
`error:<category>: <message>` where category is one of config, input,
numeric, generation, io.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .config import RunConfig, build_run_config, parse_config_file, resolved_line
from .energynet import heading_scan, init_params, load_checkpoint, save_checkpoint
from .errors import BoxEbmError, ConfigError, GenerationError, InputError, NumericError
from .evalkit import GroundTruth, ScoredBox, evaluate, relative_gain
from .geometry import box_rows, pair_iou
from .kittiio import DONT_CARE, from_box3d, parse_label_file, to_box3d, write_result_file
from .nce import train
from .refine import refine_scenes, sweep_t
from .synthscene import FileScenes, gen_scene_by_index, save_dataset, split_indices

ERROR_CATEGORIES = [
    (ConfigError, "config"),
    (NumericError, "numeric"),
    (GenerationError, "generation"),
    (InputError, "input"),
    (BoxEbmError, "input"),
    (OSError, "io"),
]

_DETS_DIR = "dets"  # subdirectory of a `refine --out` holding the KITTI result files


def _write_csv(path: Path, comment: str, header: list[str], rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(f"# {comment}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def _load_params_checked(checkpoint: Path, cfg: RunConfig, channels: int):
    params = load_checkpoint(checkpoint)
    expect = cfg.pool.feature_len(channels)
    if params.dims.feat_len != expect:
        raise ConfigError(
            f"checkpoint pooled-feature length {params.dims.feat_len} does not match "
            f"pool {cfg.pool.grid_w}x{cfg.pool.grid_l} x {channels} channels = {expect}"
        )
    return params


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise ConfigError(f"--{name} is required for this command")


def _open_split(args) -> FileScenes:
    """The `--split` scenes of `--dataset`; an empty split is an input error."""
    scenes = FileScenes(args.dataset, split=args.split)
    if len(scenes) == 0:
        raise InputError(f"no {args.split!r} scenes under {args.dataset}")
    return scenes


def cmd_synth_gen(cfg: RunConfig, args) -> int:
    _require(args, "out")
    train_ids, val_ids = split_indices(cfg.n_scenes)
    n_boxes = 0
    iou_sum = 0.0

    def scenes():
        nonlocal n_boxes, iou_sum
        for i in range(cfg.n_scenes):
            scene = gen_scene_by_index(cfg.synth, i)
            n_boxes += len(scene.gts)
            iou_sum += sum(pair_iou(box_rows([d.box for d in scene.initial_dets]),
                                    box_rows([g.box for g in scene.gts]), "bev").tolist())
            yield scene

    save_dataset(scenes(), ["train"] * len(train_ids) + ["val"] * len(val_ids), args.out)
    mean_iou = iou_sum / n_boxes if n_boxes else float("nan")
    print(f"scenes={cfg.n_scenes} boxes={n_boxes} mean_initial_bev_iou={mean_iou:.4f}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    _require(args, "dataset", "out")
    noise = cfg.noise.build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _open_split(args)
    channels = dataset[0].grid.channels
    if args.resume:
        params = _load_params_checked(Path(args.resume), cfg, channels)
    else:
        params = init_params(cfg.seed, cfg.net_dims(channels))
    ckpt = out / "checkpoint.ckpt"
    save_checkpoint(params, ckpt)  # a last-good checkpoint always exists
    trained, records = train(
        params, dataset, cfg.train, noise, cfg.pool,
        on_epoch=lambda p, _epoch: save_checkpoint(p, ckpt),
    )
    save_checkpoint(trained, ckpt)
    _write_csv(out / "loss.csv", resolved_line(cfg),
               ["epoch", "step", "loss", "seconds"],
               [(r.epoch, r.step, r.loss, r.seconds) for r in records])
    print(f"steps={len(records)} final_loss={records[-1].loss:.6f} checkpoint={ckpt}")
    return 0


def cmd_refine(cfg: RunConfig, args) -> int:
    _require(args, "dataset", "checkpoint", "out")
    out = Path(args.out)
    scenes = _open_split(args)
    params = _load_params_checked(Path(args.checkpoint), cfg, scenes[0].grid.channels)
    _, refined, traces, _, _ = refine_scenes(params, scenes, cfg.pool, cfg.refine)
    (out / _DETS_DIR).mkdir(parents=True, exist_ok=True)
    for sid, dets in refined.items():
        (out / _DETS_DIR / f"{sid:06d}.txt").write_text(
            write_result_file([from_box3d(d.box, score=d.score) for d in dets]))
    if args.traces:
        _write_csv(out / "traces.csv", resolved_line(cfg),
                   ["scene_id", "det_index", "iteration", "current_value",
                    "proposal_value", "accepted", "step_size"],
                   [(sid, di, r.iteration, r.current_value, r.proposal_value, int(r.accepted), r.step_size)
                    for sid, scene_traces in traces.items()
                    for di, trace in enumerate(scene_traces) for r in trace])
    n_dets = sum(len(dets) for dets in refined.values())
    # a trace ends at its last accepted proposal's value, or at its first value if none was accepted
    f_gain = sum((t[-1].proposal_value if t[-1].accepted else t[-1].current_value) - t[0].current_value
                 for scene_traces in traces.values() for t in scene_traces if t)
    print(f"scenes={len(scenes)} detections={n_dets} mean_f_increase={f_gain / max(n_dets, 1):.6f}")
    return 0


def _kitti_labels(path: Path):
    """Parsed labels of one file, with a non-DontCare box of non-positive size an input error."""
    labels = parse_label_file(path.read_text())
    for n, lab in enumerate(labels, start=1):
        if lab.type != DONT_CARE and not lab.is_evaluable:
            raise InputError(f"{path}: label {n} has a non-positive dimension "
                             f"(h={lab.h} w={lab.w} l={lab.l})")
    return labels


def _kitti_files(root: Path) -> dict:
    """KITTI files under `root` by scene id, in name order. A file's name is
    its id in decimal digits, and two names for one id are an input error."""
    files = {}
    for path in sorted(Path(root).glob("*.txt")):
        if not (path.stem.isascii() and path.stem.isdigit()):
            raise InputError(f"{path}: KITTI file names must be numeric scene ids")
        sid = int(path.stem)
        if sid in files:
            raise InputError(f"{files[sid]} and {path} are both scene {sid}")
        files[sid] = path
    return files


def _gts_from_kitti(label_dir: Path):
    gts = {}
    for sid, path in _kitti_files(label_dir).items():
        gts[sid] = [GroundTruth(
            box=to_box3d(lab),
            bbox_height=lab.bbox_bottom - lab.bbox_top,
            occlusion=min(max(lab.occluded, 0), 3),
            truncation=min(max(lab.truncated, 0.0), 1.0),
        ) for lab in _kitti_labels(path) if lab.type != DONT_CARE]
    if not gts:
        raise InputError(f"no label files under {label_dir}")
    return gts


def _dets_from_kitti(dets_dir: Path, expected_ids):
    dets = {}
    for sid, path in _kitti_files(dets_dir).items():
        rows = []
        for lab in _kitti_labels(path):
            if lab.score is None:
                raise InputError(f"{path} has a detection without a score")
            rows.append(ScoredBox(to_box3d(lab), lab.score))
        dets[sid] = rows
    missing = sorted(set(expected_ids) - set(dets))
    extra = sorted(set(dets) - set(expected_ids))
    if missing or extra:
        raise InputError(f"detection/GT scene sets differ; missing={missing} extra={extra}")
    return dets


def cmd_eval(cfg: RunConfig, args) -> int:
    _require(args, "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dataset is None and args.kitti_gt is None:
        raise ConfigError("eval needs --dataset (scene files) or --kitti-gt (label files)")
    initial = None
    if args.dataset is not None:
        scenes = _open_split(args)
        gts, initial = {}, {}
        for i in range(len(scenes)):
            scene = scenes[i]
            gts[scene.id], initial[scene.id] = scene.gts, scene.initial_dets
    else:
        gts = _gts_from_kitti(Path(args.kitti_gt))
    refined = None
    if args.dets is not None:
        dets_root = Path(args.dets)
        if (dets_root / _DETS_DIR).exists():  # accept a refine --out directory directly
            dets_root = dets_root / _DETS_DIR
        refined = _dets_from_kitti(dets_root, gts.keys())
    if initial is None and refined is None:
        raise ConfigError("nothing to evaluate: provide --dets and/or a scene --dataset")

    kw = asdict(cfg.eval)
    res_initial = evaluate(initial, gts, **kw) if initial is not None else None
    res_refined = evaluate(refined, gts, **kw) if refined is not None else None

    ap_rows = []
    pr_rows = []
    recalls_header = [x for i in range(1, 41) for x in (f"recall_{i:02d}", f"precision_{i:02d}")]
    for mode in cfg.eval.modes:
        for thr in cfg.eval.thresholds:
            for diff in cfg.eval.difficulties:
                key = (mode, thr, diff)
                ap_i = res_initial[key].ap if res_initial else ""
                ap_r = res_refined[key].ap if res_refined else ""
                rel = relative_gain(ap_i, ap_r) if res_initial and res_refined else ""
                ap_rows.append((mode, thr, diff, ap_i, ap_r, rel))
                for source, res in (("initial", res_initial), ("refined", res_refined)):
                    if res is None:
                        continue
                    flat = [x for r, p in res[key].pr_curve for x in (r, p)]
                    pr_rows.append((mode, thr, diff, source, res[key].ap, *flat))
    _write_csv(out / "ap.csv", resolved_line(cfg),
               ["mode", "threshold", "difficulty", "ap_initial", "ap_refined", "rel_improvement"],
               ap_rows)
    _write_csv(out / "pr.csv", resolved_line(cfg),
               ["mode", "threshold", "difficulty", "source", "ap", *recalls_header],
               pr_rows)
    print(f"wrote {out / 'ap.csv'} ({len(ap_rows)} rows)")
    return 0


def cmd_sweep_t(cfg: RunConfig, args) -> int:
    _require(args, "dataset", "checkpoint", "out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenes = _open_split(args)
    params = _load_params_checked(Path(args.checkpoint), cfg, scenes[0].grid.channels)
    rows = sweep_t(params, scenes, cfg.pool, cfg.refine, cfg.sweep.t_values, cfg.eval.thresholds)
    comment = resolved_line(cfg) + " | mean_ap averages 3D AP over eval.thresholds; throughput times the refinement step only"
    _write_csv(out / "sweep_t.csv", comment, ["T", "mean_ap_3d", "scenes_per_sec"], rows)
    print(f"wrote {out / 'sweep_t.csv'} ({len(rows)} rows)")
    return 0


def cmd_angle_scan(cfg: RunConfig, args) -> int:
    _require(args, "dataset", "checkpoint", "out", "scene-id")
    out = Path(args.out)
    scenes = FileScenes(args.dataset)
    by_id = {scenes.entries[i].id: i for i in range(len(scenes))}
    if args.scene_id not in by_id:
        raise InputError(f"scene id {args.scene_id} not in dataset")
    scene = scenes[by_id[args.scene_id]]
    if not 0 <= args.det_index < len(scene.initial_dets):
        raise InputError(
            f"detection index {args.det_index} out of range "
            f"(scene has {len(scene.initial_dets)} detections)"
        )
    params = _load_params_checked(Path(args.checkpoint), cfg, scene.grid.channels)
    deltas, values = heading_scan(params, scene.grid, scene.initial_dets[args.det_index].box.as_array(),
                                  cfg.pool, cfg.angle_points)
    _write_csv(out / "angle_scan.csv", resolved_line(cfg), ["delta_phi", "energy"],
               list(zip(deltas.tolist(), values.tolist())))
    print(f"wrote {out / 'angle_scan.csv'} ({len(deltas)} rows)")
    return 0


COMMANDS = {
    "synth-gen": cmd_synth_gen,
    "train": cmd_train,
    "refine": cmd_refine,
    "eval": cmd_eval,
    "sweep-T": cmd_sweep_t,
    "angle-scan": cmd_angle_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boxebm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the top-level seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dataset", help="scene dataset directory")
        p.add_argument("--checkpoint", help="energy-net checkpoint file")
        p.add_argument("--split", default=None, help="dataset split to use")
        if name == "train":
            p.add_argument("--resume", help="checkpoint to continue training from")
        if name == "refine":
            p.add_argument("--traces", action="store_true", help="dump per-detection traces")
        if name == "eval":
            p.add_argument("--dets", help="directory of KITTI result files to evaluate")
            p.add_argument("--kitti-gt", dest="kitti_gt", help="directory of KITTI label files as ground truth")
        if name == "angle-scan":
            p.add_argument("--scene-id", dest="scene_id", type=int)
            p.add_argument("--det-index", dest="det_index", type=int, default=0)
    return parser


_SPLIT_DEFAULTS = {"train": "train", "refine": "val", "eval": "val", "sweep-T": "val"}


def load_run_config(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return build_run_config(file_values, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.split is None:
        args.split = _SPLIT_DEFAULTS.get(args.command)
    try:
        cfg = load_run_config(args)
        print(f"# {resolved_line(cfg)}")
        return COMMANDS[args.command](cfg, args)
    except tuple(cls for cls, _ in ERROR_CATEGORIES) as exc:
        category = next(category for cls, category in ERROR_CATEGORIES if isinstance(exc, cls))
        print(f"error:{category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
