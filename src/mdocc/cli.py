"""Command-line entry points: synth, train, learn-labels, eval, report.

Every command is a pure function of (config, input files, seed); reruns with
identical inputs produce byte-identical outputs. Exit codes: 0 success,
1 usage/config error, 2 numeric failure, 3 I/O failure or malformed input
file; each prints one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiment as exp
from .config import ConfigError, ExperimentConfig, load_config, render_config
from .core import CodecError, decode_file, grid_decode, grid_encode
from .labelspace import export_unified, parse_unified
from .metrics import REPORT_HEADER, MissingTransform, render_report
from .model import (
    REGIMES,
    TrainResult,
    head_blocks,
    head_widths,
    load_checkpoint,
    route,
    save_checkpoint,
    train,
)
from .scenes import ExtentTooSmall, cloud_decode, cloud_encode, dataset_presets, taxonomy_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _write_bytes(path, data):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


def _write_text(path, text):
    _write_bytes(path, text.encode())


def _load_cfg(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    return cfg


def _manifest(synth, cfg):
    tax = synth.taxonomy
    entry = {
        "taxonomy": cfg.taxonomy,
        "fine_classes": list(tax.fine_space.names),
        "datasets": {},
        "scene_seeds": synth.scene_seeds,
        "eval_seeds": synth.eval_seeds,
        "oracle_pairs": [],
    }
    for ds, spec in synth.specs.items():
        entry["datasets"][ds] = {
            "classes": list(spec.label_space.names),
            "empty_id": spec.label_space.empty_id,
            "projection": tax.project(ds).tolist(),
            "grid_dims": list(spec.grid_dims),
            "gt_range": [spec.gt_range.mins.tolist(), spec.gt_range.maxs.tolist()],
            "point_range": [spec.point_range.mins.tolist(), spec.point_range.maxs.tolist()],
        }
    oracle = exp.oracle_unified(tax, synth.specs)
    for cand in oracle.selected:
        if len(cand) == 2:
            entry["oracle_pairs"].append([list(cand.members[0]), list(cand.members[1])])
    return json.dumps(entry, indent=2, sort_keys=True) + "\n"


def cmd_synth(cfg):
    try:
        synth = exp.synthesize(
            cfg.seed, taxonomy_name=cfg.taxonomy, n_train=cfg.scenes,
            n_eval=cfg.eval_scenes, scene_counts=cfg.scene_counts,
        )
    except ExtentTooSmall as e:
        # placement is randomized, so no static check predicts this
        raise ConfigError(f"[data] object counts do not fit a scene: {e}") from None
    _write_text(os.path.join(cfg.out, "config.txt"), render_config(cfg))
    _write_text(os.path.join(cfg.out, "manifest.json"), _manifest(synth, cfg))
    for ds in synth.specs:
        for tag, views in (("scene", synth.train_views[ds]), ("eval", synth.eval_views[ds])):
            for i, (cloud, gt) in enumerate(views):
                base = os.path.join(cfg.out, ds)
                _write_bytes(os.path.join(base, f"{tag}_{i:04d}.mocc"), grid_encode(gt))
                _write_bytes(os.path.join(base, f"{tag}_cloud_{i:04d}.mply"), cloud_encode(cloud))
    return EXIT_OK


def _load_synth(cfg):
    """Rebuild a SynthResult from a synth output directory; CodecError, naming
    the file, on a file that does not decode or a grid whose lattice or class
    count is not its dataset preset's; and, naming the directory, on a
    dataset whose scene or eval files, once they decode, are not as many as
    the manifest's seeds."""
    manifest_path = os.path.join(cfg.out, "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)
        taxonomy = taxonomy_preset(manifest["taxonomy"])
        scene_seeds, eval_seeds = manifest["scene_seeds"], manifest["eval_seeds"]
        counts = {"scene": len(scene_seeds), "eval": len(eval_seeds)}
    except (ValueError, KeyError, TypeError) as e:
        raise CodecError(f"{manifest_path}: malformed manifest: {e!r}", getattr(e, "pos", 0)) from None
    specs = dataset_presets(taxonomy)
    train_views = {ds: [] for ds in specs}
    eval_views = {ds: [] for ds in specs}
    for ds, spec in specs.items():
        base = os.path.join(cfg.out, ds)
        preset = (spec.lattice, len(spec.label_space))
        for tag, sink in (("scene", train_views), ("eval", eval_views)):
            i = 0
            while True:
                gpath = os.path.join(base, f"{tag}_{i:04d}.mocc")
                cpath = os.path.join(base, f"{tag}_cloud_{i:04d}.mply")
                if not os.path.exists(gpath):
                    break
                gt = decode_file(gpath, grid_decode)
                if (gt.lattice, gt.num_classes) != preset:
                    # offset 6: the header fields after magic and version
                    raise CodecError(f"{gpath}: {gt.lattice} with {gt.num_classes} classes "
                                     f"does not fit the {ds} preset", 6)
                sink[ds].append((decode_file(cpath, cloud_decode), gt))
                i += 1
            if i != counts[tag]:
                raise CodecError(f"{base}: {i} {tag} files, the manifest lists {counts[tag]} "
                                 f"{tag} seeds", 0)
    return exp.SynthResult(
        taxonomy=taxonomy,
        specs=specs,
        train_views=train_views,
        eval_views=eval_views,
        scene_seeds=scene_seeds,
        eval_seeds=eval_seeds,
    )


def _log_csv(log):
    lines = ["epoch,dataset,loss,iou,miou"]
    for row in log:
        lines.append(
            f"{row['epoch']},{row['dataset']},{row['loss']:.6f},{row['iou']:.4f},{row['miou']:.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_train(cfg):
    synth = _load_synth(cfg)
    result = train(exp.prepare_regime(cfg.regime, synth, list(synth.specs), cfg.stride), cfg)
    save_checkpoint(os.path.join(cfg.out, f"ckpt_{cfg.regime}.mckpt"), result.params, result.norm_state)
    _write_text(os.path.join(cfg.out, f"train_log_{cfg.regime}.csv"), _log_csv(result.log))
    return EXIT_OK


def _load_model(checkpoint, synth):
    """The TrainResult of a checkpoint; CodecError unless it holds, for every
    dataset of ``synth`` that its recorded regime reads (a single model: its
    home, its first statistic set), the routed statistic set and a head as
    wide as the dataset blocks it scores."""
    params, norm_state = load_checkpoint(checkpoint)
    regime = params.regime
    stats_ids = norm_state.dataset_ids()
    ids = stats_ids[:1] if regime == "single" else list(synth.specs)
    if not ids or not set(ids) <= set(synth.specs):
        raise CodecError(f"{checkpoint}: single model of {ids}, not a dataset here", 0)
    for ds in ids:
        stats = route(regime, ds)[0]
        if stats not in stats_ids:
            raise CodecError(f"{checkpoint}: no statistic set {stats!r} for {ds}", 0)
    sizes = {ds: len(synth.specs[ds].label_space) for ds in ids}
    for head, width in head_widths(regime, head_blocks(regime, sizes)).items():
        if head not in params.heads or params.heads[head][1].size != width:
            raise CodecError(f"{checkpoint}: {regime} needs a head {head!r} of {width} classes", 0)
    return TrainResult(params=params, norm_state=norm_state, log=[])


def cmd_learn_labels(cfg, checkpoint):
    synth = _load_synth(cfg)
    result = _load_model(checkpoint, synth)
    if result.params.regime != "mdt":
        print(f"learn-labels needs an mdt checkpoint, got a {result.params.regime} one",
              file=sys.stderr)
        return EXIT_USAGE
    if not all(synth.train_views.values()):
        print(f"learn-labels needs training scenes, {cfg.out} has none", file=sys.stderr)
        return EXIT_USAGE
    data = exp.prepare_regime("mdt", synth, list(synth.specs), cfg.stride)
    unified = exp.learn_unified(result, data, synth.specs, cfg.lam, cfg.tau)
    spaces = [(ds, synth.specs[ds].label_space) for ds in synth.specs]
    _write_text(
        os.path.join(cfg.out, "unified.txt"),
        export_unified(unified, spaces, lam=cfg.lam, tau=cfg.tau),
    )
    return EXIT_OK


def cmd_eval(cfg, checkpoint, unified_path=None):
    synth = _load_synth(cfg)
    result = _load_model(checkpoint, synth)
    if result.params.regime == "pretrain_finetune":
        print(
            "pretrain_finetune checkpoints are assessed from their training log",
            file=sys.stderr,
        )
        return EXIT_USAGE
    unified = None
    if unified_path:
        spaces = [(ds, synth.specs[ds].label_space) for ds in synth.specs]
        with open(unified_path, "r", encoding="utf-8") as fh:
            unified = parse_unified(fh.read(), spaces)
    if not all(synth.eval_views.values()):
        print(f"eval needs eval scenes, {cfg.out} has none", file=sys.stderr)
        return EXIT_USAGE
    # cross-domain cells transcode through the unified space, so they appear
    # only with [eval] cross = true
    setups = exp.regime_setups(result, list(synth.specs), cfg.cross)
    rows, preds = exp.evaluate_setups(synth, setups, unified, cfg.stride, eta=cfg.eta)
    _write_text(os.path.join(cfg.out, f"report_{setups[0].name}.csv"), render_report(rows))
    for (sname, ds), grids in preds.items():
        for i, g in enumerate(grids):
            _write_bytes(
                os.path.join(cfg.out, "pred", sname, ds, f"pred_{i:04d}.mocc"),
                grid_encode(g),
            )
    return EXIT_OK


def _read_report(path):
    """Rows of a report CSV; CodecError on a wrong header or a malformed row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    if not lines or lines[0].strip() != REPORT_HEADER:
        raise CodecError(f"{path}: header is not {REPORT_HEADER!r}", 0)
    rows = []
    offset = len(lines[0].encode())
    for line in lines[1:]:
        if line.strip():
            try:
                setup, ds, iou, mi = line.strip().split(",")
                rows.append({"setup": setup, "dataset": ds, "iou": float(iou), "miou": float(mi)})
            except ValueError:
                raise CodecError(f"{path}: malformed row {line.strip()!r}", offset) from None
        offset += len(line.encode())
    return rows


def cmd_report(out, inputs):
    rows = [row for path in inputs for row in _read_report(path)]
    rows.sort(key=lambda r: (r["setup"], r["dataset"]))
    _write_text(os.path.join(out, "report.csv"), render_report(rows))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="mdocc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file (key = value sections)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("synth", help="materialize synthetic dataset pairs")
    common(p)
    p = sub.add_parser("train", help="train a regime on a synth directory")
    common(p)
    p.add_argument("--regime", default=None, choices=REGIMES)
    p = sub.add_parser("learn-labels", help="learn the unified label space from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("eval", help="evaluate a checkpoint into a report table")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--unified", default=None, help="unified label-space document")
    p = sub.add_parser("report", help="merge report CSVs")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        # a numeric failure is reported once, by the FloatingPointError that
        # training and the score read-out raise
        with np.errstate(all="ignore"):
            if args.command == "report":
                return cmd_report(args.out, args.inputs)
            cfg = _load_cfg(args)
            if args.command == "synth":
                return cmd_synth(cfg)
            if args.command == "train":
                if args.regime:
                    cfg.regime = args.regime
                return cmd_train(cfg)
            if args.command == "learn-labels":
                return cmd_learn_labels(cfg, args.checkpoint)
            if args.command == "eval":
                return cmd_eval(cfg, args.checkpoint, args.unified)
            parser.error(f"unknown command {args.command}")
            return EXIT_USAGE
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MissingTransform, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, CodecError, UnicodeDecodeError) as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
