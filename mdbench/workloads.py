"""The benchmark's workloads.

Each workload has a repeatable ``setup`` (work done before the first timed
call) and a ``round`` that runs the timed part once, checks its outputs with
``check`` and returns a ``Round``. Rounds of one run repeat the same inputs,
so their outputs must be byte-identical; the first round of a run is checked
in full and later rounds are compared with it.

The program is driven only through ``mdocc.cli.main`` and the public
functions of ``mdocc.experiment`` (plus the MCKPT codec, for the re-encode
check).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import check
from mdocc import cli
from mdocc import experiment as exp
from mdocc.align import NormState
from mdocc.core import OccupancyGrid, grid_encode
from mdocc.model import init_params, load_checkpoint, save_checkpoint

DATASETS = ("a32", "b64")
# documented non-zero exit codes of `mdocc`: usage/config, numeric, i/o
DOCUMENTED_FAILURE_CODES = (1, 2, 3)


@dataclass
class Round:
    wall_s: float
    quality: dict
    notes: dict = field(default_factory=dict)


class PipelineFailed(RuntimeError):
    pass


def tree_digest(root):
    """sha256 of every regular file under root (symlinks are inputs, skipped)."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.path.islink(path):
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root)
               for f in fs if not os.path.islink(os.path.join(d, f)))


def _read(path, mode="rb"):
    with open(path, mode) as fh:
        return fh.read()


def _write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _to_grid(g):
    return check.Grid(labels=g.labels.astype("int64"), voxel=g.voxel_size_m,
                      origin=g.origin, num_classes=g.num_classes)


def _quality(cells):
    """IoU and mIoU of the mdt in-domain cells, per dataset."""
    return {f"mdt_{kind}_{ds}": float(cells[("mdt", ds)][i])
            for i, kind in enumerate(("iou", "miou")) for ds in DATASETS}


def check_cli_tree(synth_dir, out_dir, ckpt, train_log, cross):
    """Check a CLI run: inputs, unified space, every report cell, the
    training log and the checkpoint. Returns the report's cells as floats."""
    manifest = json.loads(_read(os.path.join(synth_dir, "manifest.json"), "r"))
    info = manifest["datasets"]
    counts = {ds: len(info[ds]["classes"]) for ds in DATASETS}
    empty = {ds: int(info[ds]["empty_id"]) for ds in DATASETS}
    gts = {}
    for ds in DATASETS:
        for tag, n in (("scene", len(manifest["scene_seeds"])), ("eval", len(manifest["eval_seeds"]))):
            grids = []
            for i in range(n):
                grid = check.decode_mocc(_read(os.path.join(synth_dir, ds, f"{tag}_{i:04d}.mocc")))
                check.check_gt_grid(grid, ds)
                check.require(grid.num_classes == counts[ds], f"{ds} gt class count")
                check.check_cloud(check.decode_mply(
                    _read(os.path.join(synth_dir, ds, f"{tag}_cloud_{i:04d}.mply"))), ds)
                grids.append(grid)
            gts[ds, tag] = grids
    maps, n_unified = check.parse_unified(_read(os.path.join(out_dir, "unified.txt"), "r"), counts)
    report = check.read_report(_read(os.path.join(out_dir, "report_mdt.csv"), "r"))
    want = {("mdt", ds) for ds in DATASETS} | ({("mdt_cross", ds) for ds in DATASETS} if cross else set())
    check.require(set(report) == want, f"report cells {sorted(report)} != {sorted(want)}")
    for (setup, ds), reported in report.items():
        source = ds if setup == "mdt" else next(d for d in DATASETS if d != ds)
        pred_dir = os.path.join(out_dir, "pred", setup, ds)
        preds = [check.decode_mocc(_read(os.path.join(pred_dir, f)))
                 for f in sorted(os.listdir(pred_dir))]
        check.require(len(preds) == len(gts[ds, "eval"]), f"{setup}/{ds}: prediction count")
        check.require(all(p.num_classes == counts[source] for p in preds), f"{setup}/{ds}: prediction classes")
        lut = None if source == ds else check.transcode_lut(maps, n_unified, source, ds, empty[ds])
        iou, miou = check.cell_scores(preds, gts[ds, "eval"], counts[ds], empty[ds], lut)
        check.same_4dp(iou, reported[0], f"{setup}/{ds} iou")
        check.same_4dp(miou, reported[1], f"{setup}/{ds} miou")
    check.check_log(check.read_log(_read(train_log, "r")), DATASETS)
    original = _read(ckpt)
    params, norm_state = load_checkpoint(ckpt)
    again = os.path.join(out_dir, "reencoded.mckpt")
    check.require(save_checkpoint(again, params, norm_state) == original, "checkpoint does not re-encode to its bytes")
    os.remove(again)
    return {key: (float(a), float(b)) for key, (a, b) in report.items()}


class Workload:
    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.reference = None  # (digest, quality) of the run's first round
        self.attempted = 0  # operations of the program, set-up included
        self.failed = 0

    def timed(self, traced, fn, out_dir=None):
        """Wall time of fn(); traced rounds also count the bytes it wrote."""
        self.tracer.active = traced
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            wall = time.perf_counter() - t0
            self.tracer.active = False
        if traced and out_dir:
            self.tracer.values["cli.out_bytes"] += tree_bytes(out_dir)
        return wall

    def mdocc(self, *argv):
        self.attempted += 1
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            self.failed += 1
            raise PipelineFailed(f"mdocc {argv[0]} exited {rc}")

    def checked(self, out_dir, full_check):
        """Quality of a round: the first round is checked in full, and later
        rounds must reproduce its files."""
        digest = tree_digest(out_dir) if out_dir else None
        if self.reference is None:
            self.reference = (digest, full_check())
        else:
            check.require(digest == self.reference[0], "a round's outputs differ from the first round's")
        return self.reference[1]

    def setup(self, work_dir):
        pass


class CliMdt(Workload):
    """`synth`, `train --regime mdt`, `learn-labels`, `eval --unified` on the
    default ExperimentConfig, then four malformed-input probes."""

    name = "cli_mdt"

    def setup(self, work_dir):
        # probe inputs are fixed: they must not depend on the seed
        p = os.path.join(work_dir, "probes")
        manifest = json.dumps({"taxonomy": "split", "scene_seeds": [], "eval_seeds": []})
        _write(os.path.join(p, "empty", "manifest.json"), manifest)
        _write(os.path.join(p, "trunc_scene", "manifest.json"), manifest)
        tiny = OccupancyGrid(dims=(4, 4, 2), voxel_size_m=0.2, origin=(0.0, 0.0, 0.0),
                             labels=[0] * 32, num_classes=9)
        _write(os.path.join(p, "trunc_scene", "a32", "scene_0000.mocc"), grid_encode(tiny)[:60])
        ckpt = os.path.join(p, "ok.mckpt")
        blob = save_checkpoint(ckpt, init_params({"a32": 9, "b64": 8}, 8, 0), NormState(8, list(DATASETS)))
        _write(os.path.join(p, "trunc.mckpt"), blob[: len(blob) // 2])
        _write(os.path.join(p, "bad_unified.txt"),
               "format: unified-space v1\ndatasets: a32,b64\nempty: 0\n"
               "class 0: a32/empty+b64/empty\nmap a32 0 empty extra -> 0\n")
        _write(os.path.join(p, "no_miou.csv"), "setup,dataset,iou\nmdt,a32,0.5000\n")
        empty = os.path.join(p, "empty")
        self.probes = {
            "truncated_mckpt": ["eval", "--out", empty, "--checkpoint", os.path.join(p, "trunc.mckpt")],
            "malformed_unified": ["eval", "--out", empty, "--checkpoint", ckpt,
                                  "--unified", os.path.join(p, "bad_unified.txt")],
            "report_without_miou": ["report", "--out", os.path.join(p, "report"),
                                    os.path.join(p, "no_miou.csv")],
            "truncated_mocc": ["train", "--out", os.path.join(p, "trunc_scene"), "--regime", "mdt"],
        }

    def round(self, out_dir, traced):
        ckpt = os.path.join(out_dir, "ckpt_mdt.mckpt")
        common = ["--out", out_dir, "--seed", self.seed]

        def pipeline():
            self.mdocc("synth", *common)
            self.mdocc("train", *common, "--regime", "mdt")
            self.mdocc("learn-labels", *common, "--checkpoint", ckpt)
            self.mdocc("eval", *common, "--checkpoint", ckpt, "--unified", os.path.join(out_dir, "unified.txt"))

        wall = self.timed(traced, pipeline, out_dir)
        quality = self.checked(out_dir, lambda: _quality(check_cli_tree(
            out_dir, out_dir, ckpt, os.path.join(out_dir, "train_log_mdt.csv"), cross=False)))
        outcomes = {name: run_probe(argv) for name, argv in self.probes.items()}
        self.attempted += len(outcomes)
        self.failed += sum(1 for ok, _ in outcomes.values() if not ok)
        return Round(wall, quality, {"probes": {name: why for name, (ok, why) in outcomes.items()}})


def run_probe(argv):
    """A malformed input passes when `main` returns a documented non-zero
    code and prints exactly one line, with no exception escaping."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main([str(a) for a in argv])
    except Exception as e:  # the fault being probed for: counted, not raised
        return False, f"uncaught {type(e).__name__}: {e}"
    lines = buf.getvalue().strip().splitlines()
    ok = rc in DOCUMENTED_FAILURE_CODES and len(lines) == 1
    return ok, f"exit {rc}, {len(lines)} line(s) of output"


# the default config's model (12 training scenes, 40 epochs): with 4 scenes
# and 20 epochs the model is so weak that eval work and IoU swing by a factor
# of 5 from seed to seed
EVAL_REFINE_CONFIG = """\
[data]
eval_scenes = 16
[eval]
eta = 4
cross = true
"""


class EvalRefine(Workload):
    """Set-up: `synth` (12 training, 16 eval scenes) and `train --regime mdt`
    for 40 epochs. Timed: `learn-labels`, then `eval --unified` with eta 4
    and cross-domain cells, into a fresh output tree."""

    name = "eval_refine"

    def setup(self, work_dir):
        self.inputs = work_dir
        self.config = os.path.join(work_dir, "eval_refine.cfg")
        _write(self.config, EVAL_REFINE_CONFIG)
        common = ["--config", self.config, "--out", work_dir, "--seed", self.seed]
        self.mdocc("synth", *common)
        self.mdocc("train", *common, "--regime", "mdt")

    def round(self, out_dir, traced):
        os.makedirs(out_dir)
        for name in ("manifest.json",) + DATASETS:
            os.symlink(os.path.abspath(os.path.join(self.inputs, name)), os.path.join(out_dir, name))
        ckpt = os.path.join(self.inputs, "ckpt_mdt.mckpt")
        common = ["--config", self.config, "--out", out_dir, "--seed", self.seed]

        def timed_part():
            self.mdocc("learn-labels", *common, "--checkpoint", ckpt)
            self.mdocc("eval", *common, "--checkpoint", ckpt, "--unified", os.path.join(out_dir, "unified.txt"))

        wall = self.timed(traced, timed_part, out_dir)
        quality = self.checked(out_dir, lambda: _quality(check_cli_tree(
            self.inputs, out_dir, ckpt, os.path.join(self.inputs, "train_log_mdt.csv"), cross=True)))
        return Round(wall, quality)


class Trend(Workload):
    """One seed of run_trend_experiment at acceptance 9's settings."""

    name = "trend"
    N_EVAL = 8
    EPOCHS = 48

    def round(self, out_dir, traced):
        box = {}

        def timed_part():
            self.attempted += 1
            box["r"] = exp.run_trend_experiment(self.seed, n_eval=self.N_EVAL, epochs=self.EPOCHS)

        wall = self.timed(traced, timed_part)
        r = box["r"]
        quality = _quality({key: (row["iou"], row["miou"]) for key, row in r["rows"].items()})

        def full_check():
            check_trend(r)
            return quality

        check.require(self.checked(None, full_check) == quality, "a round's cells differ from the first round's")
        return Round(wall, quality)


def check_trend(r):
    synth = r["synth"]
    for ds in DATASETS:
        for views in (synth.train_views[ds], synth.eval_views[ds]):
            for cloud, gt in views:
                check.check_cloud(cloud, ds)
                check.check_gt_grid(_to_grid(gt), ds)
    # datasets whose loss must fall over the last phase; pretrain_finetune
    # trains only its target there. direct_merge's a32 loss is not held to
    # it: on seed 3 it ends above its epoch-0 value (see CHANGES.md)
    falls = {"single_a32": ["a32"], "single_b64": ["b64"], "direct_merge": ["b64"], "mdt": DATASETS}
    for name, datasets in falls.items():
        check.check_log(r["results"][name].log, datasets)
    check.check_log(r["pt_log"], [DATASETS[1]])
    mdt = exp.standard_setups({"mdt": r["results"]["mdt"]})[0]
    _, preds = exp.evaluate_setups(synth, [mdt], r["unified"], stride=2)
    for ds in DATASETS:
        space = synth.specs[ds].label_space
        gts = [_to_grid(gt) for _, gt in synth.eval_views[ds]]
        iou, miou = check.cell_scores([_to_grid(p) for p in preds["mdt", ds]], gts,
                                      len(space), space.empty_id)
        row = r["rows"]["mdt", ds]
        check.same_4dp(iou, row["iou"], f"mdt/{ds} iou")
        check.same_4dp(miou, row["miou"], f"mdt/{ds} miou")


WORKLOADS = {w.name: w for w in (CliMdt, Trend, EvalRefine)}
