"""Independent checks of mdocc's outputs.

Everything here is written from the documented file formats and rules
(README "File formats", the pooling and transcoding rules) with plain numpy.
No mdocc metric, lattice or codec code is used to recompute a report cell, so
a fault in the program's own metric path shows as a mismatch here.

Every check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# Geometry of the two dataset presets and of the synthetic scene lattice, as
# documented in the README (quarter-scale asymmetric pair, 0.2 m scene voxels).
SCENE_ORIGIN = np.array([-18.0, -18.0, -0.85])
SCENE_VOXEL = 0.2
PRESETS = {
    "a32": dict(dims=(128, 128, 10), voxel=0.2, origin=(-12.8, -12.8, -1.25),
                point_lo=(-12.8, -12.8, -1.25), point_hi=(12.8, 12.8, 0.75),
                max_range=16.0, mount=(0.0, 0.0, 0.45)),
    "b64": dict(dims=(64, 64, 8), voxel=0.2, origin=(0.0, -6.4, -0.85),
                point_lo=(-18.0, -18.0, -0.85), point_hi=(18.0, 18.0, 0.75),
                max_range=20.0, mount=(0.0, 0.0, 0.65)),
}
# the evaluation range: the intersection of the two presets' gt ranges
EVAL_LO = np.array([0.0, -6.4, -0.85])
EVAL_HI = np.array([12.8, 6.4, 0.75])
GEOM_TOL = 1e-9


@dataclass
class Grid:
    labels: np.ndarray  # (D, H, W) int64
    voxel: float
    origin: tuple
    num_classes: int


_MOCC = struct.Struct("<4sHIIIddddH")


def decode_mocc(data):
    """MOCC v1: "MOCC" | u16 version | D,H,W u32 | voxel f64 | origin f64 x3
    | u16 class count | D*H*W u16 labels, D outermost."""
    require(len(data) >= _MOCC.size, "MOCC stream shorter than its header")
    magic, version, d, h, w, voxel, ox, oy, oz, classes = _MOCC.unpack_from(data, 0)
    require(magic == b"MOCC" and version == 1, f"bad MOCC magic/version {magic!r}/{version}")
    require(len(data) == _MOCC.size + 2 * d * h * w, "MOCC payload length mismatch")
    labels = np.frombuffer(data, dtype="<u2", offset=_MOCC.size).reshape(d, h, w).astype(np.int64)
    require(labels.size == 0 or labels.max() < classes, "MOCC label beyond its class count")
    return Grid(labels=labels, voxel=voxel, origin=(ox, oy, oz), num_classes=classes)


def decode_mply(data):
    """MPLY v1: "MPLY" | u16 version | u32 count | count xyz f64 triplets."""
    require(len(data) >= 10, "MPLY stream shorter than its header")
    magic, version, count = struct.unpack_from("<4sHI", data, 0)
    require(magic == b"MPLY" and version == 1, f"bad MPLY magic/version {magic!r}/{version}")
    require(len(data) == 10 + 24 * count, "MPLY payload length mismatch")
    return np.frombuffer(data, dtype="<f8", offset=10).reshape(count, 3)


def check_gt_grid(grid, ds):
    p = PRESETS[ds]
    require(grid.labels.shape == p["dims"], f"{ds} gt dims {grid.labels.shape} != {p['dims']}")
    require(abs(grid.voxel - p["voxel"]) < GEOM_TOL, f"{ds} gt voxel {grid.voxel} != {p['voxel']}")
    require(np.allclose(grid.origin, p["origin"], rtol=0, atol=GEOM_TOL),
            f"{ds} gt origin {grid.origin} != {p['origin']}")


def check_cloud(points, ds):
    """Points lie in the dataset's point range (half-open), on the scene's
    voxel-centre lattice, and within max range plus half a voxel diagonal of
    the sensor mount."""
    p = PRESETS[ds]
    pts = np.asarray(points, dtype=np.float64)
    require(pts.ndim == 2 and pts.shape[1] == 3, f"{ds} cloud is not (N, 3)")
    require(pts.shape[0] > 0, f"{ds} cloud is empty")
    require(np.all(pts >= np.array(p["point_lo"])) and np.all(pts < np.array(p["point_hi"])),
            f"{ds} cloud point outside the point range")
    cell = (pts - SCENE_ORIGIN) / SCENE_VOXEL - 0.5
    require(np.all(np.abs(cell - np.rint(cell)) < 1e-6), f"{ds} cloud point off the voxel-centre lattice")
    reach = p["max_range"] + 0.5 * SCENE_VOXEL * math.sqrt(3.0)
    dist = np.linalg.norm(pts - np.array(p["mount"]), axis=1)
    require(np.all(dist <= reach), f"{ds} cloud point beyond max range of the sensor mount")


def parse_unified(text, class_counts):
    """Read the header and `map` lines of a unified.txt and require an exact
    cover: every label of every dataset maps exactly once to an existing
    unified class. Returns ({ds: label -> unified id array}, unified count)."""
    n_unified = 0
    datasets = []
    seen = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("class "):
            n_unified += 1
        elif line.startswith("datasets:"):
            datasets = [d for d in line.partition(":")[2].strip().split(",") if d]
        elif line.startswith("map "):
            head, arrow, uid = line.partition("->")
            parts = head.split()
            require(arrow and len(parts) == 4, f"malformed map line {line!r}")
            _, ds, label, _ = parts
            key = (ds, int(label))
            require(key not in seen, f"label {key} mapped twice")
            seen[key] = int(uid)
    require(sorted(datasets) == sorted(class_counts), f"unified datasets {datasets} != {sorted(class_counts)}")
    maps = {}
    for ds, n in class_counts.items():
        require({lab for d, lab in seen if d == ds} == set(range(n)),
                f"{ds} labels are not covered exactly once")
        lut = np.array([seen[(ds, lab)] for lab in range(n)], dtype=np.int64)
        require(np.all((lut >= 0) & (lut < n_unified)), f"{ds} maps to an undefined unified class")
        maps[ds] = lut
    require(len(seen) == sum(class_counts.values()), "map lines name unknown datasets")
    return maps, n_unified


def transcode_lut(maps, n_unified, source, target, target_empty):
    """Source label -> target label through the unified space; a unified class
    without a target preimage becomes the target's empty class."""
    back = np.full(n_unified, target_empty, dtype=np.int64)
    for label, uid in enumerate(maps[target]):
        back[uid] = label
    return back[maps[source]]


def gt_on_lattice(gt, pred, empty_id):
    """The ground truth on the prediction's lattice: occupancy-preserving
    pooling where the lattice is coarser by an integer factor, nearest-centre
    lookup otherwise (centres outside the ground truth read as empty)."""
    dims = pred.labels.shape
    ratio = pred.voxel / gt.voxel
    factor = int(round(ratio))
    if factor >= 2 and abs(ratio - factor) < 1e-9:
        start = [int(round((pred.origin[a] - gt.origin[a]) / gt.voxel)) for a in range(3)]
        require(all(s >= 0 for s in start), "prediction lattice starts outside the ground truth")
        block = gt.labels[start[0]:start[0] + dims[0] * factor,
                          start[1]:start[1] + dims[1] * factor,
                          start[2]:start[2] + dims[2] * factor]
        require(block.shape == tuple(d * factor for d in dims), "prediction lattice leaves the ground truth")
        cells = block.reshape(dims[0], factor, dims[1], factor, dims[2], factor)
        cells = cells.transpose(0, 2, 4, 1, 3, 5).reshape(-1, factor ** 3)
        votes = np.stack([(cells == c).sum(axis=1) for c in range(gt.num_classes)], axis=1)
        votes[:, empty_id] = 0
        out = np.argmax(votes, axis=1)  # ties go to the lowest label
        out[votes.sum(axis=1) == 0] = empty_id
        return out.reshape(dims)
    axes = []
    inside = []
    for a in range(3):
        centres = pred.origin[a] + (np.arange(dims[a]) + 0.5) * pred.voxel
        idx = np.floor((centres - gt.origin[a]) / gt.voxel).astype(np.int64)
        inside.append((idx >= 0) & (idx < gt.labels.shape[a]))
        axes.append(np.clip(idx, 0, gt.labels.shape[a] - 1))
    out = gt.labels[np.ix_(*axes)].copy()
    out[~(inside[0][:, None, None] & inside[1][None, :, None] & inside[2][None, None, :])] = empty_id
    return out


def eval_mask(pred):
    """Voxels whose centres fall inside the half-open evaluation range."""
    keep = []
    for a in range(3):
        c = pred.origin[a] + (np.arange(pred.labels.shape[a]) + 0.5) * pred.voxel
        keep.append((c >= EVAL_LO[a]) & (c < EVAL_HI[a]))
    return keep[0][:, None, None] & keep[1][None, :, None] & keep[2][None, None, :]


def confusion(pairs, num_classes):
    """Summed confusion counts over (prediction labels, gt labels) pairs;
    rows are ground truth."""
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in pairs:
        conf += np.bincount(g.ravel() * num_classes + p.ravel(),
                            minlength=num_classes ** 2).reshape(num_classes, num_classes)
    return conf


def iou_miou(conf, empty_id):
    """Geometric IoU (occupied vs empty) and the mean IoU over non-empty
    classes present in truth or prediction."""
    occ_both = conf.sum() - conf[empty_id, :].sum() - conf[:, empty_id].sum() + conf[empty_id, empty_id]
    union = conf.sum() - conf[empty_id, empty_id]
    iou = occ_both / union if union else float("nan")
    ious = []
    for c in range(conf.shape[0]):
        if c == empty_id:
            continue
        u = conf[c, :].sum() + conf[:, c].sum() - conf[c, c]
        if u:
            ious.append(conf[c, c] / u)
    miou = math.fsum(ious) / len(ious) if ious else float("nan")
    return float(iou), float(miou)


def cell_scores(preds, gts, num_classes, empty_id, lut=None):
    """IoU and mIoU of one report cell from its prediction and ground-truth
    grids; ``lut`` transcodes prediction labels into the target taxonomy."""
    pairs = []
    for pred, gt in zip(preds, gts):
        labels = pred.labels if lut is None else lut[pred.labels]
        g = gt_on_lattice(gt, pred, empty_id)
        m = eval_mask(pred)
        pairs.append((labels[m], g[m]))
    require(pairs, "report cell without predictions")
    return iou_miou(confusion(pairs, num_classes), empty_id)


def same_4dp(computed, reported, what):
    """A report cell matches the recomputation to its 4 printed decimals."""
    want = f"{computed:.4f}"
    got = reported if isinstance(reported, str) else f"{reported:.4f}"
    require(got == want, f"{what}: report says {got}, recomputed {want}")


def read_report(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    require(rows and set(rows[0]) == {"setup", "dataset", "iou", "miou"}, "report header is not setup,dataset,iou,miou")
    return {(r["setup"], r["dataset"]): (r["iou"], r["miou"]) for r in rows}


def read_log(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    require(rows, "empty training log")
    return [dict(epoch=int(r["epoch"]), dataset=r["dataset"], loss=float(r["loss"])) for r in rows]


def check_log(rows, trained_last):
    """Every loss is finite; every dataset trained in the last phase ends
    with a lower loss than at epoch 0."""
    require(all(math.isfinite(r["loss"]) for r in rows), "non-finite loss in a training log")
    for ds in trained_last:
        mine = sorted((r["epoch"], r["loss"]) for r in rows if r["dataset"] == ds)
        require(mine and mine[0][0] == 0, f"{ds} has no epoch-0 log row")
        require(mine[-1][1] < mine[0][1], f"{ds} loss did not fall: {mine[0][1]} -> {mine[-1][1]}")
