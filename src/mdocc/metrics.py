"""Geometric IoU and semantic mIoU over confusion matrices, plus the
cross-domain report table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimMismatch


REPORT_HEADER = "setup,dataset,iou,miou"


class ConfusionMatrix:
    """C x C integer counts; rows are ground truth, columns are prediction."""

    def __init__(self, num_classes):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        self.num_classes = int(num_classes)
        self.counts = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)

    def add_arrays(self, pred, gt):
        """Tally label arrays of identical shape. Every id must lie in
        [0, num_classes); uint16 labels of at most 256 classes are tallied
        in a uint16 index, which holds every cell id."""
        n = self.num_classes
        pred, gt = np.asarray(pred).reshape(-1), np.asarray(gt).reshape(-1)
        if pred.shape != gt.shape:
            raise DimMismatch("prediction and ground truth sizes differ")
        for name, ids in (("prediction", pred), ("ground truth", gt)):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"{name} ids span [{ids.min()}, {ids.max()}], outside [0, {n})")
        dtype = np.uint16 if pred.dtype == gt.dtype == np.uint16 and n * n <= 65536 else np.int64
        flat = gt.astype(dtype, copy=False) * dtype(n)
        flat += pred.astype(dtype, copy=False)
        self.counts += np.bincount(flat, minlength=n * n).reshape(n, n)
        return self


def accumulate(cm, pred, gt, eval_range):
    """Tally voxels whose centers fall inside eval_range (half-open): the
    whole arrays when every center does, else the selected sub-volume.

    Prediction and ground truth must share dims, voxel size, origin, and
    class count.
    """
    lattice = pred.lattice
    if lattice != gt.lattice:
        raise DimMismatch(f"grid geometry differs: {lattice} vs {gt.lattice}")
    if pred.num_classes != gt.num_classes or pred.num_classes != cm.num_classes:
        raise DimMismatch("class counts differ between matrices and grids")
    keep = []
    lo, hi = eval_range.mins, eval_range.maxs
    for ax in range(3):
        centers = lattice.centers(ax)
        keep.append(np.nonzero((centers >= lo[ax]) & (centers < hi[ax]))[0])
    if tuple(len(k) for k in keep) == lattice.dims:
        return cm.add_arrays(pred.labels, gt.labels)
    sel = np.ix_(*keep)
    return cm.add_arrays(pred.labels[sel], gt.labels[sel])


def geometric_iou(cm, empty_id):
    """Occupied-vs-empty IoU, ignoring semantic class.

    Returns nan when no voxel is occupied in either prediction or truth.
    """
    c = cm.counts
    e = empty_id
    total = c.sum()
    tp = total - c[e, :].sum() - c[:, e].sum() + c[e, e]
    fp = c[e, :].sum() - c[e, e]
    fn = c[:, e].sum() - c[e, e]
    denom = tp + fp + fn
    if denom == 0:
        return float("nan")
    return float(tp / denom)


def miou(cm, empty_id):
    """Mean per-class IoU over semantic classes present in truth or prediction.

    The empty class is excluded from the mean; classes absent from both sides
    are skipped rather than counted as 0 or 1. Returns nan when no semantic
    class is present at all.
    """
    c = cm.counts
    vals = []
    for i in range(cm.num_classes):
        if i == empty_id:
            continue
        tp = c[i, i]
        fn = c[i, :].sum() - tp
        fp = c[:, i].sum() - tp
        denom = tp + fp + fn
        if denom == 0:
            continue
        vals.append(tp / denom)
    if not vals:
        return float("nan")
    return float(np.mean(vals))


@dataclass
class EvalCell:
    """One (training setup, evaluation dataset) cell of the report table.

    ``cm`` holds the confusion counts of every scene's (prediction, ground
    truth) pair, both in the evaluated dataset's taxonomy; a cell with no
    scene holds zeros and scores nan.
    """

    setup: str
    dataset: str
    cm: ConfusionMatrix
    empty_id: int


def cross_eval(cells):
    """Report rows of the cells' scores, in the given order."""
    return [{"setup": cell.setup, "dataset": cell.dataset,
             "iou": geometric_iou(cell.cm, cell.empty_id), "miou": miou(cell.cm, cell.empty_id)}
            for cell in cells]


def render_report(rows):
    """CSV text: header `setup,dataset,iou,miou`, fixed 4-decimal formatting."""
    lines = [REPORT_HEADER]
    for row in rows:
        lines.append(
            f"{row['setup']},{row['dataset']},{row['iou']:.4f},{row['miou']:.4f}"
        )
    return "\n".join(lines) + "\n"
