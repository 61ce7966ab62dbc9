"""Geometric IoU and semantic mIoU over confusion matrices, plus the
cross-domain report table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimMismatch
from .labelspace import transcode


REPORT_HEADER = "setup,dataset,iou,miou"


class MissingTransform(ValueError):
    pass


class ConfusionMatrix:
    """C x C integer counts; rows are ground truth, columns are prediction."""

    def __init__(self, num_classes):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        self.num_classes = int(num_classes)
        self.counts = np.zeros((self.num_classes, self.num_classes), dtype=np.int64)

    def add_arrays(self, pred, gt):
        """Tally raw label arrays of identical shape (no range filtering)."""
        pred = np.asarray(pred).reshape(-1).astype(np.int64)
        gt = np.asarray(gt).reshape(-1).astype(np.int64)
        if pred.shape != gt.shape:
            raise DimMismatch("prediction and ground truth sizes differ")
        flat = gt * self.num_classes + pred
        self.counts += np.bincount(flat, minlength=self.num_classes**2).reshape(
            self.num_classes, self.num_classes
        )
        return self


def accumulate(cm, pred, gt, eval_range):
    """Tally voxels whose centers fall inside eval_range (half-open).

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
    sel = np.ix_(*keep)
    cm.add_arrays(pred.labels[sel], gt.labels[sel])
    return cm


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

    ``pairs`` holds (prediction, ground truth) grids on one shared lattice.
    A cell read by another dataset's head names it in ``source_ds``; its
    predictions live in that dataset's taxonomy, and ``unified`` plus the
    source/target dataset ids select the transcoding transform.
    """

    setup: str
    dataset: str
    pairs: list
    eval_range: object
    empty_id: int
    unified: object = None
    source_ds: str = None
    target_space: object = None


def require_transform(setup, dataset, source_ds, unified):
    """Refuse, with MissingTransform, a cell read by another dataset's head
    (``source_ds`` set) without a unified transform, whatever the class
    counts and however many pairs it holds."""
    if source_ds is not None and unified is None:
        raise MissingTransform(
            f"{setup} on {dataset}: read by {source_ds}'s head "
            "and no unified transform was provided"
        )


def cross_eval(cells):
    """Accumulate every cell and emit report rows in the given order.

    A cell read by another dataset's head (``source_ds`` set) has its
    predictions transcoded into the target dataset's space before
    accumulation; :func:`require_transform` refuses one without a unified
    transform.
    """
    rows = []
    for cell in cells:
        require_transform(cell.setup, cell.dataset, cell.source_ds, cell.unified)
        cm = None
        for pred, gt in cell.pairs:
            if cell.source_ds is not None:
                pred = transcode(
                    pred,
                    cell.unified,
                    cell.source_ds,
                    target_ds=cell.dataset,
                    target_space=cell.target_space,
                )
            if cm is None:
                cm = ConfusionMatrix(num_classes=gt.num_classes)
            accumulate(cm, pred, gt, cell.eval_range)
        row = {
            "setup": cell.setup,
            "dataset": cell.dataset,
            "iou": geometric_iou(cm, cell.empty_id) if cm is not None else float("nan"),
            "miou": miou(cm, cell.empty_id) if cm is not None else float("nan"),
        }
        rows.append(row)
    return rows


def render_report(rows):
    """CSV text: header `setup,dataset,iou,miou`, fixed 4-decimal formatting."""
    lines = [REPORT_HEADER]
    for row in rows:
        lines.append(
            f"{row['setup']},{row['dataset']},{row['iou']:.4f},{row['miou']:.4f}"
        )
    return "\n".join(lines) + "\n"
