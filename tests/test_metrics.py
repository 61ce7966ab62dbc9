import numpy as np
import pytest

from mdocc.core import DimMismatch, OccupancyGrid, Range3D, rng_stream
from mdocc.experiment import MissingTransform, Setup, evaluate_setups, synthesize
from mdocc.metrics import (
    ConfusionMatrix,
    EvalCell,
    accumulate,
    cross_eval,
    geometric_iou,
    miou,
    render_report,
)


def grid_of(labels, voxel=0.5, origin=(0.0, 0.0, 0.0), num_classes=4):
    labels = np.asarray(labels, dtype=np.uint16)
    return OccupancyGrid(labels.shape, voxel, origin, labels, num_classes)


def brute_force_counts(pred, gt, eval_range, num_classes):
    """Independent per-voxel tally with explicit center membership."""
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for idx in np.ndindex(gt.dims):
        center = [gt.origin[ax] + (idx[ax] + 0.5) * gt.voxel_size_m for ax in range(3)]
        lo, hi = eval_range.mins, eval_range.maxs
        if all(lo[ax] <= center[ax] < hi[ax] for ax in range(3)):
            counts[gt.labels[idx], pred.labels[idx]] += 1
    return counts


def brute_force_metrics(counts, empty_id):
    occ = [i for i in range(counts.shape[0]) if i != empty_id]
    tp = sum(counts[i, j] for i in occ for j in occ)
    fp = sum(counts[empty_id, j] for j in occ)
    fn = sum(counts[i, empty_id] for i in occ)
    giou = float("nan") if tp + fp + fn == 0 else tp / (tp + fp + fn)
    ious = []
    for i in occ:
        tpi = counts[i, i]
        fpi = counts[:, i].sum() - tpi
        fni = counts[i, :].sum() - tpi
        if tpi + fpi + fni > 0:
            ious.append(tpi / (tpi + fpi + fni))
    mi = float("nan") if not ious else float(np.mean(ious))
    return giou, mi


class TestAccumulate:
    def test_perfect_prediction_diagonal(self):
        rng = rng_stream(1, "cm")
        labels = rng.integers(0, 4, (4, 4, 2))
        g = grid_of(labels)
        cm = ConfusionMatrix(4)
        accumulate(cm, g, g, g.extent)
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
        assert cm.counts.sum() == labels.size

    def test_empty_eval_range_no_change(self):
        g = grid_of(np.ones((3, 3, 3)))
        cm = ConfusionMatrix(4)
        accumulate(cm, g, g, Range3D(10, 11, 10, 11, 10, 11))
        assert cm.counts.sum() == 0

    def test_matches_brute_force_tally(self):
        rng = rng_stream(2, "cm")
        for _ in range(5):
            pred = grid_of(rng.integers(0, 4, (6, 5, 4)))
            gt = grid_of(rng.integers(0, 4, (6, 5, 4)))
            lo = rng.uniform(0.0, 1.0, 3)
            hi = lo + rng.uniform(0.5, 2.0, 3)
            er = Range3D(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
            cm = ConfusionMatrix(4)
            accumulate(cm, pred, gt, er)
            assert np.array_equal(cm.counts, brute_force_counts(pred, gt, er, 4))
            # every voxel center inside the range: the whole arrays are tallied
            lo = np.asarray(pred.origin) - rng.uniform(0.0, 0.2, 3)
            hi = np.asarray(pred.extent.maxs) + rng.uniform(0.0, 0.2, 3)
            er = Range3D(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
            cm = ConfusionMatrix(4)
            accumulate(cm, pred, gt, er)
            assert cm.counts.sum() == pred.labels.size
            assert np.array_equal(cm.counts, brute_force_counts(pred, gt, er, 4))

    def test_additive_over_scenes(self):
        rng = rng_stream(3, "cm")
        grids = [(grid_of(rng.integers(0, 4, (4, 4, 4))), grid_of(rng.integers(0, 4, (4, 4, 4))))
                 for _ in range(3)]
        er = grids[0][0].extent
        joint = ConfusionMatrix(4)
        for p, g in grids:
            accumulate(joint, p, g, er)
        total = np.zeros((4, 4), dtype=np.int64)
        for p, g in grids:
            cm = ConfusionMatrix(4)
            accumulate(cm, p, g, er)
            total += cm.counts
        assert np.array_equal(joint.counts, total)

    def test_geometry_mismatch(self):
        a = grid_of(np.zeros((2, 2, 2)))
        b = grid_of(np.zeros((2, 2, 2)), voxel=0.25)
        with pytest.raises(DimMismatch):
            accumulate(ConfusionMatrix(4), a, b, a.extent)


class TestGeometricIoU:
    def test_perfect(self):
        g = grid_of([[[0, 1], [2, 3]]])
        cm = ConfusionMatrix(4)
        accumulate(cm, g, g, g.extent)
        assert geometric_iou(cm, 0) == 1.0

    def test_all_empty_prediction(self):
        gt = grid_of([[[1, 1], [0, 0]]])
        pred = grid_of([[[0, 0], [0, 0]]])
        cm = ConfusionMatrix(4)
        accumulate(cm, pred, gt, gt.extent)
        assert geometric_iou(cm, 0) == 0.0

    def test_hand_counted_one_third(self):
        # 2x2x1: gt occupies two voxels, pred hits one of them and one empty
        gt = grid_of([[[1], [1]], [[0], [0]]])
        pred = grid_of([[[1], [0]], [[2], [0]]])
        cm = ConfusionMatrix(4)
        accumulate(cm, pred, gt, gt.extent)
        assert np.isclose(geometric_iou(cm, 0), 1.0 / 3.0)

    def test_undefined_flagged(self):
        cm = ConfusionMatrix(4)
        g = grid_of(np.zeros((2, 2, 2)))
        accumulate(cm, g, g, g.extent)
        assert np.isnan(geometric_iou(cm, 0))


class TestMiou:
    def test_perfect(self):
        rng = rng_stream(4, "miou")
        g = grid_of(rng.integers(0, 4, (4, 4, 4)))
        cm = ConfusionMatrix(4)
        accumulate(cm, g, g, g.extent)
        assert miou(cm, 0) == 1.0

    def test_one_perfect_one_missed(self):
        gt = grid_of([[[1], [1]], [[2], [2]]])
        pred = grid_of([[[1], [1]], [[0], [0]]])
        cm = ConfusionMatrix(4)
        accumulate(cm, pred, gt, gt.extent)
        assert np.isclose(miou(cm, 0), 0.5)

    def test_matches_brute_force(self):
        rng = rng_stream(5, "miou")
        for _ in range(10):
            pred = grid_of(rng.integers(0, 4, (5, 4, 3)))
            gt = grid_of(rng.integers(0, 4, (5, 4, 3)))
            cm = ConfusionMatrix(4)
            accumulate(cm, pred, gt, gt.extent)
            want_g, want_m = brute_force_metrics(cm.counts, 0)
            assert np.isclose(geometric_iou(cm, 0), want_g, equal_nan=True)
            assert np.isclose(miou(cm, 0), want_m, equal_nan=True)

    def test_absent_classes_excluded(self):
        gt = grid_of([[[1], [1]], [[0], [0]]])
        cm = ConfusionMatrix(4)
        accumulate(cm, gt, gt, gt.extent)
        # classes 2 and 3 never appear; the mean is over class 1 alone
        assert miou(cm, 0) == 1.0

    def test_permutation_invariance(self):
        rng = rng_stream(6, "miou")
        pred = rng.integers(0, 4, (5, 5, 2))
        gt = rng.integers(0, 4, (5, 5, 2))
        perm = np.array([2, 3, 1, 0])  # empty 0 -> 2
        cm1 = ConfusionMatrix(4).add_arrays(pred, gt)
        cm2 = ConfusionMatrix(4).add_arrays(perm[pred], perm[gt])
        assert np.isclose(geometric_iou(cm1, 0), geometric_iou(cm2, perm[0]))
        assert np.isclose(miou(cm1, 0), miou(cm2, perm[0]))

    def test_bounds_and_equality_condition(self):
        rng = rng_stream(7, "miou")
        for _ in range(20):
            pred = rng.integers(0, 3, (4, 4, 2))
            gt = rng.integers(0, 3, (4, 4, 2))
            cm = ConfusionMatrix(3).add_arrays(pred, gt)
            g, m = geometric_iou(cm, 0), miou(cm, 0)
            if not np.isnan(g):
                assert 0.0 <= g <= 1.0
            if not np.isnan(m):
                assert 0.0 <= m <= 1.0
            if np.array_equal(pred, gt):
                assert (np.isnan(m) or m == 1.0) and (np.isnan(g) or g == 1.0)
            elif not np.isnan(m):
                assert m < 1.0 or g < 1.0


class TestCrossEval:
    def test_in_domain_equals_direct_metrics(self):
        # a cell adds its scenes' counts, as evaluate_setups does, and scores
        # like one matrix accumulated over every pair; with no scene it is nan
        rng = rng_stream(8, "xe")
        pairs = [tuple(grid_of(rng.integers(0, 3, (4, 4, 2)), num_classes=3) for _ in "pg")
                 for _ in range(2)]
        cell = EvalCell(setup="s", dataset="a", cm=ConfusionMatrix(3), empty_id=0)
        for pred, gt in pairs:
            cell.cm.counts += accumulate(ConfusionMatrix(3), pred, gt, gt.extent).counts
        empty = EvalCell(setup="s", dataset="b", cm=ConfusionMatrix(3), empty_id=0)
        rows = cross_eval([cell, empty])
        cm = ConfusionMatrix(3)
        for pred, gt in pairs:
            accumulate(cm, pred, gt, gt.extent)
        assert rows[0]["iou"] == geometric_iou(cm, 0)
        assert rows[0]["miou"] == miou(cm, 0)
        assert [(r["setup"], r["dataset"]) for r in rows] == [("s", "a"), ("s", "b")]
        assert np.isnan(rows[1]["iou"]) and np.isnan(rows[1]["miou"])

    # A reading by another dataset's head is transcoded, or refused without a
    # unified space, by experiment.evaluate_setups, which builds the cells
    # that cross_eval scores; a refused setup never touches its model.
    def test_missing_transform(self):
        synth = synthesize(3, n_train=0, n_eval=1)
        setup = Setup("s", None, {"b64": "a32"})
        with pytest.raises(MissingTransform, match="no unified transform"):
            evaluate_setups(synth, [setup], None, stride=2)

    @pytest.mark.parametrize("scenes", [1, 0])
    def test_foreign_reader_needs_transform_at_equal_class_counts(self, scenes):
        # equal class counts do not make another dataset's label ids readable
        synth = synthesize(3, taxonomy_name="twin", n_train=0, n_eval=scenes)
        specs = synth.specs
        assert len(specs["a32"].label_space) == len(specs["b64"].label_space)
        setup = Setup("s", None, {"b64": "a32"})
        with pytest.raises(MissingTransform, match="no unified transform"):
            evaluate_setups(synth, [setup], None, stride=2)

    def test_report_formatting(self):
        rows = [
            {"setup": "mdt", "dataset": "a32", "iou": 0.51234, "miou": 0.25},
            {"setup": "mdt", "dataset": "b64", "iou": float("nan"), "miou": 1.0},
        ]
        text = render_report(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "setup,dataset,iou,miou"
        assert lines[1] == "mdt,a32,0.5123,0.2500"
        assert lines[2] == "mdt,b64,nan,1.0000"
