#!/usr/bin/env python3
"""Tests of the benchmark's own checker: it must reject wrong outputs.

    python3 mdbench/selftest.py

``run.py`` also runs them before it reports, so a checker that accepts
anything cannot yield ``"correct": true``.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402


def _rejects(fn, *args):
    try:
        fn(*args)
    except check.CheckFailed:
        return True
    return False


def report_cell_off_by_a_hundredth():
    # 2x2x2 cell at the evaluation range's corner, 0.4 m voxels, classes 0..2
    origin = tuple(check.EVAL_LO)
    gt = check.Grid(labels=np.array([0, 1, 1, 2, 0, 0, 2, 2]).reshape(2, 2, 2), voxel=0.4,
                    origin=origin, num_classes=3)
    pred = check.Grid(labels=np.array([0, 1, 2, 2, 1, 0, 2, 0]).reshape(2, 2, 2), voxel=0.4,
                      origin=origin, num_classes=3)
    iou, miou = check.cell_scores([pred], [gt], 3, 0)
    # 4 voxels occupied in both of the 6 occupied in either; class 1 scores
    # 1/3 and class 2 scores 2/4
    assert (iou, miou) == (4 / 6, (1 / 3 + 2 / 4) / 2), (iou, miou)
    good = check.read_report(f"setup,dataset,iou,miou\nmdt,a32,{iou:.4f},{miou:.4f}\n")
    bad = check.read_report(f"setup,dataset,iou,miou\nmdt,a32,{iou + 0.01:.4f},{miou:.4f}\n")
    check.same_4dp(iou, good["mdt", "a32"][0], "good cell")
    return _rejects(check.same_4dp, iou, bad["mdt", "a32"][0], "bad cell")


def unified_maps_a_label_twice():
    text = ("format: unified-space v1\ndatasets: a32,b64\nempty: 0\n"
            "class 0: a32/empty+b64/empty\nclass 1: a32/ground\n"
            "map a32 0 empty -> 0\nmap a32 1 ground -> 1\nmap b64 0 empty -> 0\n")
    counts = {"a32": 2, "b64": 1}
    check.parse_unified(text, counts)
    return _rejects(check.parse_unified, text + "map a32 1 ground -> 0\n", counts)


def cloud_point_off_the_lattice():
    centre = check.SCENE_ORIGIN + (np.array([90, 90, 3]) + 0.5) * check.SCENE_VOXEL
    check.check_cloud(centre[None, :], "a32")
    return _rejects(check.check_cloud, (centre + [0.05, 0.0, 0.0])[None, :], "a32")


CASES = (report_cell_off_by_a_hundredth, unified_maps_a_label_twice, cloud_point_off_the_lattice)


def failures():
    """Names of the cases the checker gets wrong."""
    return [case.__name__ for case in CASES if not case()]


if __name__ == "__main__":
    bad = failures()
    for case in CASES:
        print(f"{case.__name__}: {'FAIL' if case.__name__ in bad else 'ok'}")
    sys.exit(1 if bad else 0)
