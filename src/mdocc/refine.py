"""Coarse-to-fine refinement: split occupied coarse voxels into fine queries,
sample features trilinearly, reclassify, and reassemble with empty fill."""

from __future__ import annotations

import numpy as np


def split_voxels(coarse_coords, eta):
    """Expand each coarse voxel into its eta^3 fine-coordinate refinement:
    an (N * eta^3, 3) int64 array of fine queries.

    Coarse (x0, y0, z0) yields fine coords (eta*x0 + i, eta*y0 + j, eta*z0 + k)
    for i, j, k in 0..eta-1, block-ordered per source voxel.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    coarse_coords = np.asarray(coarse_coords, dtype=np.int64).reshape(-1, 3)
    offs = np.stack(
        np.meshgrid(np.arange(eta), np.arange(eta), np.arange(eta), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    return (coarse_coords[:, None, :] * eta + offs[None, :, :]).reshape(-1, 3)


def sample_features(volume, fine_coords, eta):
    """Trilinearly sample a coarse (D, H, W, C) volume at fine-voxel centers.

    Fine coordinates are integers (cast to int64, as ``split_voxels`` gives them).
    Fine coordinate c corresponds to the continuous coarse index
    u = (c + 0.5) / eta - 0.5, so queries at coarse voxel centers return that
    voxel's features exactly; borders are edge-clamped. Returns (N, C).

    u, its floor, its fraction and the clamped corner indices depend on one
    axis' coordinate only, so they are tabulated per axis over the coordinates
    present (widened to 0, so an empty query set is no special case) and
    looked up per query. The result is bit for bit that of evaluating every
    corner of every query directly: the tables use the same float
    expressions, each corner weight is wx * wy * wz in that order, and the
    corners are summed in order 0..7.
    """
    volume = np.asarray(volume, dtype=np.float64)
    rows = volume.reshape(-1, volume.shape[3])
    coords = np.asarray(fine_coords, dtype=np.int64).reshape(-1, 3)
    strides = (volume.shape[1] * volume.shape[2], volume.shape[2], 1)
    weight, offset = [], []
    for ax in range(3):
        first = coords[:, ax].min(initial=0)
        u = (np.arange(first, coords[:, ax].max(initial=0) + 1) + 0.5) / eta - 0.5
        lo = np.floor(u).astype(np.int64)
        frac = u - lo
        at = coords[:, ax] - first
        weight.append(((1.0 - frac)[at], frac[at]))
        top = volume.shape[ax] - 1
        offset.append((np.clip(lo, 0, top)[at] * strides[ax],
                       np.clip(lo + 1, 0, top)[at] * strides[ax]))
    out = None
    for corner in range(8):
        bx, by, bz = (corner >> 2) & 1, (corner >> 1) & 1, corner & 1
        vals = rows.take(offset[0][bx] + offset[1][by] + offset[2][bz], axis=0)
        vals *= (weight[0][bx] * weight[1][by] * weight[2][bz])[:, None]
        out = vals if out is None else np.add(out, vals, out=out)
    return out


def refine_and_reassemble(queries, features, head, lattice, empty_id):
    """Score each query's features with ``head`` (weight (C, classes), bias
    (classes,)), the coarse classification head, and rebuild the fine volume
    as a grid on ``lattice``, the fine lattice.

    ``queries`` are (N, 3) fine coordinates, as ``split_voxels`` gives them.
    The argmax label of every query lands at its fine coordinate; every
    non-query voxel receives ``empty_id``.
    """
    w, b = head
    num_classes = w.shape[1]
    if not 0 <= empty_id < num_classes:
        raise ValueError(f"empty_id {empty_id} out of range for {num_classes} classes")
    labels = np.full(lattice.dims, empty_id, dtype=np.uint16)
    if len(queries):
        scores = np.asarray(features, dtype=np.float64) @ w + b
        picked = np.argmax(scores, axis=1).astype(np.uint16)
        labels[queries[:, 0], queries[:, 1], queries[:, 2]] = picked
    return lattice.grid(labels, num_classes)
