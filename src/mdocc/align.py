"""Geometric realignment: range intersection, point cropping, cylindrical
voxelization, and dataset-specific normalization with shared affine weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Range3D, UnknownDataset, colsum, rowwise


class EmptyIntersection(ValueError):
    pass


def intersect_ranges(ranges):
    """Per-axis max of minima and min of maxima over a non-empty sequence.

    Raises EmptyIntersection if any axis degenerates. Commutative and
    associative in its inputs.
    """
    ranges = list(ranges)
    if not ranges:
        raise ValueError("need at least one range")
    mins = np.max([r.mins for r in ranges], axis=0)
    maxs = np.min([r.maxs for r in ranges], axis=0)
    if np.any(mins >= maxs):
        raise EmptyIntersection(f"ranges do not overlap: mins {mins.tolist()}, maxs {maxs.tolist()}")
    return Range3D(mins[0], maxs[0], mins[1], maxs[1], mins[2], maxs[2])


def crop_points(cloud, rng):
    """Keep points with min <= coord < max on every axis, preserving order."""
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    # six 1-D column comparisons and np.compress take about a seventh of the
    # time of np.all over (N, 3) blocks and boolean indexing
    keep = np.ones(len(cloud), dtype=bool)
    for ax in range(3):
        keep &= cloud[:, ax] >= rng.mins[ax]
        keep &= cloud[:, ax] < rng.maxs[ax]
    return np.compress(keep, cloud, axis=0)


@dataclass(frozen=True)
class CylGridSpec:
    """Cylindrical binning layout: (radius, angle, height) bin counts."""

    bins: tuple
    radius_max_m: float
    z_min_m: float
    z_max_m: float

    def __post_init__(self):
        object.__setattr__(self, "bins", tuple(int(b) for b in self.bins))
        if len(self.bins) != 3 or any(b <= 0 for b in self.bins):
            raise ValueError(f"bins must be three positive integers, got {self.bins}")
        if self.radius_max_m <= 0:
            raise ValueError("radius_max_m must be > 0")
        if not self.z_min_m < self.z_max_m:
            raise ValueError("z_min_m must be < z_max_m")

    @property
    def deltas(self):
        nr, na, nh = self.bins
        return (
            self.radius_max_m / nr,
            2.0 * math.pi / na,
            (self.z_max_m - self.z_min_m) / nh,
        )

    def locate(self, x, y, z):
        """Cylindrical coordinates and bin of points given as broadcastable
        x, y, z arrays.

        theta is atan2 shifted into [0, 2pi), with theta = 0 at r = 0. The bin
        is (floor(r/dr), floor(theta/dtheta), floor((z-z_min)/dz)) clamped into
        the grid; ``inside`` marks points below radius_max_m with z in
        [z_min, z_max). Returns (r, theta, (ir, ia, iz), inside).
        """
        nr, na, nh = self.bins
        dr, dth, dz = self.deltas
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0, theta + 2.0 * math.pi, theta)
        theta = np.where(r == 0, 0.0, theta)
        ir = np.minimum(np.floor(r / dr).astype(np.int64), nr - 1)
        ia = np.minimum(np.floor(theta / dth).astype(np.int64), na - 1)
        iz = np.clip(np.floor((z - self.z_min_m) / dz).astype(np.int64), 0, nh - 1)
        inside = (r < self.radius_max_m) & (z >= self.z_min_m) & (z < self.z_max_m)
        return r, theta, (ir, ia, iz), inside


NUM_CYL_FEATURES = 5  # count, mean (r, theta, z) offsets from bin center, mean radius


def cylindrical_voxelize(cloud, spec):
    """Bin points into a cylindrical grid and summarize each bin.

    Points map to bins by ``CylGridSpec.locate``; points at or beyond
    radius_max_m or outside [z_min, z_max) are discarded. Returns a
    float64 volume of shape bins + (5,): per-bin point count, mean offsets from
    the bin center in (r, theta, z), and mean radius.
    """
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    nr, na, nh = spec.bins
    dr, dth, dz = spec.deltas
    vol = np.zeros((nr, na, nh, NUM_CYL_FEATURES))
    r, theta, bins, inside = spec.locate(cloud[:, 0], cloud[:, 1], cloud[:, 2])
    r, theta, z = r[inside], theta[inside], cloud[inside, 2]
    ir, ia, iz = (b[inside] for b in bins)
    flat = (ir * na + ia) * nh + iz
    nbins = nr * na * nh
    counts = np.bincount(flat, minlength=nbins).astype(np.float64)
    r_off = r - (ir + 0.5) * dr
    th_off = theta - (ia + 0.5) * dth
    z_off = z - (spec.z_min_m + (iz + 0.5) * dz)
    sums = np.stack(
        [
            np.bincount(flat, weights=r_off, minlength=nbins),
            np.bincount(flat, weights=th_off, minlength=nbins),
            np.bincount(flat, weights=z_off, minlength=nbins),
            np.bincount(flat, weights=r, minlength=nbins),
        ],
        axis=1,
    )
    occupied = counts > 0
    means = np.zeros_like(sums)
    means[occupied] = sums[occupied] / counts[occupied, None]
    vol[..., 0] = counts.reshape(nr, na, nh)
    vol[..., 1:] = means.reshape(nr, na, nh, 4)
    return vol


class NormState:
    """Per-dataset running mean/variance with one shared affine pair.

    gamma/beta exist exactly once regardless of how many datasets are
    registered; running statistics and update counts are kept separately per
    dataset and never mix. Updates are expected to be serialized per dataset
    (single-writer); forward passes may read a state snapshot concurrently.
    """

    def __init__(self, num_features, dataset_ids, eps=1e-5, momentum=0.1):
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if eps <= 0:
            raise ValueError("eps must be > 0")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = np.ones(self.num_features)
        self.beta = np.zeros(self.num_features)
        self._stats = {}
        for ds in dataset_ids:
            self.register(ds)

    def register(self, dataset_id):
        if dataset_id in self._stats:
            raise ValueError(f"dataset {dataset_id!r} already registered")
        self._stats[dataset_id] = {
            "mean": np.zeros(self.num_features),
            "var": np.ones(self.num_features),
            "count": 0,
        }

    def dataset_ids(self):
        return list(self._stats)

    def stats(self, dataset_id):
        try:
            return self._stats[dataset_id]
        except KeyError:
            raise UnknownDataset(dataset_id) from None


def dsnorm_forward(x, dataset_id, state, mode="train"):
    """Normalize a (N, F) batch with Eq-style dataset-specific statistics.

    train mode uses the batch's own mean/variance (biased) and folds them
    into the dataset's running stats by exponential moving average; its
    output never reads them. eval mode uses the stored running stats of
    ``dataset_id`` only. Output is gamma * (x - mu) / sqrt(var + eps) + beta
    with the single shared gamma/beta. Returns (output, the cache that
    :func:`dsnorm_backward` reads).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.num_features:
        raise ValueError(f"expected (N, {state.num_features}) batch, got {x.shape}")
    stats = state.stats(dataset_id)
    if mode == "train":
        # the biased mean and variance, as x.mean(axis=0) and x.var(axis=0)
        # compute them, with x - mu formed once for the variance and xhat
        mu = colsum(x) / x.shape[0]
        d = rowwise(np.subtract, x, mu)
        var = colsum(d, d) / x.shape[0]
        m = state.momentum
        stats["mean"] = (1.0 - m) * stats["mean"] + m * mu
        stats["var"] = (1.0 - m) * stats["var"] + m * var
        stats["count"] += 1
    else:
        mu = stats["mean"]
        var = stats["var"]
        d = rowwise(np.subtract, x, mu)
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = rowwise(np.multiply, d, inv_std, out=d)
    y = rowwise(np.multiply, xhat, state.gamma)
    rowwise(np.add, y, state.beta, out=y)
    return y, {"xhat": xhat, "inv_std": inv_std}


def dsnorm_backward(grad_y, cache, state):
    """Gradients of a train-mode dsnorm_forward wrt input, gamma, and beta.

    The input gradient is the full batch-statistics backward: the batch mean
    and variance depend on x.
    """
    xhat = cache["xhat"]
    inv_std = cache["inv_std"]
    grad_gamma = colsum(grad_y, xhat)
    grad_beta = colsum(grad_y)
    gys = rowwise(np.multiply, grad_y, state.gamma)
    # inv_std * (gys - mean(gys) - xhat * mean(gys * xhat)), op by op
    n = grad_y.shape[0]
    grad_x = rowwise(np.subtract, gys, colsum(gys) / n)
    grad_x -= rowwise(np.multiply, xhat, colsum(gys, xhat) / n)
    rowwise(np.multiply, grad_x, inv_std, out=grad_x)
    return grad_x, grad_gamma, grad_beta


def dsnorm_update_shared(state, grad_gamma, grad_beta, lr):
    """Apply one gradient step to the single shared gamma/beta pair."""
    grad_gamma = np.asarray(grad_gamma, dtype=np.float64)
    grad_beta = np.asarray(grad_beta, dtype=np.float64)
    if grad_gamma.shape != state.gamma.shape or grad_beta.shape != state.beta.shape:
        raise ValueError("gradient shapes do not match the shared affine parameters")
    state.gamma = state.gamma - lr * grad_gamma
    state.beta = state.beta - lr * grad_beta
    return state
