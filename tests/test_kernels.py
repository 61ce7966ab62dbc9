import itertools

import numpy as np
import pytest

from mdocc.core import Lattice
from mdocc.kernels import DIST_CAP, empty_distance, march_rays


def uniform_march(pose, dirs, step, n_steps, grid, empty_id):
    """The brute-force reference: every ray samples every step s = 1..n_steps."""
    pose = np.asarray(pose, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    labels = grid.labels
    lattice = grid.lattice
    nd, nh, nw = labels.shape
    hits = np.full((dirs.shape[0], 3), -1, np.int64)
    active = np.arange(dirs.shape[0])
    for s in range(1, int(n_steps) + 1):
        if active.size == 0:
            break
        idx = lattice.index_of(pose[None, :] + dirs[active] * (float(step) * s))
        inside = (
            (idx[:, 0] >= 0) & (idx[:, 0] < nd)
            & (idx[:, 1] >= 0) & (idx[:, 1] < nh)
            & (idx[:, 2] >= 0) & (idx[:, 2] < nw)
        )
        active, idx = active[inside], idx[inside]
        hit = labels[idx[:, 0], idx[:, 1], idx[:, 2]] != empty_id
        hits[active[hit]] = idx[hit]
        active = active[~hit]
    return hits


def brute_distance(labels, empty_id):
    """Chebyshev distance to the nearest in-grid occupied voxel, capped."""
    occ = np.argwhere(labels != empty_id)
    out = np.full(labels.shape, DIST_CAP, np.int64)
    for v in itertools.product(*(range(n) for n in labels.shape)):
        if len(occ):
            out[v] = min(DIST_CAP, np.abs(occ - np.array(v)).max(axis=1).min())
    return out


# axis-aligned and diagonal directions, whose samples land on voxel
# boundaries in exact arithmetic when the pose does
AXIS_DIRS = np.array(
    [d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(d)]
)
AXIS_DIRS = AXIS_DIRS / np.linalg.norm(AXIS_DIRS, axis=1, keepdims=True)


def random_case(seed):
    """A sparse random grid with an off-lattice pose and mixed directions."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(3, 24, size=3))
    voxel = float(rng.choice([0.1, 0.2, 0.25, 0.3, 1.0, 1.7]))
    origin = rng.uniform(-5.0, 5.0, size=3)
    empty_id = int(rng.integers(0, 3))
    density = float(rng.choice([0.002, 0.01, 0.03, 0.08]))
    labels = np.full(shape, empty_id, np.uint16)
    occupied = rng.random(shape) < density
    labels[occupied] = rng.integers(empty_id + 1, empty_id + 5, size=int(occupied.sum()))
    # the pose sits inside the grid, sometimes exactly on a voxel corner
    cell = np.array([rng.integers(0, n) for n in shape])
    frac = rng.random(3) if seed % 3 else np.zeros(3)
    pose = origin + (cell + frac) * voxel
    rand = rng.normal(size=(1000, 3))
    dirs = np.concatenate([AXIS_DIRS, rand / np.linalg.norm(rand, axis=1, keepdims=True)])
    # half-voxel steps as raycast takes, and other ratios
    step = voxel * float(rng.choice([0.5, 0.5, 0.5, 0.25, 0.4, 0.75, 1.0]))
    # short marches end inside a jump; long ones leave the grid
    n_steps = int(rng.choice([1, 3, int(rng.integers(2, 40)), 400]))
    grid = Lattice(shape, voxel, origin).grid(labels, empty_id + 5)
    return pose, dirs, step, n_steps, grid, empty_id


@pytest.mark.parametrize("seed", range(60))
def test_march_matches_uniform_march(seed):
    args = random_case(seed)
    np.testing.assert_array_equal(march_rays(*args), uniform_march(*args))


@pytest.mark.parametrize("fill", ["empty", "full", "one"])
def test_march_edge_grids(fill):
    labels = np.zeros((9, 8, 7), np.uint16)
    if fill == "full":
        labels[:] = 4
    elif fill == "one":
        labels[8, 0, 6] = 2  # a corner: every ray to it crosses a wide gap
    origin = np.array([-1.0, 2.0, 0.5])
    pose = origin + np.array([0.5, 7.5, 0.5]) * 0.5
    rng = np.random.default_rng(7)
    rand = rng.normal(size=(2000, 3))
    dirs = np.concatenate([AXIS_DIRS, rand / np.linalg.norm(rand, axis=1, keepdims=True)])
    grid = Lattice(labels.shape, 0.5, origin).grid(labels, 5)
    for n_steps in (0, 1, 5, 17, 100):
        args = (pose, dirs, 0.25, n_steps, grid, 0)
        np.testing.assert_array_equal(march_rays(*args), uniform_march(*args))
    hits = march_rays(pose, dirs, 0.25, 100, grid, 0)
    if fill == "empty":
        assert (hits == -1).all()
    elif fill == "full":
        # a ray's first sample is in the pose's voxel or a neighbour of it
        hit = hits[hits[:, 0] >= 0]
        assert len(hit) and (np.abs(hit - [0, 7, 0]) <= 1).all()
    else:
        assert (hits == [8, 0, 6]).all(axis=1).any()


def test_numpy_path_misses_marked():
    grid = Lattice((4, 4, 4), 1.0, np.zeros(3)).grid(np.zeros((4, 4, 4), dtype=np.uint16), 1)
    dirs = np.array([[1.0, 0.0, 0.0]])
    pose = np.array([0.5, 0.5, 0.5])
    hits = march_rays(pose, dirs, 0.25, 100, grid, 0)
    assert hits.tolist() == [[-1, -1, -1]]


@pytest.mark.parametrize("seed", range(12))
def test_empty_distance_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    empty_id = seed % 2
    labels = np.full((7, 6, 5), empty_id, np.uint16)
    labels[rng.random(labels.shape) < [0.0, 0.01, 0.05, 0.3][seed % 4]] = 5
    dist = empty_distance(labels, empty_id)
    assert dist.dtype == np.uint8 and dist.shape == labels.shape
    np.testing.assert_array_equal(dist, brute_distance(labels, empty_id))
    assert ((dist == 0) == (labels != empty_id)).all()


def test_empty_distance_edge_is_not_occupied():
    # one occupied voxel at the end of a long row: distances grow along the
    # row up to the cap, and voxels next to the grid edge read no less
    labels = np.zeros((3, 40, 2), np.uint16)
    labels[1, 0, 1] = 7
    dist = empty_distance(labels, 0)
    np.testing.assert_array_equal(dist[1, :, 1], np.minimum(np.arange(40), DIST_CAP))
    np.testing.assert_array_equal(dist, brute_distance(labels, 0))
    assert dist.max() == DIST_CAP
