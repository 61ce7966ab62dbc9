import numpy as np
import pytest

from mdocc.core import Lattice, OccupancyGrid, rng_stream
from mdocc.refine import refine_and_reassemble, sample_features, split_voxels


def grid_from(labels, voxel=0.5, origin=(0.0, 0.0, 0.0), num_classes=4):
    labels = np.asarray(labels, dtype=np.uint16)
    return OccupancyGrid(labels.shape, voxel, origin, labels, num_classes)


class TestSplitVoxels:
    def test_eta_one_identity(self):
        vox = np.array([[1, 2, 3], [0, 0, 0]])
        q = split_voxels(vox, 1)
        assert q.dtype == np.int64
        assert np.array_equal(q, vox)
        # the queries of coarse voxel k are block k of eta^3 rows
        for eta in (1, 3):
            assert np.array_equal(split_voxels(vox, eta) // eta, np.repeat(vox, eta**3, axis=0))

    def test_eta_two_enumerated_by_hand(self):
        q = split_voxels(np.array([[1, 0, 2]]), 2)
        want = [
            [2, 0, 4], [2, 0, 5], [2, 1, 4], [2, 1, 5],
            [3, 0, 4], [3, 0, 5], [3, 1, 4], [3, 1, 5],
        ]
        assert sorted(q.tolist()) == sorted(want)
        assert len(q) == 8

    def test_eta_four_count(self):
        vox = np.array([[0, 0, 0], [1, 1, 1], [2, 0, 1], [0, 3, 2], [3, 3, 3]])
        q = split_voxels(vox, 4)
        assert q.shape == (5 * 64, 3)
        assert len({tuple(c) for c in q.tolist()}) == 320


class TestCoordinateTransforms:
    """Voxel centers and floor lookup of the lattice that fine grids live on."""

    def test_center_convention(self):
        lattice = Lattice((3, 3, 3), 0.2, (0.0, 0.0, 0.0))
        assert np.allclose(lattice.centers(0), [0.1, 0.3, 0.5])

    def test_round_trip(self):
        rng = rng_stream(2, "coords")
        coords = rng.integers(0, 10, (200, 3))
        lattice = Lattice((10, 10, 10), 0.25, (-1.25, 0.5, 2.0))
        w = np.stack([lattice.centers(ax)[coords[:, ax]] for ax in range(3)], axis=1)
        assert np.array_equal(lattice.index_of(w), coords)
        for ax in range(3):
            assert np.array_equal(lattice.index_of(w[:, ax], axis=ax), coords[:, ax])

    def test_boundary_floor(self):
        # a point exactly on the voxel-1/voxel-2 boundary indexes voxel 2;
        # points outside the lattice get out-of-range indices, not errors
        lattice = Lattice((4, 4, 4), 0.25, (0.0, 0.0, 0.0))
        idx = lattice.index_of(np.array([[0.5, 0.1, 0.1], [-0.1, 1.0, 0.0]]))
        assert idx.tolist() == [[2, 0, 0], [-1, 4, 0]]


def sample_features_per_corner(volume, fine_coords, eta):
    """Reference: every corner of every query evaluated directly."""
    volume = np.asarray(volume, dtype=np.float64)
    d, h, w, _ = volume.shape
    coords = np.asarray(fine_coords, dtype=np.float64).reshape(-1, 3)
    u = (coords + 0.5) / eta - 0.5
    lo = np.floor(u).astype(np.int64)
    frac = u - lo
    out = None
    dims = np.array([d, h, w], dtype=np.int64)
    for corner in range(8):
        bits = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1], dtype=np.int64)
        idx = np.clip(lo + bits[None, :], 0, (dims - 1)[None, :])
        weight = np.prod(np.where(bits[None, :] == 1, frac, 1.0 - frac), axis=1)
        vals = volume[idx[:, 0], idx[:, 1], idx[:, 2]]
        term = weight[:, None] * vals
        out = term if out is None else out + term
    return out


class TestSampleFeatures:
    @pytest.mark.parametrize("shape", [(3, 1, 2, 5), (17, 9, 5, 17)])
    @pytest.mark.parametrize("eta", [1, 2, 3, 4, 5])
    def test_bit_identical_to_per_corner_form(self, shape, eta):
        # coordinates reach 2*eta fine voxels past each border, so the edge
        # clamp is exercised on both sides of every axis
        rng = rng_stream(9, "tri")
        vol = rng.normal(size=shape)
        coords = np.stack(
            [rng.integers(-2 * eta, (d + 2) * eta + 1, 600) for d in shape[:3]], axis=1
        )
        got = sample_features(vol, coords, eta)
        want = sample_features_per_corner(vol, coords, eta)
        assert got.shape == want.shape == (600, shape[3])
        assert got.tobytes() == want.tobytes()
        # a subset of the queries, whose per-axis tables span fewer
        # coordinates, samples to the same rows bit for bit
        for some in (np.arange(0, 600, 7), rng.permutation(600)[:40]):
            assert sample_features(vol, coords[some], eta).tobytes() == got[some].tobytes()
        none = np.zeros((0, 3), dtype=np.int64)
        empty = sample_features(vol, none, eta)
        assert empty.shape == (0, shape[3])
        assert empty.tobytes() == sample_features_per_corner(vol, none, eta).tobytes()

    def test_coarse_center_exact_copy(self):
        # odd eta puts one fine-voxel center exactly on each coarse center
        rng = rng_stream(3, "tri")
        vol = rng.normal(size=(4, 5, 3, 6))
        coarse = np.array([[1, 2, 1], [3, 4, 2], [0, 0, 0]])
        for eta in (1, 3):
            fine = coarse * eta + (eta - 1) // 2
            got = sample_features(vol, fine, eta)
            assert np.allclose(got, vol[coarse[:, 0], coarse[:, 1], coarse[:, 2]])

    def test_midpoint_is_arithmetic_mean(self):
        vol = np.zeros((2, 1, 1, 3))
        vol[0, 0, 0] = [1.0, 4.0, -2.0]
        vol[1, 0, 0] = [3.0, 0.0, 2.0]
        # eta=2: fine coord (0,0,0) -> u = -0.25 (clamped edge), fine (1,0,0) -> u = 0.25
        got = sample_features(vol, np.array([[1, 0, 0]]), 2)
        want = 0.75 * vol[0, 0, 0] + 0.25 * vol[1, 0, 0]
        assert np.allclose(got, want[None, :])

    def test_constant_volume_constant_samples(self):
        vol = np.full((3, 3, 3, 2), 5.5)
        q = split_voxels(np.array([[0, 0, 0], [2, 2, 2]]), 4)
        got = sample_features(vol, q, 4)
        assert np.allclose(got, 5.5)

    def test_1d_linear_interpolation_by_hand(self):
        vol = np.zeros((3, 1, 1, 1))
        vol[:, 0, 0, 0] = [10.0, 20.0, 40.0]
        # eta=4: fine x=5 -> u = (5.5)/4 - .5 = 0.875 -> 0.125*10 + 0.875*20
        got = sample_features(vol, np.array([[5, 0, 0]]), 4)
        assert np.allclose(got, [[0.125 * 10 + 0.875 * 20]])


class TestRefineReassemble:
    def make_head(self, hidden, classes, rng):
        return rng.normal(size=(hidden, classes)), rng.normal(size=classes)

    def test_no_queries_all_empty(self):
        rng = rng_stream(4, "refine")
        q = split_voxels(np.zeros((0, 3), dtype=int), 2)
        assert q.shape == (0, 3)
        head = self.make_head(5, 4, rng)
        out = refine_and_reassemble(q, np.zeros((0, 5)), head, Lattice((6, 6, 6), 0.25, (0, 0, 0)), 0)
        assert np.all(out.labels == 0)

    def test_eta_one_identity_head_reproduces_coarse(self):
        rng = rng_stream(5, "refine")
        hidden, classes = 6, 4
        feats = rng.normal(size=(4, 4, 2, hidden))
        head_w = rng.normal(size=(hidden, classes))
        head_b = rng.normal(size=classes)
        scores = feats @ head_w + head_b
        coarse = np.argmax(scores, axis=3).astype(np.uint16)
        grid = grid_from(coarse, voxel=0.5, num_classes=classes)
        q = split_voxels(np.argwhere(grid.labels != 0), 1)
        sampled = sample_features(feats, q, 1)
        out = refine_and_reassemble(
            q, sampled, (head_w, head_b), grid.lattice, 0
        )
        assert np.array_equal(out.labels, coarse)

    def test_nonempty_fine_voxels_contained_in_split(self):
        rng = rng_stream(6, "refine")
        hidden, classes, eta = 5, 3, 2
        labels = rng.integers(0, classes, (5, 5, 3))
        grid = grid_from(labels, num_classes=classes)
        feats = rng.normal(size=(5, 5, 3, hidden))
        vox = np.argwhere(grid.labels != 0)
        q = split_voxels(vox, eta)
        sampled = sample_features(feats, q, eta)
        head = self.make_head(hidden, classes, rng)
        out = refine_and_reassemble(q, sampled, head, Lattice((10, 10, 6), 0.25, (0, 0, 0)), 0)
        # brute-force containment: every non-empty fine voxel descends from an
        # occupied coarse voxel
        occupied_coarse = {tuple(v) for v in vox.tolist()}
        for idx in np.argwhere(out.labels != 0):
            assert (idx[0] // eta, idx[1] // eta, idx[2] // eta) in occupied_coarse

    def test_query_count_and_uniqueness(self):
        rng = rng_stream(7, "refine")
        labels = (rng.random((6, 6, 4)) < 0.3).astype(np.uint16)
        grid = grid_from(labels, num_classes=2)
        vox = np.argwhere(grid.labels != 0)
        for eta in (1, 2, 4):
            q = split_voxels(vox, eta)
            assert len(q) == vox.shape[0] * eta**3
            assert len({tuple(c) for c in q.tolist()}) == len(q)
