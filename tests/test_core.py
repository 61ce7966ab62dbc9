import numpy as np
import pytest

from mdocc.core import (
    BadMagic,
    CodecError,
    DatasetSpec,
    LabelSpace,
    LidarConfig,
    OccupancyGrid,
    Range3D,
    TruncatedPayload,
    VersionUnsupported,
    colsum,
    grid_decode,
    grid_encode,
    rng_stream,
    rowwise,
)


def random_grid(rng, dims=(16, 16, 16), num_classes=5):
    labels = rng.integers(0, num_classes, size=dims).astype(np.uint16)
    return OccupancyGrid(
        dims=dims,
        voxel_size_m=0.25,
        origin=(-1.0, 0.5, 2.0),
        labels=labels,
        num_classes=num_classes,
    )


class TestTypes:
    def test_range_invariants(self):
        with pytest.raises(ValueError):
            Range3D(0, 0, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            Range3D(0, 1, 0, 1, 0, float("inf"))
        r = Range3D(0, 1, 0, 2, -1, 1)
        assert r.contains_point((0.0, 0.0, 0.0))
        assert not r.contains_point((1.0, 0.0, 0.0))  # half-open upper bound

    def test_lidar_invariants(self):
        with pytest.raises(ValueError):
            LidarConfig(1, -10, 10, 1.0, 50.0)
        with pytest.raises(ValueError):
            LidarConfig(4, 10, -10, 1.0, 50.0)
        with pytest.raises(ValueError):
            LidarConfig(4, -10, 10, 0.0, 50.0)

    def test_label_space_invariants(self):
        with pytest.raises(ValueError):
            LabelSpace(("a", "a"), 0)
        with pytest.raises(ValueError):
            LabelSpace(("a", "b"), 2)
        ls = LabelSpace(("empty", "thing"), 0)
        assert len(ls) == 2 and ls.index("thing") == 1

    def test_grid_label_bound_rejected(self):
        labels = np.zeros((2, 2, 2), dtype=np.uint16)
        labels[0, 0, 0] = 3
        with pytest.raises(ValueError):
            OccupancyGrid((2, 2, 2), 0.1, (0, 0, 0), labels, num_classes=3)
        OccupancyGrid((2, 2, 2), 0.1, (0, 0, 0), labels, num_classes=4)

    def test_grid_shape_must_agree(self):
        with pytest.raises(ValueError):
            OccupancyGrid((2, 2, 2), 0.1, (0, 0, 0), np.zeros(7, dtype=np.uint16), 1)

    def test_grids_immutable(self):
        g = random_grid(np.random.default_rng(0))
        with pytest.raises(ValueError):
            g.labels[0, 0, 0] = 1

    def test_dataset_spec_validation(self):
        ls = LabelSpace(("empty", "x"), 0)
        lidar = LidarConfig(4, -10, 10, 1.0, 50.0)
        pr = Range3D(-2, 2, -2, 2, 0, 1)
        with pytest.raises(ValueError):
            DatasetSpec("d", lidar, pr, Range3D(-3, 2, -2, 2, 0, 1), (4, 4, 1), ls)
        with pytest.raises(ValueError):
            # 4 x 4 x 1 voxels over a 4 x 4 x 1 m box is non-uniform
            DatasetSpec("d", lidar, pr, pr, (4, 4, 4), ls)
        spec = DatasetSpec("d", lidar, pr, pr, (4, 4, 1), ls)
        assert spec.voxel_size_m == 1.0


class TestCodec:
    def test_single_voxel_round_trip(self):
        g = OccupancyGrid((1, 1, 1), 1.0, (0, 0, 0), np.zeros(1, dtype=np.uint16), 1)
        blob = grid_encode(g)
        # 52-byte header + one u16 label
        assert len(blob) == 54
        assert blob[-2:] == b"\x00\x00"
        assert grid_decode(blob) == g

    def test_random_grid_round_trip(self):
        g = random_grid(rng_stream(7, "codec"))
        g2 = grid_decode(grid_encode(g))
        assert g2 == g
        assert np.array_equal(g2.labels, g.labels)

    def test_one_voxel_difference_changes_encoding(self):
        rng = rng_stream(3, "codec")
        g = random_grid(rng)
        labels = g.labels.copy()
        labels[4, 5, 6] = (labels[4, 5, 6] + 1) % g.num_classes
        g2 = OccupancyGrid(g.dims, g.voxel_size_m, g.origin, labels, g.num_classes)
        assert grid_encode(g) != grid_encode(g2)

    def test_bad_magic(self):
        blob = bytearray(grid_encode(random_grid(rng_stream(1, "codec"))))
        blob[:4] = b"XOCC"
        with pytest.raises(BadMagic) as err:
            grid_decode(bytes(blob))
        assert err.value.offset == 0

    def test_bad_version(self):
        blob = bytearray(grid_encode(random_grid(rng_stream(1, "codec"))))
        blob[4] = 9
        with pytest.raises(VersionUnsupported) as err:
            grid_decode(bytes(blob))
        assert err.value.offset == 4

    def test_truncated_payload(self):
        blob = grid_encode(random_grid(rng_stream(1, "codec")))
        with pytest.raises(TruncatedPayload) as err:
            grid_decode(blob[:-3])
        assert err.value.offset == len(blob) - 3

    def test_truncated_header(self):
        blob = grid_encode(random_grid(rng_stream(1, "codec")))
        with pytest.raises(TruncatedPayload):
            grid_decode(blob[:10])

    def test_trailing_bytes_rejected(self):
        blob = grid_encode(random_grid(rng_stream(1, "codec")))
        with pytest.raises(CodecError):
            grid_decode(blob + b"xx")


class TestRngStream:
    def test_same_seed_tag_identical(self):
        a = rng_stream(42, "scene").random(100)
        b = rng_stream(42, "scene").random(100)
        assert np.array_equal(a, b)

    def test_tag_separation(self):
        a = rng_stream(42, "scene").random(100)
        b = rng_stream(42, "train").random(100)
        assert not np.array_equal(a, b)

    def test_seed_separation(self):
        a = rng_stream(42, "scene").random(100)
        b = rng_stream(43, "scene").random(100)
        assert not np.array_equal(a, b)


class TestArrayKernels:
    """The training loop's column sums and row-vector ops equal numpy's plain
    ones bit for bit."""

    @pytest.mark.parametrize("width", [1, 2, 8, 17])
    @pytest.mark.parametrize("n", [1, 3, 20480])
    def test_colsum_equals_axis0_sum(self, n, width):
        rng = rng_stream(n * 31 + width, "colsum")
        a = rng.normal(0.0, 1e3, (n, width))
        b = rng.normal(0.0, 1.0, (n, width))
        assert colsum(a).tobytes() == a.sum(axis=0).tobytes()
        assert colsum(a, b).tobytes() == (a * b).sum(axis=0).tobytes()

    def test_colsum_of_a_non_contiguous_view(self):
        a = rng_stream(1, "colsum").normal(size=(300, 8))[:, ::2]
        assert colsum(a).tobytes() == a.sum(axis=0).tobytes()
        assert colsum(a, a).tobytes() == (a * a).sum(axis=0).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 20480, 20481, 513 * 6])
    def test_rowwise_equals_broadcasting(self, n):
        rng = rng_stream(n, "rowwise")
        a = rng.normal(size=(n, 8))
        v = rng.normal(size=8)
        for op in (np.add, np.subtract, np.multiply):
            assert rowwise(op, a, v).tobytes() == op(a, v).tobytes()
            out = a.copy()
            assert rowwise(op, out, v, out=out) is out
            assert out.tobytes() == op(a, v).tobytes()
        view = a[:, :5]
        assert rowwise(np.add, view, v[:5]).tobytes() == (view + v[:5]).tobytes()
