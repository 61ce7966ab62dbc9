import numpy as np
import pytest
from scipy import ndimage

from mdocc.align import intersect_ranges
from mdocc.core import Lattice, LidarConfig, OccupancyGrid, Range3D, rng_stream
from mdocc.scenes import (
    FINE_SPACE,
    ExtentTooSmall,
    SceneSpec,
    beam_directions,
    cloud_decode,
    cloud_encode,
    dataset_presets,
    default_scene_spec,
    default_sensor_pose,
    derive_dataset_view,
    gen_scene,
    raycast,
    taxonomy_preset,
)


def small_spec(seed=1, **counts):
    defaults = dict(n_boxes=0, n_pillars=0, n_walls=0, n_blobs=0, n_posts=0)
    defaults.update(counts)
    return SceneSpec(
        extent=Range3D(-6.0, 6.0, -6.0, 6.0, -0.8, 0.8),
        voxel_size_m=0.2,
        seed=seed,
        **defaults,
    )


class TestGenScene:
    def test_degenerate_scene_is_ground_plus_empty(self):
        scene = gen_scene(small_spec())
        ground = scene.labels[:, :, 0]
        road = FINE_SPACE.index("road")
        side = FINE_SPACE.index("sidewalk")
        assert set(np.unique(ground)) <= {road, side}
        assert np.all(scene.labels[:, :, 1:] == FINE_SPACE.empty_id)

    def test_deterministic_in_seed(self):
        a = gen_scene(small_spec(seed=1, n_boxes=3, n_blobs=2))
        b = gen_scene(small_spec(seed=1, n_boxes=3, n_blobs=2))
        assert a == b
        c = gen_scene(small_spec(seed=2, n_boxes=3, n_blobs=2))
        assert a != c

    def test_three_boxes_are_three_disjoint_components(self):
        scene = gen_scene(small_spec(seed=1, n_boxes=3))
        box_ids = [FINE_SPACE.index(n) for n in ("car", "truck", "bus")]
        mask = np.isin(scene.labels, box_ids)
        # independent component count: 6-connectivity labeling
        _, n = ndimage.label(mask)
        assert n == 3
        # each component is a filled axis-aligned box
        comp, n = ndimage.label(mask)
        for k in range(1, n + 1):
            where = np.argwhere(comp == k)
            lo, hi = where.min(axis=0), where.max(axis=0)
            assert np.prod(hi - lo + 1) == where.shape[0]

    def test_extent_too_small(self):
        spec = SceneSpec(
            extent=Range3D(0, 1.0, 0, 1.0, 0, 1.0),
            voxel_size_m=0.2,
            n_boxes=0, n_pillars=0, n_walls=4, n_blobs=0, n_posts=0,
            seed=0,
        )
        with pytest.raises(ExtentTooSmall):
            gen_scene(spec)


def slab_ray_box(pose, d, lo, hi):
    """Analytic ray/AABB intersection: [t_enter, t_exit] or None."""
    t0, t1 = 0.0, np.inf
    for ax in range(3):
        if d[ax] == 0.0:
            if not (lo[ax] <= pose[ax] < hi[ax]):
                return None
            continue
        ta = (lo[ax] - pose[ax]) / d[ax]
        tb = (hi[ax] - pose[ax]) / d[ax]
        ta, tb = min(ta, tb), max(ta, tb)
        t0, t1 = max(t0, ta), min(t1, tb)
    if t0 >= t1:
        return None
    return t0, t1


class TestRaycast:
    def empty_scene(self, dims=(40, 40, 12), voxel=0.25):
        labels = np.zeros(dims, dtype=np.uint16)
        origin = (-dims[0] * voxel / 2, -dims[1] * voxel / 2, -dims[2] * voxel / 2)
        return OccupancyGrid(dims, voxel, origin, labels, num_classes=len(FINE_SPACE))

    def test_empty_scene_no_returns(self):
        scene = self.empty_scene()
        lidar = LidarConfig(8, -15, 5, 10.0, 4.0)
        pts = raycast(scene, lidar, (0.0, 0.0, 0.0))
        assert pts.shape == (0, 3)

    def test_single_voxel_matches_analytic_intersection(self):
        # one occupied voxel straight down +x; compare against a slab-test oracle
        dims, voxel = (81, 81, 21), 0.25
        labels = np.zeros(dims, dtype=np.uint16)
        target = (60, 40, 10)  # center (5.125, 0.125, 0.125) from origin below
        labels[target] = 3
        origin = (-10.125, -10.125, -2.625)
        scene = OccupancyGrid(dims, voxel, origin, labels, num_classes=5)
        pose = np.array([0.0, 0.0, 0.0])
        lidar = LidarConfig(5, -8.0, 8.0, 3.0, 9.0)
        pts = raycast(scene, lidar, pose)
        lo = np.array(origin) + np.array(target) * voxel
        hi = lo + voxel
        center = lo + voxel / 2
        hit_rays = []
        for d in beam_directions(lidar):
            seg = slab_ray_box(pose, d, lo, hi)
            if seg is None or seg[0] > lidar.max_range_m:
                continue
            # march step is voxel/2; require a chord long enough that the
            # uniform sampling cannot step across the box
            assert seg[1] - seg[0] >= voxel / 2, "test geometry must avoid grazing rays"
            hit_rays.append(d)
        assert len(hit_rays) >= 1
        assert pts.shape[0] == len(hit_rays)
        assert np.allclose(pts, center[None, :])

    def test_returns_lie_on_occupied_voxel_centers(self):
        scene = gen_scene(small_spec(seed=3, n_boxes=4, n_pillars=3, n_walls=1))
        lidar = LidarConfig(16, -25, 5, 4.0, 8.0)
        pose = default_sensor_pose(scene)
        pts = raycast(scene, lidar, pose)
        assert pts.shape[0] > 0
        rel = (pts - np.asarray(scene.origin)) / scene.voxel_size_m
        idx = np.floor(rel).astype(int)
        # every return is exactly a voxel center of a non-empty voxel
        assert np.allclose(rel - idx, 0.5)
        assert np.all(scene.labels[idx[:, 0], idx[:, 1], idx[:, 2]] != FINE_SPACE.empty_id)

    def test_denser_beams_strictly_more_points(self):
        scene = gen_scene(small_spec(seed=4, n_boxes=4, n_walls=2, n_pillars=2))
        pose = default_sensor_pose(scene)
        n32 = raycast(scene, LidarConfig(32, -30, 10, 1.0, 16.0), pose).shape[0]
        n64 = raycast(scene, LidarConfig(64, -30, 10, 1.0, 16.0), pose).shape[0]
        assert n64 > n32

    def test_finer_azimuth_strictly_more_points(self):
        scene = gen_scene(small_spec(seed=4, n_boxes=4, n_walls=2, n_pillars=2))
        pose = default_sensor_pose(scene)
        coarse = raycast(scene, LidarConfig(16, -30, 10, 2.0, 16.0), pose).shape[0]
        fine = raycast(scene, LidarConfig(16, -30, 10, 1.0, 16.0), pose).shape[0]
        assert fine > coarse

    def test_pose_outside_rejected(self):
        scene = self.empty_scene()
        with pytest.raises(ValueError):
            raycast(scene, LidarConfig(4, -10, 10, 10.0, 5.0), (100.0, 0.0, 0.0))


class TestDatasetViews:
    def test_identity_projection_recovers_scene(self):
        # a dataset whose space IS the fine space and whose gt range equals
        # the scene extent reproduces the scene labels exactly
        from mdocc.core import DatasetSpec
        from mdocc.scenes import TaxonomyMap

        spec = small_spec(seed=5, n_boxes=2, n_pillars=1)
        scene = gen_scene(spec)
        tax = TaxonomyMap(
            fine_space=FINE_SPACE,
            spaces={"fine": FINE_SPACE},
            projections={"fine": np.arange(len(FINE_SPACE))},
        )
        ds = DatasetSpec(
            name="fine",
            lidar=LidarConfig(8, -20, 5, 4.0, 8.0),
            point_range=spec.extent,
            gt_range=spec.extent,
            grid_dims=scene.dims,
            label_space=FINE_SPACE,
        )
        _, gt = derive_dataset_view(scene, tax, ds)
        assert np.array_equal(gt.labels, scene.labels)

    def test_merge_projection_counts(self):
        tax = taxonomy_preset("split")
        presets = dataset_presets(tax)
        scene = gen_scene(default_scene_spec(seed=6, n_boxes=6, n_pillars=2, n_walls=1, n_blobs=2, n_posts=2))
        _, gt_b = derive_dataset_view(scene, tax, presets["b64"])
        # vehicle count in b64 equals the summed car/truck/bus count of the
        # scene resampled onto the same lattice through the fine taxonomy
        from mdocc.scenes import resample_labels

        fine_on_b = resample_labels(scene, np.arange(len(FINE_SPACE)), presets["b64"].lattice)
        fine_vehicles = sum(
            int(np.sum(fine_on_b == FINE_SPACE.index(n))) for n in ("car", "truck", "bus")
        )
        vehicle_id = presets["b64"].label_space.index("vehicle")
        assert int(np.sum(gt_b.labels == vehicle_id)) == fine_vehicles
        # every label in the view belongs to the b64 taxonomy
        assert int(gt_b.labels.max()) < len(presets["b64"].label_space)

    def test_views_consistent_through_fine_space(self):
        tax = taxonomy_preset("split")
        presets = dataset_presets(tax)
        scene = gen_scene(default_scene_spec(seed=7, n_boxes=5, n_pillars=2, n_walls=1, n_blobs=2, n_posts=2))
        _, gt_a = derive_dataset_view(scene, tax, presets["a32"])
        _, gt_b = derive_dataset_view(scene, tax, presets["b64"])
        shared = intersect_ranges([presets["a32"].gt_range, presets["b64"].gt_range])
        # on the shared region every voxel pair admits a common fine preimage
        proj_a, proj_b = tax.project("a32"), tax.project("b64")
        pairs_ok = {(int(proj_a[f]), int(proj_b[f])) for f in range(len(FINE_SPACE))}
        va = _crop_to(gt_a, shared)
        vb = _crop_to(gt_b, shared)
        assert va.shape == vb.shape
        observed = set(zip(va.reshape(-1).tolist(), vb.reshape(-1).tolist()))
        assert observed <= pairs_ok

    def test_point_counts_preset_b_denser(self):
        tax = taxonomy_preset("split")
        presets = dataset_presets(tax)
        scene = gen_scene(default_scene_spec(seed=8))
        cloud_a, _ = derive_dataset_view(scene, tax, presets["a32"])
        cloud_b, _ = derive_dataset_view(scene, tax, presets["b64"])
        assert cloud_b.shape[0] > cloud_a.shape[0]

    @pytest.mark.parametrize("taxonomy", ["split", "twin"])
    def test_gt_grids_on_the_spec_lattice(self, taxonomy):
        tax = taxonomy_preset(taxonomy)
        scene = gen_scene(default_scene_spec(seed=9))
        for spec in dataset_presets(tax).values():
            assert spec.lattice == Lattice(spec.grid_dims, spec.voxel_size_m, spec.gt_range.mins)
            _, gt = derive_dataset_view(scene, tax, spec)
            assert gt.lattice == spec.lattice


def _crop_to(grid, rng):
    lo = np.rint((rng.mins - np.asarray(grid.origin)) / grid.voxel_size_m).astype(int)
    hi = np.rint((rng.maxs - np.asarray(grid.origin)) / grid.voxel_size_m).astype(int)
    return grid.labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]


class TestTaxonomyPresets:
    def test_split_preset_shapes(self):
        tax = taxonomy_preset("split")
        assert len(tax.spaces["a32"]) == 9
        assert len(tax.spaces["b64"]) == 8
        pa = tax.project("a32")
        assert pa[FINE_SPACE.index("road")] == pa[FINE_SPACE.index("sidewalk")]
        pb = tax.project("b64")
        assert pb[FINE_SPACE.index("car")] == pb[FINE_SPACE.index("truck")] == pb[FINE_SPACE.index("bus")]

    def test_twin_preset_is_relabeling(self):
        tax = taxonomy_preset("twin")
        pa, pb = tax.project("a32"), tax.project("b64")
        # identical partition: fine classes agree in a iff they agree in b
        for f in range(len(FINE_SPACE)):
            for g in range(len(FINE_SPACE)):
                assert (pa[f] == pa[g]) == (pb[f] == pb[g])

    def test_unknown_preset(self):
        # a manifest's JSON may hold any value, an unhashable one too
        for name in ("nope", ["split"]):
            with pytest.raises(ValueError) as err:
                taxonomy_preset(name)
            assert str(err.value) == f"unknown taxonomy preset {name!r}"


class TestMply:
    def test_round_trip(self):
        rng = rng_stream(1, "mply")
        pts = rng.normal(size=(257, 3))
        assert np.array_equal(cloud_decode(cloud_encode(pts)), pts)

    def test_empty_cloud(self):
        pts = np.zeros((0, 3))
        assert cloud_decode(cloud_encode(pts)).shape == (0, 3)
