"""Synthetic semantic scenes and simulated heterogeneous LiDAR views.

Scenes are dense voxel volumes over a fine 10-class taxonomy (ground split
into road/sidewalk, vehicles split into car/truck/bus). Two dataset presets
view the same scene through different sensors, ranges, grids, and coarsened
taxonomies, giving corpora with known geometry gaps and a known class
correspondence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .align import crop_points, intersect_ranges
from .core import (
    DatasetSpec,
    LabelSpace,
    Lattice,
    LidarConfig,
    OccupancyGrid,
    Range3D,
    StreamReader,
    StreamWriter,
    rng_stream,
)
from .kernels import march_rays

FINE_SPACE = LabelSpace(
    names=(
        "empty",
        "road",
        "sidewalk",
        "car",
        "truck",
        "bus",
        "pole",
        "building",
        "vegetation",
        "pedestrian",
    ),
    empty_id=0,
)

MPLY_MAGIC = b"MPLY"
MPLY_VERSION = 1


class ExtentTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class SceneSpec:
    """Scene extent plus per-archetype object counts; ground is always present."""

    extent: Range3D
    voxel_size_m: float
    n_boxes: int = 10
    n_pillars: int = 6
    n_walls: int = 3
    n_blobs: int = 6
    n_posts: int = 6
    seed: int = 0

    def __post_init__(self):
        counts = (self.n_boxes, self.n_pillars, self.n_walls, self.n_blobs, self.n_posts)
        if any(c < 0 for c in counts):
            raise ValueError(f"archetype counts must be >= 0, got {counts}")
        if self.voxel_size_m <= 0:
            raise ValueError("voxel_size_m must be > 0")

    @property
    def dims(self):
        return Lattice.over(self.extent, self.voxel_size_m).dims


@dataclass(frozen=True)
class TaxonomyMap:
    """Fine taxonomy plus total projections onto each dataset's label space."""

    fine_space: LabelSpace
    spaces: dict
    projections: dict = field(repr=False)

    def __post_init__(self):
        for name, space in self.spaces.items():
            proj = np.asarray(self.projections[name])
            if proj.shape != (len(self.fine_space),):
                raise ValueError(f"{name}: projection must map every fine class")
            if proj.min() < 0 or proj.max() >= len(space):
                raise ValueError(f"{name}: projection targets outside the dataset space")
            if set(proj.tolist()) != set(range(len(space))):
                raise ValueError(f"{name}: projection must be surjective onto the dataset space")
            if proj[self.fine_space.empty_id] != space.empty_id:
                raise ValueError(f"{name}: fine empty class must project to the dataset empty class")

    def project(self, name):
        return np.asarray(self.projections[name], dtype=np.uint16)


def _projection_by_name(fine, space, merges):
    """fine class -> dataset class by name, with `merges` mapping fine names to
    coarser dataset names."""
    proj = np.zeros(len(fine), dtype=np.int64)
    for fid, fname in enumerate(fine.names):
        proj[fid] = space.index(merges.get(fname, fname))
    return proj


def taxonomy_preset(name):
    """Shipped taxonomy pairs for presets a32/b64.

    "split": a32 merges road+sidewalk into ground but keeps car/truck/bus;
    b64 merges the vehicles but keeps the ground split. "twin": both datasets
    use the same 8-class coarsening with differently ordered ids.
    """
    fine = FINE_SPACE
    if name == "split":
        a_space = LabelSpace(
            ("empty", "ground", "car", "truck", "bus", "pole", "building", "vegetation", "pedestrian"),
            empty_id=0,
        )
        b_space = LabelSpace(
            ("empty", "road", "sidewalk", "vehicle", "pole", "building", "vegetation", "pedestrian"),
            empty_id=0,
        )
        a_proj = _projection_by_name(fine, a_space, {"road": "ground", "sidewalk": "ground"})
        b_proj = _projection_by_name(
            fine, b_space, {"car": "vehicle", "truck": "vehicle", "bus": "vehicle"}
        )
    elif name == "twin":
        a_space = LabelSpace(
            ("empty", "road", "sidewalk", "vehicle", "pole", "building", "vegetation", "pedestrian"),
            empty_id=0,
        )
        b_space = LabelSpace(
            ("empty", "vegetation", "road", "pole", "vehicle", "sidewalk", "pedestrian", "building"),
            empty_id=0,
        )
        vm = {"car": "vehicle", "truck": "vehicle", "bus": "vehicle"}
        a_proj = _projection_by_name(fine, a_space, vm)
        b_proj = _projection_by_name(fine, b_space, vm)
    else:
        raise ValueError(f"unknown taxonomy preset {name!r}")
    return TaxonomyMap(
        fine_space=fine,
        spaces={"a32": a_space, "b64": b_space},
        projections={"a32": a_proj, "b64": b_proj},
    )


def dataset_presets(taxonomy):
    """The two shipped dataset configurations (quarter-scale asymmetric pair).

    a32: sparse 32-beam sensor, wide z-range, gt grid 128x128x10.
    b64: dense 64-beam sensor, larger point range, shallow z, gt grid 64x64x8.
    """
    a = DatasetSpec(
        name="a32",
        lidar=LidarConfig(
            beam_count=32,
            vfov_min_deg=-30.0,
            vfov_max_deg=10.0,
            horiz_angular_res_deg=1.0,
            max_range_m=16.0,
        ),
        point_range=Range3D(-12.8, 12.8, -12.8, 12.8, -1.25, 0.75),
        gt_range=Range3D(-12.8, 12.8, -12.8, 12.8, -1.25, 0.75),
        grid_dims=(128, 128, 10),
        label_space=taxonomy.spaces["a32"],
    )
    b = DatasetSpec(
        name="b64",
        lidar=LidarConfig(
            beam_count=64,
            vfov_min_deg=-23.6,
            vfov_max_deg=3.2,
            horiz_angular_res_deg=0.5,
            max_range_m=20.0,
        ),
        point_range=Range3D(-18.0, 18.0, -18.0, 18.0, -0.85, 0.75),
        gt_range=Range3D(0.0, 12.8, -6.4, 6.4, -0.85, 0.75),
        grid_dims=(64, 64, 8),
        label_space=taxonomy.spaces["b64"],
    )
    return {"a32": a, "b64": b}


def eval_intersection(specs):
    """The intersection of the datasets' gt ranges, where mdt trains and
    every report cell is measured."""
    return intersect_ranges([s.gt_range for s in specs.values()])


def coarse_lattice(spec, crop_range, stride):
    """The dataset's stride-coarsened lattice over ``crop_range`` (its
    gt_range when None)."""
    return Lattice.over(spec.gt_range if crop_range is None else crop_range,
                        spec.voxel_size_m * stride)


def default_scene_spec(seed, **counts):
    """Scene extent covering both preset point ranges, 0.2 m voxels."""
    return SceneSpec(
        extent=Range3D(-18.0, 18.0, -18.0, 18.0, -0.85, 0.75),
        voxel_size_m=0.2,
        seed=seed,
        **counts,
    )


def default_sensor_pose(scene, mount_z=None):
    """Sensor centered in x/y; ``mount_z`` overrides the mounting height
    (defaults to the second-from-top voxel layer, above every object)."""
    ext = scene.extent
    z = scene.lattice.centers(2)[-2] if mount_z is None else mount_z
    return np.array(
        [
            0.5 * (ext.x_min + ext.x_max),
            0.5 * (ext.y_min + ext.y_max),
            z,
        ]
    )


# per-preset sensor mounting heights: the two simulated vehicles carry their
# sensors at different heights, a deliberate cross-dataset geometry gap
SENSOR_MOUNT_Z = {"a32": 0.45, "b64": 0.65}


# object archetype footprints in voxels: ((min, max+1) per xy axis, height layers)
_BOX_CLASSES = ("car", "truck", "bus")
_BOX_SIZES = {"car": ((4, 7), (2, 4), 2), "truck": ((6, 9), (3, 5), 3), "bus": ((9, 12), (3, 4), 3)}
_MAX_TRIES = 200


def _place(rng, occupied, fx, fy, fz_lo, fz_hi):
    """Find a free (x0, y0) for an fx*fy footprint; 1-voxel margin keeps
    distinct objects disjoint even face-to-face. Returns None when crowded."""
    nx, ny, _ = occupied.shape
    if fx + 2 > nx or fy + 2 > ny:
        return None
    for _ in range(_MAX_TRIES):
        x0 = int(rng.integers(1, nx - fx))
        y0 = int(rng.integers(1, ny - fy))
        region = occupied[x0 - 1 : x0 + fx + 1, y0 - 1 : y0 + fy + 1, fz_lo:fz_hi]
        if not region.any():
            return x0, y0
    return None


def gen_scene(spec):
    """Generate a dense fine-taxonomy scene, deterministic in spec.seed.

    The lowest voxel layer is ground (a road band along x, sidewalk elsewhere);
    objects sit above it and never overlap each other.
    """
    dims = spec.dims
    nx, ny, nz = dims
    if nz < 4:
        raise ExtentTooSmall(f"need at least 4 voxel layers, got {nz}")
    rng = rng_stream(spec.seed, "scene")
    labels = np.zeros(dims, dtype=np.uint16)
    fine = FINE_SPACE

    # ground layer: road band along x, sidewalk elsewhere
    road_half = float(rng.uniform(0.15, 0.3)) * ny / 2.0
    road_center = ny / 2.0 + float(rng.uniform(-0.1, 0.1)) * ny
    ys = np.arange(ny) + 0.5
    road_mask = np.abs(ys - road_center) <= road_half
    layer = np.where(road_mask, fine.index("road"), fine.index("sidewalk"))
    labels[:, :, 0] = layer[None, :]

    occupied = np.zeros(dims, dtype=bool)  # objects only; ground does not block
    top = min(nz - 2, 5)

    def stamp(x0, x1, y0, y1, z0, z1, class_id):
        labels[x0:x1, y0:y1, z0:z1] = class_id
        occupied[x0:x1, y0:y1, z0:z1] = True

    for i in range(spec.n_walls):
        length = int(rng.integers(12, 31))
        width = int(rng.integers(1, 3))
        height = min(top, 5)
        fx, fy = (length, width) if rng.integers(2) == 0 else (width, length)
        pos = _place(rng, occupied, fx, fy, 1, 1 + height)
        if pos is None:
            raise ExtentTooSmall(f"could not place wall {i}")
        stamp(pos[0], pos[0] + fx, pos[1], pos[1] + fy, 1, 1 + height, fine.index("building"))

    for i in range(spec.n_boxes):
        cls = _BOX_CLASSES[int(rng.integers(len(_BOX_CLASSES)))]
        (lx_lo, lx_hi), (ly_lo, ly_hi), hz = _BOX_SIZES[cls]
        fx = int(rng.integers(lx_lo, lx_hi))
        fy = int(rng.integers(ly_lo, ly_hi))
        if rng.integers(2) == 1:
            fx, fy = fy, fx
        hz = min(hz, top)
        pos = _place(rng, occupied, fx, fy, 1, 1 + hz)
        if pos is None:
            raise ExtentTooSmall(f"could not place box {i}")
        stamp(pos[0], pos[0] + fx, pos[1], pos[1] + fy, 1, 1 + hz, fine.index(cls))

    for i in range(spec.n_blobs):
        rx = int(rng.integers(2, 5))
        ry = int(rng.integers(2, 5))
        rz = int(rng.integers(1, 3))
        fx, fy = 2 * rx + 1, 2 * ry + 1
        z_lo = 1
        z_hi = min(z_lo + 2 * rz + 1, top + 1)
        pos = _place(rng, occupied, fx, fy, z_lo, z_hi)
        if pos is None:
            raise ExtentTooSmall(f"could not place blob {i}")
        xs = np.arange(fx) - rx
        ys_ = np.arange(fy) - ry
        zs = np.arange(z_hi - z_lo) - (z_hi - z_lo - 1) / 2.0
        mask = (
            (xs[:, None, None] / rx) ** 2
            + (ys_[None, :, None] / ry) ** 2
            + (zs[None, None, :] / max(rz, 1)) ** 2
        ) <= 1.0
        sub = labels[pos[0] : pos[0] + fx, pos[1] : pos[1] + fy, z_lo:z_hi]
        sub[mask] = fine.index("vegetation")
        occupied[pos[0] : pos[0] + fx, pos[1] : pos[1] + fy, z_lo:z_hi][mask] = True

    for i in range(spec.n_pillars):
        height = min(top, 5)
        pos = _place(rng, occupied, 1, 1, 1, 1 + height)
        if pos is None:
            raise ExtentTooSmall(f"could not place pillar {i}")
        stamp(pos[0], pos[0] + 1, pos[1], pos[1] + 1, 1, 1 + height, fine.index("pole"))

    for i in range(spec.n_posts):
        height = min(3, top)
        pos = _place(rng, occupied, 1, 1, 1, 1 + height)
        if pos is None:
            raise ExtentTooSmall(f"could not place post {i}")
        stamp(pos[0], pos[0] + 1, pos[1], pos[1] + 1, 1, 1 + height, fine.index("pedestrian"))

    return OccupancyGrid(
        dims=dims,
        voxel_size_m=spec.voxel_size_m,
        origin=(spec.extent.x_min, spec.extent.y_min, spec.extent.z_min),
        labels=labels,
        num_classes=len(fine),
    )


def beam_directions(lidar):
    """Unit ray directions, beam-major then azimuth-minor.

    Elevations are evenly spaced over the vertical field of view; azimuth
    steps are ceil(360 / horizontal resolution) around the full circle.
    """
    elev = np.deg2rad(np.linspace(lidar.vfov_min_deg, lidar.vfov_max_deg, lidar.beam_count))
    n_az = int(np.ceil(360.0 / lidar.horiz_angular_res_deg))
    az = np.deg2rad(np.arange(n_az) * lidar.horiz_angular_res_deg)
    ce, se = np.cos(elev), np.sin(elev)
    ca, sa = np.cos(az), np.sin(az)
    dirs = np.empty((lidar.beam_count, n_az, 3))
    dirs[:, :, 0] = ce[:, None] * ca[None, :]
    dirs[:, :, 1] = ce[:, None] * sa[None, :]
    dirs[:, :, 2] = se[:, None] * np.ones_like(ca)[None, :]
    return dirs.reshape(-1, 3)


def raycast(scene, lidar, sensor_pose):
    """Cast one ray per (beam, azimuth step) and return hit points.

    Rays march in uniform steps of half a voxel; each returns the center of
    the first non-empty voxel it samples, or nothing once max range is
    exceeded or the ray leaves the scene. Points come back (M, 3) float64 in
    beam-major, azimuth-minor order.
    """
    sensor_pose = np.asarray(sensor_pose, dtype=np.float64)
    if not scene.extent.contains_point(sensor_pose):
        raise ValueError(f"sensor pose {sensor_pose.tolist()} outside scene extent")
    dirs = beam_directions(lidar)
    step = scene.voxel_size_m / 2.0
    n_steps = int(np.floor(lidar.max_range_m / step))
    hits = march_rays(
        sensor_pose,
        dirs,
        step,
        n_steps,
        scene.labels,
        np.asarray(scene.origin),
        scene.voxel_size_m,
        0,
    )
    hits = hits[hits[:, 0] >= 0]
    return np.stack([scene.lattice.centers(ax)[hits[:, ax]] for ax in range(3)], axis=1)


def resample_labels(scene, proj, dims, voxel_size, origin):
    """Look up the scene label under each target voxel center and project it.

    Centers outside the scene read as empty (``Lattice.resample``).
    """
    fine = Lattice(dims, voxel_size, origin).resample(scene, FINE_SPACE.empty_id)
    return np.asarray(proj)[fine.labels].astype(np.uint16)


def derive_dataset_view(scene, taxonomy, dataset):
    """One dataset's view of a scene: cropped point cloud plus projected GT.

    The cloud is the raycast of the dataset's sensor cropped to its point
    range; the GT grid is the scene relabeled through the dataset projection
    and resampled onto the dataset's gt_range / grid_dims lattice.
    """
    sensor_pose = default_sensor_pose(scene, mount_z=SENSOR_MOUNT_Z.get(dataset.name))
    cloud = raycast(scene, dataset.lidar, sensor_pose)
    cloud = crop_points(cloud, dataset.point_range)
    labels = resample_labels(
        scene,
        taxonomy.project(dataset.name),
        dataset.grid_dims,
        dataset.voxel_size_m,
        dataset.gt_range.mins,
    )
    grid = OccupancyGrid(
        dims=dataset.grid_dims,
        voxel_size_m=dataset.voxel_size_m,
        origin=tuple(dataset.gt_range.mins),
        labels=labels,
        num_classes=len(dataset.label_space),
    )
    return cloud, grid


def cloud_encode(cloud):
    """Serialize a point cloud to MPLY v1: magic | version u16 | count u32 | xyz f64."""
    cloud = np.asarray(cloud, dtype=np.float64).reshape(-1, 3)
    stream = StreamWriter(MPLY_MAGIC, MPLY_VERSION)
    stream.pack("I", cloud.shape[0])
    stream.array(cloud, "<f8")
    return stream.getvalue()


def cloud_decode(data):
    """Inverse of :func:`cloud_encode`; any fault raises a CodecError."""
    with StreamReader(data, MPLY_MAGIC, MPLY_VERSION) as stream:
        (count,) = stream.unpack("I")
        cloud = stream.array("<f8", 3 * count).reshape(count, 3)
    return cloud
