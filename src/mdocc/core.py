"""Shared domain types, the voxel lattice, the MOCC grid codec, the package's
exceptions, seeded random-stream plumbing, and the exact column-sum and
row-vector kernels of the training loop.

Conventions used across the whole package:

* grid dims are ``(D, H, W)`` = (cells along x, cells along y, cells along z),
  stored row-major with D outermost and W innermost;
* voxel ``i`` of a lattice with cubic voxel size ``v`` covers
  ``[origin + i * v, origin + (i + 1) * v)`` on each axis; its center is
  ``origin + (i + 0.5) * v``, and a coordinate ``x`` lies in voxel
  ``floor((x - origin) / v)``. :class:`Lattice` is the only place that
  computes either;
* labels are unsigned 16-bit class ids;
* all floating-point math is 64-bit.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

MOCC_MAGIC = b"MOCC"
MOCC_VERSION = 1


class CodecError(ValueError):
    """Malformed binary stream; ``offset`` is the byte position of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte offset {offset})")
        self.message = message
        self.offset = offset


class BadMagic(CodecError):
    pass


class VersionUnsupported(CodecError):
    pass


class TruncatedPayload(CodecError):
    pass


class DimMismatch(ValueError):
    """Array, grid or mapping dimensions that must agree do not."""


class UnknownDataset(KeyError):
    """A dataset id with no head, statistic set or mapping registered."""


def rng_stream(seed, tag):
    """Deterministic, platform-independent random source for (seed, tag).

    Identical (seed, tag) pairs yield identical draw sequences; distinct tags
    (or seeds) yield independent streams. Every randomized operation in the
    package draws only from streams created here.
    """
    digest = hashlib.sha256(f"{int(seed) & 0xFFFFFFFFFFFFFFFF}:{tag}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def colsum(a, b=None):
    """Column sums of an (N, h) array, or of ``a * b`` when ``b`` is given,
    equal bit for bit to ``a.sum(axis=0)`` and ``(a * b).sum(axis=0)``.

    numpy reduces axis 0 of a C-contiguous array row by row when h >= 2, and
    einsum adds in that same order, about 3x faster and without forming the
    product. A single column is summed pairwise, so h = 1 (like any
    non-contiguous input) takes numpy's own sum.
    """
    plain = a.shape[1] < 2 or not a.flags.c_contiguous
    if b is None:
        return a.sum(axis=0) if plain else np.einsum("ij->j", a)
    if plain or not b.flags.c_contiguous:
        return (a * b).sum(axis=0)
    return np.einsum("ij,ij->j", a, b)


def rowwise(op, a, v, out=None):
    """``op(a, v, out=out)`` for an (N, h) array and an (h,) vector, computed
    on an (N/k, h*k) view with ``v`` tiled k times, k = gcd(N, 512).

    The op is elementwise, so every element is the same; numpy runs one long
    inner loop per view row instead of one loop of length h per row.
    """
    if out is None:
        out = np.empty(a.shape, np.result_type(a, v))
    n, h = a.shape
    k = math.gcd(n, 512)
    if k > 1 and a.flags.c_contiguous and out.flags.c_contiguous:
        op(a.reshape(n // k, h * k), np.tile(v, k), out=out.reshape(n // k, h * k))
    else:
        op(a, v, out=out)
    return out


@dataclass(frozen=True)
class Range3D:
    """Axis-aligned spatial extent in meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        vals = (self.x_min, self.x_max, self.y_min, self.y_max, self.z_min, self.z_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"range bounds must be finite, got {vals}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise ValueError(f"degenerate range: {vals}")

    @property
    def mins(self):
        return np.array([self.x_min, self.y_min, self.z_min])

    @property
    def maxs(self):
        return np.array([self.x_max, self.y_max, self.z_max])

    @property
    def spans(self):
        return self.maxs - self.mins

    def contains_point(self, p):
        """Half-open membership test: min <= coord < max on every axis."""
        p = np.asarray(p, dtype=np.float64)
        return bool(np.all(p >= self.mins) and np.all(p < self.maxs))

    def contains_range(self, other):
        return bool(np.all(other.mins >= self.mins) and np.all(other.maxs <= self.maxs))


@dataclass(frozen=True)
class LidarConfig:
    """Spinning-LiDAR beam geometry."""

    beam_count: int
    vfov_min_deg: float
    vfov_max_deg: float
    horiz_angular_res_deg: float
    max_range_m: float

    def __post_init__(self):
        if self.beam_count < 2:
            raise ValueError(f"beam_count must be >= 2, got {self.beam_count}")
        if not self.vfov_min_deg < self.vfov_max_deg:
            raise ValueError("vfov_min_deg must be < vfov_max_deg")
        if self.horiz_angular_res_deg <= 0:
            raise ValueError("horiz_angular_res_deg must be > 0")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be > 0")


@dataclass(frozen=True)
class LabelSpace:
    """Ordered class taxonomy with a reserved unoccupied class."""

    names: tuple
    empty_id: int

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"class names must be distinct: {self.names}")
        if not self.names:
            raise ValueError("label space must contain at least one class")
        if not 0 <= self.empty_id < len(self.names):
            raise ValueError(f"empty_id {self.empty_id} out of range for {len(self.names)} classes")

    def __len__(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)


def _whole_voxels(lengths, voxel):
    """Voxel counts of ``lengths``, which must be whole multiples of ``voxel``."""
    lengths = np.asarray(lengths, dtype=np.float64)
    counts = np.rint(lengths / voxel).astype(np.int64)
    if not np.allclose(counts * voxel, lengths, rtol=1e-9, atol=1e-9):
        raise ValueError(f"{lengths.tolist()} m is not a whole number of {voxel} m voxels")
    return counts


@dataclass(frozen=True)
class Lattice:
    """Regular lattice of cubic voxels (see the module docstring for the
    cell, center and lookup conventions)."""

    dims: tuple
    voxel: float
    origin: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "voxel", float(self.voxel))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))

    @classmethod
    def over(cls, rng, voxel):
        """The lattice whose voxels tile ``rng`` exactly; raises ValueError
        when a span is not a whole number of voxels."""
        dims = _whole_voxels(rng.spans, voxel)
        if np.any(dims < 1):
            raise ValueError(f"range {rng} is smaller than one {voxel} m voxel")
        return cls(dims, voxel, rng.mins)

    @property
    def extent(self):
        hi = [o + d * self.voxel for o, d in zip(self.origin, self.dims)]
        return Range3D(self.origin[0], hi[0], self.origin[1], hi[1], self.origin[2], hi[2])

    def centers(self, axis):
        """World coordinates of the voxel centers along one axis."""
        return self.origin[axis] + (np.arange(self.dims[axis]) + 0.5) * self.voxel

    def index_of(self, coords, axis=None):
        """Index of the voxel holding each coordinate, by floor lookup.

        ``coords`` are points (..., 3) or, with ``axis`` given, coordinates
        along that axis. A coordinate on a voxel boundary belongs to the voxel
        whose low corner it touches. Indices are not bounds-checked.
        """
        origin = np.asarray(self.origin) if axis is None else self.origin[axis]
        return np.floor((coords - origin) / self.voxel).astype(np.int64)

    def crop(self, rng):
        """Index slices of the voxels that tile ``rng``, a sub-range whose
        bounds lie on this lattice's voxel boundaries."""
        lo = _whole_voxels(rng.mins - np.asarray(self.origin), self.voxel)
        hi = _whole_voxels(rng.maxs - np.asarray(self.origin), self.voxel)
        if np.any(lo < 0) or np.any(hi > np.asarray(self.dims)):
            raise ValueError(f"crop range {rng} exceeds the lattice extent {self.extent}")
        return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))

    def resample(self, grid, empty_id):
        """Nearest-center resample of a label grid onto this lattice.

        Each voxel takes the source label under its center; centers outside
        the source read as ``empty_id``.
        """
        src = grid.lattice
        idx = []
        valid = []
        for ax in range(3):
            i = src.index_of(self.centers(ax), ax)
            valid.append((i >= 0) & (i < src.dims[ax]))
            idx.append(np.clip(i, 0, src.dims[ax] - 1))
        labels = grid.labels[np.ix_(*idx)]
        labels[~(valid[0][:, None, None] & valid[1][None, :, None] & valid[2][None, None, :])] = empty_id
        return OccupancyGrid(
            dims=self.dims, voxel_size_m=self.voxel, origin=self.origin, labels=labels,
            num_classes=grid.num_classes,
        )


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Dense voxel label volume.

    ``labels`` is a (D, H, W) uint16 array; ``origin`` is the world coordinate
    of the (0, 0, 0) voxel corner.
    """

    dims: tuple
    voxel_size_m: float
    origin: tuple
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if len(self.origin) != 3 or not all(math.isfinite(v) for v in self.origin):
            raise ValueError(f"origin must be a finite 3-vector, got {self.origin}")
        if not (math.isfinite(self.voxel_size_m) and self.voxel_size_m > 0):
            raise ValueError(f"voxel_size_m must be > 0, got {self.voxel_size_m}")
        if not 1 <= int(self.num_classes) <= 0xFFFF:
            raise ValueError(f"num_classes must be in [1, 65535], got {self.num_classes}")
        labels = np.asarray(self.labels)
        if labels.ndim == 1:
            if labels.size != dims[0] * dims[1] * dims[2]:
                raise ValueError(f"label count {labels.size} does not match dims {dims}")
            labels = labels.reshape(dims)
        if labels.shape != dims:
            raise ValueError(f"label shape {labels.shape} does not match dims {dims}")
        if labels.size and int(labels.max()) >= self.num_classes:
            raise ValueError(
                f"label id {int(labels.max())} exceeds class count {self.num_classes}"
            )
        object.__setattr__(self, "labels", _freeze(labels.astype(np.uint16)))
        object.__setattr__(self, "num_classes", int(self.num_classes))

    def __eq__(self, other):
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.num_classes == other.num_classes
            and np.array_equal(self.labels, other.labels)
        )

    @property
    def lattice(self):
        return Lattice(self.dims, self.voxel_size_m, self.origin)

    @property
    def extent(self):
        return self.lattice.extent


@dataclass(frozen=True)
class DatasetSpec:
    """Per-dataset sensor, range, grid, and taxonomy configuration."""

    name: str
    lidar: LidarConfig
    point_range: Range3D
    gt_range: Range3D
    grid_dims: tuple
    label_space: LabelSpace

    def __post_init__(self):
        object.__setattr__(self, "grid_dims", tuple(int(d) for d in self.grid_dims))
        if not self.point_range.contains_range(self.gt_range) and self.gt_range != self.point_range:
            raise ValueError(f"{self.name}: gt_range must lie within point_range")
        if Lattice.over(self.gt_range, self.voxel_size_m).dims != self.grid_dims:
            raise ValueError(f"{self.name}: grid_dims {self.grid_dims} do not tile gt_range uniformly")

    @property
    def voxel_size_m(self):
        return float(self.gt_range.spans[0] / self.grid_dims[0])


class StreamWriter:
    """Builds one binary stream: ``magic | u16 version``, then little-endian
    fields, u16-length UTF-8 names and arrays, in the order
    :class:`StreamReader` reads them back."""

    def __init__(self, magic, version):
        self.parts = [struct.pack("<4sH", magic, version)]

    def pack(self, fmt, *values):
        self.parts.append(struct.pack("<" + fmt, *values))

    def name(self, text):
        raw = text.encode()
        self.pack("H", len(raw))
        self.parts.append(raw)

    def array(self, arr, dtype):
        self.parts.append(np.asarray(arr).astype(dtype).tobytes(order="C"))

    def getvalue(self):
        return b"".join(self.parts)


class StreamReader:
    """Bounds-checked cursor over a stream written by :class:`StreamWriter`.

    Every fault is a CodecError: a wrong magic is :class:`BadMagic` at
    offset 0, another version :class:`VersionUnsupported` at 4, and a field
    that runs past the end :class:`TruncatedPayload` at the stream's length.
    Used as a context manager around a decode, it refuses bytes left over at
    the end of the block, and turns a ValueError, KeyError or IndexError
    raised in it into a CodecError at the offset read up to.
    """

    def __init__(self, data, magic, version):
        self.data = bytes(data)
        self.offset = 0
        if self.data[:4] != magic:
            raise BadMagic(f"expected magic {magic!r}, got {self.data[:4]!r}", 0)
        _, got = self.unpack("4sH")
        if got != version:
            raise VersionUnsupported(f"version {got} unsupported (expected {version})", 4)

    def take(self, n):
        if self.offset + n > len(self.data):
            raise TruncatedPayload(f"stream ends inside a {n}-byte field at {self.offset}",
                                   len(self.data))
        self.offset += n
        return self.data[self.offset - n : self.offset]

    def unpack(self, fmt):
        layout = struct.Struct("<" + fmt)
        return layout.unpack(self.take(layout.size))

    def name(self):
        return self.take(self.unpack("H")[0]).decode()

    def array(self, dtype, count):
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype).copy()

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if kind is None and self.offset != len(self.data):
            extra = len(self.data) - self.offset
            raise CodecError(f"{extra} trailing bytes after the payload", self.offset)
        if isinstance(err, (ValueError, KeyError, IndexError)) and not isinstance(err, CodecError):
            raise CodecError(f"inconsistent content: {err!r}", self.offset) from None


def decode_file(path, decode):
    """``decode`` of the bytes of the file at ``path``. A CodecError it raises
    comes out of the same kind and at the same offset, naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return decode(data)
    except CodecError as e:
        raise type(e)(f"{path}: {e.message}", e.offset) from None


def grid_encode(grid):
    """Serialize an occupancy grid to the MOCC v1 little-endian layout.

    magic "MOCC" | version u16 | D,H,W u32 | voxel_size f64 | origin xyz f64
    | class count u16 | D*H*W labels u16 row-major.
    """
    stream = StreamWriter(MOCC_MAGIC, MOCC_VERSION)
    stream.pack("IIIddddH", *grid.dims, grid.voxel_size_m, *grid.origin, grid.num_classes)
    stream.array(grid.labels, "<u2")
    return stream.getvalue()


def grid_decode(data):
    """Inverse of :func:`grid_encode`; any fault raises a CodecError."""
    with StreamReader(data, MOCC_MAGIC, MOCC_VERSION) as stream:
        d, h, w, voxel, ox, oy, oz, classes = stream.unpack("IIIddddH")
        grid = OccupancyGrid(
            dims=(d, h, w),
            voxel_size_m=voxel,
            origin=(ox, oy, oz),
            labels=stream.array("<u2", d * h * w),
            num_classes=classes,
        )
    return grid
