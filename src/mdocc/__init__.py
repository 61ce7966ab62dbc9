"""mdocc: a desk-scale multi-dataset LiDAR occupancy toolkit.

Synthetic heterogeneous-LiDAR datasets, geometric realignment, a toy
multi-head occupancy model with four training regimes, unified label-space
learning, coarse-to-fine refinement, and cross-domain IoU/mIoU evaluation.
"""

from .align import (
    CylGridSpec,
    EmptyIntersection,
    NormState,
    crop_points,
    cylindrical_voxelize,
    dsnorm_forward,
    dsnorm_update_shared,
    intersect_ranges,
)
from .core import (
    BadMagic,
    CodecError,
    DatasetSpec,
    DimMismatch,
    LabelSpace,
    Lattice,
    LidarConfig,
    OccupancyGrid,
    Range3D,
    TruncatedPayload,
    UnknownDataset,
    VersionUnsupported,
    grid_decode,
    grid_encode,
    rng_stream,
)
from .labelspace import (
    InfeasibleCover,
    MappingMatrix,
    MergeCandidate,
    UnifiedSpace,
    enumerate_candidates,
    merge_cost,
    merged_score,
    reproject,
    solve_unified,
    transcode,
)
from .metrics import ConfusionMatrix, accumulate, cross_eval, geometric_iou, miou
from .model import (
    DivergedLoss,
    ModelParams,
    backward,
    balanced_batches,
    loss_ce,
    train,
)
from .refine import (
    VoxelQuerySet,
    occupied_voxels,
    refine_and_reassemble,
    sample_features,
    split_voxels,
)
from .scenes import (
    ExtentTooSmall,
    SceneSpec,
    TaxonomyMap,
    derive_dataset_view,
    gen_scene,
    raycast,
    taxonomy_preset,
)

__version__ = "0.1.0"
