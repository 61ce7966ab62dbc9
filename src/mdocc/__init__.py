"""mdocc: a desk-scale multi-dataset LiDAR occupancy toolkit.

Synthetic heterogeneous-LiDAR datasets, geometric realignment, a toy
multi-head occupancy model with four training regimes, unified label-space
learning, coarse-to-fine refinement, and cross-domain IoU/mIoU evaluation.
"""

import os

# One BLAS thread per process unless the caller set one: the pools fork one
# worker per core, and OpenBLAS's own threads on top of them oversubscribe
# the cores. BLAS reads these at load, so this holds only when mdocc is
# imported before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
