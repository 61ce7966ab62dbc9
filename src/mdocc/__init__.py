"""mdocc: a desk-scale multi-dataset LiDAR occupancy toolkit.

Synthetic heterogeneous-LiDAR datasets, geometric realignment, a toy
multi-head occupancy model with four training regimes, unified label-space
learning, coarse-to-fine refinement, and cross-domain IoU/mIoU evaluation.
"""
