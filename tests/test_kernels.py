import numpy as np

from mdocc.kernels import march_rays


def test_numpy_path_misses_marked():
    labels = np.zeros((4, 4, 4), dtype=np.uint16)
    dirs = np.array([[1.0, 0.0, 0.0]])
    pose = np.array([0.5, 0.5, 0.5])
    hits = march_rays(pose, dirs, 0.25, 100, labels, np.zeros(3), 1.0, 0)
    assert hits.tolist() == [[-1, -1, -1]]
