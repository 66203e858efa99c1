"""Energy-based refinement of oriented 3D bounding boxes.

Core pieces: differentiable BEV box pooling over a feature grid, a small
energy network with analytic gradients w.r.t. both parameters and the box,
noise-contrastive training, gradient-ascent refinement, and KITTI-protocol
average-precision evaluation, all exercised on a synthetic BEV harness.
"""

__version__ = "0.1.0"

from .geometry import Box3D, iou_3d, pair_iou

__all__ = [
    "__version__",
    "Box3D",
    "iou_3d",
    "pair_iou",
]
