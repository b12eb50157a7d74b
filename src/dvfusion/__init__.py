"""dvfusion: dense 3D displacement vector fields from two-epoch point clouds.

Fuses feature-based 3D patch matching with image-derived 2D correspondences
over a hierarchical partition of the scene, refines candidate matches by
distance-deviation screening, and integrates per-patch rigid motions into a
per-point displacement field with provenance.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    RigidTransform,
    kabsch,
    icp_point_to_point,
    local_covariance_features,
    mean_scan_resolution,
)
