"""Constant-curvature plane geometry with verified classical identities.

Cevian ratio sums, Menelaus and Ceva products, Lambert's median ratio
and Lexell-style equal-area loci, on the hyperbolic plane (hyperboloid
model), the unit sphere and the Euclidean plane.
"""

from .corevec import BACKEND
from .kernel import (
    ORIGIN,
    DiskPoint,
    Geometry,
    HPoint,
    SpherePoint,
    disk_to_hpoint,
    hdist,
    hpoint_to_disk,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ORIGIN",
    "DiskPoint",
    "Geometry",
    "HPoint",
    "SpherePoint",
    "disk_to_hpoint",
    "hdist",
    "hpoint_to_disk",
    "__version__",
]
