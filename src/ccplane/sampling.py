"""Deterministic sample generators for the verification campaigns.

Streams are seeded with a string "label:seed:index" so that every
campaign, trial index, and geometry gets an independent substream that
reproduces exactly across platforms and processes.
"""

from __future__ import annotations

import math
import random

from .cevians import Triangle, cevian_frame
from .errors import GeometryError, InfeasibleGeometryError
from .kernel import Geometry

# Rejection thresholds keeping sampled triangles numerically honest.
_MIN_SIDE = 0.05
_MIN_ANGLE = 0.15

# Triangles drawn before the sampler gives up.  About one in four is
# kept on the hyperbolic plane, so a working stream never comes close.
MAX_TRIANGLE_ATTEMPTS = 1000

# Radius of the sampling disk around the base point.
_HYP_RADIUS = 3.0
_SPH_RADIUS = 0.6
_EUC_RADIUS = 3.0

# Area-uniform distance from the base point for a uniform draw u: the
# disk area grows like cosh r - 1, 1 - cos r and r^2 respectively.
_DISK_RADIUS = {
    Geometry.HYPERBOLIC: lambda u: math.acosh(1.0 + u * (math.cosh(_HYP_RADIUS) - 1.0)),
    Geometry.SPHERICAL: lambda u: math.acos(1.0 - u * (1.0 - math.cos(_SPH_RADIUS))),
    Geometry.EUCLIDEAN: lambda u: _EUC_RADIUS * math.sqrt(u),
}


def substream(label: str, seed: int, index: int = 0) -> random.Random:
    """Independent RNG for one (campaign, trial) pair."""
    return random.Random(f"{label}:{seed}:{index}")


def _disk_point(geometry: Geometry, rng: random.Random):
    r = _DISK_RADIUS[geometry](rng.random())
    theta = rng.random() * 2.0 * math.pi
    return geometry.model.polar(theta, r)


def _angles_ok(tri: Triangle) -> bool:
    angle = tri.geometry.model.angle
    corners = (
        (tri.a, tri.b, tri.c),
        (tri.b, tri.c, tri.a),
        (tri.c, tri.a, tri.b),
    )
    return all(angle(v, p, q) >= _MIN_ANGLE for v, p, q in corners)


def sample_triangle(geometry: Geometry, rng: random.Random) -> Triangle:
    """Random nondegenerate triangle, rejection-sampled for fat corners.

    Raises InfeasibleGeometryError after MAX_TRIANGLE_ATTEMPTS rejected
    draws; errors other than GeometryError propagate at once.
    """
    for _ in range(MAX_TRIANGLE_ATTEMPTS):
        verts = (_disk_point(geometry, rng), _disk_point(geometry, rng),
                 _disk_point(geometry, rng))
        try:
            tri = Triangle(geometry, *verts)
        except GeometryError:
            continue
        if min(tri.side_lengths()) < _MIN_SIDE:
            continue
        if not _angles_ok(tri):
            continue
        return tri
    raise InfeasibleGeometryError(
        f"no acceptable {geometry.value} triangle in {MAX_TRIANGLE_ATTEMPTS} attempts"
    )


def sample_interior_point(tri: Triangle, rng: random.Random):
    """Point strictly inside the triangle.

    A positive combination of the vertex vectors, renormalized, stays
    inside on the hyperboloid and the sphere because central projection
    turns it into a convex combination; in the plane it is one already.
    Weights are bounded away from zero to keep the point off the sides.
    """
    w = [0.1 + 0.9 * rng.random() for _ in range(3)]
    s = sum(w)
    w = [x / s for x in w]
    model = tri.geometry.model
    a, b, c = model.coords(tri.a), model.coords(tri.b), model.coords(tri.c)
    return model.project(
        tuple(w[0] * a[i] + w[1] * b[i] + w[2] * c[i] for i in range(len(a)))
    )


def sample_frame(geometry: Geometry, rng: random.Random):
    """Random cevian frame: a sampled triangle with an interior point."""
    tri = sample_triangle(geometry, rng)
    return cevian_frame(tri, sample_interior_point(tri, rng))
