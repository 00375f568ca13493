"""Deterministic sample generators for the verification campaigns.

Every draw comes from a ``substream`` (defined in ``kernel`` and
importable from here): an independent stream per campaign, trial index
and geometry that reproduces exactly across platforms and processes.
"""

from __future__ import annotations

import math
import random

from .cevians import Triangle, cevian_frame
from .errors import GeometryError, InfeasibleGeometryError
from .kernel import Geometry, substream

# Rejection thresholds keeping sampled triangles numerically honest.
_MIN_SIDE = 0.05
_MIN_ANGLE = 0.15

# First-order rounding bound on |corner_cosines - cos(angle)| for draws
# from the disks below with every side at least _MIN_SIDE, where the angle
# is ``line_angle`` between the lines through the vertex: 2.2e-11 on the
# hyperboloid (coordinates up to cosh 3 in size), 2.9e-13 on the sphere
# and 8.9e-13 in the plane.  The derivation is in CHANGES.md; the margin
# is the largest bound, rounded up.
_PRETEST_MARGIN = 3e-11
_THIN_COS = math.cos(_MIN_ANGLE) + _PRETEST_MARGIN
_FAT_COS = math.cos(_MIN_ANGLE) - _PRETEST_MARGIN

# Triangles drawn before the sampler gives up.  About one in four is
# kept on the hyperbolic plane, so a working stream never comes close.
MAX_TRIANGLE_ATTEMPTS = 1000

# Radius of the sampling disk around the base point.
_HYP_RADIUS = 3.0
_SPH_RADIUS = 0.6
_EUC_RADIUS = 3.0

# Area-uniform distance from the base point for a uniform draw u: the
# disk area grows like cosh r - 1, 1 - cos r and r^2 respectively.
_HYP_AREA = math.cosh(_HYP_RADIUS) - 1.0
_SPH_AREA = 1.0 - math.cos(_SPH_RADIUS)
_DISK_RADIUS = {
    Geometry.HYPERBOLIC: lambda u: math.acosh(1.0 + u * _HYP_AREA),
    Geometry.SPHERICAL: lambda u: math.acos(1.0 - u * _SPH_AREA),
    Geometry.EUCLIDEAN: lambda u: _EUC_RADIUS * math.sqrt(u),
}


def _polar_draw(radius, rng: random.Random) -> tuple[float, float]:
    r = radius(rng.random())
    return rng.random() * 2.0 * math.pi, r


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

    Each draw takes its three vertices in polar coordinates around the
    base point and first runs the model's law of cosines on them
    (``corner_cosines``), with no point built.  A corner thinner than
    _MIN_ANGLE by more than _PRETEST_MARGIN (in cosine) rejects the draw
    at once; when every corner is fatter by that margin, the exact angle
    test is skipped.  Inside the margin, or when the pre-test is
    undefined (coincident vertices), the exact ``angle`` test decides.
    The margin bounds the gap between the two cosines, so every draw is
    kept or rejected exactly as the exact test alone would decide.  Kept
    draws are still built as a validated Triangle and pass the side floor.

    Raises InfeasibleGeometryError after MAX_TRIANGLE_ATTEMPTS rejected
    draws; errors other than GeometryError propagate at once.
    """
    model = geometry.model
    radius = _DISK_RADIUS[geometry]
    for _ in range(MAX_TRIANGLE_ATTEMPTS):
        polar = [_polar_draw(radius, rng), _polar_draw(radius, rng),
                 _polar_draw(radius, rng)]
        cosines = model.corner_cosines(polar)
        exact = True
        if cosines is not None:
            thinnest = max(cosines)
            if thinnest > _THIN_COS:
                continue
            exact = thinnest >= _FAT_COS
        try:
            tri = Triangle(geometry, *(model.polar(t, r) for t, r in polar))
        except GeometryError:
            continue
        if min(tri.side_lengths()) < _MIN_SIDE:
            continue
        if exact and not _angles_ok(tri):
            continue
        return tri
    raise InfeasibleGeometryError(
        f"no acceptable {geometry.value} triangle in {MAX_TRIANGLE_ATTEMPTS} attempts"
    )


def sample_interior_point(tri: Triangle, rng: random.Random):
    """Point strictly inside the triangle.

    A positive combination of the vertices' homogeneous vectors
    (``model.lift``) is a convex combination in the central projection,
    in which lines are straight, so ``model.project`` takes it to a point
    inside the triangle on every plane.  Weights are bounded away from
    zero to keep the point off the sides.
    """
    w = [0.1 + 0.9 * rng.random() for _ in range(3)]
    s = sum(w)
    w0, w1, w2 = w[0] / s, w[1] / s, w[2] / s
    model = tri.geometry.model
    a0, a1, a2 = model.lift(tri.a)
    b0, b1, b2 = model.lift(tri.b)
    c0, c1, c2 = model.lift(tri.c)
    return model.project((w0 * a0 + w1 * b0 + w2 * c0, w0 * a1 + w1 * b1 + w2 * c1,
                          w0 * a2 + w1 * b2 + w2 * c2))


def sample_frame(geometry: Geometry, rng: random.Random):
    """Random cevian frame: a sampled triangle with an interior point."""
    tri = sample_triangle(geometry, rng)
    return cevian_frame(tri, sample_interior_point(tri, rng))
