"""Deterministic sample generators for the verification campaigns.

Every draw comes from a ``substream`` (defined in ``kernel`` and
importable from here): an independent stream per campaign, trial index
and geometry that reproduces exactly across platforms and processes.
A triangle draw meets its angle floor or not on its polar coordinates,
by the law of cosines the three planes share
(``PlaneModel.corner_cosines``), and only a draw that meets it builds
its points.
"""

from __future__ import annotations

import math
import random

from .cevians import Triangle, cevian_frame
from .errors import GeometryError, InfeasibleGeometryError
from .kernel import Geometry, substream

# Rejection thresholds keeping sampled triangles numerically honest.  The
# angle floor is read on the law-of-cosines cosine: a corner is fat enough
# when its cosine is at most _MAX_COS.
_MIN_SIDE = 0.05
_MIN_ANGLE = 0.15
_MAX_COS = math.cos(_MIN_ANGLE)

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


def sample_triangle(geometry: Geometry, rng: random.Random) -> Triangle:
    """Random nondegenerate triangle, rejection-sampled for fat corners.

    Each draw takes its three vertices in polar coordinates around the
    base point, each vertex as two uniforms from ``rng``: first u, which
    gives the area-uniform distance r, then the heading theta.  It runs
    the model's law of cosines on them (``corner_cosines``), with no
    point built.  The draw is kept only when no side vanishes and every
    corner's cosine is at most cos(_MIN_ANGLE); otherwise it is rejected
    at once.  A kept draw is then built as a validated Triangle, and
    redrawn when that fails or a side is shorter than _MIN_SIDE.

    Raises InfeasibleGeometryError after MAX_TRIANGLE_ATTEMPTS rejected
    draws; errors other than GeometryError propagate at once.
    """
    model = geometry.model
    radius = _DISK_RADIUS[geometry]
    random = rng.random
    for _ in range(MAX_TRIANGLE_ATTEMPTS):
        r0 = radius(random())
        t0 = random() * 2.0 * math.pi
        r1 = radius(random())
        t1 = random() * 2.0 * math.pi
        r2 = radius(random())
        t2 = random() * 2.0 * math.pi
        cosines = model.corner_cosines(((t0, r0), (t1, r1), (t2, r2)))
        if cosines is None:
            continue
        # max(cosines) > _MAX_COS by max's own rule, the first kept unless
        # a later one compares greater, so a NaN decides as it does there.
        c, c1, c2 = cosines
        if c1 > c:
            c = c1
        if c2 > c:
            c = c2
        if c > _MAX_COS:
            continue
        try:
            tri = Triangle(geometry, model.polar(t0, r0), model.polar(t1, r1),
                           model.polar(t2, r2))
        except GeometryError:
            continue
        # min(tri.side_lengths()) >= _MIN_SIDE, by min's rule likewise.
        s, s1, s2 = tri.side_lengths()
        if s1 < s:
            s = s1
        if s2 < s:
            s = s2
        if s >= _MIN_SIDE:
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
    w0 = 0.1 + 0.9 * rng.random()
    w1 = 0.1 + 0.9 * rng.random()
    w2 = 0.1 + 0.9 * rng.random()
    # Left to right, as CPython 3.11's ``sum`` adds floats: the reference
    # streams and the goldens were written that way.
    s = w0 + w1 + w2
    w0, w1, w2 = w0 / s, w1 / s, w2 / s
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
