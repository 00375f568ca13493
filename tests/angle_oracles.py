"""Angles measured from points, kept as test oracles for the line route.

The sphere and the plane measure an angle between two lines
(``PlaneModel.line_angle``), and a cevian frame measures its angles p, q
and r at o between the cevian lines it built for its feet.  The point
route measures the angle at a vertex v from the points themselves: on the
sphere between the unit tangents at v toward p and q, in the plane by the
atan2 of the cross and dot products of p - v and q - v, and on the
hyperboloid by ``HyperboloidModel.angle``, which stays the model's own.
The tests hold the line route to these.
"""

import math

from ccplane.errors import DegenerateInputError
from ccplane.kernel import Geometry

# The coincidence threshold of both point routes.
_EPS = 1e-10


def sphere_tangent(p, q):
    """Unit tangent at p toward q, both unit vectors."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    c0 = p1 * q2 - p2 * q1
    c1 = p2 * q0 - p0 * q2
    c2 = p0 * q1 - p1 * q0
    if math.sqrt(c0 * c0 + c1 * c1 + c2 * c2) <= _EPS:
        raise DegenerateInputError("direction undefined for coincident or antipodal points")
    m = p0 * q0 + p1 * q1 + p2 * q2
    w0, w1, w2 = q0 - m * p0, q1 - m * p1, q2 - m * p2
    s = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    return (w0 / s, w1 / s, w2 / s)


def sphere_angle(v, p, q):
    """Angle at the SpherePoint v between the tangents toward p and q."""
    x0, x1, x2 = sphere_tangent(v.v, p.v)
    y0, y1, y2 = sphere_tangent(v.v, q.v)
    c = x0 * y0 + x1 * y1 + x2 * y2
    w0, w1, w2 = y0 - c * x0, y1 - c * x1, y2 - c * x2
    s = math.sqrt(max(w0 * w0 + w1 * w1 + w2 * w2, 0.0))
    return math.atan2(s, c)


def plane_angle(v, p, q):
    """Angle at the euclidean point v between p - v and q - v."""
    ax, ay = p[0] - v[0], p[1] - v[1]
    bx, by = q[0] - v[0], q[1] - v[1]
    if math.hypot(ax, ay) <= _EPS or math.hypot(bx, by) <= _EPS:
        raise DegenerateInputError("cannot take a direction between coincident points")
    return abs(math.atan2(ax * by - ay * bx, ax * bx + ay * by))


POINT_ANGLE = {
    Geometry.HYPERBOLIC: Geometry.HYPERBOLIC.model.angle,
    Geometry.SPHERICAL: sphere_angle,
    Geometry.EUCLIDEAN: plane_angle,
}


def point_route_angles(frame):
    """The frame's angles BOF, AOF and BOD at o, measured from its points."""
    angle = POINT_ANGLE[frame.tri.geometry]
    tri, o = frame.tri, frame.o
    return angle(o, tri.b, frame.f), angle(o, tri.a, frame.f), angle(o, tri.b, frame.d)
