"""Angles measured from points, kept as test oracles for the line route.

Every plane measures an angle between two lines (``PlaneModel.line_angle``):
the angle at a vertex v is the one between the lines from v to p and
from v to q, and a cevian frame measures its angles p, q and r at o
between the cevian lines it built for its feet.  The point route measures
the angle at v from the points themselves: on the hyperboloid and the
sphere between the unit tangents at v toward p and q, and in the plane by
the atan2 of the cross and dot products of p - v and q - v.  On the
hyperboloid it first moves a vertex past ``_RECENTRE_LIMIT`` onto the
origin, as the model does.  The tests hold the line route to these.
"""

import math

from ccplane.constants import TOL_POINT
from ccplane.errors import DegenerateInputError
from ccplane.kernel import _RECENTRE_LIMIT, ORIGIN, Geometry, HyperboloidModel, hdist

# The coincidence threshold of the sphere's and the plane's point routes.
_EPS = 1e-10


def hyperboloid_tangent(p, q):
    """Unit tangent at p toward q, both on the upper sheet, as
    ``corevec.mtangent`` computes it."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    m = -p0 * q0 + p1 * q1 + p2 * q2
    w0, w1, w2 = q0 + m * p0, q1 + m * p1, q2 + m * p2
    if m > -2.0:
        s = math.sqrt(-w0 * w0 + w1 * w1 + w2 * w2)
    else:
        # Far apart, the squared components of w cancel catastrophically;
        # the norm is sqrt(m^2 - 1) identically, so use that instead.
        s = math.sqrt(m * m - 1.0)
    return (w0 / s, w1 / s, w2 / s)


def hyperboloid_angle(v, p, q):
    """Angle at the HPoint v between the tangents toward p and q."""
    if hdist(v.v, p.v) <= TOL_POINT or hdist(v.v, q.v) <= TOL_POINT:
        raise DegenerateInputError("cannot take a direction between coincident points")
    if v.v[0] > _RECENTRE_LIMIT:
        rp, rq = HyperboloidModel._recentre(v.v, (p.v, q.v))
        x0, x1, x2 = hyperboloid_tangent(ORIGIN.v, rp)
        y0, y1, y2 = hyperboloid_tangent(ORIGIN.v, rq)
    else:
        x0, x1, x2 = hyperboloid_tangent(v.v, p.v)
        y0, y1, y2 = hyperboloid_tangent(v.v, q.v)
    c = -x0 * y0 + x1 * y1 + x2 * y2
    w0, w1, w2 = y0 - c * x0, y1 - c * x1, y2 - c * x2
    s = math.sqrt(max(-w0 * w0 + w1 * w1 + w2 * w2, 0.0))
    return math.atan2(s, c)


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
    Geometry.HYPERBOLIC: hyperboloid_angle,
    Geometry.SPHERICAL: sphere_angle,
    Geometry.EUCLIDEAN: plane_angle,
}


def point_route_angles(frame):
    """The frame's angles BOF, AOF and BOD at o, measured from its points."""
    angle = POINT_ANGLE[frame.tri.geometry]
    tri, o = frame.tri, frame.o
    return angle(o, tri.b, frame.f), angle(o, tri.a, frame.f), angle(o, tri.b, frame.d)
