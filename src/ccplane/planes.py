"""The sphere's and the euclidean plane's models.

``kernel`` holds what every command runs: the point types, the
operations written once on ``PlaneModel`` and the hyperboloid's model,
which ``Geometry.HYPERBOLIC.model`` holds from import on.  Every
``ccplane`` command but a campaign on another plane is hyperbolic, so
the two other models live here: ``Geometry.model`` imports this module
the first time it is read on the sphere or the euclidean plane, and
builds that plane's model once.  A hyperbolic command never compiles it.
"""

from __future__ import annotations

import functools
import math
import operator

from .constants import MAX_SPHERICAL_SIDE
from .errors import GeometryError
from .kernel import NORTH_POLE, Geometry, PlaneModel, SpherePoint, Vec3


class SphereModel(PlaneModel):
    point_type = SpherePoint
    kappa = 1.0
    base = NORTH_POLE
    # pi/2 itself is out: tan, on which the stretch ratio and the cathetus
    # law rest, has its pole there.
    side_limit = math.nextafter(MAX_SPHERICAL_SIDE, 0.0)
    s_K = staticmethod(math.sin)
    s_K_inv = staticmethod(math.asin)
    t_K = staticmethod(math.tan)
    t_K_inv = staticmethod(math.atan)

    def dist(self, p: SpherePoint, q: SpherePoint) -> float:
        # atan2(|p x q|, p . q): stable at both ends of [0, pi].
        p0, p1, p2 = p.v
        q0, q1, q2 = q.v
        c0 = p1 * q2 - p2 * q1
        c1 = p2 * q0 - p0 * q2
        c2 = p0 * q1 - p1 * q0
        return math.atan2(math.sqrt(c0 * c0 + c1 * c1 + c2 * c2), p0 * q0 + p1 * q1 + p2 * q2)

    def polar(self, theta: float, r: float) -> SpherePoint:
        # The exponential map at the pole p = (0, 0, 1): cos(r) p + sin(r) n
        # toward n = (cos theta, sin theta, 0), unit to 2 ulps and exactly
        # tangent there, then normalized.  Written out on those coordinates
        # with the zero terms kept, as 0.0 + -0.0 is 0.0: dropping one
        # would flip the sign of a zero coordinate.
        c = math.cos(theta)
        s = math.sin(theta)
        ct = math.cos(r)
        st = math.sin(r)
        return self.project((ct * 0.0 + st * c, ct * 0.0 + st * s, ct * 1.0 + st * 0.0))

    def project(self, x: Vec3) -> SpherePoint:
        # x / |x|, written out.
        x0, x1, x2 = x
        s = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        return SpherePoint((x0 / s, x1 / s, x2 / s))

    def _meet_point(self, x: Vec3, l: Vec3, s1: SpherePoint, s2: SpherePoint) -> SpherePoint:
        p = self.project(x)
        x0, x1, x2 = p.v
        # The circles meet at p and -p; p is the one nearer the arc [s1, s2]
        # when |s1 p| + |p s2| <= pi, which holds exactly when p . (s1 + s2)
        # >= 0, since cos a + cos b = 2 cos((a + b)/2) cos((a - b)/2).
        # Ties go to p.
        u, v = s1.v, s2.v
        if x0 * (u[0] + v[0]) + x1 * (u[1] + v[1]) + x2 * (u[2] + v[2]) >= 0.0:
            return p
        return SpherePoint((-x0, -x1, -x2))


EuclidPoint = tuple[float, float]
# Lines whose unit normals make a smaller sine than this are parallel.
_PARALLEL_EPS = 1e-14


class EuclideanModel(PlaneModel):
    point_type = tuple
    kappa = 0.0
    base = (0.0, 0.0)
    side_limit = math.inf
    # The identity, as a builtin call: unary plus returns a float unchanged
    # (signed zeros and NaN included), at half the cost of a def.
    s_K = s_K_inv = t_K = t_K_inv = staticmethod(operator.pos)
    # (1.0,) + p = (1.0, x, y), also as a builtin call.
    lift = staticmethod(functools.partial(operator.add, (1.0,)))

    def dist(self, p: EuclidPoint, q: EuclidPoint) -> float:
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def polar(self, theta: float, r: float) -> EuclidPoint:
        return (r * math.cos(theta), r * math.sin(theta))

    def project(self, x: Vec3) -> EuclidPoint:
        return (x[1] / x[0], x[2] / x[0])

    def _meet_point(
        self, x: Vec3, l: Vec3, s1: EuclidPoint, s2: EuclidPoint
    ) -> EuclidPoint:
        # x0 is the sine between the unit normals of l and m.  With
        # m = line(s1, s2), x is proportional to b S1 - a S2 for a = l . S1
        # and b = l . S2, so x / x0 = S1 + t (S2 - S1) with t = a / (a - b):
        # the same point, laid off from s1 along m, so that an error in t
        # moves it along m by that error times |s1 s2|.
        if not abs(x[0]) > _PARALLEL_EPS:
            raise GeometryError("parallel lines do not meet")
        l0, l1, l2 = l
        (ax, ay), (bx, by) = s1, s2
        a = l0 + ax * l1 + ay * l2
        b = l0 + bx * l1 + by * l2
        t = a / (a - b)
        return (ax + t * (bx - ax), ay + t * (by - ay))


# The model class of each plane that ``Geometry.model`` builds here.
MODELS = {Geometry.SPHERICAL: SphereModel, Geometry.EUCLIDEAN: EuclideanModel}
