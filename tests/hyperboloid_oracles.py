"""Hyperboloid compositions kept as test oracles and point builders.

``polar`` is the exponential map at the origin composed from a tangent
basis, and ``reflect_across`` the reflection through a line's unit
normal: ``HyperboloidModel.polar`` and the Lexell bisector mirror write
them out in closed form, and the tests hold those to these by repr,
signed zeros included.  ``point_along``, ``tangent_direction`` and
``direction`` build test points away from the origin.
"""

import math

from ccplane import corevec as vec
from ccplane.kernel import ORIGIN, HPoint


def tangent_basis(base):
    """Orthonormal basis of the tangent plane at base; the first leg is
    (0, 1, 0) made tangent there."""
    c = vec.minner((0.0, 1.0, 0.0), base.v)
    b0, b1, b2 = base.v
    e1 = vec.mnormalize_space((0.0 + c * b0, 1.0 + c * b1, 0.0 + c * b2))
    return e1, vec.mcross(base.v, e1)


def tangent_direction(base, theta):
    """Unit tangent at base making angle theta with the first basis leg."""
    e1, e2 = tangent_basis(base)
    c, s = math.cos(theta), math.sin(theta)
    return (c * e1[0] + s * e2[0], c * e1[1] + s * e2[1], c * e1[2] + s * e2[2])


def point_along(p, n, t):
    """Point at signed arclength t from p along the unit tangent n."""
    return HPoint(vec.mgeo_point(p.v, n, t))


def direction(p, q):
    """Unit tangent at p toward q."""
    return vec.mtangent(p.v, q.v)


def polar(theta, r):
    """Point at distance r from the origin in direction theta."""
    return point_along(ORIGIN, tangent_direction(ORIGIN, theta), r)


def reflect_across(l, p):
    """Image of p under the reflection fixing the line with covector l,
    whose unit spacelike normal is (-l0, l1, l2)."""
    return HPoint(vec.mreflect(p.v, (-l[0], l[1], l[2])))
