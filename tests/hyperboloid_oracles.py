"""Hyperboloid compositions kept as test oracles and point builders.

``polar`` is the exponential map at the origin composed from a tangent
basis, and ``reflect_across`` the reflection through a line's unit
normal: ``HyperboloidModel.polar`` and the Lexell bisector mirror write
them out in closed form, and the tests hold those to these by repr,
signed zeros included.  ``point_along``, ``tangent_direction`` and
``direction`` build test points away from the origin.

The sheet's band checks are written as comparison chains; the tests hold
them to their ``abs`` forms by bits (``outcome_bits``) at the band's
edges (``band_edges``, ``vector_with_form``) and on ``EDGE_VECTORS``.
"""

import math
import struct
import sys

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


BAND_EDGE_IDS = ["-band-ulp", "-band", "-band+ulp", "band-ulp", "band", "band+ulp"]


def band_edges(band):
    """-band and band, each with its neighbours one ulp either side, in
    the order of ``BAND_EDGE_IDS``."""
    down, up = -math.inf, math.inf
    return [t for e in (-band, band) for t in (math.nextafter(e, down), e, math.nextafter(e, up))]


def vector_with_form(v0, form, target, near):
    """A vector (v0, v1, v2) at which ``form`` rounds to target exactly.

    ``form`` is the value a band check tests, written as the check writes
    it, and near is about -v0^2 + v1^2 + v2^2 there.  v2^2 takes about
    |near| + 1 and v1^2 the rest; each is stepped an ulp at a time until
    the form lands on target.  The band must be coarser than an ulp of
    1, as it is once v0^2 is large, or no vector lands on its edge.
    """
    v1 = math.sqrt(v0 * v0 + near - (abs(near) + 1.0))
    for _ in range(64):
        v2 = math.sqrt(max(near - (-v0 * v0 + v1 * v1), 0.0))
        for _ in range(4):
            v2 = math.nextafter(v2, 0.0)
        for _ in range(8):
            if form((v0, v1, v2)) == target:
                return (v0, v1, v2)
            v2 = math.nextafter(v2, math.inf)
        v1 = math.nextafter(v1, math.inf)
    raise AssertionError(f"no vector with v0 = {v0} lands on {target!r}")


def outcome_bits(fn, *args):
    """The bits of fn(*args), a float or a tuple of floats (NaN signs
    included), or the class and message of the exception it raises."""
    try:
        got = fn(*args)
    except Exception as exc:
        return (type(exc), str(exc))
    if isinstance(got, tuple):
        return tuple(struct.pack("<d", x) for x in got)
    return struct.pack("<d", got)


_SQRT_MAX = math.sqrt(sys.float_info.max)

# Vectors a sheet band check must treat as its reference does: signed
# zeros, a NaN or an infinity in each place, and a v0^2 that underflows
# or overflows.
EDGE_VECTORS = [
    (0.0, 0.0, 1.0),
    (-0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0),
    (-0.0, -0.0, -0.0),
    (math.nan, 0.0, 0.0),
    (-math.nan, 1.0, 0.0),
    (1.0, math.nan, 0.0),
    (1.0, 0.0, -math.nan),
    (math.inf, 0.0, 0.0),
    (-math.inf, 0.0, 0.0),
    (math.inf, math.inf, 0.0),
    (1.0, -math.inf, 0.0),
    (1.0, 0.0, math.inf),
    (1e-200, 0.0, 0.0),
    (5e-324, 1.0, 0.0),
    (-1e-200, 1e-200, 1.0),
    (_SQRT_MAX, _SQRT_MAX, 0.0),
    (math.nextafter(_SQRT_MAX, math.inf), 0.0, 0.0),
    (1e200, 1e200, 1.0),
    (-1e200, 0.0, 0.0),
]
