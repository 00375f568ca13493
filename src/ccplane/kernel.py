"""Points of the three planes, hyperboloid primitives, and one model per plane.

The hyperbolic plane is the upper sheet x0 > 0 of <x, x> = -1 in
Minkowski 3-space with <x, y> = -x0*y0 + x1*y1 + x2*y2.  Distances obey
cosh d(p, q) = -<p, q>, geodesics are cut out by unit spacelike normals
(containment is <x, n> = 0), and moving distance t from p along a unit
tangent n gives cosh(t) p + sinh(t) n.  The module functions below are
these hyperboloid primitives, which the Lexell loci, the renderer and
the CLI call directly.  The sphere uses unit vectors in ordinary
Euclidean 3-space with the same vocabulary; its great circles are unit
normals inside SphereModel and have no free functions.

Composite results are renormalized onto their surface, so drift stays
below TOL_POINT and constructions compose safely.

Each Geometry member carries a PlaneModel (``geometry.model``) that
offers the same operations in all three planes, so code written once
against it runs unchanged on the hyperbolic plane, the sphere and the
euclidean plane.  A plane's operations live on its model; a free
function exists only where another module calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import corevec as vec
from .constants import (
    MAX_HYPERBOLIC_SIDE,
    MAX_SPHERICAL_SIDE,
    TOL_CLAMP,
    TOL_ID,
    TOL_POINT,
)
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DomainError,
    GeometryError,
    InvalidPointError,
    OutOfModelError,
)

Vec3 = tuple[float, float, float]

# Two curves count as identical when their cross product is this small.
_CROSS_EPS = 1e-10


class Geometry(str, Enum):
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"

    @property
    def model(self) -> PlaneModel:
        """The operations of this plane, behind one interface."""
        return _MODELS[self]


@dataclass(frozen=True)
class HPoint:
    """Point of the hyperbolic plane, hyperboloid coordinates."""

    v: Vec3

    def __post_init__(self) -> None:
        # The quadratic form carries rounding noise of order eps * v0^2,
        # so the acceptance band must widen with the point's height.
        q = vec.minner(self.v, self.v)
        band = TOL_POINT * (1.0 + self.v[0] * self.v[0])
        if not (abs(q + 1.0) <= band) or self.v[0] <= 0.0:
            raise InvalidPointError(f"not on the upper hyperboloid sheet: {self.v}")


@dataclass(frozen=True)
class SpherePoint:
    """Point of the unit sphere."""

    v: Vec3

    def __post_init__(self) -> None:
        q = vec.sdot(self.v, self.v)
        if not (abs(q - 1.0) <= TOL_POINT):
            raise InvalidPointError(f"not on the unit sphere: {self.v}")


@dataclass(frozen=True)
class DiskPoint:
    """Conformal disk coordinates, strictly inside the unit circle."""

    u: float
    w: float

    def __post_init__(self) -> None:
        if not (self.u * self.u + self.w * self.w < 1.0):
            raise OutOfModelError(f"outside the open unit disk: ({self.u}, {self.w})")


@dataclass(frozen=True)
class TangentPoint:
    """Cartesian coordinates in a tangent plane at a chosen base point."""

    s: float
    t: float


@dataclass(frozen=True)
class Geodesic:
    """Complete hyperbolic geodesic {x upper sheet: <x, n> = 0}, stored
    as its unit spacelike normal n (<n, n> = +1)."""

    normal: Vec3

    def __post_init__(self) -> None:
        q = vec.minner(self.normal, self.normal)
        # A geodesic far from the origin has a large timelike normal
        # component whose squares cancel; widen the band with it.
        band = TOL_POINT * (1.0 + self.normal[0] * self.normal[0])
        if not (abs(q - 1.0) <= band):
            raise InvalidPointError(f"normal is not unit spacelike: {self.normal}")


ORIGIN = HPoint((1.0, 0.0, 0.0))
NORTH_POLE = SpherePoint((0.0, 0.0, 1.0))


def mink_inner(x: Vec3, y: Vec3) -> float:
    """Minkowski bilinear form of two raw coordinate triples."""
    return vec.minner(x, y)


def normalize_to_hyperboloid(v: Vec3) -> HPoint:
    """Scale a timelike vector onto the upper sheet."""
    if vec.minner(v, v) >= 0.0:
        raise InvalidPointError(f"not timelike: {v}")
    return HPoint(vec.mnormalize_point(v))


def hdist(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance between two points."""
    m = -vec.minner(p.v, q.v)
    # The inner product of two far points carries rounding noise of
    # order eps * p0 * q0, so the invariant clamp widens with height.
    if m < 1.0 - TOL_CLAMP * (1.0 + p.v[0] * q.v[0]):
        raise InvalidPointError(f"separation invariant violated: -<p,q> = {m}")
    return vec.mdist(p.v, q.v)


def _check_unit_tangent(p: HPoint, n: Vec3) -> None:
    # Tangent components at a far base point grow like cosh(d); both
    # checks widen with the rounding noise of their inner products.
    if abs(vec.minner(n, n) - 1.0) > TOL_ID * (1.0 + n[0] * n[0]):
        raise ContractViolationError(f"direction is not unit spacelike: {n}")
    if abs(vec.minner(p.v, n)) > TOL_ID * (1.0 + p.v[0] * abs(n[0])):
        raise ContractViolationError(f"direction is not tangent at the point: {n}")


def point_along(p: HPoint, n: Vec3, t: float) -> HPoint:
    """Point at signed arclength t from p along the unit tangent n."""
    _check_unit_tangent(p, n)
    return HPoint(vec.mgeo_point(p.v, n, t))


def direction(p: HPoint, q: HPoint) -> Vec3:
    """Unit tangent at p toward q; the two points must be distinct."""
    if hdist(p, q) <= TOL_POINT:
        raise DegenerateInputError("cannot take a direction between coincident points")
    return vec.mtangent(p.v, q.v)


def geodesic_through(p: HPoint, q: HPoint) -> Geodesic:
    """Oriented geodesic through two distinct points.

    The normal is fixed so that (p, direction(p, q), normal) is a
    right-handed frame; swapping the arguments flips it.
    """
    if hdist(p, q) <= TOL_POINT:
        raise DegenerateInputError("geodesic through coincident points")
    c = vec.mcross(p.v, q.v)
    # For two far points the cross product can round to a vector that
    # is not spacelike, which has no unit normal.
    if not vec.minner(c, c) > 0.0:
        raise DegenerateInputError("points too far apart to span a geodesic")
    return Geodesic(vec.mnormalize_space(c))


def geodesic_residual(g: Geodesic, p: HPoint) -> float:
    """|<p, n>|: zero exactly when p lies on g."""
    return abs(vec.minner(p.v, g.normal))


def intersect_geodesics(g1: Geodesic, g2: Geodesic) -> HPoint | None:
    """Common point of two geodesics, or None when they do not meet.

    Returns None for ultraparallel and asymptotically parallel pairs;
    identical geodesics are rejected as degenerate.
    """
    c = vec.mcross(g1.normal, g2.normal)
    if max(abs(c[0]), abs(c[1]), abs(c[2])) <= _CROSS_EPS:
        raise DegenerateInputError("identical geodesics")
    if vec.minner(c, c) >= 0.0:
        return None
    return HPoint(vec.mnormalize_point(c))


# Beyond this time coordinate (distance ~5 from the origin) tangent
# components grow large enough for their Gram products to wash out
# small angles, so the vertex is first moved onto the origin.
_RECENTRE_LIMIT = 75.0
_E0: Vec3 = (1.0, 0.0, 0.0)


def _recentre(v: Vec3, pts: tuple[Vec3, ...]) -> list[Vec3]:
    # Point reflection about the midpoint of [v, origin]: an isometry
    # taking v exactly to the origin.  <v+e0, v+e0> = -(2 + 2 v0), so
    # the midpoint comes out in closed form with no cancellation.
    s = math.sqrt(2.0 + 2.0 * v[0])
    m = ((v[0] + 1.0) / s, v[1] / s, v[2] / s)
    out = []
    for x in pts:
        d = 2.0 * vec.minner(x, m)
        out.append((-x[0] - d * m[0], -x[1] - d * m[1], -x[2] - d * m[2]))
    return out


def angle_at(v: HPoint, p: HPoint, q: HPoint) -> float:
    """Interior angle at v between the segments to p and to q."""
    if hdist(v, p) <= TOL_POINT or hdist(v, q) <= TOL_POINT:
        raise DegenerateInputError("cannot take a direction between coincident points")
    if v.v[0] > _RECENTRE_LIMIT:
        rp, rq = _recentre(v.v, (p.v, q.v))
        u1 = vec.mtangent(_E0, rp)
        u2 = vec.mtangent(_E0, rq)
    else:
        u1 = vec.mtangent(v.v, p.v)
        u2 = vec.mtangent(v.v, q.v)
    c = vec.minner(u1, u2)
    w = (u2[0] - c * u1[0], u2[1] - c * u1[1], u2[2] - c * u1[2])
    s = math.sqrt(max(vec.minner(w, w), 0.0))
    return math.atan2(s, c)


def foot_of_perpendicular(p: HPoint, g: Geodesic) -> HPoint:
    """Nearest point of g to p; sinh of the drop equals |<p, n>|."""
    return HPoint(vec.mfoot(p.v, g.normal))


def midpoint(p: HPoint, q: HPoint) -> HPoint:
    """Point halfway along the segment from p to q."""
    return HPoint(vec.mmid(p.v, q.v))


def reflect_across(g: Geodesic, p: HPoint) -> HPoint:
    """Image of p under the reflection fixing g."""
    return HPoint(vec.mreflect(p.v, g.normal))


def disk_to_hpoint(d: DiskPoint) -> HPoint:
    """Lift conformal disk coordinates onto the hyperboloid."""
    s = d.u * d.u + d.w * d.w
    f = 1.0 / (1.0 - s)
    return HPoint(vec.mnormalize_point(((1.0 + s) * f, 2.0 * d.u * f, 2.0 * d.w * f)))


def hpoint_to_disk(p: HPoint) -> DiskPoint:
    """Project a hyperboloid point into the conformal disk."""
    f = 1.0 / (1.0 + p.v[0])
    return DiskPoint(p.v[1] * f, p.v[2] * f)


def tangent_basis(base: HPoint) -> tuple[Vec3, Vec3]:
    """Deterministic orthonormal basis of the tangent plane at base."""
    a = (0.0, 1.0, 0.0)
    c = vec.minner(a, base.v)
    e1 = vec.mnormalize_space(
        (a[0] + c * base.v[0], a[1] + c * base.v[1], a[2] + c * base.v[2])
    )
    e2 = vec.mcross(base.v, e1)
    return e1, e2


def tangent_direction(base: HPoint, theta: float) -> Vec3:
    """Unit tangent at base making angle theta with the first basis leg."""
    return _turn(tangent_basis(base), theta)


def _turn(basis: tuple[Vec3, Vec3], theta: float) -> Vec3:
    e1, e2 = basis
    c = math.cos(theta)
    s = math.sin(theta)
    return (
        c * e1[0] + s * e2[0],
        c * e1[1] + s * e2[1],
        c * e1[2] + s * e2[2],
    )


_ORIGIN_BASIS = tangent_basis(ORIGIN)


def radial_project(base: HPoint, p: HPoint) -> TangentPoint:
    """Central projection of p onto the tangent plane at base.

    The ray from the Minkowski origin through p meets the plane
    {y: <y, base> = -1} at p / cosh(hdist(base, p)); coordinates are
    taken in tangent_basis(base), so |result| = tanh(hdist(base, p))
    and geodesics through base project to straight lines through 0.
    """
    d = hdist(base, p)
    if d > MAX_HYPERBOLIC_SIDE:
        raise DomainError(f"projection point too far from base: {d}")
    f = 1.0 / math.cosh(d)
    pp = (p.v[0] * f, p.v[1] * f, p.v[2] * f)
    e1, e2 = tangent_basis(base)
    return TangentPoint(vec.minner(pp, e1), vec.minner(pp, e2))


class PlaneModel:
    """Operations of one constant-curvature plane, behind one interface.

    Points are HPoint on the hyperboloid, SpherePoint on the sphere and
    (x, y) tuples in the euclidean plane; ``point_type`` is that type.

    - ``dist(p, q)``, ``angle(v, p, q)`` (at v), ``mid(p, q)``.
    - ``base``: the base point ORIGIN, NORTH_POLE or (0.0, 0.0).
    - ``polar(theta, r)``: the point at distance r from the base point
      in direction theta.
    - ``coords(p)`` and ``project(v)``: ambient coordinates of a point,
      and the point on the ray through v (central projection).
    - ``line_meet(p1, p2, s1, s2)``: where line p1 p2 meets line s1 s2;
      on the sphere, the one of the antipodal pair on [s1, s2].
    - ``side_values(s1, s2, o, w)``: signed positions of o and w
      against the oriented line s1 s2.
    - ``on_side_residual(p, s1, s2)``: zero exactly when p is on s1 s2.
    - ``foot(p, s1, s2)``: the point of line s1 s2 nearest p.
    - ``versine(d)``: X(d) = 2 s_K(d/2)^2, that is cosh d - 1, 1 - cos d
      or d^2/2, in which the three planes share their trigonometry.
    - ``corner_cosines(polar)``: the law of cosines on three vertices
      given as ``polar`` arguments, with no point built.
    - ``s_K``/``t_K``: sinh/sin/identity and tanh/tan/identity, with
      ``s_K_inv`` and ``t_K_inv`` their inverses; ``kappa`` is the
      curvature.
    - ``side_limit``: the longest length a triangle side, hypotenuse or
      stretch ratio may have; every plane checks ``x > side_limit``.
    """

    def coords(self, p) -> Vec3:
        return p.v

    def versine(self, d: float) -> float:
        """X(d) = 2 s_K(d/2)^2: cosh d - 1, 1 - cos d or d^2/2."""
        s = self.s_K(0.5 * d)
        return 2.0 * (s * s)

    def corner_cosines(
        self, polar: list[tuple[float, float]]
    ) -> tuple[float, float, float] | None:
        """Cosines of the corners at the three (theta, r) vertices, in order.

        The law of cosines of M^2_kappa, written in X = ``versine``.
        Between vertices i and j (dr = r_i - r_j, dt = theta_i - theta_j),

            X = X(dr) + 2 s_K(r_i) s_K(r_j) sin(dt/2)^2,

        a sum of nonnegative terms, so no side is lost to cancellation.
        With s_K(d)^2 = X (2 - kappa X), the corner facing side a has
        cosine (X_b + X_c - kappa X_b X_c - X_a) / (s_K(b) s_K(c)).
        Returns None when a side vanishes.
        """
        (t1, r1), (t2, r2), (t3, r3) = polar
        s_K, versine, kappa = self.s_K, self.versine, self.kappa
        k1, k2, k3 = s_K(r1), s_K(r2), s_K(r3)
        # Doubling is exact: these are 2 (s_K(dr/2)^2 + ...) to the last bit.
        w = math.sin(0.5 * (t2 - t3))
        xa = versine(r2 - r3) + 2.0 * k2 * k3 * (w * w)
        w = math.sin(0.5 * (t3 - t1))
        xb = versine(r3 - r1) + 2.0 * k3 * k1 * (w * w)
        w = math.sin(0.5 * (t1 - t2))
        xc = versine(r1 - r2) + 2.0 * k1 * k2 * (w * w)
        pa, pb, pc = xa * (2.0 - kappa * xa), xb * (2.0 - kappa * xb), xc * (2.0 - kappa * xc)
        if not (pa > 0.0 and pb > 0.0 and pc > 0.0):
            return None
        sa, sb, sc = math.sqrt(pa), math.sqrt(pb), math.sqrt(pc)
        # Dividing twice: a product of two tiny sides could round to zero.
        return (
            (xb + xc - kappa * xb * xc - xa) / sb / sc,
            (xc + xa - kappa * xc * xa - xb) / sc / sa,
            (xa + xb - kappa * xa * xb - xc) / sa / sb,
        )


# Only this model calls module functions, by their module names at call
# time, so code that wraps those functions also sees these calls.  The
# sphere and euclidean models keep their arithmetic in their methods.


class HyperboloidModel(PlaneModel):
    point_type = HPoint
    kappa = -1.0
    base = ORIGIN
    side_limit = MAX_HYPERBOLIC_SIDE
    s_K = staticmethod(math.sinh)
    s_K_inv = staticmethod(math.asinh)
    t_K = staticmethod(math.tanh)
    t_K_inv = staticmethod(math.atanh)

    def dist(self, p: HPoint, q: HPoint) -> float:
        return hdist(p, q)

    def angle(self, v: HPoint, p: HPoint, q: HPoint) -> float:
        return angle_at(v, p, q)

    def mid(self, p: HPoint, q: HPoint) -> HPoint:
        return midpoint(p, q)

    def polar(self, theta: float, r: float) -> HPoint:
        return point_along(ORIGIN, _turn(_ORIGIN_BASIS, theta), r)

    def project(self, v: Vec3) -> HPoint:
        return normalize_to_hyperboloid(v)

    def line_meet(self, p1: HPoint, p2: HPoint, s1: HPoint, s2: HPoint) -> HPoint:
        x = intersect_geodesics(geodesic_through(p1, p2), geodesic_through(s1, s2))
        if x is None:
            raise GeometryError("cevian does not reach the opposite side")
        return x

    def side_values(self, s1: HPoint, s2: HPoint, o: HPoint, w: HPoint):
        n = vec.mnormalize_space(vec.mcross(s1.v, s2.v))
        return vec.minner(o.v, n), vec.minner(w.v, n)

    def on_side_residual(self, p: HPoint, s1: HPoint, s2: HPoint) -> float:
        return geodesic_residual(geodesic_through(s1, s2), p)

    def foot(self, p: HPoint, s1: HPoint, s2: HPoint) -> HPoint:
        return foot_of_perpendicular(p, geodesic_through(s1, s2))


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
        return vec.sdist(p.v, q.v)

    def angle(self, v: SpherePoint, p: SpherePoint, q: SpherePoint) -> float:
        u1 = self._tangent(v, p)
        u2 = self._tangent(v, q)
        c = vec.sdot(u1, u2)
        w = (u2[0] - c * u1[0], u2[1] - c * u1[1], u2[2] - c * u1[2])
        s = math.sqrt(max(vec.sdot(w, w), 0.0))
        return math.atan2(s, c)

    def mid(self, p: SpherePoint, q: SpherePoint) -> SpherePoint:
        w = (p.v[0] + q.v[0], p.v[1] + q.v[1], p.v[2] + q.v[2])
        if math.sqrt(vec.sdot(w, w)) <= _CROSS_EPS:
            raise DegenerateInputError("midpoint undefined for antipodal points")
        return SpherePoint(vec.snormalize(w))

    def polar(self, theta: float, r: float) -> SpherePoint:
        # (cos theta, sin theta, 0) is unit to 2 ulps and exactly tangent
        # at the pole, so it goes to the exponential map unchecked.
        n = (math.cos(theta), math.sin(theta), 0.0)
        return SpherePoint(vec.sgeo_point(NORTH_POLE.v, n, r))

    def project(self, v: Vec3) -> SpherePoint:
        # ``x ** 2`` and ``x * x`` can differ in the last bit; the squares
        # are kept so that sampled streams stay as they were.
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        return SpherePoint((v[0] / n, v[1] / n, v[2] / n))

    def line_meet(
        self, p1: SpherePoint, p2: SpherePoint, s1: SpherePoint, s2: SpherePoint
    ) -> SpherePoint:
        c = vec.scross(self._circle(p1, p2), self._circle(s1, s2))
        if math.sqrt(vec.sdot(c, c)) <= _CROSS_EPS:
            raise DegenerateInputError("identical great circles")
        x = vec.snormalize(c)
        # The circles meet at x and -x; x is the one nearer the arc [s1, s2]
        # when |s1 x| + |x s2| <= pi, which holds exactly when x . (s1 + s2)
        # >= 0, since cos a + cos b = 2 cos((a + b)/2) cos((a - b)/2).
        # Ties go to x.
        u, v = s1.v, s2.v
        if x[0] * (u[0] + v[0]) + x[1] * (u[1] + v[1]) + x[2] * (u[2] + v[2]) >= 0.0:
            return SpherePoint(x)
        return SpherePoint((-x[0], -x[1], -x[2]))

    def side_values(
        self, s1: SpherePoint, s2: SpherePoint, o: SpherePoint, w: SpherePoint
    ):
        n = vec.snormalize(vec.scross(s1.v, s2.v))
        return vec.sdot(o.v, n), vec.sdot(w.v, n)

    def on_side_residual(self, p: SpherePoint, s1: SpherePoint, s2: SpherePoint) -> float:
        return abs(vec.sdot(p.v, self._circle(s1, s2)))

    def foot(self, p: SpherePoint, s1: SpherePoint, s2: SpherePoint) -> SpherePoint:
        n = self._circle(s1, s2)
        if 1.0 - abs(vec.sdot(p.v, n)) <= TOL_POINT:
            raise DegenerateInputError("every circle point is equidistant from its pole")
        return SpherePoint(vec.sfoot(p.v, n))

    @staticmethod
    def _circle(p: SpherePoint, q: SpherePoint) -> Vec3:
        """Unit normal of the great circle through p and q."""
        c = vec.scross(p.v, q.v)
        if math.sqrt(vec.sdot(c, c)) <= _CROSS_EPS:
            raise DegenerateInputError("great circle undefined for coincident or antipodal points")
        return vec.snormalize(c)

    @staticmethod
    def _tangent(p: SpherePoint, q: SpherePoint) -> Vec3:
        """Unit tangent at p toward q."""
        c = vec.scross(p.v, q.v)
        if math.sqrt(vec.sdot(c, c)) <= _CROSS_EPS:
            raise DegenerateInputError("direction undefined for coincident or antipodal points")
        return vec.stangent(p.v, q.v)


EuclidPoint = tuple[float, float]


def _identity(x: float) -> float:
    return x


class EuclideanModel(PlaneModel):
    point_type = tuple
    kappa = 0.0
    base = (0.0, 0.0)
    side_limit = math.inf
    s_K = s_K_inv = t_K = t_K_inv = staticmethod(_identity)

    def dist(self, p: EuclidPoint, q: EuclidPoint) -> float:
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def angle(self, v: EuclidPoint, p: EuclidPoint, q: EuclidPoint) -> float:
        ax, ay = p[0] - v[0], p[1] - v[1]
        bx, by = q[0] - v[0], q[1] - v[1]
        return abs(math.atan2(ax * by - ay * bx, ax * bx + ay * by))

    def mid(self, p: EuclidPoint, q: EuclidPoint) -> EuclidPoint:
        return (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))

    def polar(self, theta: float, r: float) -> EuclidPoint:
        return (r * math.cos(theta), r * math.sin(theta))

    def coords(self, p: EuclidPoint) -> EuclidPoint:
        return p

    def project(self, v: EuclidPoint) -> EuclidPoint:
        return v

    def line_meet(
        self, p1: EuclidPoint, p2: EuclidPoint, s1: EuclidPoint, s2: EuclidPoint
    ) -> EuclidPoint:
        du = (p2[0] - p1[0], p2[1] - p1[1])
        dv = (s2[0] - s1[0], s2[1] - s1[1])
        den = du[0] * dv[1] - du[1] * dv[0]
        if abs(den) <= 1e-14 * (self.dist(p1, p2) * self.dist(s1, s2) + 1e-300):
            raise GeometryError("cevian does not reach the opposite side")
        t = ((s1[0] - p1[0]) * dv[1] - (s1[1] - p1[1]) * dv[0]) / den
        return (p1[0] + t * du[0], p1[1] + t * du[1])

    def side_values(
        self, s1: EuclidPoint, s2: EuclidPoint, o: EuclidPoint, w: EuclidPoint
    ):
        ux, uy = s2[0] - s1[0], s2[1] - s1[1]
        return (
            ux * (o[1] - s1[1]) - uy * (o[0] - s1[0]),
            ux * (w[1] - s1[1]) - uy * (w[0] - s1[0]),
        )

    def on_side_residual(self, p: EuclidPoint, s1: EuclidPoint, s2: EuclidPoint) -> float:
        ux, uy = s2[0] - s1[0], s2[1] - s1[1]
        wx, wy = p[0] - s1[0], p[1] - s1[1]
        return abs(ux * wy - uy * wx) / math.hypot(ux, uy)

    def foot(self, p: EuclidPoint, s1: EuclidPoint, s2: EuclidPoint) -> EuclidPoint:
        ux, uy = s2[0] - s1[0], s2[1] - s1[1]
        uu = ux * ux + uy * uy
        if not uu > 0.0:
            raise DegenerateInputError("line through coincident points")
        t = ((p[0] - s1[0]) * ux + (p[1] - s1[1]) * uy) / uu
        return (s1[0] + t * ux, s1[1] + t * uy)


_MODELS = {
    Geometry.HYPERBOLIC: HyperboloidModel(),
    Geometry.SPHERICAL: SphereModel(),
    Geometry.EUCLIDEAN: EuclideanModel(),
}
