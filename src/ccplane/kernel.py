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

The checks, distances, geodesics, meets and angles that every sampled
figure runs are written out on unpacked coordinates rather than composed
from ``corevec`` calls: the same operations in the same order, so every
value equals the ``corevec`` composition to the last bit, at a fraction
of the call overhead.  ``corevec`` stays the reference for those and the
home of the rest (exponential map, feet, reflections, midpoints).

Each Geometry member carries a PlaneModel (``geometry.model``) that
offers the same operations in all three planes, so code written once
against it runs unchanged on the hyperbolic plane, the sphere and the
euclidean plane.  A plane's operations live on its model; a free
function exists only where another module calls it.  Lines are model
values: ``model.line(p, q)`` builds one (with its checks) once, and
``meet``, ``side_value``, ``line_residual`` and ``foot`` take it, so a
figure that reads a side line several times builds it only once.

Every value type of the package (points, figures, reports, scene
elements) derives from Record: an immutable class whose fields are its
``__slots__``, with equality, hashing and repr over those fields.  Each
command is a short ``ccplane`` process that pays for its own import, so
the classes are written out rather than generated at import: the
standard library's generator imports ``inspect``, ``ast`` and ``dis`` and
compiles six functions per class, about a fifth of each command.
"""

from __future__ import annotations

import math
import operator
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


class Record:
    """Immutable value whose fields are the public names in ``__slots__``.

    A subclass lists its fields in ``__slots__`` in order, sets them in
    its own ``__init__`` with ``object.__setattr__`` and then calls
    ``self.__post_init__()`` where it has checks to run.  Slots named
    with a leading underscore (a cache, ``__dict__``) are not fields:
    equality, hashing and repr ignore them.  Equality holds only between
    instances of the same class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Geometry(str, Enum):
    """One of the three planes; ``model`` is its PlaneModel."""

    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"

    # Set on each member once the models exist (end of module): a plain
    # attribute, since every figure reads it on its hot path.
    model: PlaneModel


class HPoint(Record):
    """Point of the hyperbolic plane, hyperboloid coordinates."""

    __slots__ = ("v",)

    def __init__(self, v: Vec3) -> None:
        object.__setattr__(self, "v", v)
        self.__post_init__()

    def __post_init__(self) -> None:
        # The quadratic form carries rounding noise of order eps * v0^2,
        # so the acceptance band must widen with the point's height.
        v0, v1, v2 = self.v
        q = -v0 * v0 + v1 * v1 + v2 * v2
        band = TOL_POINT * (1.0 + v0 * v0)
        if not (abs(q + 1.0) <= band) or v0 <= 0.0:
            raise InvalidPointError(f"not on the upper hyperboloid sheet: {self.v}")


class SpherePoint(Record):
    """Point of the unit sphere."""

    __slots__ = ("v",)

    def __init__(self, v: Vec3) -> None:
        object.__setattr__(self, "v", v)
        self.__post_init__()

    def __post_init__(self) -> None:
        v0, v1, v2 = self.v
        q = v0 * v0 + v1 * v1 + v2 * v2
        if not (abs(q - 1.0) <= TOL_POINT):
            raise InvalidPointError(f"not on the unit sphere: {self.v}")


class DiskPoint(Record):
    """Conformal disk coordinates, strictly inside the unit circle."""

    __slots__ = ("u", "w")

    def __init__(self, u: float, w: float) -> None:
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (self.u * self.u + self.w * self.w < 1.0):
            raise OutOfModelError(f"outside the open unit disk: ({self.u}, {self.w})")


class TangentPoint(Record):
    """Cartesian coordinates in a tangent plane at a chosen base point."""

    __slots__ = ("s", "t")

    def __init__(self, s: float, t: float) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


class Geodesic(Record):
    """Complete hyperbolic geodesic {x upper sheet: <x, n> = 0}, stored
    as its unit spacelike normal n (<n, n> = +1)."""

    __slots__ = ("normal",)

    def __init__(self, normal: Vec3) -> None:
        object.__setattr__(self, "normal", normal)
        self.__post_init__()

    def __post_init__(self) -> None:
        n0, n1, n2 = self.normal
        q = -n0 * n0 + n1 * n1 + n2 * n2
        # A geodesic far from the origin has a large timelike normal
        # component whose squares cancel; widen the band with it.
        band = TOL_POINT * (1.0 + n0 * n0)
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
    """Hyperbolic distance between two points.

    Near coincidence acosh(-<p,q>) loses half the digits, so the chord
    form 2*asinh(|p - q|/2) is used there instead.
    """
    p0, p1, p2 = p.v
    q0, q1, q2 = q.v
    m = -(-p0 * q0 + p1 * q1 + p2 * q2)
    # The inner product of two far points carries rounding noise of
    # order eps * p0 * q0, so the invariant clamp widens with height.
    if m < 1.0 - TOL_CLAMP * (1.0 + p0 * q0):
        raise InvalidPointError(f"separation invariant violated: -<p,q> = {m}")
    if m < 1.5:
        d0, d1, d2 = p0 - q0, p1 - q1, p2 - q2
        c = -d0 * d0 + d1 * d1 + d2 * d2
        if c <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(c))
    return math.acosh(m)


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
    p0, p1, p2 = p.v
    q0, q1, q2 = q.v
    c0 = -(p1 * q2 - p2 * q1)
    c1 = p2 * q0 - p0 * q2
    c2 = p0 * q1 - p1 * q0
    cc = -c0 * c0 + c1 * c1 + c2 * c2
    # For two far points the cross product can round to a vector that
    # is not spacelike, which has no unit normal.
    if not cc > 0.0:
        raise DegenerateInputError("points too far apart to span a geodesic")
    s = math.sqrt(cc)
    return Geodesic((c0 / s, c1 / s, c2 / s))


def geodesic_residual(g: Geodesic, p: HPoint) -> float:
    """|<p, n>|: zero exactly when p lies on g."""
    return abs(vec.minner(p.v, g.normal))


def intersect_geodesics(g1: Geodesic, g2: Geodesic) -> HPoint | None:
    """Common point of two geodesics, or None when they do not meet.

    Returns None for ultraparallel and asymptotically parallel pairs;
    identical geodesics are rejected as degenerate.
    """
    a0, a1, a2 = g1.normal
    b0, b1, b2 = g2.normal
    c0 = -(a1 * b2 - a2 * b1)
    c1 = a2 * b0 - a0 * b2
    c2 = a0 * b1 - a1 * b0
    if max(abs(c0), abs(c1), abs(c2)) <= _CROSS_EPS:
        raise DegenerateInputError("identical geodesics")
    if -c0 * c0 + c1 * c1 + c2 * c2 >= 0.0:
        return None
    return HPoint(vec.mnormalize_point((c0, c1, c2)))


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
        x0, x1, x2 = _tangent_at(_E0, rp)
        y0, y1, y2 = _tangent_at(_E0, rq)
    else:
        x0, x1, x2 = _tangent_at(v.v, p.v)
        y0, y1, y2 = _tangent_at(v.v, q.v)
    c = -x0 * y0 + x1 * y1 + x2 * y2
    w0, w1, w2 = y0 - c * x0, y1 - c * x1, y2 - c * x2
    s = math.sqrt(max(-w0 * w0 + w1 * w1 + w2 * w2, 0.0))
    return math.atan2(s, c)


def _tangent_at(p: Vec3, q: Vec3) -> Vec3:
    # Unit tangent at p toward q, as corevec.mtangent computes it.
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
    - ``line(p, q)``: the oriented line through two distinct points, as
      a value the line operations below take.  It is a Geodesic on the
      hyperboloid, the unit normal of the great circle on the sphere and
      the pair (p, q) in the euclidean plane.  Points too close to span
      a line raise DegenerateInputError on every plane.  A figure that
      reads a line more than once builds it once and keeps it.
    - ``meet(l, m, s1, s2)``: where line l meets line m = line(s1, s2);
      on the sphere, the one of the antipodal pair on [s1, s2].
    - ``side_value(l, p)``: the signed position of p against line l.
    - ``line_residual(l, p)``: zero exactly when p is on line l.
    - ``foot(p, l)``: the point of line l nearest p.
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

    def line(self, p: HPoint, q: HPoint) -> Geodesic:
        return geodesic_through(p, q)

    def meet(self, l: Geodesic, m: Geodesic, s1: HPoint, s2: HPoint) -> HPoint:
        x = intersect_geodesics(l, m)
        if x is None:
            raise GeometryError("cevian does not reach the opposite side")
        return x

    def side_value(self, l: Geodesic, p: HPoint) -> float:
        p0, p1, p2 = p.v
        n0, n1, n2 = l.normal
        return -p0 * n0 + p1 * n1 + p2 * n2

    def line_residual(self, l: Geodesic, p: HPoint) -> float:
        return geodesic_residual(l, p)

    def foot(self, p: HPoint, l: Geodesic) -> HPoint:
        return foot_of_perpendicular(p, l)


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

    def angle(self, v: SpherePoint, p: SpherePoint, q: SpherePoint) -> float:
        x0, x1, x2 = self._tangent(v, p)
        y0, y1, y2 = self._tangent(v, q)
        c = x0 * y0 + x1 * y1 + x2 * y2
        w0, w1, w2 = y0 - c * x0, y1 - c * x1, y2 - c * x2
        s = math.sqrt(max(w0 * w0 + w1 * w1 + w2 * w2, 0.0))
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

    @staticmethod
    def line(p: SpherePoint, q: SpherePoint) -> Vec3:
        """Unit normal of the great circle through p and q."""
        p0, p1, p2 = p.v
        q0, q1, q2 = q.v
        c0 = p1 * q2 - p2 * q1
        c1 = p2 * q0 - p0 * q2
        c2 = p0 * q1 - p1 * q0
        s = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
        if s <= _CROSS_EPS:
            raise DegenerateInputError("great circle undefined for coincident or antipodal points")
        return (c0 / s, c1 / s, c2 / s)

    def meet(self, l: Vec3, m: Vec3, s1: SpherePoint, s2: SpherePoint) -> SpherePoint:
        a0, a1, a2 = l
        b0, b1, b2 = m
        c0 = a1 * b2 - a2 * b1
        c1 = a2 * b0 - a0 * b2
        c2 = a0 * b1 - a1 * b0
        s = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
        if s <= _CROSS_EPS:
            raise DegenerateInputError("identical great circles")
        x0, x1, x2 = c0 / s, c1 / s, c2 / s
        # The circles meet at x and -x; x is the one nearer the arc [s1, s2]
        # when |s1 x| + |x s2| <= pi, which holds exactly when x . (s1 + s2)
        # >= 0, since cos a + cos b = 2 cos((a + b)/2) cos((a - b)/2).
        # Ties go to x.
        u, v = s1.v, s2.v
        if x0 * (u[0] + v[0]) + x1 * (u[1] + v[1]) + x2 * (u[2] + v[2]) >= 0.0:
            return SpherePoint((x0, x1, x2))
        return SpherePoint((-x0, -x1, -x2))

    def side_value(self, l: Vec3, p: SpherePoint) -> float:
        p0, p1, p2 = p.v
        return p0 * l[0] + p1 * l[1] + p2 * l[2]

    def line_residual(self, l: Vec3, p: SpherePoint) -> float:
        p0, p1, p2 = p.v
        return abs(p0 * l[0] + p1 * l[1] + p2 * l[2])

    def foot(self, p: SpherePoint, l: Vec3) -> SpherePoint:
        if 1.0 - abs(vec.sdot(p.v, l)) <= TOL_POINT:
            raise DegenerateInputError("every circle point is equidistant from its pole")
        return SpherePoint(vec.sfoot(p.v, l))

    @staticmethod
    def _tangent(p: SpherePoint, q: SpherePoint) -> Vec3:
        """Unit tangent at p toward q."""
        p0, p1, p2 = p.v
        q0, q1, q2 = q.v
        c0 = p1 * q2 - p2 * q1
        c1 = p2 * q0 - p0 * q2
        c2 = p0 * q1 - p1 * q0
        if math.sqrt(c0 * c0 + c1 * c1 + c2 * c2) <= _CROSS_EPS:
            raise DegenerateInputError("direction undefined for coincident or antipodal points")
        m = p0 * q0 + p1 * q1 + p2 * q2
        w0, w1, w2 = q0 - m * p0, q1 - m * p1, q2 - m * p2
        s = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        return (w0 / s, w1 / s, w2 / s)


EuclidPoint = tuple[float, float]
# Points closer than TOL_POINT span no line; squared, so no root is taken.
_TOL_POINT_SQUARED = TOL_POINT * TOL_POINT
EuclidLine = tuple[EuclidPoint, EuclidPoint]


class EuclideanModel(PlaneModel):
    point_type = tuple
    kappa = 0.0
    base = (0.0, 0.0)
    side_limit = math.inf
    # The identity, as a builtin call: unary plus returns a float unchanged
    # (signed zeros and NaN included), at half the cost of a def.
    s_K = s_K_inv = t_K = t_K_inv = staticmethod(operator.pos)

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

    def line(self, p: EuclidPoint, q: EuclidPoint) -> EuclidLine:
        dx, dy = q[0] - p[0], q[1] - p[1]
        if dx * dx + dy * dy <= _TOL_POINT_SQUARED:
            raise DegenerateInputError("line through coincident points")
        return (p, q)

    def meet(
        self, l: EuclidLine, m: EuclidLine, s1: EuclidPoint, s2: EuclidPoint
    ) -> EuclidPoint:
        # m is the pair (s1, s2) itself; both lines are read as pairs.
        (p1x, p1y), (p2x, p2y) = l
        (s1x, s1y), (s2x, s2y) = m
        dux, duy = p2x - p1x, p2y - p1y
        dvx, dvy = s2x - s1x, s2y - s1y
        den = dux * dvy - duy * dvx
        if abs(den) <= 1e-14 * (math.hypot(dux, duy) * math.hypot(dvx, dvy) + 1e-300):
            raise GeometryError("cevian does not reach the opposite side")
        t = ((s1x - p1x) * dvy - (s1y - p1y) * dvx) / den
        return (p1x + t * dux, p1y + t * duy)

    def side_value(self, l: EuclidLine, p: EuclidPoint) -> float:
        (s1x, s1y), (s2x, s2y) = l
        return (s2x - s1x) * (p[1] - s1y) - (s2y - s1y) * (p[0] - s1x)

    def line_residual(self, l: EuclidLine, p: EuclidPoint) -> float:
        (s1x, s1y), (s2x, s2y) = l
        ux, uy = s2x - s1x, s2y - s1y
        return abs(ux * (p[1] - s1y) - uy * (p[0] - s1x)) / math.hypot(ux, uy)

    def foot(self, p: EuclidPoint, l: EuclidLine) -> EuclidPoint:
        (s1x, s1y), (s2x, s2y) = l
        ux, uy = s2x - s1x, s2y - s1y
        uu = ux * ux + uy * uy
        if not uu > 0.0:
            raise DegenerateInputError("line through coincident points")
        t = ((p[0] - s1x) * ux + (p[1] - s1y) * uy) / uu
        return (s1x + t * ux, s1y + t * uy)


Geometry.HYPERBOLIC.model = HyperboloidModel()
Geometry.SPHERICAL.model = SphereModel()
Geometry.EUCLIDEAN.model = EuclideanModel()
