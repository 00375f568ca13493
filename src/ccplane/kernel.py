"""Points of the three planes, one model per plane, and the disk chart.

The hyperbolic plane is the upper sheet x0 > 0 of <x, x> = -1 in
Minkowski 3-space with <x, y> = -x0*y0 + x1*y1 + x2*y2.  Distances obey
cosh d(p, q) = -<p, q>, and moving distance t from p along a unit
tangent n gives cosh(t) p + sinh(t) n.  The sphere uses unit vectors in
ordinary Euclidean 3-space.  Each plane's operations are methods of its
model, HyperboloidModel here or SphereModel and EuclideanModel in
``planes``, and those written once for all three are methods of their
base, PlaneModel.  Six module functions remain, each because other
modules call it on something that is not a model's point: ``on_sheet``
and ``hdist`` take bare hyperboloid vectors, ``substream`` seeds the
campaigns, and ``disk_to_hpoint``, ``hpoint_to_disk`` and
``ideal_endpoints`` (the chart's boundary map, a line's two ends on the
unit circle) are the conformal disk chart that the CLI, the renderer and
the Lexell base read.

Composite results are renormalized onto their surface, so drift stays
below TOL_POINT and constructions compose safely.  ``on_sheet`` holds
the hyperboloid's acceptance band, the check behind every HPoint, and
``hdist`` the hyperbolic distance: code that reads points only as
coordinates passes its vectors through both and builds no HPoint.  The
Lexell probe's loops write both out instead, and ``test_lexell`` holds
those copies to these two to the last bit, messages included (see
``on_sheet`` and ``hdist``).

The checks and distances that every sampled figure runs are written
out on unpacked coordinates rather than composed from ``corevec`` calls:
the same operations in the same order, so every value equals the
``corevec`` composition to the last bit, at a fraction of the call
overhead.  ``corevec`` stays the reference for those and the home of the
rest (the exponential map, the sheet normalization).  The sheet
normalization runs in two places only, ``HyperboloidModel.project`` and
the chart's ``disk_to_hpoint``: every point a model builds from a
homogeneous vector, meets included, comes back through ``project``.

Each Geometry member carries a PlaneModel (``geometry.model``) that
offers the same operations in all three planes, so code written once
against it runs unchanged on the hyperbolic plane, the sphere and the
euclidean plane.  ``Geometry.HYPERBOLIC.model`` is a plain attribute,
set once this module has built the hyperboloid's model; on the other two
members ``model`` is a cached property whose first read imports
``planes`` and builds that plane's model, so a hyperbolic command never
compiles ``planes``.  Lines are one kind of value on every plane: the
unit covector of the line in homogeneous coordinates, which
``PlaneModel`` builds, meets, measures against and drops feet onto with
one formula each, parameterised by the curvature.  ``model.line(p, q)``
builds one (with its checks) once, so a figure that reads a side line
several times builds it only once, and ``model.line_angle(l, m)``
measures the angle between two lines it has built.  The angle at a point
is the one between the lines through it, and the midpoint of p and q is P + Q
projected back, on every plane.  A model keeps only what differs between
the planes: its two coordinate maps, ``lift`` (a point to its
homogeneous vector) and ``project`` (a homogeneous vector back to its
point), its distances and polar coordinates, and where two lines meet.
The hyperboloid also moves a far vertex onto the origin before it
measures the angle there.

Every value type of the package (points, figures, reports, scene
elements) derives from Record: an immutable class whose fields are its
``__slots__``, with equality, hashing and repr over those fields.
Record writes one function per class, its ``__init__``, from the slot
list and compiles it as the class is defined; it writes each field
through the slot's member descriptor, at about half the cost of
``object.__setattr__`` by name.  Each command is a short ``ccplane``
process that pays for its own import: the 21 constructors compile in
about 1.3 ms (2-vCPU Xeon, CPython 3.11), where the standard library's
``dataclasses`` imports ``inspect``, ``ast`` and ``dis`` and compiles six
functions per class, about 30 ms or a fifth of each command.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from enum import Enum

from . import corevec as vec
from .constants import MAX_HYPERBOLIC_SIDE, TOL_CLAMP, TOL_POINT
from .errors import (
    DegenerateInputError,
    GeometryError,
    InvalidPointError,
    OutOfModelError,
)

Vec3 = tuple[float, float, float]

# Two points span no line, and two lines are one, when their cross
# product is this small.
_CROSS_EPS = 1e-10
_CROSS_EPS_SQUARED = _CROSS_EPS * _CROSS_EPS

# The sheet band's ceiling: a module name reads faster than ``math.inf``.
_INF = math.inf


class Record:
    """Immutable value whose fields are the public names in ``__slots__``.

    A subclass lists its fields in ``__slots__`` in order.  Record builds
    its ``__init__``: one parameter per field, each written in slot order
    through the slot's member descriptor, then ``self.__post_init__()``
    where the class defines one, so checks go in that hook.  The hook is
    looked up at call time, so one patched onto the class is seen.  A
    class whose trailing fields have defaults names them in
    ``_defaults``, for example ``{"style": "point"}``.  Slots
    named with a leading underscore (a cache, ``__dict__``) are not
    fields: equality, hashing and repr ignore them.  Equality holds only
    between instances of the same class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._fields = fields
        # The constructor one would write by hand, compiled under a
        # filename that names the class, so tracebacks say which record
        # failed.  Record's own __setattr__ refuses, so each field goes
        # through its slot's member descriptor, whose ``__set__`` is bound
        # once here: half the cost of ``object.__setattr__`` by name.
        lines = [f"def __init__(self, {', '.join(fields)}):"]
        lines += [f"    _set_{n}(self, {n})" for n in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        filename = f"<{cls.__module__}.{cls.__qualname__}.__init__>"
        scope = {f"_set_{n}": getattr(cls, n).__set__ for n in fields}
        exec(compile("\n".join(lines), filename, "exec"), scope)
        init = scope["__init__"]
        # KeyError unless ``_defaults`` names trailing fields only.
        init.__defaults__ = tuple(
            cls._defaults[n] for n in fields[len(fields) - len(cls._defaults):]
        )
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

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

    # The hyperboloid's model is set on its member at the end of the
    # module, a plain attribute on every figure's hot path; the other two
    # are built on their first read and kept.
    @functools.cached_property
    def model(self) -> PlaneModel:
        from . import planes

        return planes.MODELS[self]()


def substream(label: str, seed: int, index: int = 0) -> random.Random:
    """Independent RNG for one (campaign, trial) pair.

    Seeded with the string "label:seed:index", so every campaign, trial
    index and geometry gets its own stream, and each reproduces exactly
    across platforms and processes.  It lives with the types every layer
    imports, so ``lexell`` and ``verify`` draw without loading the sampler.
    """
    return random.Random(f"{label}:{seed}:{index}")


def on_sheet(v: Vec3) -> Vec3:
    """v itself when it lies on the upper hyperboloid sheet.

    HPoint's check, and the reference for its band: code that reads a
    point only as its coordinates checks them here without building an
    HPoint.  Anything else raises InvalidPointError.  The band is one
    comparison chain, -band <= q + 1 <= band < inf, which is
    |q + 1| <= band < inf with no call: both are false for a NaN.

    The Lexell probe's loops write these lines out on each vector they
    build: ``lexell._curve_points`` (each carrier point, then its
    mirror), the midpoints of ``locus_residuals``, and in
    ``equal_subarc_check`` each chord's carrier endpoint, mirror
    endpoint and crossing.  ``test_lexell`` holds each copy to this
    check, message included (``test_probe_points_pass_the_sheet_check``,
    ``test_written_out_sheet_checks_refuse_as_on_sheet``,
    ``test_curve_sheet_checks_refuse_as_on_sheet`` and
    ``test_points_check_every_position_and_point``, the last two on the
    chord endpoints too).
    """
    # The quadratic form carries rounding noise of order eps * v0^2,
    # so the acceptance band must widen with the point's height.  Once
    # v0^2 overflows the band is infinite and would accept anything,
    # infinite coordinates included, so it must also be finite.
    # n = -v0^2 is the form's first term, and 1 - n is 1 + v0^2 exactly.
    v0, v1, v2 = v
    n = -v0 * v0
    q = n + v1 * v1 + v2 * v2
    band = TOL_POINT * (1.0 - n)
    if not (-band <= q + 1.0 <= band < _INF) or v0 <= 0.0:
        raise InvalidPointError(f"not on the upper hyperboloid sheet: {v}")
    return v


class HPoint(Record):
    """Point of the hyperbolic plane, hyperboloid coordinates."""

    __slots__ = ("v",)


    def __post_init__(self) -> None:
        on_sheet(self.v)


class SpherePoint(Record):
    """Point of the unit sphere."""

    __slots__ = ("v",)


    def __post_init__(self) -> None:
        v0, v1, v2 = self.v
        q = v0 * v0 + v1 * v1 + v2 * v2
        if not (abs(q - 1.0) <= TOL_POINT):
            raise InvalidPointError(f"not on the unit sphere: {self.v}")


class DiskPoint(Record):
    """Conformal disk coordinates, strictly inside the unit circle."""

    __slots__ = ("u", "w")


    def __post_init__(self) -> None:
        if not (self.u * self.u + self.w * self.w < 1.0):
            raise OutOfModelError(f"outside the open unit disk: ({self.u}, {self.w})")


ORIGIN = HPoint((1.0, 0.0, 0.0))
NORTH_POLE = SpherePoint((0.0, 0.0, 1.0))


def hdist(p: Vec3, q: Vec3) -> float:
    """Hyperbolic distance between two vectors of the upper sheet.

    Near coincidence acosh(-<p,q>) loses half the digits, so the chord
    form 2*asinh(|p - q|/2) is used there instead.

    ``lexell.equal_subarc_check`` writes these lines out for each
    chord's two pieces; ``test_subarc_check_equals_the_per_chord_loop``
    (which reaches both branches) and
    ``test_chords_keep_the_separation_check`` hold that copy to this one.
    """
    p0, p1, p2 = p
    q0, q1, q2 = q
    t = -p0 * q0
    m = -(t + p1 * q1 + p2 * q2)
    # The inner product of two far points carries rounding noise of
    # order eps * p0 * q0, so the invariant clamp widens with height;
    # 1 - t is 1 + p0 * q0 exactly.
    if m < 1.0 - TOL_CLAMP * (1.0 - t):
        raise InvalidPointError(f"separation invariant violated: -<p,q> = {m}")
    if m < 1.5:
        d0, d1, d2 = p0 - q0, p1 - q1, p2 - q2
        c = -d0 * d0 + d1 * d1 + d2 * d2
        if c <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(c))
    return math.acosh(m)


def disk_to_hpoint(d: DiskPoint) -> HPoint:
    """Lift conformal disk coordinates onto the hyperboloid."""
    s = d.u * d.u + d.w * d.w
    f = 1.0 / (1.0 - s)
    return HPoint(vec.mnormalize_point(((1.0 + s) * f, 2.0 * d.u * f, 2.0 * d.w * f)))


def hpoint_to_disk(p: HPoint) -> DiskPoint:
    """Project a hyperboloid point into the conformal disk."""
    f = 1.0 / (1.0 + p.v[0])
    return DiskPoint(p.v[1] * f, p.v[2] * f)


def ideal_endpoints(l: Vec3) -> tuple[tuple[float, float], tuple[float, float]]:
    """Boundary-circle points, in disk coordinates, of the geodesic with
    line covector l: the disk chart's boundary map.

    A lightlike direction (1, x, y) lies on the geodesic when
    l0 + l1 x + l2 y = 0; with a unit covector the line always cuts
    the unit circle twice.
    """
    l0, l1, l2 = l
    q = l1 * l1 + l2 * l2
    fx, fy = -l0 * l1 / q, -l0 * l2 / q
    # q - l0^2 = 1 exactly (unit line form), so the half-chord is 1/q.
    hx, hy = -l2 / q, l1 / q
    return ((fx + hx, fy + hy), (fx - hx, fy - hy))


class PlaneModel:
    """Operations of one constant-curvature plane, behind one interface.

    Points are HPoint on the hyperboloid, SpherePoint on the sphere and
    (x, y) tuples in the euclidean plane; ``point_type`` is that type.

    - ``dist(p, q)``, ``angle(v, p, q)`` (at v), ``mid(p, q)``.  ``angle``
      is ``line_angle`` between the lines from v to p and from v to q;
      the hyperboloid first moves a vertex past ``_RECENTRE_LIMIT`` onto
      the origin.  ``mid`` is ``project(lift(p) + lift(q))``: P + Q lies on
      the ray of the midpoint, with point form 4 C(d/2)^2 (C = cosh, cos
      or 1), so only sphere antipodes, whose sum vanishes, raise
      DegenerateInputError.
    - ``base``: the base point ORIGIN, NORTH_POLE or (0.0, 0.0).
    - ``polar(theta, r)``: the point at distance r from the base point
      in direction theta.
    - ``lift(p)`` and ``project(x)``: the model's two coordinate maps.
      ``lift`` gives the homogeneous coordinates P of a point, ``p.v`` on
      the hyperboloid and the sphere and (1, x, y) in the euclidean plane.
      ``project`` takes a homogeneous vector back to the point on its ray
      (central projection): onto the upper sheet (a vector that is not
      timelike raises InvalidPointError), onto the sphere, or to x0 = 1.
      So ``project(lift(p))`` is p, and a positive combination of lifted
      points projects into their convex hull (on the sphere, of points
      in one open hemisphere).
    - ``line(p, q)``: the oriented line through two distinct points, as
      its unit covector l, which the line operations below take.  A
      figure that reads a line more than once builds it once and keeps it.
    - ``meet(l, m, s1, s2)``: where line l meets line m = line(s1, s2);
      on the sphere, the one of the antipodal pair on [s1, s2].  Lines
      that do not meet (ultraparallel, parallel) raise GeometryError.
    - ``line_angle(l, m)``: the angle between the directions of l and m
      where they meet, in [0, pi].
    - ``side_value(l, p)``: l . P, s_K of the signed distance from p to l.
    - ``line_residual(l, p)``: |l . P|, zero exactly when p is on line l.
    - ``foot(p, l)``: the point of line l nearest p.
    - ``versine(d)``: X(d) = 2 s_K(d/2)^2, that is cosh d - 1, 1 - cos d
      or d^2/2, in which the three planes share their trigonometry.
    - ``corner_cosines(polar)``: the law of cosines on three vertices
      given as ``polar`` arguments, with no point built; the sampler's
      angle floor reads these cosines alone.
    - ``s_K``/``t_K``: sinh/sin/identity and tanh/tan/identity, with
      ``s_K_inv`` and ``t_K_inv`` their inverses; ``kappa`` is the
      curvature.
    - ``side_limit``: the longest length a triangle side, hypotenuse or
      stretch ratio may have; every plane checks ``x > side_limit``.

    The five line operations are written once, here, in homogeneous
    coordinates (the central projection of each plane, in which lines
    are straight).  Points carry the form diag(1, kappa, kappa) and lines
    diag(kappa, 1, 1).  The line through p and q is the plain cross
    product P x Q, scaled to unit line form kappa l0^2 + l1^2 + l2^2 = 1.
    Its unscaled form is s_K(dist(p, q))^2, so a pair whose form is at
    most _CROSS_EPS^2 spans no line: coincident points, antipodal ones on
    the sphere, and on the hyperboloid points so far out that the rounded
    product is not spacelike.  (The product rounds by about 4 eps p0 q0,
    below _CROSS_EPS out to v0 ~ 300, distance 6.4, past every sampled
    figure.)
    On the hyperboloid l is the unit spacelike normal n of the geodesic
    with component 0 negated, l = (-n0, n1, n2), so l . P = <P, n> to
    the last bit.  Lines l and m meet at l x m, and the foot of p is
    P - (l . P) (kappa l0, l1, l2), whose point form is 1 - kappa (l . P)^2.
    The foot, the midpoint and the meet go back to their points through
    ``project``; a model's ``_meet_point`` first checks that the lines
    meet, and the sphere's picks one of the antipodal pair.
    """

    lift = staticmethod(operator.attrgetter("v"))

    def line(self, p, q) -> Vec3:
        p0, p1, p2 = self.lift(p)
        q0, q1, q2 = self.lift(q)
        l0 = p1 * q2 - p2 * q1
        l1 = p2 * q0 - p0 * q2
        l2 = p0 * q1 - p1 * q0
        nn = self.kappa * (l0 * l0) + l1 * l1 + l2 * l2
        if not nn > _CROSS_EPS_SQUARED:
            raise DegenerateInputError(
                "points coincide, are antipodal or are too far apart to span a line"
            )
        s = math.sqrt(nn)
        return (l0 / s, l1 / s, l2 / s)

    def side_value(self, l: Vec3, p) -> float:
        p0, p1, p2 = self.lift(p)
        return p0 * l[0] + p1 * l[1] + p2 * l[2]

    def line_residual(self, l: Vec3, p) -> float:
        p0, p1, p2 = self.lift(p)
        return abs(p0 * l[0] + p1 * l[1] + p2 * l[2])

    def meet(self, l: Vec3, m: Vec3, s1, s2):
        a0, a1, a2 = l
        b0, b1, b2 = m
        x0 = a1 * b2 - a2 * b1
        x1 = a2 * b0 - a0 * b2
        x2 = a0 * b1 - a1 * b0
        if x0 * x0 + x1 * x1 + x2 * x2 <= _CROSS_EPS_SQUARED:
            raise DegenerateInputError("identical lines")
        return self._meet_point((x0, x1, x2), l, s1, s2)

    def line_angle(self, l: Vec3, m: Vec3) -> float:
        """Angle between the directions of unit lines l and m where they meet.

        atan2(sqrt(F(l x m)), G(l, m)), with G = diag(kappa, 1, 1) the
        line form and F = diag(1, kappa, kappa) the point form.  G(l, m)
        is the cosine of the angle: the unit lines are the unit normals of
        their directions, turned the same way.  F is the adjugate of G, so
        the Lagrange identity holds in these forms,

            F(l x m) = G(l, l) G(m, m) - G(l, m)^2,

        which for unit lines is 1 - cos^2, the squared sine.  So the
        angle needs no tangent and no point: its one cross product, l x m,
        is where the lines meet.  F(l x m) < 0 means that they do not meet
        (ultraparallel on the hyperboloid) and raises GeometryError.
        """
        a0, a1, a2 = l
        b0, b1, b2 = m
        x0 = a1 * b2 - a2 * b1
        x1 = a2 * b0 - a0 * b2
        x2 = a0 * b1 - a1 * b0
        kappa = self.kappa
        f = x0 * x0 + kappa * (x1 * x1 + x2 * x2)
        if f < 0.0:
            raise GeometryError("the lines do not meet")
        return math.atan2(math.sqrt(f), kappa * (a0 * b0) + a1 * b1 + a2 * b2)

    def angle(self, v, p, q) -> float:
        return self.line_angle(self.line(v, p), self.line(v, q))

    def mid(self, p, q):
        p0, p1, p2 = self.lift(p)
        q0, q1, q2 = self.lift(q)
        w0, w1, w2 = p0 + q0, p1 + q1, p2 + q2
        # Beyond antipodes, the form also cancels away for hyperbolic
        # pairs so far out (v0 ~ 1e16) that it rounds to nothing.
        if not w0 * w0 + self.kappa * (w1 * w1 + w2 * w2) > _CROSS_EPS_SQUARED:
            raise DegenerateInputError("points are antipodal or too far apart to have a midpoint")
        return self.project((w0, w1, w2))

    def foot(self, p, l: Vec3):
        p0, p1, p2 = self.lift(p)
        l0, l1, l2 = l
        h = p0 * l0 + p1 * l1 + p2 * l2
        # 1 - h^2 = (1 - |h|)(1 + |h|): on the sphere p is within
        # TOL_POINT of a pole of the line, equally far from all its points.
        if 1.0 - self.kappa * (h * h) <= 2.0 * TOL_POINT:
            raise DegenerateInputError("every point of the line is equally far from p")
        return self.project((p0 - h * (self.kappa * l0), p1 - h * l1, p2 - h * l2))

    def versine(self, d: float) -> float:
        """X(d) = 2 s_K(d/2)^2: cosh d - 1, 1 - cos d or d^2/2."""
        s = self.s_K(0.5 * d)
        return 2.0 * (s * s)

    def corner_cosines(
        self, polar: tuple[tuple[float, float], ...]
    ) -> tuple[float, float, float] | None:
        """Cosines of the corners at the three (theta, r) vertices, in order.

        The law of cosines of M^2_kappa, written in X = ``versine``.  The
        sampler runs this on every draw, and these cosines alone decide its
        angle floor.  So each X(dr) is computed in place, with
        ``versine``'s own operations in its order; ``versine`` is the
        reference it equals to the last bit.
        Between vertices i and j (dr = r_i - r_j, dt = theta_i - theta_j),

            X = X(dr) + 2 s_K(r_i) s_K(r_j) sin(dt/2)^2,

        a sum of nonnegative terms, so no side is lost to cancellation.
        With s_K(d)^2 = X (2 - kappa X), the corner facing side a has
        cosine (X_b + X_c - kappa X_b X_c - X_a) / (s_K(b) s_K(c)).
        Returns None when a side vanishes.
        """
        (t1, r1), (t2, r2), (t3, r3) = polar
        s_K, kappa = self.s_K, self.kappa
        k1, k2, k3 = s_K(r1), s_K(r2), s_K(r3)
        # Doubling is exact: these are 2 (s_K(dr/2)^2 + ...) to the last bit.
        h, w = s_K(0.5 * (r2 - r3)), math.sin(0.5 * (t2 - t3))
        xa = 2.0 * (h * h) + 2.0 * k2 * k3 * (w * w)
        h, w = s_K(0.5 * (r3 - r1)), math.sin(0.5 * (t3 - t1))
        xb = 2.0 * (h * h) + 2.0 * k3 * k1 * (w * w)
        h, w = s_K(0.5 * (r1 - r2)), math.sin(0.5 * (t1 - t2))
        xc = 2.0 * (h * h) + 2.0 * k1 * k2 * (w * w)
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


# Beyond this time coordinate (distance ~5 from the origin) the lines
# through a vertex have components of size v0, so F(l x m), the squared
# sine of the angle between them, rounds by about eps v0^2 and washes out
# small angles; ``HyperboloidModel.angle`` first moves the vertex onto
# the origin, where the lines through it are exact cross products.
_RECENTRE_LIMIT = 75.0


class HyperboloidModel(PlaneModel):
    point_type = HPoint
    kappa = -1.0
    base = ORIGIN
    side_limit = MAX_HYPERBOLIC_SIDE
    s_K = staticmethod(math.sinh)
    s_K_inv = staticmethod(math.asinh)
    t_K = staticmethod(math.tanh)
    t_K_inv = staticmethod(math.atanh)

    # ``hdist`` is the one module function the model calls, by its module
    # name at call time, so code that wraps it also sees these calls.
    def dist(self, p: HPoint, q: HPoint) -> float:
        return hdist(p.v, q.v)

    def angle(self, v: HPoint, p: HPoint, q: HPoint) -> float:
        if v.v[0] > _RECENTRE_LIMIT:
            rp, rq = self._recentre(v.v, (p.v, q.v))
            v, p, q = ORIGIN, HPoint(rp), HPoint(rq)
        return PlaneModel.angle(self, v, p, q)

    def polar(self, theta: float, r: float) -> HPoint:
        # (0, cos theta, sin theta) is unit to 2 ulps and exactly tangent
        # at the origin, so it goes to the exponential map unchecked.
        n = (0.0, math.cos(theta), math.sin(theta))
        return HPoint(vec.mgeo_point(ORIGIN.v, n, r))

    def project(self, x: Vec3) -> HPoint:
        x0, x1, x2 = x
        if -x0 * x0 + x1 * x1 + x2 * x2 >= 0.0:
            raise InvalidPointError(f"not timelike: {x}")
        return HPoint(vec.mnormalize_point(x))

    def _meet_point(self, x: Vec3, l: Vec3, s1: HPoint, s2: HPoint) -> HPoint:
        # Ultraparallel and asymptotically parallel lines meet outside
        # the sheet, where x is not timelike.
        x0, x1, x2 = x
        if -x0 * x0 + x1 * x1 + x2 * x2 >= 0.0:
            raise GeometryError("the lines do not meet")
        return self.project(x)

    @staticmethod
    def _recentre(v: Vec3, pts: tuple[Vec3, ...]) -> list[Vec3]:
        """pts under the point reflection about the midpoint of [v, origin]:
        an isometry taking v exactly to the origin."""
        # <v+e0, v+e0> = -(2 + 2 v0), so the midpoint comes out in closed
        # form with no cancellation.
        s = math.sqrt(2.0 + 2.0 * v[0])
        m = ((v[0] + 1.0) / s, v[1] / s, v[2] / s)
        out = []
        for x in pts:
            d = 2.0 * vec.minner(x, m)
            out.append((-x[0] - d * m[0], -x[1] - d * m[1], -x[2] - d * m[2]))
        return out


Geometry.HYPERBOLIC.model = HyperboloidModel()
