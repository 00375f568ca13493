"""Triangle areas over a fixed base and the constant-area locus.

The area of a hyperbolic triangle is its angle deficit.  A right
triangle with legs a and b has the area R with

    tan(R/2) = tanh(a/2) * tanh(b/2),

and every closed-form area here is that one formula, ``_right_area``,
with ``math.inf`` for an ideal leg (tanh(inf) is exactly 1).  The
perpendicular from an apex at height y over the base line splits the
triangle into two right pieces: with the foot at offset a from the
midpoint of a base of half-length x, their legs are x - a and x + a,
and y.  On the bisector the area is 2 * _right_area(x, y); it grows
with the height towards 2 * _right_area(x, inf).

The paper writes the bisector area as 2 * arccos(f(cosh y)) with

    f(u) = (cosh x * u - 1)(cosh x + u) / ((cosh x * u)^2 - 1)
         = (c + u) / (c u + 1),   c = cosh x,

so f is the cosine of one right piece's area R.  Then
1 - f = (c - 1)(u - 1)/(c u + 1) and 1 + f = (c + 1)(u + 1)/(c u + 1),
and tan^2(R/2) = (1 - f)/(1 + f) = tanh^2(x/2) * tanh^2(y/2): the same
formula, reached without subtracting two nearly equal numbers.  Near
the base, where f is 1 - O(y^2), arccos(f) keeps only half its digits;
the closed form keeps them all, so no command evaluates f: the tests
keep it as the oracle they hold the closed form to.

The apexes producing a given area form two hypercycle arcs: curves at
constant distance from a geodesic axis.  The axis through the midpoints
of PA and P'B (P' the mirror of P across the bisector of the base)
carries the hypercycle through P on one side and its mirror image,
through A and B, on the other.  Sliding the apex height foliates the
half-plane by such leaves.  The foliation finds each leaf's height by
inverting the bisector area exactly, y = 2 * atanh(tan(T/4) / tanh(x/2)),
and holds the leaf's measured area to its target.  When both base
vertices escape to the boundary the leaves become hypercycles
asymptotic to the base line, and the area at distance c is
2 * _right_area(inf, c) = pi - 2*arctan(1/sinh c).

Each curve is evaluated in one pass: ``hypercycle_points`` reads the
curve's cached frame once and builds every point a caller asks for, and
its loop, ``_curve_points``, is the only place the curve formula is
written.  A locus's
axis frame is built once: the mirror, and the axis curve a figure
labels, take the carrier's axis foot and tangent (``at_offset``), and
``hypercycle_points_and_mirror`` evaluates the carrier and its mirror
over shared positions in one pass.  Each curve also caches one standard
sample set, ``Hypercycle.samples`` (HYPERCYCLE_SEGMENTS + 1 points over
the sample range, evaluated on first read): the foliation's leaf scan
and the leaf's polyline read the same points, so a drawn foliation
evaluates each leaf once.  Points come back as plain
3-vectors, each passed through HPoint's sheet check (``k.on_sheet``):
the locus probe, the foliation's leaf scan and the render polylines
read only coordinates, so they build no HPoint, and the probe's
midpoints and chord crossings pass the same check.  The locus probe
measures each sample by its Fermi coordinates over the base line, the
signed height t and the foot's arclength s, and adds the two right
pieces the perpendicular cuts off: _right_area(sa - s, t) +
_right_area(s - sb, t), with the vertices at sa and sb.  Over a base of
half-length x one such area is within eps * (7 pi + 9 + 6x) of exact,
and a locus's area spread within twice that (``_base_areas`` derives
it); ``lexell_locus`` still measures the locus's own area as the angle
deficit, an independent route.

Every base is the standard one, and the records hold it exactly.
``BaseConfig`` accepts only A = polar(0, x) and B its bisector mirror,
so the base line is x2 = 0, its midpoint the origin and its bisector
x1 = 0.  A locus axis joins mirror images across that bisector, so its
covector has l1 = 0 exactly, and ``Hypercycle`` accepts no other axis;
the axis foot of the origin then has g0[1] = +0.0 and the axis tangent
is (+-0, u01, +-0).  The loops compute in that frame and drop every
term it makes zero, to the last bit of every output.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

from . import corevec as vec
from . import kernel as k
from .constants import MAX_HYPERBOLIC_SIDE, TOL_AREA, TOL_ID
from .errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleAreaError,
)
from .kernel import Geometry, HPoint, Record, Vec3

# Ceiling for apex heights; the area gap to its supremum at this height
# is far below double precision.
MAX_APEX_HEIGHT = 40.0

# Parameter range for sampling points along a hypercycle.
SAMPLE_RANGE = 3.0

# Segments of a hypercycle's standard sample set, ``Hypercycle.samples``:
# a figure's polyline and the foliation's leaf scan both read it.
HYPERCYCLE_SEGMENTS = 64

# The longest half-base: a base is a side, at most MAX_HYPERBOLIC_SIDE
# long.  It bounds ``BaseConfig`` and the apex-area supremum and its
# inverse (``max_apex_area``, ``_invert_apex_area``) alike.
MAX_HALF_BASE = MAX_HYPERBOLIC_SIDE / 2.0

# An apex whose ``line_residual`` against the base line is at most this
# lies on the line.  For an apex at height y on the bisector it is sinh(y).
BASE_LINE_TOL = 1e-9

# HPoint's check sums squares of two coordinates, so none may exceed
# sqrt(max float / 2); this is its log.
_LOG_COORD_MAX = 0.5 * math.log(sys.float_info.max / 2.0)

# Points are placed in polar coordinates around the hyperboloid origin;
# theta = 0 runs along the base line and pi/2 up the bisector.
_MODEL = Geometry.HYPERBOLIC.model


class Hypercycle(Record):
    """Points at constant signed distance ``offset`` from ``axis``, a
    line covector of the hyperbolic model (``PlaneModel.line``).

    The axis is perpendicular to the standard base's bisector x1 = 0, as
    every locus axis is (``lexell_locus``): its l1 is zero, and the curve
    formula leaves that term out.  Any other axis raises DomainError."""

    # ``__dict__`` holds the cached ``_axis_frame`` and ``samples``; a
    # curve made by ``at_offset`` holds its frame from the start, on its
    # source's axis frame, and builds its own samples.
    __slots__ = ("axis", "offset", "__dict__")

    def __post_init__(self) -> None:
        if self.axis[1]:
            raise DomainError(f"axis {self.axis} is not perpendicular to the base's bisector")
        if not abs(self.offset) <= _LOG_COORD_MAX:
            raise DomainError(f"offset {self.offset} puts the curve beyond float range")

    @cached_property
    def _axis_frame(self) -> tuple[Vec3, Vec3, float, float, float]:
        """Foot g0 of the model origin on the axis, the axis tangent there,
        cosh and sinh of the offset, and the reach: a bound on |s| within
        which every point's coordinates fit HPoint's check.  g0 and the
        tangent depend on the axis alone: a locus's mirror and its
        figure's axis curve take them from the carrier (``at_offset``)."""
        g0 = _MODEL.foot(k.ORIGIN, self.axis).v
        l0, l1, l2 = self.axis
        return self._offset_frame(g0, vec.mcross(g0, (-l0, l1, l2)))

    @cached_property
    def samples(self) -> tuple[Vec3, ...]:
        """The curve's standard sample set: HYPERCYCLE_SEGMENTS + 1 checked
        vectors at the ``sample_positions``, from one ``hypercycle_samples``
        pass on first read."""
        return tuple(hypercycle_samples(self, HYPERCYCLE_SEGMENTS + 1))

    def _offset_frame(self, g0: Vec3, u0: Vec3) -> tuple[Vec3, Vec3, float, float, float]:
        co = math.cosh(self.offset)
        # g0, u0 and the normal have coordinates of at most g0[0], so a
        # point's are at most 3 g0[0] cosh(offset) e^|s|.
        reach = _LOG_COORD_MAX - math.log(3.0 * g0[0] * co)
        return (g0, u0, co, math.sinh(self.offset), reach)

    def at_offset(self, offset: float) -> "Hypercycle":
        """The curve at ``offset`` from the same axis, on this curve's axis
        frame: it computes only cosh, sinh and the reach of its own offset,
        so its frame equals one built from scratch."""
        hc = Hypercycle(self.axis, offset)
        hc.__dict__["_axis_frame"] = hc._offset_frame(*self._axis_frame[:2])
        return hc


def hypercycle_residual(hc: Hypercycle, p: HPoint) -> float:
    """How far p misses the curve, as |sinh(dist) - sinh(offset)|."""
    return abs(_MODEL.side_value(hc.axis, p) - hc._axis_frame[3])


def hypercycle_points(hc: Hypercycle, positions) -> list[Vec3]:
    """Points over the axis positions, in one pass over the curve, as
    checked hyperboloid vectors.

    With gamma the unit-speed axis and n = (-l0, l1, l2) its unit
    normal, for the axis covector l, the curve is
    cosh(offset) * gamma(s) + sinh(offset) * n, which stays at signed
    distance ``offset`` for every s; s = 0 is nearest the model origin.
    The curve's frame (the axis foot g0 and tangent u0, cosh and sinh
    of the offset) is cached and read once per call, and so is the
    offset term sinh(offset) * n, so a point costs one cosh(s) and one
    sinh(s) in closed form: gamma(s) = cosh(s) * g0 + sinh(s) * u0.  A
    position whose point has coordinates no float holds raises
    DomainError before it is built, and every point goes through
    HPoint's sheet check, ``k.on_sheet``, so each vector is one that
    ``HPoint`` accepts.
    """
    return _curve_points(hc, positions, None)


def hypercycle_points_and_mirror(
    hc: Hypercycle, positions
) -> tuple[list[Vec3], list[Vec3]]:
    """Points of hc and of its mirror image across the axis, the curve at
    -offset (a locus's carrier and mirror), over the same positions.

    One pass serves both: cosh(-o) = cosh(o) and sinh(-o) = -sinh(o)
    exactly, so each position's cosh(offset) * gamma(s) is computed once
    and the two points add +sinh(offset) * n and -sinh(offset) * n; each
    equals, bit for bit, the point ``hypercycle_points`` builds on its
    own curve.  Each position checks hc's point and then the mirror's.
    """
    mirrored: list[Vec3] = []
    return _curve_points(hc, positions, mirrored), mirrored


def _curve_points(hc: Hypercycle, positions, mirrored: list[Vec3] | None) -> list[Vec3]:
    # The curve formula of ``hypercycle_points``; with ``mirrored`` a
    # list, the mirror's points are appended to it.  The axis has l1 = 0,
    # so g0[1] is +0.0 and u0[0], u0[2] and the normal's n1 are +-0: a
    # point is co*(ch*g00) + t0, co*(sh*u01) and co*(ch*g02) + t2.  At
    # s = 0, ``or 0.0`` gives v1 the +0.0 that ch*g01 + sh*u01 gives it.
    g0, u0, co, so, reach = hc._axis_frame
    g00, _, g02 = g0
    u01 = u0[1]
    l0, _, l2 = hc.axis
    t0, t2 = so * -l0, so * l2
    cosh, sinh, check = math.cosh, math.sinh, k.on_sheet
    pts = []
    append = pts.append
    for s in positions:
        if not -reach <= s <= reach:
            raise DomainError(f"axis position {s} puts the point beyond float range")
        ch = cosh(s)
        x0 = co * (ch * g00)
        x1 = co * (sinh(s) * u01) or 0.0
        x2 = co * (ch * g02)
        append(check((x0 + t0, x1, x2 + t2)))
        if mirrored is not None:
            mirrored.append(check((x0 - t0, x1, x2 - t2)))
    return pts


def sample_positions(n: int) -> list[float]:
    """n evenly spaced axis positions from -SAMPLE_RANGE to SAMPLE_RANGE."""
    if n < 2:
        raise DomainError("need at least two sample points")
    step = 2.0 * SAMPLE_RANGE / (n - 1)
    return [-SAMPLE_RANGE + i * step for i in range(n)]


def hypercycle_samples(hc: Hypercycle, n: int) -> list[Vec3]:
    """n checked vectors at the ``sample_positions``; see ``hypercycle_points``."""
    return hypercycle_points(hc, sample_positions(n))


class BaseConfig(Record):
    """The standard base of half-length x = ``half_distance`` on the disk's
    real axis: ``a`` is exactly polar(0, x) and ``b`` exactly its bisector
    mirror (``_bisector_mirror``), which is polar(0, -x) to the last bit.
    Any other pair raises DomainError, so every Lexell computation may
    take the base's exact frame (see the module docstring)."""

    __slots__ = ("a", "b", "half_distance")

    def __post_init__(self) -> None:
        x = self.half_distance
        if not 0.0 < x <= MAX_HALF_BASE:
            raise DomainError(f"half-distance {x} outside (0, {MAX_HALF_BASE}]")
        if self.a.v != _MODEL.polar(0.0, x).v or self.b.v != _bisector_mirror(self.a).v:
            raise DomainError("base vertices are not the standard pair at +-half-distance")

    @classmethod
    def from_half_distance(cls, x: float) -> "BaseConfig":
        if not 0.0 < x <= MAX_HALF_BASE:
            raise DomainError(f"half-distance {x} outside (0, {MAX_HALF_BASE}]")
        a = _MODEL.polar(0.0, x)
        return cls(a=a, b=_bisector_mirror(a), half_distance=x)

    def base_line(self) -> Vec3:
        return _MODEL.line(self.a, self.b)


def _bisector_mirror(p: HPoint) -> HPoint:
    """Mirror image of p across the perpendicular bisector of every
    standard-position base, the line x1 = 0: v1 changes sign, exactly,
    and a zero keeps its sign."""
    v0, v1, v2 = p.v
    return HPoint((v0, -v1 if v1 else v1, v2))


class AreaLocus(Record):
    """Constant-area apex locus over a base: hypercycle pair and value.

    ``carrier`` holds the apexes on the side of the constructed apex;
    ``mirror`` is the equidistant curve on the far side of the shared
    axis and passes through both base vertices.
    """

    __slots__ = ("base", "carrier", "mirror", "area")


def _deficit(p: HPoint, q: HPoint, r: HPoint) -> float:
    """pi minus the angle sum; valid beyond the Triangle side range."""
    angle = _MODEL.angle
    return math.pi - (angle(p, q, r) + angle(q, r, p) + angle(r, p, q))


def _base_areas(pts: list[Vec3], a: HPoint, b: HPoint) -> list[float]:
    """Area of each triangle z a b, from z's Fermi coordinates over line ab,
    for each hyperboloid vector z of pts; a and b are a ``BaseConfig``'s
    vertices.

    The base's frame is exact: the base line x2 = 0 has unit normal
    n = (0, 0, -1), its midpoint m is the origin, and its unit tangent
    there, turned toward a, is e = (0, 1, 0).  The vertices sit at
    arclengths sa = asinh <a, e> = asinh a1 and sb = asinh b1 from m.
    For a sample z, h = <z, n> = -z2 is the sinh of its signed height and
    t = |asinh h|; its foot on the line sits at s = asinh(<z, e> /
    hypot(1, h)), with <z, e> = z1.  The perpendicular from z cuts the
    triangle into right triangles with legs (sa - s, t) and (s - sb, t);
    ``_right_area`` is odd in its first leg, so the sum holds with the
    foot beyond a vertex too, where one piece counts negative.  No sample
    is checked against the vertices: a carrier sample lies at offset
    o > 0 from the locus axis and the vertices at -o.

    Rounding band.  h = -z2 and <z, e> = z1 carry no rounding.  Take
    each library call within 2 ulps (2 eps relative) and each operation
    within eps/2, and write P, Q, T for tanh of half the legs p = sa - s, q = s - sb and t.
    One right piece takes two tanh, a product and atan: u = P T is off by
    4.5 eps relative, which moves 2 atan(u) by at most 4.5 eps |R| since
    2u/(1 + u^2) <= 2 atan(u); atan adds 2 eps |R|.  With the final sum
    that is 7 eps (|R1| + |R2|).  The legs enter through dR/dp = T
    sech^2(p/2)/(1 + P^2 T^2), between 0 and sech^2(p/2), and dR/dt, at
    most sech^2(t/2) in size; p sech^2(p/2) <= 0.9 bounds each term that
    grows with a leg.  So the subtractions cost 2 * 0.45 eps; s, off by
    2.5 eps (hypot and the division, through asinh) plus 2 eps |s| with
    |s| <= |p| + X (X = max(|sa|, |sb|)), costs (4.3 + 2X) eps through
    dA/ds, which is at most the larger sech^2; t, off by 2 eps t, costs
    2 sech^2(t/2) * 2 eps t <= 3.6 eps; and sa, sb, off by 2 eps X each,
    cost 4 eps X.  To first order one area is within

        B = eps * (7 (|R1| + |R2|) + 9 + 6X) <= eps * (7 pi + 9 + 6X)

    of the area of the points as given, and samples that share one exact
    area spread by at most twice that: 2 eps (7 pi + 9 + 6X).  The
    samples' own rounding, from ``hypercycle_points``, is not in it.
    """
    asinh, hypot, right = math.asinh, math.hypot, _right_area
    sa, sb = asinh(a.v[1]), asinh(b.v[1])
    areas = []
    for _, z1, z2 in pts:
        h = -z2
        t = abs(asinh(h))
        s = asinh(z1 / hypot(1.0, h))
        areas.append(right(sa - s, t) + right(s - sb, t))
    return areas


def _right_area(a: float, b: float) -> float:
    """Area of the right triangle with legs a and b: tan(R/2) = tanh(a/2)
    tanh(b/2).  ``math.inf`` stands for an ideal leg."""
    return 2.0 * math.atan(math.tanh(0.5 * a) * math.tanh(0.5 * b))


def max_apex_area(x: float) -> float:
    """Supremum of apex areas over base 2x: the height goes to infinity."""
    if not 0.0 < x <= MAX_HALF_BASE:
        raise DomainError(f"half-base {x} out of range")
    return 2.0 * _right_area(x, math.inf)


def lexell_locus(base: BaseConfig, p: HPoint) -> AreaLocus:
    """Constant-area hypercycle pair through the apex p over the base.

    The axis passes through the midpoints of PA and P'B, where P' is
    the mirror of P across the base's perpendicular bisector.  A and B
    are exact mirror images, so the midpoint of P'B is the exact mirror
    of the midpoint of PA, and the axis through them has l1 = 0 exactly,
    as ``Hypercycle`` requires.  Only O(1)
    conditions are checked (P off the base line, distinct midpoints, A
    and B on the mirror, P on the carrier); area constancy is the theorem
    itself, and ``locus_residuals`` alone samples and measures it.
    """
    if _MODEL.line_residual(base.base_line(), p) <= BASE_LINE_TOL:
        raise DegenerateInputError("apex lies on the base line")
    m1 = _MODEL.mid(p, base.a)
    m2 = _bisector_mirror(m1)
    # Coincident midpoints span no line: ``line`` raises DegenerateInputError.
    axis = _MODEL.line(m1, m2)
    # Measure the offset against the base vertices rather than the apex:
    # l . p cancels catastrophically for a far apex, while a and b stay
    # near the origin and keep full precision.  The mirror holds both,
    # so their signed distances must agree.
    sa = math.asinh(_MODEL.side_value(axis, base.a))
    sb = math.asinh(_MODEL.side_value(axis, base.b))
    if abs(sa - sb) > TOL_ID:
        raise GeometryError("base vertex misses the mirror hypercycle")
    offset = -0.5 * (sa + sb)
    if offset < 0.0:
        # Orient the axis so its normal points at the apex side; the
        # carrier offset is then always positive.
        axis = (-axis[0], -axis[1], -axis[2])
        offset = -offset
    carrier = Hypercycle(axis, offset)
    mirror = carrier.at_offset(-offset)
    # The apex must sit on its own carrier; its inner product carries
    # rounding noise growing with height, so the band scales with it.
    band = TOL_ID * (1.0 + p.v[0])
    if hypercycle_residual(carrier, p) > band:
        raise GeometryError("apex misses its own carrier hypercycle")
    return AreaLocus(
        base=base, carrier=carrier, mirror=mirror, area=_deficit(p, base.a, base.b)
    )


class LocusResiduals(Record):
    """Worst-case checks of one locus: all should sit at rounding level."""

    __slots__ = ("area_spread", "mirror_residual", "midline_residual", "subarc_residual")


def locus_residuals(
    locus: AreaLocus, samples: int = 20, chords: int = 100, seed: int = 0
) -> LocusResiduals:
    """Probe the locus: area spread, mirror membership, midpoint line,
    and (for ``chords`` > 0) the equal-subarc property.  A negative
    ``chords`` raises DomainError.

    The carrier's samples come from one ``hypercycle_points`` pass, and
    their areas over the fixed base from one ``_base_areas`` call.
    """
    a, b = locus.base.a, locus.base.b
    pts = hypercycle_samples(locus.carrier, samples)
    areas = _base_areas(pts, a, b)
    # The midpoints of z a and z b lie on the axis: ``line_residual``
    # written out with the axis's l1 = 0, on midpoints built and checked
    # as the model's ``mid`` builds them.
    a0, a1, a2 = a.v
    b0, b1, b2 = b.v
    l0, _, l2 = locus.carrier.axis
    normalize, check = vec.mnormalize_point, k.on_sheet
    midline = 0.0
    for z0, z1, z2 in pts:
        ma0, _, ma2 = check(normalize((z0 + a0, z1 + a1, z2 + a2)))
        mb0, _, mb2 = check(normalize((z0 + b0, z1 + b1, z2 + b2)))
        d = abs(ma0 * l0 + ma2 * l2)
        if d > midline:
            midline = d
        d = abs(mb0 * l0 + mb2 * l2)
        if d > midline:
            midline = d
    subarc = equal_subarc_check(locus, chords, seed=seed) if chords else 0.0
    return LocusResiduals(
        area_spread=max(areas) - min(areas),
        mirror_residual=max(
            hypercycle_residual(locus.mirror, locus.base.a),
            hypercycle_residual(locus.mirror, locus.base.b),
        ),
        midline_residual=midline,
        subarc_residual=subarc,
    )


def equal_subarc_check(locus: AreaLocus, n: int, seed: int = 0) -> float:
    """Max imbalance of n axis-cut chords between the two hypercycles.

    Each chord joins a random carrier point to a random mirror point;
    the axis bisects every such chord, so the imbalance is pure
    rounding.  One substream ("subarc", seed) serves the whole check:
    its draws give the carrier and then the mirror position of each
    chord in turn.  All 2n positions are drawn first, and each curve's
    points are built in one ``hypercycle_points`` pass.  A negative n
    raises DomainError.

    The chord z1 z2 crosses the axis l in closed form: with
    s_i = l . z_i (``side_value``, with l1 = 0) of opposite signs, w = |s2| z1 + |s1| z2
    has l . w = |s2| s1 + |s1| s2 = 0 and lies in span(z1, z2), so it is
    on both lines.  A positive combination of two future-timelike
    vectors is future-timelike, so w always normalizes onto the sheet,
    and the crossing goes through HPoint's sheet check.  ``kernel.hdist``
    measures both pieces on the vectors.
    """
    if n < 0:
        raise DomainError(f"chord count must be nonnegative: {n}")
    rng = k.substream("subarc", seed)
    draws = [-SAMPLE_RANGE + 2.0 * SAMPLE_RANGE * rng.random() for _ in range(2 * n)]
    carrier_pts = hypercycle_points(locus.carrier, draws[0::2])
    mirror_pts = hypercycle_points(locus.mirror, draws[1::2])
    l0, _, l2 = locus.carrier.axis
    normalize, check, hdist = vec.mnormalize_point, k.on_sheet, k.hdist
    worst = 0.0
    for z1, z2 in zip(carrier_pts, mirror_pts):
        p0, p1, p2 = z1
        q0, q1, q2 = z2
        s1 = p0 * l0 + p2 * l2
        s2 = q0 * l0 + q2 * l2
        if s1 * s2 >= 0.0:
            raise DomainError("chord endpoints must straddle the axis")
        w1, w2 = abs(s2), abs(s1)
        x = check(normalize((w1 * p0 + w2 * q0, w1 * p1 + w2 * q1, w1 * p2 + w2 * q2)))
        d = abs(hdist(z1, x) - hdist(x, z2))
        # The fold ``max`` makes: a NaN never replaces the worst so far.
        if d > worst:
            worst = d
    return worst


def _invert_apex_area(x: float, target: float) -> float:
    """Bisector height whose apex area over base 2x is ``target``.

    The exact inverse of 2 * ``_right_area``(x, y): T = 4 atan(tanh(x/2)
    tanh(y/2)) gives y = 2 atanh(q) with q = tan(T/4) / tanh(x/2).  A
    target below ``max_apex_area(x)`` has q < 1 except through rounding
    at the supremum, which raises InfeasibleAreaError.  q < 1 keeps y at
    most 2 atanh(1 - 2**-53) ~ 37.4, below MAX_APEX_HEIGHT.
    """
    if not 0.0 < x <= MAX_HALF_BASE:
        raise DomainError(f"half-base {x} out of range")
    q = math.tan(0.25 * target) / math.tanh(0.5 * x)
    if not q < 1.0:
        raise InfeasibleAreaError(
            f"target area {target} rounds to the apex-area supremum {max_apex_area(x)}"
        )
    return 2.0 * math.atanh(q)


def foliation(base: BaseConfig, areas: list[float]) -> list[AreaLocus]:
    """Constant-area leaves over the base, one per target area.

    Targets must lie strictly between 0 and the apex-area supremum for
    this base, no target may repeat, and each leaf's apex must sit off
    the base line by more than BASE_LINE_TOL, which ``lexell_locus``
    requires.  Each leaf's measured area must meet its target within
    TOL_AREA.  Leaves come back sorted by area with strictly growing
    offsets, and no point of a leaf's standard sample set
    (``Hypercycle.samples``, which its figure draws) lies on another leaf.
    """
    x = base.half_distance
    limit = max_apex_area(x)
    for target in areas:
        if not 0.0 < target < limit:
            raise InfeasibleAreaError(
                f"target area {target} outside the attainable range (0, {limit})"
            )
    targets = sorted(areas)
    for lower, upper in zip(targets, targets[1:]):
        if lower == upper:
            raise DegenerateInputError(f"target area {lower} is repeated; leaves must differ")
    heights = []
    for target in targets:
        y = _invert_apex_area(x, target)
        # The apex at height y on the bisector has |<p, n>| = sinh(y).
        if not math.sinh(y) > BASE_LINE_TOL:
            raise InfeasibleAreaError(
                f"target area {target} puts the leaf's apex on the base line"
            )
        heights.append(y)
    leaves = []
    for target, y in zip(targets, heights):
        leaf = lexell_locus(base, _MODEL.polar(math.pi / 2.0, y))
        if abs(leaf.area - target) > TOL_AREA:
            raise GeometryError(
                f"leaf for target area {target} measures area {leaf.area}"
            )
        leaves.append(leaf)
    for i in range(1, len(leaves)):
        if not leaves[i].carrier.offset > leaves[i - 1].carrier.offset:
            raise GeometryError("leaf offsets fail to grow with area")
    # A sample z of one leaf lies on another when |l . z - sinh(offset)|,
    # ``hypercycle_residual``, is within TOL_ID; every axis has l1 = 0.
    curves = [(leaf.carrier.axis, leaf.carrier._axis_frame[3]) for leaf in leaves]
    for i, leaf in enumerate(leaves):
        others = curves[:i] + curves[i + 1:]
        for z0, _, z2 in leaf.carrier.samples:
            for (l0, _, l2), so in others:
                if -TOL_ID <= z0 * l0 + z2 * l2 - so <= TOL_ID:
                    raise GeometryError("distinct leaves intersect")
    return leaves
