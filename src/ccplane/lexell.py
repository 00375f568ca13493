"""Triangle areas over a fixed base and the constant-area locus.

The area of a hyperbolic triangle is its angle deficit.  Over a fixed
base of half-length x, the area of the triangle with apex at height y
on the perpendicular bisector is

    2 * arccos(f(cosh y)),   f(u) = (cosh x * u - 1)(cosh x + u)
                                    / ((cosh x * u)^2 - 1)

and f is strictly decreasing, so the area grows with the height.  An
apex with foot offset a splits the triangle into two right pieces with
legs x - a and x + a, each governed by the same profile.

The apexes producing a given area form two hypercycle arcs: curves at
constant distance from a geodesic axis.  The axis through the midpoints
of PA and P'B (P' the mirror of P across the bisector of the base)
carries the hypercycle through P on one side and its mirror image,
through A and B, on the other.  Sliding the apex height foliates the
half-plane by such leaves.  When both base vertices escape to the
boundary the leaves become hypercycles asymptotic to the base line and
the area at distance c collapses to pi - 2*arctan(1/sinh c).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from . import corevec as vec
from . import kernel as k
from .cevians import Triangle
from .constants import MAX_HYPERBOLIC_SIDE, TOL_ID, TOL_POINT
from .errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleAreaError,
)
from .kernel import Geodesic, Geometry, HPoint, Vec3
from .sampling import substream
from .trig import clamped_acos

# Ceiling for apex heights; the area gap to its supremum at this height
# is far below double precision.
MAX_APEX_HEIGHT = 40.0

# Parameter range for sampling points along a hypercycle.
SAMPLE_RANGE = 3.0

# Half-length of the truncated base approximating ideal base vertices.
IDEAL_TRUNCATION = 15.0

# HPoint's check sums squares of two coordinates, so none may exceed
# sqrt(max float / 2); this is its log.
_LOG_COORD_MAX = 0.5 * math.log(sys.float_info.max / 2.0)

# Points are placed in polar coordinates around the hyperboloid origin;
# theta = 0 runs along the base line and pi/2 up the bisector.
_MODEL = Geometry.HYPERBOLIC.model


@dataclass(frozen=True)
class Hypercycle:
    """Points at constant signed distance ``offset`` from ``axis``."""

    axis: Geodesic
    offset: float

    def __post_init__(self) -> None:
        if not abs(self.offset) <= _LOG_COORD_MAX:
            raise DomainError(f"offset {self.offset} puts the curve beyond float range")

    @cached_property
    def _axis_frame(self) -> tuple[Vec3, Vec3, float, float, float]:
        """Foot g0 of the model origin on the axis, the axis tangent there,
        cosh and sinh of the offset, and the reach: a bound on |s| within
        which every point's coordinates fit HPoint's check."""
        g0 = k.foot_of_perpendicular(k.ORIGIN, self.axis).v
        co = math.cosh(self.offset)
        # g0, u0 and the normal have coordinates of at most g0[0], so a
        # point's are at most 3 g0[0] cosh(offset) e^|s|.
        return (
            g0,
            vec.mcross(g0, self.axis.normal),
            co,
            math.sinh(self.offset),
            _LOG_COORD_MAX - math.log(3.0 * g0[0] * co),
        )


def hypercycle_residual(hc: Hypercycle, p: HPoint) -> float:
    """How far p misses the curve, as |sinh(dist) - sinh(offset)|."""
    return abs(vec.minner(p.v, hc.axis.normal) - hc._axis_frame[3])


def hypercycle_point(hc: Hypercycle, s: float) -> HPoint:
    """Point over the axis position s; s = 0 is nearest the model origin.

    With gamma the unit-speed axis and n its normal, the curve is
    cosh(offset) * gamma(s) + sinh(offset) * n, which stays at signed
    distance ``offset`` for every s.  Each curve caches its frame (the
    axis foot g0 and tangent u0, cosh and sinh of the offset), so a
    point costs one cosh(s) and one sinh(s) in closed form:
    gamma(s) = cosh(s) * g0 + sinh(s) * u0.  An s whose point has
    coordinates no float holds raises DomainError before any is built.
    """
    g0, u0, co, so, reach = hc._axis_frame
    if not abs(s) <= reach:
        raise DomainError(f"axis position {s} puts the point beyond float range")
    ch = math.cosh(s)
    sh = math.sinh(s)
    n = hc.axis.normal
    return HPoint(
        (
            co * (ch * g0[0] + sh * u0[0]) + so * n[0],
            co * (ch * g0[1] + sh * u0[1]) + so * n[1],
            co * (ch * g0[2] + sh * u0[2]) + so * n[2],
        )
    )


def hypercycle_samples(hc: Hypercycle, n: int) -> list[HPoint]:
    """n points at evenly spaced axis positions from -SAMPLE_RANGE to SAMPLE_RANGE."""
    if n < 2:
        raise DomainError("need at least two sample points")
    step = 2.0 * SAMPLE_RANGE / (n - 1)
    return [hypercycle_point(hc, -SAMPLE_RANGE + i * step) for i in range(n)]


@dataclass(frozen=True)
class BaseConfig:
    """Base segment placed symmetrically on the disk's real axis."""

    a: HPoint
    b: HPoint
    half_distance: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_distance <= MAX_HYPERBOLIC_SIDE / 2.0:
            raise DomainError(
                f"half-distance {self.half_distance} outside (0, {MAX_HYPERBOLIC_SIDE / 2.0}]"
            )
        da, db = k.hpoint_to_disk(self.a), k.hpoint_to_disk(self.b)
        if max(abs(da.w), abs(db.w)) > TOL_ID or abs(da.u + db.u) > TOL_ID:
            raise DomainError("base vertices are not symmetric on the real axis")
        if abs(k.hdist(self.a, self.b) - 2.0 * self.half_distance) > TOL_ID:
            raise DomainError("half-distance does not match the vertex separation")

    @classmethod
    def from_half_distance(cls, x: float) -> "BaseConfig":
        if not 0.0 < x <= MAX_HYPERBOLIC_SIDE / 2.0:
            raise DomainError(f"half-distance {x} outside (0, {MAX_HYPERBOLIC_SIDE / 2.0}]")
        return cls(a=_MODEL.polar(0.0, x), b=_MODEL.polar(0.0, -x), half_distance=x)

    def base_line(self) -> Geodesic:
        return k.geodesic_through(self.a, self.b)


# Perpendicular bisector of every standard-position base: the set x1 = 0.
_BISECTOR = Geodesic((0.0, 1.0, 0.0))


@dataclass(frozen=True)
class AreaLocus:
    """Constant-area apex locus over a base: hypercycle pair and value.

    ``carrier`` holds the apexes on the side of the constructed apex;
    ``mirror`` is the equidistant curve on the far side of the shared
    axis and passes through both base vertices.
    """

    base: BaseConfig
    carrier: Hypercycle
    mirror: Hypercycle
    area: float


def _deficit(p: HPoint, q: HPoint, r: HPoint) -> float:
    """pi minus the angle sum; valid beyond the Triangle side range."""
    return math.pi - (k.angle_at(p, q, r) + k.angle_at(q, r, p) + k.angle_at(r, p, q))


def triangle_area(tri: Triangle) -> float:
    """Angle-deficit area of a hyperbolic triangle."""
    if tri.geometry is not Geometry.HYPERBOLIC:
        raise DomainError("angle-deficit area applies to hyperbolic triangles")
    return _deficit(tri.a, tri.b, tri.c)


def area_profile(x: float, u: float) -> float:
    """f(u) for half-base x; sin of the apex half-triangle's angle sum."""
    if not 0.0 < x <= MAX_HYPERBOLIC_SIDE + IDEAL_TRUNCATION:
        raise DomainError(f"half-base {x} out of range")
    if u < 1.0:
        raise DomainError(f"profile argument must be cosh of a height: {u}")
    cx = math.cosh(x)
    return (cx * u - 1.0) * (cx + u) / ((cx * u) ** 2 - 1.0)


def area_profile_deriv(x: float, u: float) -> float:
    """Closed-form df/du; negative everywhere, so areas grow with height."""
    if not 0.0 < x <= MAX_HYPERBOLIC_SIDE + IDEAL_TRUNCATION:
        raise DomainError(f"half-base {x} out of range")
    if u < 1.0:
        raise DomainError(f"profile argument must be cosh of a height: {u}")
    s = math.sinh(x)
    return -(s * s) / (math.cosh(x) * u + 1.0) ** 2


def apex_area_formula(x: float, y: float) -> float:
    """Area over base 2x with the apex at height y on the bisector."""
    if not 0.0 < y <= MAX_APEX_HEIGHT:
        raise DomainError(f"apex height {y} outside (0, {MAX_APEX_HEIGHT}]")
    return 2.0 * clamped_acos(area_profile(x, math.cosh(y)))


def max_apex_area(x: float) -> float:
    """Supremum of apex areas over base 2x: the height goes to infinity."""
    if not 0.0 < x <= MAX_HYPERBOLIC_SIDE + IDEAL_TRUNCATION:
        raise DomainError(f"half-base {x} out of range")
    return 2.0 * clamped_acos(1.0 / math.cosh(x))


def split_areas(x: float, a: float, t: float) -> tuple[float, float]:
    """Areas of the two right pieces cut by the apex perpendicular.

    The foot sits at signed offset a from the base midpoint, positive
    toward vertex A; the piece at A has leg x - a, the piece at B has
    leg x + a.  Returned in that order.
    """
    if not 0.0 < x <= MAX_HYPERBOLIC_SIDE:
        raise DomainError(f"half-base {x} outside (0, {MAX_HYPERBOLIC_SIDE}]")
    if abs(a) >= x:
        raise DomainError(f"foot offset {a} must satisfy |a| < {x}")
    if not 0.0 <= t <= MAX_APEX_HEIGHT:
        raise DomainError(f"apex height {t} outside [0, {MAX_APEX_HEIGHT}]")
    u = math.cosh(t)
    return (
        clamped_acos(area_profile(x - a, u)),
        clamped_acos(area_profile(x + a, u)),
    )


def split_area_limits(x: float, a: float) -> tuple[float, float]:
    """Heights-to-infinity limits of the two split pieces."""
    if not 0.0 < x <= MAX_HYPERBOLIC_SIDE:
        raise DomainError(f"half-base {x} outside (0, {MAX_HYPERBOLIC_SIDE}]")
    if abs(a) >= x:
        raise DomainError(f"foot offset {a} must satisfy |a| < {x}")
    return (
        clamped_acos(1.0 / math.cosh(x - a)),
        clamped_acos(1.0 / math.cosh(x + a)),
    )


def apex_triangle(x: float, a: float, t: float) -> tuple[HPoint, HPoint, HPoint]:
    """Vertices (A, B, P) of the split configuration, A at +x.

    The base lies on the disk's real axis; the apex P sits at height t
    above the foot point at signed offset a.
    """
    if not 0.0 < x <= MAX_HYPERBOLIC_SIDE:
        raise DomainError(f"half-base {x} outside (0, {MAX_HYPERBOLIC_SIDE}]")
    if not 0.0 < t <= MAX_APEX_HEIGHT:
        raise DomainError(f"apex height {t} outside (0, {MAX_APEX_HEIGHT}]")
    va = _MODEL.polar(0.0, x)
    vb = _MODEL.polar(0.0, -x)
    foot = _MODEL.polar(0.0, a)
    p = k.point_along(foot, (0.0, 0.0, 1.0), t)
    return (va, vb, p)


def lexell_locus(base: BaseConfig, p: HPoint) -> AreaLocus:
    """Constant-area hypercycle pair through the apex p over the base.

    The axis passes through the midpoints of PA and P'B, where P' is
    the mirror of P across the base's perpendicular bisector.  Only O(1)
    conditions are checked (P off the base line, distinct midpoints, A
    and B on the mirror, P on the carrier); area constancy is the theorem
    itself, and ``locus_residuals`` alone samples and measures it.
    """
    if k.geodesic_residual(base.base_line(), p) <= 1e-9:
        raise DegenerateInputError("apex lies on the base line")
    p_mirror = k.reflect_across(_BISECTOR, p)
    m1 = k.midpoint(p, base.a)
    m2 = k.midpoint(p_mirror, base.b)
    if k.hdist(m1, m2) <= TOL_POINT:
        raise DegenerateInputError("midpoints coincide; axis is undetermined")
    axis = k.geodesic_through(m1, m2)
    # Measure the offset against the base vertices rather than the apex:
    # <p, n> cancels catastrophically for a far apex, while a and b stay
    # near the origin and keep full precision.  The mirror holds both,
    # so their signed distances must agree.
    sa = math.asinh(vec.minner(base.a.v, axis.normal))
    sb = math.asinh(vec.minner(base.b.v, axis.normal))
    if abs(sa - sb) > TOL_ID:
        raise GeometryError("base vertex misses the mirror hypercycle")
    offset = -0.5 * (sa + sb)
    if offset < 0.0:
        # Orient the axis so its normal points at the apex side; the
        # carrier offset is then always positive.
        axis = Geodesic(tuple(-c for c in axis.normal))
        offset = -offset
    carrier = Hypercycle(axis, offset)
    mirror = Hypercycle(axis, -offset)
    # The apex must sit on its own carrier; its inner product carries
    # rounding noise growing with height, so the band scales with it.
    band = TOL_ID * (1.0 + p.v[0])
    if hypercycle_residual(carrier, p) > band:
        raise GeometryError("apex misses its own carrier hypercycle")
    return AreaLocus(
        base=base, carrier=carrier, mirror=mirror, area=_deficit(p, base.a, base.b)
    )


@dataclass(frozen=True)
class LocusResiduals:
    """Worst-case checks of one locus: all should sit at rounding level."""

    area_spread: float
    mirror_residual: float
    midline_residual: float
    subarc_residual: float


def locus_residuals(
    locus: AreaLocus, samples: int = 20, chords: int = 100, seed: int = 0
) -> LocusResiduals:
    """Probe the locus: area spread, mirror membership, midpoint line,
    and (for ``chords`` > 0) the equal-subarc property."""
    pts = hypercycle_samples(locus.carrier, samples)
    areas = [_deficit(z, locus.base.a, locus.base.b) for z in pts]
    midline = 0.0
    for z in pts:
        midline = max(
            midline,
            k.geodesic_residual(locus.carrier.axis, k.midpoint(z, locus.base.a)),
            k.geodesic_residual(locus.carrier.axis, k.midpoint(z, locus.base.b)),
        )
    subarc = (
        equal_subarc_check(locus, chords, seed=seed) if chords > 0 else 0.0
    )
    return LocusResiduals(
        area_spread=max(areas) - min(areas),
        mirror_residual=max(
            hypercycle_residual(locus.mirror, locus.base.a),
            hypercycle_residual(locus.mirror, locus.base.b),
        ),
        midline_residual=midline,
        subarc_residual=subarc,
    )


def chord_crossing(z1: HPoint, z2: HPoint, axis: Geodesic) -> HPoint:
    """Point where the axis cuts the segment z1 z2, in closed form.

    With s_i = <z_i, n> of opposite signs, w = |s2| z1 + |s1| z2 has
    <w, n> = |s2| s1 + |s1| s2 = 0 and lies in span(z1, z2): it is on
    both the axis and the chord.  A positive combination of two
    future-timelike vectors is future-timelike, so w always normalizes
    onto the sheet and the two lines always meet.
    """
    s1 = vec.minner(z1.v, axis.normal)
    s2 = vec.minner(z2.v, axis.normal)
    if s1 * s2 >= 0.0:
        raise DomainError("chord endpoints must straddle the axis")
    w1, w2 = abs(s2), abs(s1)
    a, b = z1.v, z2.v
    return HPoint(
        vec.mnormalize_point(
            (w1 * a[0] + w2 * b[0], w1 * a[1] + w2 * b[1], w1 * a[2] + w2 * b[2])
        )
    )


def chord_split(z1: HPoint, z2: HPoint, axis: Geodesic) -> tuple[float, float]:
    """Lengths of the two pieces the axis cuts from segment z1 z2.

    The cut point is ``chord_crossing``; both lengths go through
    ``hdist`` and its separation clamp.
    """
    crossing = chord_crossing(z1, z2, axis)
    return (k.hdist(z1, crossing), k.hdist(crossing, z2))


def equal_subarc_check(locus: AreaLocus, n: int, seed: int = 0) -> float:
    """Max imbalance of n axis-cut chords between the two hypercycles.

    Each chord joins a random carrier point to a random mirror point;
    the axis bisects every such chord, so the imbalance is pure
    rounding.  One substream ("subarc", seed) serves the whole check:
    its draws give the carrier and then the mirror position of each
    chord in turn.
    """
    rng = substream("subarc", seed)
    carrier, mirror = locus.carrier, locus.mirror
    axis = carrier.axis
    worst = 0.0
    for _ in range(n):
        z1 = hypercycle_point(carrier, -SAMPLE_RANGE + 2.0 * SAMPLE_RANGE * rng.random())
        z2 = hypercycle_point(mirror, -SAMPLE_RANGE + 2.0 * SAMPLE_RANGE * rng.random())
        d1, d2 = chord_split(z1, z2, axis)
        worst = max(worst, abs(d1 - d2))
    return worst


def _invert_apex_area(x: float, target: float) -> float:
    # Bisection on the height; monotone by the sign of the profile
    # derivative, so the bracket never fails.
    lo, hi = 0.0, MAX_APEX_HEIGHT
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if apex_area_formula(x, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def foliation(base: BaseConfig, areas: list[float]) -> list[AreaLocus]:
    """Constant-area leaves over the base, one per target area.

    Targets must lie strictly between 0 and the apex-area supremum for
    this base.  Leaves come back sorted by area with strictly growing
    offsets, and sampled points of one leaf never lie on another.
    """
    x = base.half_distance
    limit = max_apex_area(x)
    for target in areas:
        if not 0.0 < target < limit:
            raise InfeasibleAreaError(
                f"target area {target} outside the attainable range (0, {limit})"
            )
    leaves = []
    for target in sorted(areas):
        y = _invert_apex_area(x, target)
        leaves.append(lexell_locus(base, _MODEL.polar(math.pi / 2.0, y)))
    for i in range(1, len(leaves)):
        if not leaves[i].carrier.offset > leaves[i - 1].carrier.offset:
            raise GeometryError("leaf offsets fail to grow with area")
    for i, leaf in enumerate(leaves):
        for z in hypercycle_samples(leaf.carrier, 50):
            for j, other in enumerate(leaves):
                if i != j and hypercycle_residual(other.carrier, z) <= TOL_ID:
                    raise GeometryError("distinct leaves intersect")
    return leaves


def ideal_limit_area(c: float) -> float:
    """Area of the triangle with two boundary vertices, apex distance c.

    The perpendicular from the apex splits it into two right pieces of
    area pi/2 - arctan(1/sinh c) each; constant on every hypercycle
    asymptotic to the base line.
    """
    if not c > 0.0:
        raise DomainError(f"apex distance must be positive: {c}")
    return 2.0 * (0.5 * math.pi - math.atan(1.0 / math.sinh(c)))


def sinh_c_from_angles(alpha: float, beta: float) -> float:
    """sinh of the finite side of a triangle with angles alpha, beta, 0."""
    _check_ideal_angles(alpha, beta)
    return (math.cos(alpha) + math.cos(beta)) / (math.sin(alpha) * math.sin(beta))


def cosh_c_from_angles(alpha: float, beta: float) -> float:
    """cosh of the finite side of a triangle with angles alpha, beta, 0."""
    _check_ideal_angles(alpha, beta)
    return (1.0 + math.cos(alpha) * math.cos(beta)) / (
        math.sin(alpha) * math.sin(beta)
    )


def _check_ideal_angles(alpha: float, beta: float) -> None:
    if not (0.0 < alpha < math.pi and 0.0 < beta < math.pi):
        raise DomainError("angles must lie in (0, pi)")
    if alpha + beta > math.pi:
        raise DomainError("angle sum above pi leaves no room for the ideal vertex")


def truncated_ideal_area(c: float, truncation: float = IDEAL_TRUNCATION) -> float:
    """Synthetic stand-in for ideal_limit_area with far-out base vertices.

    The base vertices sit at +-truncation on the base line instead of
    on the boundary; the apex sits at height c over the midpoint.
    """
    if not c > 0.0:
        raise DomainError(f"apex distance must be positive: {c}")
    if not 0.0 < truncation <= 20.0:
        raise DomainError(f"truncation {truncation} outside (0, 20]")
    va = _MODEL.polar(0.0, truncation)
    vb = _MODEL.polar(0.0, -truncation)
    return _deficit(_MODEL.polar(math.pi / 2.0, c), va, vb)
