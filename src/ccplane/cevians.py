"""Cevian frames and the ratio-sum relation.

A cevian frame is a triangle ABC with an interior point O and the three
feet D, E, F where the rays from A, B, C through O meet the opposite
sides.  With the length ratios

    alpha = th(AO)/th(OD),  beta = th(BO)/th(OE),  gamma = th(CO)/th(OF)

(th = tanh on the hyperbolic plane, tan on the sphere, identity in the
euclidean plane), the frame satisfies

    alpha * beta * gamma = alpha + beta + gamma + 2

equivalently 1/(alpha+1) + 1/(beta+1) + 1/(gamma+1) = 1.  The relation
is checked along two independent routes.  The ``verify`` campaigns
measure the frame directly in the model: the sides and cevians are line
covectors of the plane model, the feet are their meets, the angles p, q
and r at O are measured between the cevian lines (``line_angle``), and
the inside test compares the sign of o's ``side_value`` on each side
line with the triangle's orientation, by one formula on all three
planes.  The second route is a test oracle, also on all three
planes: a central projection onto the tangent plane at O maps the frame
to a euclidean one with the same ratios.

A frame is measured in three stages, each with its checks:
``cevian_feet`` (the inside test, the cevian lines, the feet and their
legs, checked to lie within their sides), ``cevian_lengths`` (the six
cevian segments and the three stretch ratios) and ``cevian_angles`` (p,
q and r, checked to close up).  ``cevian_frame`` runs all three and
keeps them in a ``CevianFrame`` for ``render frame`` and ``construct``;
each campaign calls only the stages its residual reads, and the
residual functions take the values they read, not a frame.

The converse, a frame rebuilt from its six lengths, is ``construct``:
only ``ccplane construct`` runs it, so the campaigns and ``render
frame``, which load this module, never compile it.
"""

from __future__ import annotations

import math

from .constants import TOL_ID
from .errors import DegenerateInputError, DomainError, GeometryError
from .kernel import Geometry, Record

# Feet are accepted as lying on a side up to this residual.
_SIDE_EPS = 1e-7


def stretch_ratio(geometry: Geometry, numerator: float, denominator: float) -> float:
    """The length ratio th(num)/th(den) used by the ratio-sum relation."""
    if not (numerator > 0.0 and denominator > 0.0):
        raise DomainError("ratio lengths must be positive")
    model = geometry.model
    # Both are positive, so this is max(numerator, denominator) > limit.
    if numerator > model.side_limit or denominator > model.side_limit:
        raise DomainError(f"ratio lengths above the working range {model.side_limit}")
    return model.t_K(numerator) / model.t_K(denominator)


class Triangle(Record):
    """Nondegenerate triangle with vertices a, b, c in one geometry."""

    __slots__ = ("geometry", "a", "b", "c", "_sides", "_lines", "_orientation")

    def __post_init__(self) -> None:
        model = self.geometry.model
        a, b, c = self.a, self.b, self.c
        for v in (a, b, c):
            if not isinstance(v, model.point_type):
                raise DomainError(f"vertex type does not match {self.geometry.value}: {v!r}")
        # Measured once: the sampler's side floor and the between-checks of
        # cevian_feet and ceva_product read these same values.
        sides = (model.dist(b, c), model.dist(c, a), model.dist(a, b))
        object.__setattr__(self, "_sides", sides)
        for s in sides:
            if s <= 1e-10:
                raise DegenerateInputError("coincident vertices")
            if s > model.side_limit:
                raise DomainError(f"side {s} above the working range {model.side_limit}")
        # Built once, each oriented as its side is listed: the inside test
        # and the meets of cevian_feet and the on-side checks of
        # ceva_product read these same lines.
        lines = (model.line(b, c), model.line(c, a), model.line(a, b))
        object.__setattr__(self, "_lines", lines)
        # The orientation: c's side value on line ab.  Each vertex's side
        # value on its opposite line is det(A, B, C) over that line's
        # positive norm, so all three share this sign; the collinearity
        # floor holds this one away from zero, and the inside test of
        # cevian_feet reads it in place of the other two.
        orientation = model.side_value(lines[2], c)
        object.__setattr__(self, "_orientation", orientation)
        if abs(orientation) <= 1e-12:
            raise DegenerateInputError("collinear vertices")

    def side_lengths(self) -> tuple[float, float, float]:
        """(|BC|, |CA|, |AB|), each opposite the same-named vertex."""
        return self._sides


class CevianFrame(Record):
    """Measured cevian data of a triangle with an interior point.

    Feet: d on BC, e on CA, f on AB.  Lengths are the six cevian
    segments around o; p, q, r are the angles BOF, AOF, BOD at o,
    measured between the cevian lines AD, BE and CF that meet there,
    and they close up to a straight angle.
    """

    __slots__ = (
        "tri", "o", "d", "e", "f", "ao", "bo", "co", "od", "oe", "of",
        "alpha", "beta", "gamma", "p", "q", "r",
    )

    def __post_init__(self) -> None:
        _check_close_up(self.p, self.q, self.r)


def _check_close_up(p: float, q: float, r: float) -> None:
    """Raise unless the angles at o close up to a straight angle."""
    # Written as ``not x <= y`` so that a NaN angle fails it.
    if not abs(p + q + r - math.pi) <= TOL_ID:
        raise GeometryError("angles at the interior point do not close up")


def _foot_legs(tri: Triangle, d, e, f) -> tuple[float, ...] | None:
    """Each foot's distances to the ends of its side, |BD|, |DC|, |CE|,
    |EA|, |AF|, |FB| for d on BC, e on CA and f on AB, or None when a
    foot lies outside its side segment."""
    dist = tri.geometry.model.dist
    a, b, c = tri.a, tri.b, tri.c
    legs = (dist(b, d), dist(d, c), dist(c, e), dist(e, a), dist(a, f), dist(f, b))
    bc, ca, ab = tri.side_lengths()
    if (legs[0] + legs[1] - bc <= _SIDE_EPS and legs[2] + legs[3] - ca <= _SIDE_EPS
            and legs[4] + legs[5] - ab <= _SIDE_EPS):
        return legs
    return None


def cevian_feet(tri: Triangle, o) -> tuple:
    """Stage 1 of a frame: the feet of the cevians through o.

    o must be strictly inside the triangle: a point on a side or at a
    vertex is degenerate, an exterior point is out of scope.  Returns
    (d, e, f, la, lb, lc, legs): the feet on BC, CA and AB, the cevian
    lines AO, BO and CO whose meets with the sides they are, and the
    feet's legs (``_foot_legs``), checked to lie within their sides.
    """
    model = tri.geometry.model
    a, b, c = tri.a, tri.b, tri.c
    bc, ca, ab = tri._lines
    orientation = tri._orientation
    # o is inside when its side value on each side line has the sign of
    # the triangle's orientation.  Both tests are written as ``not x > y``
    # so that a NaN point fails the first one here rather than some later
    # check.
    for line in tri._lines:
        s_o = model.side_value(line, o)
        if not abs(s_o) > 1e-12:
            raise DegenerateInputError("interior point lies on a side or vertex, or is not finite")
        if not s_o * orientation > 0.0:
            raise DomainError("point outside the triangle is out of scope")
    la, lb, lc = model.line(a, o), model.line(b, o), model.line(c, o)
    d = model.meet(la, bc, b, c)
    e = model.meet(lb, ca, c, a)
    f = model.meet(lc, ab, a, b)
    legs = _foot_legs(tri, d, e, f)
    if legs is None:
        raise GeometryError("computed foot left its side segment")
    return d, e, f, la, lb, lc, legs


def cevian_lengths(tri: Triangle, o, d, e, f) -> tuple[float, ...]:
    """Stage 2 of a frame: the six cevian segments around o and their
    stretch ratios, (ao, bo, co, od, oe, of, alpha, beta, gamma)."""
    geometry = tri.geometry
    dist = geometry.model.dist
    ao = dist(tri.a, o)
    bo = dist(tri.b, o)
    co = dist(tri.c, o)
    od = dist(o, d)
    oe = dist(o, e)
    of = dist(o, f)
    return (
        ao, bo, co, od, oe, of,
        stretch_ratio(geometry, ao, od),
        stretch_ratio(geometry, bo, oe),
        stretch_ratio(geometry, co, of),
    )


def cevian_angles(tri: Triangle, la, lb, lc) -> tuple[float, float, float]:
    """Stage 3 of a frame: the angles p = BOF, q = AOF and r = BOD at o,
    measured between the cevian lines of ``cevian_feet`` and checked to
    close up to a straight angle."""
    line_angle = tri.geometry.model.line_angle
    p = math.pi - line_angle(lb, lc)
    q = math.pi - line_angle(la, lc)
    r = math.pi - line_angle(lb, la)
    _check_close_up(p, q, r)
    return p, q, r


def cevian_frame(tri: Triangle, o) -> CevianFrame:
    """Measure the cevian frame of tri with interior point o: its three
    stages (feet, lengths, angles), kept in one record."""
    d, e, f, la, lb, lc, _ = cevian_feet(tri, o)
    ao, bo, co, od, oe, of, alpha, beta, gamma = cevian_lengths(tri, o, d, e, f)
    p, q, r = cevian_angles(tri, la, lb, lc)
    return CevianFrame(
        tri=tri, o=o, d=d, e=e, f=f, ao=ao, bo=bo, co=co, od=od, oe=oe, of=of,
        alpha=alpha, beta=beta, gamma=gamma, p=p, q=q, r=r,
    )


def euler_relation_residual(alpha: float, beta: float, gamma: float) -> float:
    """alpha*beta*gamma - (alpha + beta + gamma + 2) for a frame's ratios."""
    return alpha * beta * gamma - (alpha + beta + gamma + 2.0)


def unit_sum_residual(alpha: float, beta: float, gamma: float) -> float:
    """1/(alpha+1) + 1/(beta+1) + 1/(gamma+1) - 1 for a frame's ratios."""
    return 1.0 / (alpha + 1.0) + 1.0 / (beta + 1.0) + 1.0 / (gamma + 1.0) - 1.0


class PqrSystem(Record):
    """Sine-weighted cevian quantities and their linear relations.

    P = sin(p)/th(AO), Q = sin(q)/th(BO), R = sin(r)/th(CO), which obey
    alpha*P = Q + R, beta*Q = R + P, gamma*R = P + Q.  ``residuals``
    reports those three equations in that order.
    """

    __slots__ = ("P", "Q", "R", "residuals")


def pqr_system(
    geometry: Geometry, p: float, q: float, r: float, ao: float, bo: float, co: float,
    alpha: float, beta: float, gamma: float,
) -> PqrSystem:
    """Evaluate the sine-weighted system of a frame's angles, vertex
    segments and ratios in any of the three planes."""
    th = geometry.model.t_K
    big_p = math.sin(p) / th(ao)
    big_q = math.sin(q) / th(bo)
    big_r = math.sin(r) / th(co)
    return PqrSystem(
        P=big_p,
        Q=big_q,
        R=big_r,
        residuals=(
            abs(alpha * big_p - (big_q + big_r)),
            abs(beta * big_q - (big_r + big_p)),
            abs(gamma * big_r - (big_p + big_q)),
        ),
    )


def ceva_product(tri: Triangle, d, e, f, legs=None) -> float:
    """Product sh(DB)/sh(DC) * sh(EC)/sh(EA) * sh(FA)/sh(FB) of the feet.

    sh is sinh, sin, or the identity per geometry.  The feet must lie on
    their side segments, and the three cevians must meet in one point,
    verified by pairwise intersection agreement.
    ``legs`` are the feet's distances to their sides' ends when they are
    measured and checked already, as ``cevian_feet`` returns them.
    Otherwise they are measured here.
    """
    model = tri.geometry.model
    a, b, c = tri.a, tri.b, tri.c
    for foot, line in zip((d, e, f), tri._lines):
        if not model.line_residual(line, foot) <= _SIDE_EPS:
            raise DomainError("a foot does not lie on its side line")
    if legs is None:
        legs = _foot_legs(tri, d, e, f)
        if legs is None:
            raise DomainError("a foot lies outside its side segment")
    # Each cevian line is built once and met with the other two.
    ad, be, cf = model.line(a, d), model.line(b, e), model.line(c, f)
    x = model.meet(ad, be, b, e)
    y = model.meet(be, cf, c, f)
    z = model.meet(cf, ad, a, d)
    spread = max(model.dist(x, y), model.dist(y, z), model.dist(z, x))
    if not spread <= TOL_ID:
        raise DomainError(f"cevians are not concurrent (spread {spread:.3e})")
    sh = model.s_K
    db, dc, ec, ea, fa, fb = legs
    return sh(db) / sh(dc) * sh(ec) / sh(ea) * sh(fa) / sh(fb)


def equilateral_triangle(side: float, geometry: Geometry) -> Triangle:
    """Equilateral triangle of the given side, centered on the base point."""
    if not side > 0.0:
        raise DomainError(f"side must be positive: {side}")
    model = geometry.model
    if side > model.side_limit:
        raise DomainError(f"side above working range: {side}")
    # In the right triangle of the centre, a vertex and the midpoint of a
    # side, half the side faces the angle pi/3 at the centre and the
    # circumradius R is the hypotenuse: s_K(side/2) = sin(pi/3) s_K(R).
    radius = model.s_K_inv(2.0 / math.sqrt(3.0) * model.s_K(0.5 * side))
    return Triangle(
        geometry, *(model.polar(2.0 * math.pi * i / 3.0, radius) for i in range(3))
    )


class LambertReport(Record):
    """Median measurements of an equilateral triangle.

    ``alpha`` is the cevian stretch ratio th(AO)/th(OD) of a median,
    ``ad_over_od`` the plain length ratio AD/OD, and
    ``median_residual`` how far the third median misses the common
    point of the first two.
    """

    __slots__ = ("geometry", "side", "alpha", "ad_over_od", "median_residual")


def lambert_median_report(side: float, geometry: Geometry) -> LambertReport:
    """Build the equilateral triangle, cut its medians, and measure."""
    tri = equilateral_triangle(side, geometry)
    model = geometry.model
    a, b, c = tri.a, tri.b, tri.c
    d = model.mid(b, c)
    e = model.mid(c, a)
    f = model.mid(a, b)
    o = model.meet(model.line(a, d), model.line(b, e), b, e)
    median_residual = model.line_residual(model.line(c, f), o)
    od = model.dist(o, d)
    return LambertReport(
        geometry=geometry,
        side=side,
        alpha=stretch_ratio(geometry, model.dist(a, o), od),
        ad_over_od=model.dist(a, d) / od,
        median_residual=median_residual,
    )
