"""Cevian frames, the ratio-sum relation, and its converse construction.

A cevian frame is a triangle ABC with an interior point O and the three
feet D, E, F where the rays from A, B, C through O meet the opposite
sides.  With the length ratios

    alpha = th(AO)/th(OD),  beta = th(BO)/th(OE),  gamma = th(CO)/th(OF)

(th = tanh on the hyperbolic plane, tan on the sphere, identity in the
euclidean plane), the frame satisfies

    alpha * beta * gamma = alpha + beta + gamma + 2

equivalently 1/(alpha+1) + 1/(beta+1) + 1/(gamma+1) = 1.  The relation
is checked along two independent routes.  The ``verify`` campaigns
measure the frame directly in the model.  The second route,
``projection_oracle``, runs in the tests only, on hyperbolic frames: a
central projection onto the tangent plane at O maps the frame to a
euclidean one with the same ratios.

The converse construction recovers a frame from the six lengths alone.
The auxiliary quantities G = th(AO)/(alpha+1), H = th(BO)/(beta+1) and
I = th(CO)/(gamma+1) form a euclidean triangle whose angles are exactly
the angles BOF, AOF, BOD of the frame, which fixes the six rays around
O and lets every length be laid off directly.
"""

from __future__ import annotations

import math

from . import kernel as k
from .constants import MAX_HYPERBOLIC_SIDE, TOL_CLAMP, TOL_CONSTRUCT, TOL_ID
from .errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleGeometryError,
    InfeasibleInputError,
)
from .kernel import Geometry, HPoint, Record
from .trig import clamped_acos

# Feet are accepted as lying on a side up to this residual.
_SIDE_EPS = 1e-7


def stretch_ratio(geometry: Geometry, numerator: float, denominator: float) -> float:
    """The length ratio th(num)/th(den) used by the ratio-sum relation."""
    if not (numerator > 0.0 and denominator > 0.0):
        raise DomainError("ratio lengths must be positive")
    model = geometry.model
    if max(numerator, denominator) > model.side_limit:
        raise DomainError(f"ratio lengths above the working range {model.side_limit}")
    return model.t_K(numerator) / model.t_K(denominator)


class Triangle(Record):
    """Nondegenerate triangle with vertices a, b, c in one geometry."""

    __slots__ = ("geometry", "a", "b", "c", "_sides", "_lines")

    def __init__(self, geometry: Geometry, a, b, c) -> None:
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        self.__post_init__()

    def __post_init__(self) -> None:
        model = self.geometry.model
        a, b, c = self.a, self.b, self.c
        for v in (a, b, c):
            if not isinstance(v, model.point_type):
                raise DomainError(f"vertex type does not match {self.geometry.value}: {v!r}")
        # Measured once: the sampler's side floor and the between-checks of
        # cevian_frame and ceva_product read these same values.
        sides = (model.dist(b, c), model.dist(c, a), model.dist(a, b))
        object.__setattr__(self, "_sides", sides)
        for s in sides:
            if s <= 1e-10:
                raise DegenerateInputError("coincident vertices")
            if s > model.side_limit:
                raise DomainError(f"side {s} above the working range {model.side_limit}")
        # Built once, each oriented as its side is listed: the inside test
        # and the meets of cevian_frame and the on-side checks of
        # ceva_product read these same lines.
        lines = (model.line(b, c), model.line(c, a), model.line(a, b))
        object.__setattr__(self, "_lines", lines)
        if model.line_residual(lines[2], c) <= 1e-12:
            raise DegenerateInputError("collinear vertices")

    def side_lengths(self) -> tuple[float, float, float]:
        """(|BC|, |CA|, |AB|), each opposite the same-named vertex."""
        return self._sides


class CevianFrame(Record):
    """Measured cevian data of a triangle with an interior point.

    Feet: d on BC, e on CA, f on AB.  Lengths are the six cevian
    segments around o; p, q, r are the angles BOF, AOF, BOD at o,
    which always close up to a straight angle.
    """

    __slots__ = (
        "tri", "o", "d", "e", "f", "ao", "bo", "co", "od", "oe", "of",
        "alpha", "beta", "gamma", "p", "q", "r",
    )

    def __init__(
        self, tri: Triangle, o, d, e, f,
        ao: float, bo: float, co: float, od: float, oe: float, of: float,
        alpha: float, beta: float, gamma: float, p: float, q: float, r: float,
    ) -> None:
        object.__setattr__(self, "tri", tri)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "ao", ao)
        object.__setattr__(self, "bo", bo)
        object.__setattr__(self, "co", co)
        object.__setattr__(self, "od", od)
        object.__setattr__(self, "oe", oe)
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        self.__post_init__()

    def __post_init__(self) -> None:
        if abs(self.p + self.q + self.r - math.pi) > TOL_ID:
            raise GeometryError("angles at the interior point do not close up")


def cevian_frame(tri: Triangle, o) -> CevianFrame:
    """Measure the cevian frame of tri with interior point o.

    o must be strictly inside the triangle: a point on a side or at a
    vertex is degenerate, an exterior point is out of scope.
    """
    geometry = tri.geometry
    model = geometry.model
    a, b, c = tri.a, tri.b, tri.c
    bc, ca, ab = tri._lines
    for line, opposite in ((bc, a), (ca, b), (ab, c)):
        s_o = model.side_value(line, o)
        if abs(s_o) <= 1e-12:
            raise DegenerateInputError("interior point lies on a side or vertex")
        if s_o * model.side_value(line, opposite) < 0.0:
            raise DomainError("point outside the triangle is out of scope")
    d = model.meet(model.line(a, o), bc, b, c)
    e = model.meet(model.line(b, o), ca, c, a)
    f = model.meet(model.line(c, o), ab, a, b)
    legs = ((d, b, c), (e, c, a), (f, a, b))
    for (foot, s1, s2), side in zip(legs, tri.side_lengths()):
        if not model.dist(s1, foot) + model.dist(foot, s2) - side <= _SIDE_EPS:
            raise GeometryError("computed foot left its side segment")
    ao = model.dist(a, o)
    bo = model.dist(b, o)
    co = model.dist(c, o)
    od = model.dist(o, d)
    oe = model.dist(o, e)
    of = model.dist(o, f)
    return CevianFrame(
        tri=tri,
        o=o,
        d=d,
        e=e,
        f=f,
        ao=ao,
        bo=bo,
        co=co,
        od=od,
        oe=oe,
        of=of,
        alpha=stretch_ratio(geometry, ao, od),
        beta=stretch_ratio(geometry, bo, oe),
        gamma=stretch_ratio(geometry, co, of),
        p=model.angle(o, b, f),
        q=model.angle(o, a, f),
        r=model.angle(o, b, d),
    )


def euler_relation_residual(frame: CevianFrame) -> float:
    """alpha*beta*gamma - (alpha + beta + gamma + 2) for the frame."""
    a, b, g = frame.alpha, frame.beta, frame.gamma
    return a * b * g - (a + b + g + 2.0)


def unit_sum_residual(frame: CevianFrame) -> float:
    """1/(alpha+1) + 1/(beta+1) + 1/(gamma+1) - 1 for the frame."""
    return (
        1.0 / (frame.alpha + 1.0)
        + 1.0 / (frame.beta + 1.0)
        + 1.0 / (frame.gamma + 1.0)
        - 1.0
    )


class PqrSystem(Record):
    """Sine-weighted cevian quantities and their linear relations.

    P = sin(p)/th(AO), Q = sin(q)/th(BO), R = sin(r)/th(CO), which obey
    alpha*P = Q + R, beta*Q = R + P, gamma*R = P + Q.  ``residuals``
    reports those three equations in that order.
    """

    __slots__ = ("P", "Q", "R", "residuals")

    def __init__(
        self, P: float, Q: float, R: float, residuals: tuple[float, float, float]
    ) -> None:
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "residuals", residuals)


def pqr_system(frame: CevianFrame) -> PqrSystem:
    """Evaluate the sine-weighted system of a frame in any of the three planes."""
    th = frame.tri.geometry.model.t_K
    big_p = math.sin(frame.p) / th(frame.ao)
    big_q = math.sin(frame.q) / th(frame.bo)
    big_r = math.sin(frame.r) / th(frame.co)
    return PqrSystem(
        P=big_p,
        Q=big_q,
        R=big_r,
        residuals=(
            abs(frame.alpha * big_p - (big_q + big_r)),
            abs(frame.beta * big_q - (big_r + big_p)),
            abs(frame.gamma * big_r - (big_p + big_q)),
        ),
    )


class RatioSumInput(Record):
    """Six cevian lengths handed to the converse construction."""

    __slots__ = ("ao", "bo", "co", "od", "oe", "of")

    def __init__(
        self, ao: float, bo: float, co: float, od: float, oe: float, of: float
    ) -> None:
        object.__setattr__(self, "ao", ao)
        object.__setattr__(self, "bo", bo)
        object.__setattr__(self, "co", co)
        object.__setattr__(self, "od", od)
        object.__setattr__(self, "oe", oe)
        object.__setattr__(self, "of", of)
        self.__post_init__()

    def __post_init__(self) -> None:
        for name in ("ao", "bo", "co", "od", "oe", "of"):
            value = getattr(self, name)
            if not 0.0 < value <= MAX_HYPERBOLIC_SIDE:
                raise DomainError(f"length {name}={value} outside (0, {MAX_HYPERBOLIC_SIDE}]")

    @classmethod
    def from_frame(cls, frame: CevianFrame) -> "RatioSumInput":
        if frame.tri.geometry is not Geometry.HYPERBOLIC:
            raise DomainError("length extraction expects a hyperbolic frame")
        return cls(frame.ao, frame.bo, frame.co, frame.od, frame.oe, frame.of)


class ConstructionResult(Record):
    """Frame rebuilt from six lengths, with the auxiliary data used.

    aux_a, aux_b, aux_c are the euclidean helper sides G, H, I;
    ``aux_area`` is their Heron area and ``sine_factor`` the reciprocal
    circumdiameter, so each recovered sine is sine_factor times the
    matching helper side.
    """

    __slots__ = (
        "triangle", "center", "frame", "aux_a", "aux_b", "aux_c", "aux_area",
        "sine_factor", "angle_bof", "angle_aof", "angle_bod",
        "relation_residual", "containment_residual",
    )

    def __init__(
        self, triangle: Triangle, center: HPoint, frame: CevianFrame,
        aux_a: float, aux_b: float, aux_c: float, aux_area: float,
        sine_factor: float, angle_bof: float, angle_aof: float, angle_bod: float,
        relation_residual: float, containment_residual: float,
    ) -> None:
        object.__setattr__(self, "triangle", triangle)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "aux_a", aux_a)
        object.__setattr__(self, "aux_b", aux_b)
        object.__setattr__(self, "aux_c", aux_c)
        object.__setattr__(self, "aux_area", aux_area)
        object.__setattr__(self, "sine_factor", sine_factor)
        object.__setattr__(self, "angle_bof", angle_bof)
        object.__setattr__(self, "angle_aof", angle_aof)
        object.__setattr__(self, "angle_bod", angle_bod)
        object.__setattr__(self, "relation_residual", relation_residual)
        object.__setattr__(self, "containment_residual", containment_residual)


def construct_from_ratios(inp: RatioSumInput) -> ConstructionResult:
    """Rebuild a hyperbolic cevian frame from its six lengths.

    Fails as infeasible when the ratio-sum relation residual exceeds
    the construction tolerance, when the helper sides violate the
    triangle inequality (Heron radicand), or when a recovered sine
    leaves [0, 1].
    """
    ta, tb, tc = math.tanh(inp.ao), math.tanh(inp.bo), math.tanh(inp.co)
    alpha = ta / math.tanh(inp.od)
    beta = tb / math.tanh(inp.oe)
    gamma = tc / math.tanh(inp.of)
    relation_residual = alpha * beta * gamma - (alpha + beta + gamma + 2.0)
    if abs(relation_residual) > TOL_CONSTRUCT:
        raise InfeasibleInputError(
            f"ratio-sum relation residual {relation_residual:.3e} exceeds {TOL_CONSTRUCT}"
        )
    aux_a = ta / (alpha + 1.0)
    aux_b = tb / (beta + 1.0)
    aux_c = tc / (gamma + 1.0)
    radicand = (
        (aux_a + aux_b + aux_c)
        * (aux_a + aux_b - aux_c)
        * (aux_c + aux_a - aux_b)
        * (aux_b + aux_c - aux_a)
    )
    if radicand <= 0.0:
        raise InfeasibleGeometryError(
            "helper sides fail the triangle inequality (Heron radicand nonpositive)"
        )
    aux_area = 0.25 * math.sqrt(radicand)
    sine_factor = 2.0 * aux_area / (aux_a * aux_b * aux_c)
    for sine in (sine_factor * aux_a, sine_factor * aux_b, sine_factor * aux_c):
        if sine > 1.0 + TOL_CLAMP:
            raise InfeasibleGeometryError(f"recovered sine {sine} exceeds 1 (sine bound)")
    angle_bof = clamped_acos(
        (aux_b * aux_b + aux_c * aux_c - aux_a * aux_a) / (2.0 * aux_b * aux_c)
    )
    angle_aof = clamped_acos(
        (aux_c * aux_c + aux_a * aux_a - aux_b * aux_b) / (2.0 * aux_c * aux_a)
    )
    angle_bod = clamped_acos(
        (aux_a * aux_a + aux_b * aux_b - aux_c * aux_c) / (2.0 * aux_a * aux_b)
    )
    if abs(angle_bof + angle_aof + angle_bod - math.pi) > TOL_ID:
        raise InfeasibleGeometryError("recovered angles do not close up to pi")
    model = Geometry.HYPERBOLIC.model
    center = model.base
    rays = {
        "a": (0.0, inp.ao),
        "f": (angle_aof, inp.of),
        "b": (angle_aof + angle_bof, inp.bo),
        "d": (math.pi, inp.od),
        "c": (angle_aof + math.pi, inp.co),
        "e": (angle_aof + angle_bof + math.pi, inp.oe),
    }
    laid = {name: model.polar(theta, length) for name, (theta, length) in rays.items()}
    containment_residual = max(
        model.line_residual(model.line(laid["b"], laid["c"]), laid["d"]),
        model.line_residual(model.line(laid["c"], laid["a"]), laid["e"]),
        model.line_residual(model.line(laid["a"], laid["b"]), laid["f"]),
    )
    if containment_residual > 1e-6:
        raise InfeasibleGeometryError(
            f"laid-off feet miss the opposite sides by {containment_residual:.3e}"
        )
    triangle = Triangle(Geometry.HYPERBOLIC, laid["a"], laid["b"], laid["c"])
    frame = cevian_frame(triangle, center)
    return ConstructionResult(
        triangle=triangle,
        center=center,
        frame=frame,
        aux_a=aux_a,
        aux_b=aux_b,
        aux_c=aux_c,
        aux_area=aux_area,
        sine_factor=sine_factor,
        angle_bof=angle_bof,
        angle_aof=angle_aof,
        angle_bod=angle_bod,
        relation_residual=relation_residual,
        containment_residual=containment_residual,
    )


class ProjectionOracle(Record):
    """Frame ratios recomputed through the tangent-plane projection."""

    __slots__ = (
        "ratios", "max_deviation", "euclid_relation_residual", "collinearity_residual",
    )

    def __init__(
        self,
        ratios: tuple[float, float, float],
        max_deviation: float,
        euclid_relation_residual: float,
        collinearity_residual: float,
    ) -> None:
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "euclid_relation_residual", euclid_relation_residual)
        object.__setattr__(self, "collinearity_residual", collinearity_residual)


def projection_oracle(frame: CevianFrame) -> ProjectionOracle:
    """Check a hyperbolic frame against its central projection.

    Projecting from the Minkowski origin onto the tangent plane at o
    sends geodesics to straight lines and every cevian length x to a
    euclidean length tanh(x), so the projected euclidean ratios must
    reproduce alpha, beta, gamma exactly.
    """
    if frame.tri.geometry is not Geometry.HYPERBOLIC:
        raise DomainError("the projection oracle expects a hyperbolic frame")
    base = frame.o
    pts = {
        name: k.radial_project(base, point)
        for name, point in (
            ("a", frame.tri.a),
            ("b", frame.tri.b),
            ("c", frame.tri.c),
            ("d", frame.d),
            ("e", frame.e),
            ("f", frame.f),
        )
    }
    norms = {name: math.hypot(tp.s, tp.t) for name, tp in pts.items()}
    ratios = (
        norms["a"] / norms["d"],
        norms["b"] / norms["e"],
        norms["c"] / norms["f"],
    )
    deviation = max(
        abs(ratios[0] - frame.alpha),
        abs(ratios[1] - frame.beta),
        abs(ratios[2] - frame.gamma),
    )
    r1, r2, r3 = ratios
    collinearity = max(
        abs(pts["a"].s * pts["d"].t - pts["a"].t * pts["d"].s)
        / (norms["a"] * norms["d"]),
        abs(pts["b"].s * pts["e"].t - pts["b"].t * pts["e"].s)
        / (norms["b"] * norms["e"]),
        abs(pts["c"].s * pts["f"].t - pts["c"].t * pts["f"].s)
        / (norms["c"] * norms["f"]),
    )
    return ProjectionOracle(
        ratios=ratios,
        max_deviation=deviation,
        euclid_relation_residual=r1 * r2 * r3 - (r1 + r2 + r3 + 2.0),
        collinearity_residual=collinearity,
    )


def ceva_product(tri: Triangle, d, e, f, require_concurrent: bool = True) -> float:
    """Product sh(DB)/sh(DC) * sh(EC)/sh(EA) * sh(FA)/sh(FB) of the feet.

    sh is sinh, sin, or the identity per geometry.  The feet must lie on
    their side segments; with ``require_concurrent`` the three cevians
    must meet in one point, verified by pairwise intersection agreement.
    """
    model = tri.geometry.model
    a, b, c = tri.a, tri.b, tri.c
    # |s1 foot| and |foot s2| of each foot serve the between-check and the
    # product alike (dist is symmetric to the last bit).
    legs = []
    for (foot, s1, s2), side, line in zip(
        ((d, b, c), (e, c, a), (f, a, b)), tri.side_lengths(), tri._lines
    ):
        if not model.line_residual(line, foot) <= _SIDE_EPS:
            raise DomainError("a foot does not lie on its side line")
        near, far = model.dist(s1, foot), model.dist(foot, s2)
        if not near + far - side <= _SIDE_EPS:
            raise DomainError("a foot lies outside its side segment")
        legs.append((near, far))
    if require_concurrent:
        # Each cevian line is built once and met with the other two.
        ad, be, cf = model.line(a, d), model.line(b, e), model.line(c, f)
        x = model.meet(ad, be, b, e)
        y = model.meet(be, cf, c, f)
        z = model.meet(cf, ad, a, d)
        spread = max(model.dist(x, y), model.dist(y, z), model.dist(z, x))
        if not spread <= TOL_ID:
            raise DomainError(f"cevians are not concurrent (spread {spread:.3e})")
    sh = model.s_K
    (db, dc), (ec, ea), (fa, fb) = legs
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

    def __init__(
        self,
        geometry: Geometry,
        side: float,
        alpha: float,
        ad_over_od: float,
        median_residual: float,
    ) -> None:
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ad_over_od", ad_over_od)
        object.__setattr__(self, "median_residual", median_residual)


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
