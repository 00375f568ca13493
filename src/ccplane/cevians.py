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
from dataclasses import dataclass

from . import kernel as k
from .constants import MAX_HYPERBOLIC_SIDE, TOL_CLAMP, TOL_CONSTRUCT, TOL_ID
from .errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleGeometryError,
    InfeasibleInputError,
)
from .kernel import Geometry, HPoint
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


@dataclass(frozen=True)
class Triangle:
    """Nondegenerate triangle with vertices a, b, c in one geometry."""

    geometry: Geometry
    a: object
    b: object
    c: object

    def __post_init__(self) -> None:
        model = self.geometry.model
        for v in (self.a, self.b, self.c):
            if not isinstance(v, model.point_type):
                raise DomainError(f"vertex type does not match {self.geometry.value}: {v!r}")
        dist = model.dist
        # Measured once: the sampler's side floor and the between-checks of
        # cevian_frame and ceva_product read these same values.
        sides = (dist(self.b, self.c), dist(self.c, self.a), dist(self.a, self.b))
        object.__setattr__(self, "_sides", sides)
        for s in sides:
            if s <= 1e-10:
                raise DegenerateInputError("coincident vertices")
            if s > model.side_limit:
                raise DomainError(f"side {s} above the working range {model.side_limit}")
        if model.on_side_residual(self.c, self.a, self.b) <= 1e-12:
            raise DegenerateInputError("collinear vertices")

    def side_lengths(self) -> tuple[float, float, float]:
        """(|BC|, |CA|, |AB|), each opposite the same-named vertex."""
        return self._sides


@dataclass(frozen=True)
class CevianFrame:
    """Measured cevian data of a triangle with an interior point.

    Feet: d on BC, e on CA, f on AB.  Lengths are the six cevian
    segments around o; p, q, r are the angles BOF, AOF, BOD at o,
    which always close up to a straight angle.
    """

    tri: Triangle
    o: object
    d: object
    e: object
    f: object
    ao: float
    bo: float
    co: float
    od: float
    oe: float
    of: float
    alpha: float
    beta: float
    gamma: float
    p: float
    q: float
    r: float

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
    sides = ((tri.b, tri.c, tri.a), (tri.c, tri.a, tri.b), (tri.a, tri.b, tri.c))
    for s1, s2, opposite in sides:
        s_o, s_v = model.side_values(s1, s2, o, opposite)
        if abs(s_o) <= 1e-12:
            raise DegenerateInputError("interior point lies on a side or vertex")
        if s_o * s_v < 0.0:
            raise DomainError("point outside the triangle is out of scope")
    d = model.line_meet(tri.a, o, tri.b, tri.c)
    e = model.line_meet(tri.b, o, tri.c, tri.a)
    f = model.line_meet(tri.c, o, tri.a, tri.b)
    legs = ((d, tri.b, tri.c), (e, tri.c, tri.a), (f, tri.a, tri.b))
    for (foot, s1, s2), side in zip(legs, tri.side_lengths()):
        if model.dist(s1, foot) + model.dist(foot, s2) - side > _SIDE_EPS:
            raise GeometryError("computed foot left its side segment")
    ao = model.dist(tri.a, o)
    bo = model.dist(tri.b, o)
    co = model.dist(tri.c, o)
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
        p=model.angle(o, tri.b, f),
        q=model.angle(o, tri.a, f),
        r=model.angle(o, tri.b, d),
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


@dataclass(frozen=True)
class PqrSystem:
    """Sine-weighted cevian quantities and their linear relations.

    P = sin(p)/th(AO), Q = sin(q)/th(BO), R = sin(r)/th(CO), which obey
    alpha*P = Q + R, beta*Q = R + P, gamma*R = P + Q.  ``residuals``
    reports those three equations in that order.
    """

    P: float
    Q: float
    R: float
    residuals: tuple[float, float, float]


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


@dataclass(frozen=True)
class RatioSumInput:
    """Six cevian lengths handed to the converse construction."""

    ao: float
    bo: float
    co: float
    od: float
    oe: float
    of: float

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


@dataclass(frozen=True)
class ConstructionResult:
    """Frame rebuilt from six lengths, with the auxiliary data used.

    aux_a, aux_b, aux_c are the euclidean helper sides G, H, I;
    ``aux_area`` is their Heron area and ``sine_factor`` the reciprocal
    circumdiameter, so each recovered sine is sine_factor times the
    matching helper side.
    """

    triangle: Triangle
    center: HPoint
    frame: CevianFrame
    aux_a: float
    aux_b: float
    aux_c: float
    aux_area: float
    sine_factor: float
    angle_bof: float
    angle_aof: float
    angle_bod: float
    relation_residual: float
    containment_residual: float


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
        model.on_side_residual(laid["d"], laid["b"], laid["c"]),
        model.on_side_residual(laid["e"], laid["c"], laid["a"]),
        model.on_side_residual(laid["f"], laid["a"], laid["b"]),
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


@dataclass(frozen=True)
class ProjectionOracle:
    """Frame ratios recomputed through the tangent-plane projection."""

    ratios: tuple[float, float, float]
    max_deviation: float
    euclid_relation_residual: float
    collinearity_residual: float


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
    dist = model.dist
    # |s1 foot| and |foot s2| of each foot serve the between-check and the
    # product alike (dist is symmetric to the last bit).
    legs = []
    for (foot, s1, s2), side in zip(
        ((d, tri.b, tri.c), (e, tri.c, tri.a), (f, tri.a, tri.b)), tri.side_lengths()
    ):
        if model.on_side_residual(foot, s1, s2) > _SIDE_EPS:
            raise DomainError("a foot does not lie on its side line")
        near, far = dist(s1, foot), dist(foot, s2)
        if near + far - side > _SIDE_EPS:
            raise DomainError("a foot lies outside its side segment")
        legs.append((near, far))
    if require_concurrent:
        meets = (
            model.line_meet(tri.a, d, tri.b, e),
            model.line_meet(tri.b, e, tri.c, f),
            model.line_meet(tri.c, f, tri.a, d),
        )
        spread = max(
            dist(meets[0], meets[1]),
            dist(meets[1], meets[2]),
            dist(meets[2], meets[0]),
        )
        if spread > TOL_ID:
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


@dataclass(frozen=True)
class LambertReport:
    """Median measurements of an equilateral triangle.

    ``alpha`` is the cevian stretch ratio th(AO)/th(OD) of a median,
    ``ad_over_od`` the plain length ratio AD/OD, and
    ``median_residual`` how far the third median misses the common
    point of the first two.
    """

    geometry: Geometry
    side: float
    alpha: float
    ad_over_od: float
    median_residual: float


def lambert_median_report(side: float, geometry: Geometry) -> LambertReport:
    """Build the equilateral triangle, cut its medians, and measure."""
    tri = equilateral_triangle(side, geometry)
    model = geometry.model
    d = model.mid(tri.b, tri.c)
    e = model.mid(tri.c, tri.a)
    f = model.mid(tri.a, tri.b)
    o = model.line_meet(tri.a, d, tri.b, e)
    median_residual = model.on_side_residual(o, tri.c, f)
    return LambertReport(
        geometry=geometry,
        side=side,
        alpha=stretch_ratio(geometry, model.dist(tri.a, o), model.dist(o, d)),
        ad_over_od=model.dist(tri.a, d) / model.dist(o, d),
        median_residual=median_residual,
    )
