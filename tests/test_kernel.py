import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplane import corevec as vec
from ccplane import kernel as k
from ccplane.constants import TOL_CLAMP, TOL_POINT
from ccplane.errors import (
    DegenerateInputError,
    GeometryError,
    InvalidPointError,
    OutOfModelError,
)
from ccplane.lexell import _bisector_mirror
from angle_oracles import POINT_ANGLE, hyperboloid_angle
from cevian_oracles import polar_draw
from hyperboloid_oracles import (
    BAND_EDGE_IDS,
    EDGE_VECTORS,
    band_edges,
    direction,
    outcome_bits,
    point_along,
    polar,
    reflect_across,
    tangent_basis,
    tangent_direction,
    vector_with_form,
)

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014
EPS = sys.float_info.epsilon

HYPERBOLIC = k.Geometry.HYPERBOLIC.model


def hp(x0, x1, x2):
    return k.HPoint((x0, x1, x2))


def _normal(l):
    """Unit spacelike normal of the geodesic with line covector l."""
    return (-l[0], l[1], l[2])


def test_mink_inner_frozen():
    assert vec.minner((math.cosh(1), math.sinh(1), 0.0), (1.0, 0.0, 0.0)) == -COSH1


def test_hpoint_rejects_off_sheet():
    with pytest.raises(InvalidPointError):
        hp(1.0, 0.5, 0.0)
    with pytest.raises(InvalidPointError):
        hp(-1.0, 0.0, 0.0)


# At v0 = 1 the band is 2 TOL_POINT and |q + 1| is v2^2.
_BAND_EDGE = math.sqrt(2.0 * TOL_POINT)


@pytest.mark.parametrize(
    "v, accepted",
    [
        pytest.param((1.0, 0.0, 0.0), True, id="origin"),
        pytest.param((COSH1, SINH1, 0.0), True, id="distance-1"),
        pytest.param((1.0, 0.0, 0.99 * _BAND_EDGE), True, id="inside-band"),
        pytest.param((1.0, 0.0, 1.01 * _BAND_EDGE), False, id="outside-band"),
        pytest.param((math.nan, 0.0, 0.0), False, id="nan-v0"),
        pytest.param((COSH1, math.nan, 0.0), False, id="nan-v1"),
        pytest.param((-1.0, 0.0, 0.0), False, id="lower-sheet"),
        pytest.param((-COSH1, SINH1, 0.0), False, id="lower-sheet-off-axis"),
        pytest.param((0.0, 0.0, 1.0), False, id="v0-zero"),
        # A null vector, inside the band that widens with v0 (ROADMAP
        # item 8): today's verdict, pinned until the band is derived.
        pytest.param((1e8, 0.0, 1e8), True, id="null-vector"),
        # v0^2 overflows, so the band is infinite and must not accept.
        pytest.param((math.inf, 0.0, 0.0), False, id="infinite-v0"),
        pytest.param((1e200, 0.0, 0.0), False, id="band-overflows"),
    ],
)
def test_on_sheet_is_the_hpoint_check(v, accepted):
    def verdict(check):
        try:
            check(v)
        except InvalidPointError as exc:
            return str(exc)
        return True

    assert verdict(k.on_sheet) == verdict(k.HPoint)
    assert (verdict(k.on_sheet) is True) == accepted
    if accepted:
        assert k.on_sheet(v) is v


def _on_sheet_reference(v):
    # The sheet check in its abs form: the oracle for the comparison chain.
    v0, v1, v2 = v
    q = -v0 * v0 + v1 * v1 + v2 * v2
    band = TOL_POINT * (1.0 + v0 * v0)
    if not (abs(q + 1.0) <= band < math.inf) or v0 <= 0.0:
        raise InvalidPointError(f"not on the upper hyperboloid sheet: {v}")
    return v


def _sheet_form(v):
    # The value the sheet check holds within its band: q + 1.
    v0, v1, v2 = v
    return (-v0 * v0 + v1 * v1 + v2 * v2) + 1.0


@pytest.mark.parametrize("edge", range(6), ids=BAND_EDGE_IDS)
@pytest.mark.parametrize("v0", [1e6, 1e12])
def test_on_sheet_band_edges_match_the_abs_form(v0, edge):
    # q + 1 lands exactly on -band or band, or one ulp either side.
    band = TOL_POINT * (1.0 + v0 * v0)
    target = band_edges(band)[edge]
    v = vector_with_form(v0, _sheet_form, target, target - 1.0)
    got = outcome_bits(k.on_sheet, v)
    assert got == outcome_bits(_on_sheet_reference, v)
    # v is returned exactly when q + 1 is within the band.
    assert (got == outcome_bits(lambda: v)) == (abs(target) <= band)


@pytest.mark.parametrize("v", EDGE_VECTORS, ids=repr)
def test_on_sheet_edge_vectors_match_the_abs_form(v):
    assert outcome_bits(k.on_sheet, v) == outcome_bits(_on_sheet_reference, v)


def _hdist_reference(p, q):
    # hdist with the product p0 q0 written twice, as the form and the
    # clamp each read it.
    p0, p1, p2 = p
    q0, q1, q2 = q
    m = -(-p0 * q0 + p1 * q1 + p2 * q2)
    if m < 1.0 - TOL_CLAMP * (1.0 + p0 * q0):
        raise InvalidPointError(f"separation invariant violated: -<p,q> = {m}")
    if m < 1.5:
        d0, d1, d2 = p0 - q0, p1 - q1, p2 - q2
        c = -d0 * d0 + d1 * d1 + d2 * d2
        if c <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(c))
    return math.acosh(m)


_FAR = polar(0.0, 30.0).v


@pytest.mark.parametrize(
    "p, q",
    [
        pytest.param(k.ORIGIN.v, k.ORIGIN.v, id="coincident"),
        pytest.param(k.ORIGIN.v, polar(0.4, 1e-9).v, id="chord-form"),
        pytest.param(polar(1.0, 2.0).v, polar(-2.0, 3.0).v, id="acosh-form"),
        pytest.param(_FAR, polar(math.pi, 30.0).v, id="far-apart"),
        pytest.param(_FAR, _FAR, id="far-coincident"),
        pytest.param(k.ORIGIN.v, (0.5, 0.0, 0.0), id="clamp-raises"),
        pytest.param((-1.0, 0.0, 0.0), k.ORIGIN.v, id="opposite-sheets"),
        pytest.param((math.nan, 0.0, 0.0), k.ORIGIN.v, id="nan-p0"),
        pytest.param(k.ORIGIN.v, (-math.nan, 0.0, 0.0), id="nan-q0"),
        pytest.param(k.ORIGIN.v, (math.inf, 1.0, 0.0), id="inf-q0"),
        pytest.param((1e200, 0.0, 0.0), (1e200, 0.0, 0.0), id="product-overflows"),
        pytest.param((-0.0, 0.0, 1.0), (0.0, 1.0, 0.0), id="signed-zeros"),
    ],
)
def test_hdist_matches_the_two_product_form(p, q):
    assert outcome_bits(k.hdist, p, q) == outcome_bits(_hdist_reference, p, q)


def test_hdist_matches_the_two_product_form_on_random_pairs():
    rng = random.Random(34)
    for _ in range(500):
        p = polar(rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 25.0)).v
        q = polar(rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 25.0)).v
        assert outcome_bits(k.hdist, p, q) == outcome_bits(_hdist_reference, p, q)


def test_hdist_basic():
    p = k.ORIGIN
    q = hp(math.cosh(1), math.sinh(1), 0.0)
    assert k.hdist(p.v, q.v) == pytest.approx(1.0, abs=1e-15)
    assert k.hdist(p.v, p.v) == 0.0
    assert HYPERBOLIC.dist(p, q) == k.hdist(p.v, q.v)


def test_hdist_short_segments_keep_precision():
    for d in (1e-3, 1e-5, 1e-7):
        q = HYPERBOLIC.polar(0.0, d)
        assert HYPERBOLIC.dist(k.ORIGIN, q) == pytest.approx(d, rel=1e-11)


def test_far_points_survive_construction():
    # Out past t ~ 20 the quadratic form of the raw combination is pure
    # rounding noise; construction and distance must still work, and a
    # local step taken out there stays well conditioned.
    for t in (20.0, 30.0, 40.0):
        p = HYPERBOLIC.polar(0.0, t)
        assert HYPERBOLIC.dist(k.ORIGIN, p) == pytest.approx(t, rel=1e-12)
        step = point_along(p, direction(p, k.ORIGIN), 1.0)
        assert HYPERBOLIC.dist(k.ORIGIN, step) == pytest.approx(t - 1.0, rel=1e-12)
    # A full descent amplifies input rounding by e^(2t), so the round
    # trip is only meaningful at moderate range.
    p = HYPERBOLIC.polar(0.0, 10.0)
    back = point_along(p, direction(p, k.ORIGIN), 10.0)
    assert HYPERBOLIC.dist(k.ORIGIN, back) < 1e-6


def test_reflection_of_far_point_is_exact_mirror():
    # The mirror across the bisector x1 = 0, as the Lexell locus takes it
    # and as the reflection through the line's normal gives it.
    p = HYPERBOLIC.polar(1.0, 18.0)
    for r in (_bisector_mirror(p), reflect_across((0.0, 1.0, 0.0), p)):
        assert r.v[0] == p.v[0]
        assert r.v[1] == -p.v[1]
        assert r.v[2] == p.v[2]


def test_geodesic_through_axis_points():
    g = HYPERBOLIC.line(k.ORIGIN, hp(math.cosh(1), math.sinh(1), 0.0))
    assert abs(g[0]) <= 1e-15
    assert abs(g[1]) <= 1e-15
    assert g[2] == pytest.approx(1.0, abs=1e-15)
    # swapping the endpoints flips the orientation
    g2 = HYPERBOLIC.line(hp(math.cosh(1), math.sinh(1), 0.0), k.ORIGIN)
    assert g2[2] == pytest.approx(-1.0, abs=1e-15)


def test_geodesic_orientation_right_handed():
    # det(p, dir(p, q), normal) > 0 for the returned normal
    p = HYPERBOLIC.polar(0.7, 0.9)
    q = HYPERBOLIC.polar(2.9, 1.4)
    u = direction(p, q)
    n = _normal(HYPERBOLIC.line(p, q))
    det = (
        p.v[0] * (u[1] * n[2] - u[2] * n[1])
        - p.v[1] * (u[0] * n[2] - u[2] * n[0])
        + p.v[2] * (u[0] * n[1] - u[1] * n[0])
    )
    assert det > 0.0


def test_intersect_coordinate_axes():
    g1 = (0.0, 0.0, 1.0)
    g2 = (0.0, 1.0, 0.0)
    x = HYPERBOLIC.meet(g1, g2, k.ORIGIN, point_along(k.ORIGIN, (0.0, 0.0, 1.0), 1.0))
    assert HYPERBOLIC.dist(x, k.ORIGIN) <= 1e-12


def test_intersect_ultraparallel_absent():
    # two distinct perpendiculars to the same axis never meet
    a1 = HYPERBOLIC.polar(0.0, 0.8)
    a2 = HYPERBOLIC.polar(0.0, 1.9)
    ax = HYPERBOLIC.line(k.ORIGIN, a2)
    b2 = point_along(a2, (0.0, 0.0, 1.0), 1.0)
    p1 = HYPERBOLIC.line(a1, point_along(a1, (0.0, 0.0, 1.0), 1.0))
    p2 = HYPERBOLIC.line(a2, b2)
    with pytest.raises(GeometryError, match="do not meet"):
        HYPERBOLIC.meet(p1, p2, a2, b2)
    assert HYPERBOLIC.dist(HYPERBOLIC.meet(p1, ax, k.ORIGIN, a2), a1) <= 1e-12


def test_intersect_identical_rejected():
    q = HYPERBOLIC.polar(0.0, 1.0)
    g = HYPERBOLIC.line(k.ORIGIN, q)
    with pytest.raises(DegenerateInputError):
        HYPERBOLIC.meet(g, g, k.ORIGIN, q)


def test_angle_at_right_angle():
    p = HYPERBOLIC.polar(0.0, 1.3)
    q = point_along(k.ORIGIN, (0.0, 0.0, 1.0), 0.4)
    assert HYPERBOLIC.angle(k.ORIGIN, p, q) == pytest.approx(math.pi / 2, abs=1e-12)


def test_angle_sum_below_pi():
    a = HYPERBOLIC.polar(0.3, 1.1)
    b = HYPERBOLIC.polar(2.1, 0.8)
    c = HYPERBOLIC.polar(4.4, 1.6)
    angle = HYPERBOLIC.angle
    s = angle(a, b, c) + angle(b, c, a) + angle(c, a, b)
    assert s < math.pi


def test_foot_of_perpendicular_drop():
    g = (0.0, 0.0, 1.0)
    p = point_along(HYPERBOLIC.polar(0.0, 0.7), (0.0, 0.0, 1.0), 0.5)
    f = HYPERBOLIC.foot(p, g)
    assert HYPERBOLIC.line_residual(g, f) <= 1e-12
    assert math.sinh(HYPERBOLIC.dist(p, f)) == pytest.approx(
        HYPERBOLIC.line_residual(g, p), rel=1e-12
    )
    # the drop meets g at a right angle
    other = HYPERBOLIC.polar(0.0, 2.0)
    assert HYPERBOLIC.angle(f, p, other) == pytest.approx(math.pi / 2, abs=1e-9)


def test_geodesic_through_unrepresentable_pair_rejected():
    # Far out, the cross product of two nearby points rounds to a vector
    # that is not spacelike; that is reported, not divided by.
    p = HYPERBOLIC.polar(math.pi / 2, 36.0)
    q = HYPERBOLIC.polar(math.pi / 2 + 1e-9, 36.0)
    with pytest.raises(DegenerateInputError, match="too far apart"):
        HYPERBOLIC.line(p, q)


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_model_line_rejects_coincident_points(geometry):
    # Every plane refuses a line through one point, or through two points
    # closer than TOL_POINT, when the line is built, before any residual
    # divides by its length.
    model = geometry.model
    p = model.polar(0.7, 0.4)
    for q in (p, model.polar(0.7, 0.4 + 1e-12)):
        with pytest.raises(DegenerateInputError):
            model.line(p, q)
    # Just past the threshold the line builds; its rounding grows like
    # eps / separation, about 2e-10 here.
    line = model.line(p, model.polar(0.7, 0.4 + 1e-6))
    assert model.line_residual(line, p) <= 1e-9


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_model_foot_is_the_perpendicular_foot(geometry):
    model = geometry.model
    rng = random.Random(geometry.value)
    for _ in range(200):
        p, s1, s2 = (model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.2))
                     for _ in range(3))
        line = model.line(s1, s2)
        if model.line_residual(line, p) < 1e-3:
            continue
        foot = model.foot(p, line)
        assert model.line_residual(line, foot) <= 1e-12
        far = max((s1, s2), key=lambda s: model.dist(foot, s))
        assert model.angle(foot, p, far) == pytest.approx(math.pi / 2, abs=1e-12)
        # The drop to the foot is the distance to the line: sinh of it is
        # |<p, n>|, sin of it is |p . n|, and in the plane it is the residual.
        assert model.s_K(model.dist(p, foot)) == pytest.approx(
            model.line_residual(line, p), rel=1e-12
        )


def test_midpoint_on_axis():
    q = hp(math.cosh(2), math.sinh(2), 0.0)
    m = HYPERBOLIC.mid(k.ORIGIN, q)
    assert m.v[0] == pytest.approx(COSH1, rel=1e-15)
    assert m.v[1] == pytest.approx(SINH1, rel=1e-15)


# The midpoints the three models wrote out before ``PlaneModel.mid``.
_PLANE_MID = {
    k.Geometry.HYPERBOLIC: lambda p, q: k.HPoint(vec.mmid(p.v, q.v)),
    k.Geometry.SPHERICAL: lambda p, q: k.Geometry.SPHERICAL.model.project(
        tuple(a + b for a, b in zip(p.v, q.v))),
    k.Geometry.EUCLIDEAN: lambda p, q: (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])),
}


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_mid_is_the_per_plane_midpoint_to_the_bit(geometry):
    # One formula, project(lift(p) + lift(q)), gives each plane's own
    # midpoint, by repr so that signed zeros count, out to the Lexell
    # apexes on the hyperboloid (distance 30 from the base point).
    model = geometry.model
    reach = {k.Geometry.HYPERBOLIC: 30.0, k.Geometry.SPHERICAL: 3.0,
             k.Geometry.EUCLIDEAN: 30.0}[geometry]
    rng = random.Random(f"mid-{geometry.value}")
    pairs = [(model.base, model.polar(0.0, 1.0)), (model.polar(-0.0, 0.5), model.base)]
    pairs += [
        tuple(model.polar(rng.uniform(-7.0, 7.0), rng.uniform(0.0, reach)) for _ in range(2))
        for _ in range(2000)
    ]
    for p, q in pairs:
        assert repr(model.mid(p, q)) == repr(_PLANE_MID[geometry](p, q)), (p, q)


def test_mid_rejects_a_pair_whose_sum_rounds_off_the_sheet():
    # At height 38.5 over a base vertex the rounded sum is a null vector,
    # no point of the plane, and mid refuses it.
    apex, base = HYPERBOLIC.polar(math.pi / 2.0, 38.5), HYPERBOLIC.polar(0.0, 0.3)
    s = tuple(a + b for a, b in zip(apex.v, base.v))
    assert vec.minner(s, s) == 0.0
    with pytest.raises(DegenerateInputError, match="too far apart to have a midpoint"):
        HYPERBOLIC.mid(apex, base)


def test_reflect_across_fixes_curve_and_inverts_side():
    # The Lexell bisector mirror fixes its line x1 = 0 and swaps its sides.
    g = (0.0, 1.0, 0.0)
    p = HYPERBOLIC.polar(1.1, 1.2)
    r = _bisector_mirror(p)
    assert math.asinh(HYPERBOLIC.side_value(g, r)) == pytest.approx(
        -math.asinh(HYPERBOLIC.side_value(g, p)), rel=1e-12
    )
    on = HYPERBOLIC.foot(p, g)
    assert HYPERBOLIC.dist(on, _bisector_mirror(on)) <= 1e-12


def test_disk_round_trip_and_scale():
    d = k.DiskPoint(0.3, -0.4)
    p = k.disk_to_hpoint(d)
    back = k.hpoint_to_disk(p)
    assert back.u == pytest.approx(d.u, abs=1e-15)
    assert back.w == pytest.approx(d.w, abs=1e-15)
    r = math.hypot(d.u, d.w)
    assert HYPERBOLIC.dist(k.ORIGIN, p) == pytest.approx(2.0 * math.atanh(r), rel=1e-13)


def test_disk_rejects_boundary():
    with pytest.raises(OutOfModelError):
        k.DiskPoint(1.0, 0.0)


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_project_inverts_lift(geometry):
    # The sheet's points are unit within the band that mnormalize_point
    # returns untouched, and the plane's divide by x0 = 1, so both come
    # back exactly.  The sphere divides by a norm that rounds to within
    # an ulp of 1, which moves a coordinate by at most 2 of its ulps.
    model = geometry.model
    reach = {k.Geometry.HYPERBOLIC: 6.0, k.Geometry.SPHERICAL: math.pi,
             k.Geometry.EUCLIDEAN: 50.0}[geometry]
    rng = random.Random(f"round-trip-{geometry.value}")
    for _ in range(2000):
        p = model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, reach))
        back = model.project(model.lift(p))
        assert isinstance(back, model.point_type)
        if geometry is k.Geometry.SPHERICAL:
            for x, y in zip(p.v, back.v):
                assert abs(x - y) <= 2.0 * math.ulp(x)
        else:
            assert back == p


def test_hyperboloid_project_rejects_vectors_that_are_not_timelike():
    for v in ((1.0, 1.0, 0.0), (1.0, 0.0, 2.0), (0.0, 0.0, 0.0)):
        with pytest.raises(InvalidPointError, match="not timelike"):
            HYPERBOLIC.project(v)


def test_polar_is_the_exponential_map_to_the_bit():
    # The closed form against the map composed from the origin's tangent
    # basis, by repr so that signed zeros count: the special directions,
    # signed zero and negative distances, and a seeded grid out to r = 40,
    # where the sheet's coordinates reach 1e17.
    rng = random.Random("polar-oracle")
    pairs = [(t, r) for t in (0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2, 2 * math.pi)
             for r in (0.0, -0.0, 1e-300, 1e-8, 0.5, -0.5, 3.0, -7.0, 40.0, -40.0)]
    pairs += [(rng.uniform(-7.0, 7.0), rng.uniform(-40.0, 40.0)) for _ in range(20000)]
    for theta, r in pairs:
        assert repr(HYPERBOLIC.polar(theta, r)) == repr(polar(theta, r)), (theta, r)


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_line_angle_matches_the_point_route(geometry):
    # Random vertices out to the sampler's disk radii.  The angle between
    # the lines from v to p and to q is the angle at v, symmetric in the
    # two lines to the bit; the point route's error grows as 1/leg.
    model = geometry.model
    reach = {k.Geometry.HYPERBOLIC: 3.0, k.Geometry.SPHERICAL: 0.6,
             k.Geometry.EUCLIDEAN: 3.0}[geometry]
    rng = random.Random(f"line-angle-{geometry.value}")
    for _ in range(2000):
        v = model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, reach))
        p = model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, reach))
        q = model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, reach))
        l, m = model.line(v, p), model.line(v, q)
        angle = model.line_angle(l, m)
        assert angle == model.line_angle(m, l)
        assert angle == model.angle(v, p, q)
        legs = min(model.dist(v, p), model.dist(v, q))
        assert abs(angle - POINT_ANGLE[geometry](v, p, q)) <= 1e-13 / legs


def test_line_angle_rejects_lines_that_do_not_meet():
    # Two geodesics perpendicular to the x-axis at distances 1 and 2 from
    # the origin are ultraparallel; the axis itself meets both at a right
    # angle.
    axis = HYPERBOLIC.line(HYPERBOLIC.polar(math.pi, 1.0), HYPERBOLIC.polar(0.0, 1.0))
    feet = [HYPERBOLIC.polar(0.0, t) for t in (1.0, 2.0)]
    near, far = (
        HYPERBOLIC.line(x, point_along(x, tangent_direction(x, math.pi / 2), 1.0))
        for x in feet
    )
    assert HYPERBOLIC.line_angle(axis, near) == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(GeometryError, match="do not meet"):
        HYPERBOLIC.line_angle(near, far)


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_angle_rejects_a_coincident_point(geometry):
    # No direction leads from a vertex to itself, so no angle opens there,
    # whichever leg collapses; a leg just past TOL_POINT still measures.
    model = geometry.model
    v, p = model.polar(0.4, 0.3), model.polar(2.0, 0.5)
    for args in ((v, v, p), (v, p, v), (v, v, v)):
        with pytest.raises(DegenerateInputError):
            model.angle(*args)
    near = model.polar(0.4, 0.3 + 1e-6)
    assert math.isfinite(model.angle(v, near, p))


def test_tangent_basis_orthonormal():
    # The basis behind the polar oracle and the test points built off it.
    base = HYPERBOLIC.polar(5.1, 2.3)
    e1, e2 = tangent_basis(base)
    assert vec.minner(e1, e1) == pytest.approx(1.0, abs=1e-12)
    assert vec.minner(e2, e2) == pytest.approx(1.0, abs=1e-12)
    assert abs(vec.minner(e1, e2)) <= 1e-12
    assert abs(vec.minner(e1, base.v)) <= 1e-12
    assert abs(vec.minner(e2, base.v)) <= 1e-12


SPHERE = k.Geometry.SPHERICAL.model


def test_sphere_basics():
    p = k.NORTH_POLE
    q = k.SpherePoint((1.0, 0.0, 0.0))
    assert SPHERE.dist(p, q) == pytest.approx(math.pi / 2, abs=1e-15)
    assert SPHERE.line_residual(SPHERE.line(p, q), p) <= 1e-15
    m = SPHERE.mid(p, q)
    assert SPHERE.dist(p, m) == pytest.approx(math.pi / 4, abs=1e-12)


def test_sphere_angle_and_foot():
    v = k.NORTH_POLE
    p = SPHERE.polar(0.0, 0.7)
    q = SPHERE.polar(0.5 * math.pi, 0.4)
    assert SPHERE.angle(v, p, q) == pytest.approx(math.pi / 2, abs=1e-12)
    vp = SPHERE.line(v, p)
    f = SPHERE.foot(q, vp)
    assert SPHERE.line_residual(vp, f) <= 1e-12
    assert math.sin(SPHERE.dist(q, f)) == pytest.approx(
        SPHERE.line_residual(vp, q), rel=1e-12
    )


def test_sphere_intersections_are_antipodal():
    # The great circles y = 0 and x = 0 meet at the poles; meet picks
    # the one on the arc [s1, s2], the north pole from one arc and the
    # south pole from an arc around it.
    y0 = SPHERE.line(k.NORTH_POLE, k.SpherePoint((1.0, 0.0, 0.0)))
    s1, s2 = k.NORTH_POLE, k.SpherePoint((0.0, 1.0, 0.0))
    a = SPHERE.meet(y0, SPHERE.line(s1, s2), s1, s2)
    s1, s2 = k.SpherePoint((0.0, 0.6, -0.8)), k.SpherePoint((0.0, -0.6, -0.8))
    b = SPHERE.meet(y0, SPHERE.line(s1, s2), s1, s2)
    assert SPHERE.dist(a, b) == pytest.approx(math.pi, abs=1e-12)
    assert SPHERE.dist(a, k.NORTH_POLE) <= 1e-12


def test_sphere_degenerate_rejections():
    p = k.SpherePoint((1.0, 0.0, 0.0))
    anti = k.SpherePoint((-1.0, 0.0, 0.0))
    with pytest.raises(DegenerateInputError):
        SPHERE.line(p, anti)
    with pytest.raises(DegenerateInputError):
        SPHERE.mid(p, anti)
    north = SPHERE.line(k.NORTH_POLE, p)
    with pytest.raises(DegenerateInputError):
        SPHERE.meet(north, north, p, k.NORTH_POLE)
    with pytest.raises(DegenerateInputError):
        SPHERE.foot(k.NORTH_POLE, SPHERE.line(p, k.SpherePoint((0.0, 1.0, 0.0))))


def _sphere_point(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    return k.SpherePoint(tuple(x / n for x in v))


def _moved(rng, p, delta):
    """The point at arclength delta from p in a random direction."""
    w = _sphere_point(rng).v
    d = sum(a * b for a, b in zip(w, p.v))
    t = [a - d * b for a, b in zip(w, p.v)]
    nt = math.sqrt(sum(x * x for x in t))
    v = [math.cos(delta) * a + math.sin(delta) * b / nt for a, b in zip(p.v, t)]
    n = math.sqrt(sum(x * x for x in v))
    return k.SpherePoint(tuple(x / n for x in v))


def test_sphere_model_near_degenerate_pairs_fail_cleanly():
    # Pairs 1e-13 to 1e-5 away from coincidence and from antipodality
    # straddle the rejection thresholds.  Every model operation must give
    # a finite value or a valid point there, or raise DegenerateInputError.
    rng = random.Random("sphere-degenerate")
    for _ in range(2000):
        p, r, s = _sphere_point(rng), _sphere_point(rng), _sphere_point(rng)
        q = _moved(rng, p, 10.0 ** rng.uniform(-13.0, -5.0))
        for a, b in ((p, q), (p, k.SpherePoint(tuple(-x for x in q.v)))):
            calls = (
                lambda: SPHERE.dist(a, b),
                lambda: SPHERE.angle(a, b, r),
                lambda: SPHERE.angle(a, r, b),
                lambda: SPHERE.angle(r, a, b),
                lambda: SPHERE.mid(a, b),
                lambda: SPHERE.meet(SPHERE.line(a, b), SPHERE.line(r, s), r, s),
                lambda: SPHERE.meet(SPHERE.line(r, s), SPHERE.line(a, b), a, b),
                lambda: SPHERE.line_residual(SPHERE.line(a, b), r),
                lambda: SPHERE.foot(r, SPHERE.line(a, b)),
            )
            for call in calls:
                try:
                    out = call()
                except DegenerateInputError:
                    continue
                assert isinstance(out, k.SpherePoint) or math.isfinite(out)


@st.composite
def hpoints(draw, radius=3.0):
    theta = draw(st.floats(0.0, 2.0 * math.pi, allow_nan=False))
    r = draw(st.floats(0.0, radius, allow_nan=False))
    return HYPERBOLIC.polar(theta, r)


@given(hpoints(), hpoints())
@settings(max_examples=80, deadline=None)
def test_metric_properties(p, q):
    dist = HYPERBOLIC.dist
    assert dist(p, q) == pytest.approx(dist(q, p), rel=1e-12, abs=1e-12)
    assert dist(p, q) >= 0.0


@given(hpoints(), st.floats(0.0, 2.0 * math.pi), st.floats(-4.0, 4.0))
@settings(max_examples=80, deadline=None)
def test_point_along_distance_matches_parameter(p, theta, t):
    q = point_along(p, tangent_direction(p, theta), t)
    assert HYPERBOLIC.dist(p, q) == pytest.approx(abs(t), rel=1e-9, abs=1e-11)


@given(hpoints(), hpoints())
@settings(max_examples=80, deadline=None)
def test_segment_points_lie_on_their_geodesic(p, q):
    dist = HYPERBOLIC.dist
    if dist(p, q) < 1e-6:
        return
    g = HYPERBOLIC.line(p, q)
    m = HYPERBOLIC.mid(p, q)
    assert HYPERBOLIC.line_residual(g, p) <= 1e-10
    assert HYPERBOLIC.line_residual(g, q) <= 1e-10
    assert HYPERBOLIC.line_residual(g, m) <= 1e-10
    assert dist(p, m) == pytest.approx(dist(m, q), rel=1e-9, abs=1e-12)


@given(hpoints(), hpoints())
@settings(max_examples=60, deadline=None)
def test_reflection_preserves_distance(p, r):
    dist = HYPERBOLIC.dist
    assert dist(_bisector_mirror(r), _bisector_mirror(p)) == pytest.approx(
        dist(r, p), rel=1e-10, abs=1e-11
    )


# The written-out kernels against corevec, which stays the reference: the
# same operations in the same order, so the results are equal, not close.


def _oracle_points(seed):
    """Hyperboloid points out to distance 6 (v0 up to ~200, past the
    recentring limit), each with a partner 1e-7 to 0.9 away, so both
    branches of the distance (-<p, q> below and above 1.5) are taken."""
    rng = random.Random(seed)
    pts = []
    for _ in range(300):
        p = HYPERBOLIC.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 6.0))
        near = point_along(p, tangent_direction(p, rng.uniform(0.0, 2.0 * math.pi)),
                           10.0 ** rng.uniform(-7.0, math.log10(0.9)))
        pts += [p, near]
    return pts


def _reference_angle(v, p, q):
    if v.v[0] > k._RECENTRE_LIMIT:
        base, (rp, rq) = k.ORIGIN.v, k.HyperboloidModel._recentre(v.v, (p.v, q.v))
    else:
        base, rp, rq = v.v, p.v, q.v
    u1, u2 = vec.mtangent(base, rp), vec.mtangent(base, rq)
    c = vec.minner(u1, u2)
    w = (u2[0] - c * u1[0], u2[1] - c * u1[1], u2[2] - c * u1[2])
    return math.atan2(math.sqrt(max(vec.minner(w, w), 0.0)), c)


def test_hyperboloid_kernels_equal_corevec():
    # test_line_operations_equal_corevec holds the line operations.  The
    # model measures its angles between lines; the tangent route it
    # replaced stays a test oracle, held here to corevec's tangents, to the
    # bit.  The model is held to the oracle.  Past the recentring limit
    # both measure at the origin, and the worst gap on these points is
    # 4.4e-16.  Below it the lines through v have components of size v0,
    # and a leg of length d spans a line of unscaled size sinh d, so the
    # line route's direction rounds by about eps v0^2 / d: the worst gap is
    # 57 u v0^2 / d = 6.3e-15 v0^2 / d (u = 2^-53), 1.5e-5 for a leg of
    # 3.7e-7 at v0 = 70, where a 50-digit angle puts the line route 1.5e-5
    # off and the tangent route 3.4e-7.
    pts = _oracle_points("oracle-hyp")
    branches, recentred = set(), 0
    for i in range(0, len(pts) - 4, 2):
        p, near, q, r = pts[i], pts[i + 1], pts[i + 2], pts[i + 4]
        for x, y in ((p, near), (p, q)):
            assert HYPERBOLIC.dist(x, y) == vec.mdist(x.v, y.v)
            branches.add(-vec.minner(x.v, y.v) < 1.5)
        for v, a, b in ((p, q, r), (q, r, p), (p, near, q)):
            oracle = hyperboloid_angle(v, a, b)
            assert oracle == _reference_angle(v, a, b)
            gap = abs(HYPERBOLIC.angle(v, a, b) - oracle)
            if v.v[0] > k._RECENTRE_LIMIT:
                recentred += 1
                assert gap <= 1e-15
            else:
                leg = min(HYPERBOLIC.dist(v, a), HYPERBOLIC.dist(v, b))
                assert gap <= 1e-14 * v.v[0] ** 2 / leg
    assert branches == {True, False}
    assert recentred > 20


def test_sphere_kernels_equal_corevec():
    # The sphere's distance equals corevec's great-circle distance to the
    # last bit.
    rng = random.Random("oracle-sph")
    pts = [_sphere_point(rng) for _ in range(300)]
    pts += [_moved(rng, p, 10.0 ** rng.uniform(-7.0, 0.0)) for p in pts[:100]]
    for p, q in zip(pts, pts[1:]):
        assert SPHERE.dist(p, q) == vec.sdist(p.v, q.v)


def _reference_sphere_polar(theta, r):
    """The exponential map at the pole as composed from the vector
    kernels: cos(r) p + sin(r) n toward n = (cos theta, sin theta, 0),
    normalized."""
    p, n = k.NORTH_POLE.v, (math.cos(theta), math.sin(theta), 0.0)
    ct, st = math.cos(r), math.sin(r)
    return k.SpherePoint(
        _snormalize((ct * p[0] + st * n[0], ct * p[1] + st * n[1], ct * p[2] + st * n[2])))


@pytest.mark.parametrize("r", [0.0, -0.0, 1e-300, 0.6, 1.2, SPHERE.side_limit, -0.6])
def test_sphere_polar_equals_the_composition_to_the_bit(r):
    # By repr, so signed zeros count: where st * c or st * s is -0.0
    # (r = 0.0 at theta = pi, r = -0.0 at theta = 0.0), ct * 0.0 + it is 0.0.
    for theta in (0.0, -0.0, 1.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi):
        assert repr(SPHERE.polar(theta, r)) == repr(_reference_sphere_polar(theta, r))
    rng = random.Random(f"sphere-polar:{r!r}")
    for _ in range(200):
        theta = rng.uniform(-7.0, 7.0)
        assert repr(SPHERE.polar(theta, r)) == repr(_reference_sphere_polar(theta, r))


# The five line operations are written once, on PlaneModel.  On the curved
# planes each equals, to the last bit, the corevec composition it replaced:
# the geodesic's unit normal n with l = (-n0, n1, n2) on the hyperboloid,
# the great circle's unit normal on the sphere.  The euclidean plane is held
# to the point-pair formulas it used before its lines were covectors.


def _hyperbolic_reference(p, q, r, s):
    """Line pq, side value and foot of r on it, and its meet with line rs
    (None where the lines do not meet)."""
    n = vec.mnormalize_space(vec.mcross(p.v, q.v))
    c = vec.mcross(n, vec.mnormalize_space(vec.mcross(r.v, s.v)))
    meet = k.HPoint(vec.mnormalize_point(c)) if vec.minner(c, c) < 0.0 else None
    return (-n[0], n[1], n[2]), vec.minner(r.v, n), k.HPoint(vec.mfoot(r.v, n)), meet


def _snormalize(v):
    """v / |v|, the unit vector that ``SphereModel.project`` writes out."""
    s = math.sqrt(vec.sdot(v, v))
    return (v[0] / s, v[1] / s, v[2] / s)


def _spherical_reference(p, q, r, s):
    l = _snormalize(vec.scross(p.v, q.v))
    x = _snormalize(vec.scross(l, _snormalize(vec.scross(r.v, s.v))))
    # Of x and -x, the one on the arc [r, s].
    if vec.sdot(x, tuple(a + b for a, b in zip(r.v, s.v))) < 0.0:
        x = (-x[0], -x[1], -x[2])
    h = vec.sdot(r.v, l)
    foot = _snormalize(tuple(a - h * b for a, b in zip(r.v, l)))
    return l, h, k.SpherePoint(foot), k.SpherePoint(x)


def _line_quadruples(geometry):
    """Point quadruples p, q, r, s: line pq against r, and against line rs."""
    if geometry is k.Geometry.HYPERBOLIC:
        pts = _oracle_points("oracle-hyp")
        for i in range(0, len(pts) - 4, 2):
            p, near, q, r = pts[i], pts[i + 1], pts[i + 2], pts[i + 4]
            yield p, q, near, r
            yield p, near, q, r
    elif geometry is k.Geometry.SPHERICAL:
        rng = random.Random("oracle-sph")
        pts = [_sphere_point(rng) for _ in range(300)]
        pts += [_moved(rng, p, 10.0 ** rng.uniform(-7.0, 0.0)) for p in pts[:100]]
        for i in range(len(pts) - 3):
            yield tuple(pts[i:i + 4])
    else:
        rng = random.Random("oracle-euc")
        for _ in range(2000):
            yield tuple((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(4))


@pytest.mark.parametrize("geometry", [k.Geometry.HYPERBOLIC, k.Geometry.SPHERICAL])
def test_line_operations_equal_corevec(geometry):
    model = geometry.model
    reference = {k.Geometry.HYPERBOLIC: _hyperbolic_reference,
                 k.Geometry.SPHERICAL: _spherical_reference}[geometry]
    meetings = misses = 0
    for p, q, r, s in _line_quadruples(geometry):
        line, side, foot, meet = reference(p, q, r, s)
        l, m = model.line(p, q), model.line(r, s)
        assert l == line
        assert model.side_value(l, r) == side
        assert model.line_residual(l, r) == abs(side)
        assert model.foot(r, l) == foot
        if meet is None:
            misses += 1
            with pytest.raises(GeometryError, match="do not meet"):
                model.meet(l, m, r, s)
        else:
            meetings += 1
            assert model.meet(l, m, r, s) == meet
    assert meetings > 20
    assert misses > 20 or geometry is k.Geometry.SPHERICAL


def _point_pair_reference(p, q, r, s):
    """Signed distance and foot of r against line pq, and where line pq
    meets line rs, with the sine between the two lines."""
    ux, uy = q[0] - p[0], q[1] - p[1]
    side = (ux * (r[1] - p[1]) - uy * (r[0] - p[0])) / math.hypot(ux, uy)
    t = ((r[0] - p[0]) * ux + (r[1] - p[1]) * uy) / (ux * ux + uy * uy)
    foot = (p[0] + t * ux, p[1] + t * uy)
    vx, vy = s[0] - r[0], s[1] - r[1]
    den = ux * vy - uy * vx
    t = ((r[0] - p[0]) * vy - (r[1] - p[1]) * vx) / den
    meet = (p[0] + t * ux, p[1] + t * uy)
    return side, foot, meet, den / (math.hypot(ux, uy) * math.hypot(vx, vy))


def test_euclidean_line_operations_match_the_point_pairs():
    # Both routes round every coordinate product, of size S^2 with S one
    # plus the largest coordinate, and divide by the length of pq: the
    # side values and feet agree within 16 eps S^2 / |pq|.  A meet moves
    # that much over the sine between the lines and the shorter defining
    # pair, at the size of the meet: 32 eps S max(1, |x|) / (sin |pq|).
    # 20,000 quadruples measured at most 4.0, 3.6 and 8.7 eps of those.
    model = k.Geometry.EUCLIDEAN.model
    for p, q, r, s in _line_quadruples(k.Geometry.EUCLIDEAN):
        side, foot, meet, sine = _point_pair_reference(p, q, r, s)
        size = 1.0 + max(abs(c) for pt in (p, q, r, s) for c in pt)
        band = 16.0 * EPS * size * size / model.dist(p, q)
        l = model.line(p, q)
        assert abs(model.side_value(l, r) - side) <= band
        assert abs(model.line_residual(l, r) - abs(side)) <= band
        assert model.dist(model.foot(r, l), foot) <= band
        if abs(sine) > 1e-3:
            shorter = min(model.dist(p, q), model.dist(r, s))
            reach = max(1.0, math.hypot(*meet))
            got = model.meet(l, model.line(r, s), r, s)
            assert model.dist(got, meet) <= 32.0 * EPS * size * reach / (abs(sine) * shorter)


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_line_has_unit_line_form(geometry):
    # kappa l0^2 + l1^2 + l2^2 = 1, the check Geodesic used to make: the
    # squares and sums round twice (once building l, once here) and the
    # root and divisions once, under 6 eps of the form's absolute terms.
    # 20,000 lines measured at most 2.6 eps.
    model = geometry.model
    reach = {k.Geometry.HYPERBOLIC: 6.0, k.Geometry.SPHERICAL: 1.5,
             k.Geometry.EUCLIDEAN: 50.0}[geometry]
    rng = random.Random(f"unit-form-{geometry.value}")
    for _ in range(2000):
        p, q = (model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, reach))
                for _ in range(2))
        l0, l1, l2 = model.line(p, q)
        terms = abs(model.kappa) * l0 * l0 + l1 * l1 + l2 * l2
        form = model.kappa * l0 * l0 + l1 * l1 + l2 * l2
        assert abs(form - 1.0) <= 6.0 * EPS * terms


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_line_operations_reject_degenerate_input(geometry):
    model = geometry.model
    p, q = model.polar(0.3, 0.5), model.polar(2.0, 0.7)
    l = model.line(p, q)
    with pytest.raises(DegenerateInputError):
        model.line(p, p)
    # One line met with itself, either way round, has no single point.
    for m in (l, model.line(q, p)):
        with pytest.raises(DegenerateInputError, match="identical lines"):
            model.meet(l, m, p, q)
    if geometry is k.Geometry.SPHERICAL:
        with pytest.raises(DegenerateInputError):
            model.line(p, k.SpherePoint(tuple(-c for c in p.v)))


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_perpendiculars_to_one_line(geometry):
    # Two perpendiculars to one line, dropped from two points whose feet
    # differ, are ultraparallel on the hyperboloid and parallel in the
    # plane, so they do not meet; on the sphere they meet at the line's
    # pole, a quarter turn from every point of the line.
    model = geometry.model
    base = model.line(model.base, model.polar(0.0, 1.0))
    c1, c2 = model.polar(1.0, 1.0), model.polar(2.0, 1.0)
    f1, f2 = model.foot(c1, base), model.foot(c2, base)
    p1, p2 = model.line(c1, f1), model.line(c2, f2)
    if geometry is k.Geometry.SPHERICAL:
        pole = model.meet(p1, p2, c2, f2)
        assert model.dist(pole, f1) == pytest.approx(math.pi / 2, abs=1e-12)
        assert model.dist(pole, f2) == pytest.approx(math.pi / 2, abs=1e-12)
    else:
        with pytest.raises(GeometryError, match="do not meet"):
            model.meet(p1, p2, c2, f2)


def _reference_corner_cosines(model, polar):
    """The pretest's law of cosines composed from ``model.versine`` calls.

    ``corner_cosines`` computes each X(dr) in place, with ``versine``'s own
    operations in its order, so it must equal this to the last bit.
    """
    (t1, r1), (t2, r2), (t3, r3) = polar
    x, s_K, kappa = model.versine, model.s_K, model.kappa
    k1, k2, k3 = s_K(r1), s_K(r2), s_K(r3)
    w = math.sin(0.5 * (t2 - t3))
    xa = x(r2 - r3) + 2.0 * k2 * k3 * (w * w)
    w = math.sin(0.5 * (t3 - t1))
    xb = x(r3 - r1) + 2.0 * k3 * k1 * (w * w)
    w = math.sin(0.5 * (t1 - t2))
    xc = x(r1 - r2) + 2.0 * k1 * k2 * (w * w)
    pa, pb, pc = xa * (2.0 - kappa * xa), xb * (2.0 - kappa * xb), xc * (2.0 - kappa * xc)
    if not (pa > 0.0 and pb > 0.0 and pc > 0.0):
        return None
    sa, sb, sc = math.sqrt(pa), math.sqrt(pb), math.sqrt(pc)
    return (
        (xb + xc - kappa * xb * xc - xa) / sb / sc,
        (xc + xa - kappa * xc * xa - xb) / sc / sa,
        (xa + xb - kappa * xa * xb - xc) / sa / sb,
    )


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_corner_cosines_equal_the_versine_reference_to_the_bit(geometry):
    from ccplane import sampling

    model = geometry.model
    radius = sampling._DISK_RADIUS[geometry]
    rng = random.Random(f"pretest-reference:{geometry.value}")
    for _ in range(2500):
        polar = [polar_draw(radius, rng) for _ in range(3)]
        got = model.corner_cosines(polar)
        assert got is not None
        assert repr(got) == repr(_reference_corner_cosines(model, polar))


@pytest.mark.parametrize("geometry", list(k.Geometry))
def test_corner_cosines_of_a_coincident_vertex_pair_are_none(geometry):
    # The same (theta, r) twice, and the base point under two headings.
    model = geometry.model
    for polar in ([(0.3, 1.0), (0.3, 1.0), (1.2, 0.5)],
                  [(0.0, 0.0), (2.0, 0.0), (1.2, 0.5)]):
        assert model.corner_cosines(polar) is None
        assert _reference_corner_cosines(model, polar) is None
