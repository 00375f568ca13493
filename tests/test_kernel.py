import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplane import corevec as vec
from ccplane import kernel as k
from ccplane.errors import (
    ContractViolationError,
    DegenerateInputError,
    InvalidPointError,
    OutOfModelError,
)

COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014
TANH1 = 0.7615941559557649


def hp(x0, x1, x2):
    return k.HPoint((x0, x1, x2))


def test_mink_inner_frozen():
    assert k.mink_inner((math.cosh(1), math.sinh(1), 0.0), (1.0, 0.0, 0.0)) == -COSH1


def test_hpoint_rejects_off_sheet():
    with pytest.raises(InvalidPointError):
        hp(1.0, 0.5, 0.0)
    with pytest.raises(InvalidPointError):
        hp(-1.0, 0.0, 0.0)


def test_hdist_basic():
    p = k.ORIGIN
    q = hp(math.cosh(1), math.sinh(1), 0.0)
    assert k.hdist(p, q) == pytest.approx(1.0, abs=1e-15)
    assert k.hdist(p, p) == 0.0


def test_hdist_short_segments_keep_precision():
    for d in (1e-3, 1e-5, 1e-7):
        q = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), d)
        assert k.hdist(k.ORIGIN, q) == pytest.approx(d, rel=1e-11)


def test_far_points_survive_construction():
    # Out past t ~ 20 the quadratic form of the raw combination is pure
    # rounding noise; construction and distance must still work, and a
    # local step taken out there stays well conditioned.
    for t in (20.0, 30.0, 40.0):
        p = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), t)
        assert k.hdist(k.ORIGIN, p) == pytest.approx(t, rel=1e-12)
        step = k.point_along(p, k.direction(p, k.ORIGIN), 1.0)
        assert k.hdist(k.ORIGIN, step) == pytest.approx(t - 1.0, rel=1e-12)
    # A full descent amplifies input rounding by e^(2t), so the round
    # trip is only meaningful at moderate range.
    p = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 10.0)
    back = k.point_along(p, k.direction(p, k.ORIGIN), 10.0)
    assert k.hdist(k.ORIGIN, back) < 1e-6


def test_reflection_of_far_point_is_exact_mirror():
    g = k.Geodesic((0.0, 1.0, 0.0))
    p = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 1.0), 18.0)
    r = k.reflect_across(g, p)
    assert r.v[0] == p.v[0]
    assert r.v[1] == -p.v[1]
    assert r.v[2] == p.v[2]


def test_point_along_requires_unit_tangent():
    with pytest.raises(ContractViolationError):
        k.point_along(k.ORIGIN, (0.0, 2.0, 0.0), 1.0)
    with pytest.raises(ContractViolationError):
        k.point_along(k.ORIGIN, (1.0, 1.0, 0.0), 1.0)


def test_geodesic_through_axis_points():
    g = k.geodesic_through(k.ORIGIN, hp(math.cosh(1), math.sinh(1), 0.0))
    assert abs(g.normal[0]) <= 1e-15
    assert abs(g.normal[1]) <= 1e-15
    assert g.normal[2] == pytest.approx(1.0, abs=1e-15)
    # swapping the endpoints flips the orientation
    g2 = k.geodesic_through(hp(math.cosh(1), math.sinh(1), 0.0), k.ORIGIN)
    assert g2.normal[2] == pytest.approx(-1.0, abs=1e-15)


def test_geodesic_orientation_right_handed():
    # det(p, dir(p, q), normal) > 0 for the returned normal
    p = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 0.7), 0.9)
    q = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 2.9), 1.4)
    u = k.direction(p, q)
    n = k.geodesic_through(p, q).normal
    det = (
        p.v[0] * (u[1] * n[2] - u[2] * n[1])
        - p.v[1] * (u[0] * n[2] - u[2] * n[0])
        + p.v[2] * (u[0] * n[1] - u[1] * n[0])
    )
    assert det > 0.0


def test_intersect_coordinate_axes():
    g1 = k.Geodesic((0.0, 0.0, 1.0))
    g2 = k.Geodesic((0.0, 1.0, 0.0))
    x = k.intersect_geodesics(g1, g2)
    assert x is not None
    assert k.hdist(x, k.ORIGIN) <= 1e-12


def test_intersect_ultraparallel_absent():
    # two distinct perpendiculars to the same axis never meet
    a1 = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 0.8)
    a2 = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 1.9)
    ax = k.geodesic_through(k.ORIGIN, a2)
    p1 = k.geodesic_through(a1, k.point_along(a1, (0.0, 0.0, 1.0), 1.0))
    p2 = k.geodesic_through(a2, k.point_along(a2, (0.0, 0.0, 1.0), 1.0))
    assert k.intersect_geodesics(p1, p2) is None
    assert k.intersect_geodesics(p1, ax) is not None


def test_intersect_identical_rejected():
    g = k.geodesic_through(k.ORIGIN, k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 1.0))
    with pytest.raises(DegenerateInputError):
        k.intersect_geodesics(g, g)


def test_angle_at_right_angle():
    p = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 1.3)
    q = k.point_along(k.ORIGIN, (0.0, 0.0, 1.0), 0.4)
    assert k.angle_at(k.ORIGIN, p, q) == pytest.approx(math.pi / 2, abs=1e-12)


def test_angle_sum_below_pi():
    a = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 0.3), 1.1)
    b = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 2.1), 0.8)
    c = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 4.4), 1.6)
    s = k.angle_at(a, b, c) + k.angle_at(b, c, a) + k.angle_at(c, a, b)
    assert s < math.pi


def test_foot_of_perpendicular_drop():
    g = k.Geodesic((0.0, 0.0, 1.0))
    p = k.point_along(
        k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 0.7), (0.0, 0.0, 1.0), 0.5
    )
    f = k.foot_of_perpendicular(p, g)
    assert k.geodesic_residual(g, f) <= 1e-12
    assert math.sinh(k.hdist(p, f)) == pytest.approx(
        k.geodesic_residual(g, p), rel=1e-12
    )
    # the drop meets g at a right angle
    other = k.point_along(k.ORIGIN, (0.0, 1.0, 0.0), 2.0)
    assert k.angle_at(f, p, other) == pytest.approx(math.pi / 2, abs=1e-9)


def test_geodesic_through_unrepresentable_pair_rejected():
    # Far out, the cross product of two nearby points rounds to a vector
    # that is not spacelike; that is reported, not divided by.
    p = k.Geometry.HYPERBOLIC.model.polar(math.pi / 2, 36.0)
    q = k.Geometry.HYPERBOLIC.model.polar(math.pi / 2 + 1e-9, 36.0)
    with pytest.raises(DegenerateInputError):
        k.geodesic_through(p, q)


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
    m = k.midpoint(k.ORIGIN, q)
    assert m.v[0] == pytest.approx(COSH1, rel=1e-15)
    assert m.v[1] == pytest.approx(SINH1, rel=1e-15)


def test_reflect_across_fixes_curve_and_inverts_side():
    g = k.Geodesic((0.0, 0.0, 1.0))
    p = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 1.1), 1.2)
    r = k.reflect_across(g, p)
    assert math.asinh(k.mink_inner(r.v, g.normal)) == pytest.approx(
        -math.asinh(k.mink_inner(p.v, g.normal)), rel=1e-12
    )
    on = k.foot_of_perpendicular(p, g)
    assert k.hdist(on, k.reflect_across(g, on)) <= 1e-12


def test_disk_round_trip_and_scale():
    d = k.DiskPoint(0.3, -0.4)
    p = k.disk_to_hpoint(d)
    back = k.hpoint_to_disk(p)
    assert back.u == pytest.approx(d.u, abs=1e-15)
    assert back.w == pytest.approx(d.w, abs=1e-15)
    r = math.hypot(d.u, d.w)
    assert k.hdist(k.ORIGIN, p) == pytest.approx(2.0 * math.atanh(r), rel=1e-13)


def test_disk_rejects_boundary():
    with pytest.raises(OutOfModelError):
        k.DiskPoint(1.0, 0.0)


def test_radial_project_norm_is_tanh():
    base = k.ORIGIN
    p = hp(math.cosh(1), math.sinh(1), 0.0)
    tp = k.radial_project(base, p)
    assert math.hypot(tp.s, tp.t) == pytest.approx(TANH1, rel=1e-12)


def test_radial_project_lines_through_base_stay_straight():
    base = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 0.4), 0.9)
    u = k.tangent_direction(base, 2.2)
    a = k.radial_project(base, k.point_along(base, u, 0.7))
    b = k.radial_project(base, k.point_along(base, u, 1.9))
    c = k.radial_project(base, k.point_along(base, u, -1.2))
    # all three collinear with the tangent-plane origin
    assert abs(a.s * b.t - a.t * b.s) <= 1e-12
    assert abs(a.s * c.t - a.t * c.s) <= 1e-12


def test_tangent_basis_orthonormal():
    base = k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, 5.1), 2.3)
    e1, e2 = k.tangent_basis(base)
    assert k.mink_inner(e1, e1) == pytest.approx(1.0, abs=1e-12)
    assert k.mink_inner(e2, e2) == pytest.approx(1.0, abs=1e-12)
    assert abs(k.mink_inner(e1, e2)) <= 1e-12
    assert abs(k.mink_inner(e1, base.v)) <= 1e-12
    assert abs(k.mink_inner(e2, base.v)) <= 1e-12


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
    return k.point_along(k.ORIGIN, k.tangent_direction(k.ORIGIN, theta), r)


@given(hpoints(), hpoints())
@settings(max_examples=80, deadline=None)
def test_metric_properties(p, q):
    assert k.hdist(p, q) == pytest.approx(k.hdist(q, p), rel=1e-12, abs=1e-12)
    assert k.hdist(p, q) >= 0.0


@given(hpoints(), st.floats(0.0, 2.0 * math.pi), st.floats(-4.0, 4.0))
@settings(max_examples=80, deadline=None)
def test_point_along_distance_matches_parameter(p, theta, t):
    q = k.point_along(p, k.tangent_direction(p, theta), t)
    assert k.hdist(p, q) == pytest.approx(abs(t), rel=1e-9, abs=1e-11)


@given(hpoints(), hpoints())
@settings(max_examples=80, deadline=None)
def test_segment_points_lie_on_their_geodesic(p, q):
    if k.hdist(p, q) < 1e-6:
        return
    g = k.geodesic_through(p, q)
    m = k.midpoint(p, q)
    assert k.geodesic_residual(g, p) <= 1e-10
    assert k.geodesic_residual(g, q) <= 1e-10
    assert k.geodesic_residual(g, m) <= 1e-10
    assert k.hdist(p, m) == pytest.approx(k.hdist(m, q), rel=1e-9, abs=1e-12)


@given(hpoints(), hpoints(), hpoints())
@settings(max_examples=60, deadline=None)
def test_reflection_preserves_distance(p, q, r):
    if k.hdist(p, q) < 1e-6:
        return
    g = k.geodesic_through(p, q)
    assert k.hdist(k.reflect_across(g, r), k.reflect_across(g, p)) == pytest.approx(
        k.hdist(r, p), rel=1e-10, abs=1e-11
    )


# The written-out kernels against corevec, which stays the reference: the
# same operations in the same order, so the results are equal, not close.

HYPERBOLIC = k.Geometry.HYPERBOLIC.model


def _oracle_points(seed):
    """Hyperboloid points out to distance 6 (v0 up to ~200, past the
    recentring limit), each with a partner 1e-7 to 0.9 away, so both
    branches of the distance (-<p, q> below and above 1.5) are taken."""
    rng = random.Random(seed)
    pts = []
    for _ in range(300):
        p = HYPERBOLIC.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 6.0))
        near = k.point_along(p, k.tangent_direction(p, rng.uniform(0.0, 2.0 * math.pi)),
                             10.0 ** rng.uniform(-7.0, math.log10(0.9)))
        pts += [p, near]
    return pts


def _reference_angle(v, p, q):
    if v.v[0] > k._RECENTRE_LIMIT:
        base, (rp, rq) = k._E0, k._recentre(v.v, (p.v, q.v))
    else:
        base, rp, rq = v.v, p.v, q.v
    u1, u2 = vec.mtangent(base, rp), vec.mtangent(base, rq)
    c = vec.minner(u1, u2)
    w = (u2[0] - c * u1[0], u2[1] - c * u1[1], u2[2] - c * u1[2])
    return math.atan2(math.sqrt(max(vec.minner(w, w), 0.0)), c)


def test_hyperboloid_kernels_equal_corevec():
    pts = _oracle_points("oracle-hyp")
    branches, recentred, meetings = set(), 0, 0
    for i in range(0, len(pts) - 4, 2):
        p, near, q, r = pts[i], pts[i + 1], pts[i + 2], pts[i + 4]
        for x, y in ((p, near), (p, q)):
            assert k.hdist(x, y) == vec.mdist(x.v, y.v)
            branches.add(-vec.minner(x.v, y.v) < 1.5)
            assert k.geodesic_through(x, y).normal == vec.mnormalize_space(vec.mcross(x.v, y.v))
        g1, g2 = k.geodesic_through(p, q), k.geodesic_through(near, r)
        c = vec.mcross(g1.normal, g2.normal)
        x = k.intersect_geodesics(g1, g2)
        if vec.minner(c, c) < 0.0:
            meetings += 1
            assert x == k.HPoint(vec.mnormalize_point(c))
        else:
            assert x is None
        for v, a, b in ((p, q, r), (q, r, p), (p, near, q)):
            assert k.angle_at(v, a, b) == _reference_angle(v, a, b)
            recentred += v.v[0] > k._RECENTRE_LIMIT
    assert branches == {True, False}
    assert recentred > 20 and meetings > 20


def test_sphere_kernels_equal_corevec():
    rng = random.Random("oracle-sph")
    pts = [_sphere_point(rng) for _ in range(300)]
    pts += [_moved(rng, p, 10.0 ** rng.uniform(-7.0, 0.0)) for p in pts[:100]]
    for i in range(len(pts) - 2):
        p, q, r = pts[i], pts[i + 1], pts[i + 2]
        assert SPHERE.dist(p, q) == vec.sdist(p.v, q.v)
        assert SPHERE.line(p, q) == vec.snormalize(vec.scross(p.v, q.v))
        u1, u2 = vec.stangent(p.v, q.v), vec.stangent(p.v, r.v)
        c = vec.sdot(u1, u2)
        w = (u2[0] - c * u1[0], u2[1] - c * u1[1], u2[2] - c * u1[2])
        assert SPHERE.angle(p, q, r) == math.atan2(math.sqrt(max(vec.sdot(w, w), 0.0)), c)
        x = vec.snormalize(vec.scross(SPHERE.line(p, q), SPHERE.line(q, r)))
        s = x[0] * (q.v[0] + r.v[0]) + x[1] * (q.v[1] + r.v[1]) + x[2] * (q.v[2] + r.v[2])
        expect = x if s >= 0.0 else (-x[0], -x[1], -x[2])
        assert SPHERE.meet(SPHERE.line(p, q), SPHERE.line(q, r), q, r).v == expect
