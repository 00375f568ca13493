import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
def test_model_foot_is_the_perpendicular_foot(geometry):
    model = geometry.model
    rng = random.Random(geometry.value)
    for _ in range(200):
        p, s1, s2 = (model.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 1.2))
                     for _ in range(3))
        if model.on_side_residual(p, s1, s2) < 1e-3:
            continue
        foot = model.foot(p, s1, s2)
        assert model.on_side_residual(foot, s1, s2) <= 1e-12
        far = max((s1, s2), key=lambda s: model.dist(foot, s))
        assert model.angle(foot, p, far) == pytest.approx(math.pi / 2, abs=1e-12)


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


def test_sphere_basics():
    p = k.NORTH_POLE
    q = k.SpherePoint((1.0, 0.0, 0.0))
    assert k.sphere_dist(p, q) == pytest.approx(math.pi / 2, abs=1e-15)
    g = k.sphere_geodesic(p, q)
    assert k.sphere_geodesic_residual(g, p) <= 1e-15
    m = k.sphere_midpoint(p, q)
    assert k.sphere_dist(p, m) == pytest.approx(math.pi / 4, abs=1e-12)


def test_sphere_angle_and_foot():
    v = k.NORTH_POLE
    p = k.sphere_point_along(v, (1.0, 0.0, 0.0), 0.7)
    q = k.sphere_point_along(v, (0.0, 1.0, 0.0), 0.4)
    assert k.sphere_angle_at(v, p, q) == pytest.approx(math.pi / 2, abs=1e-12)
    g = k.sphere_geodesic(v, p)
    f = k.sphere_foot(q, g)
    assert k.sphere_geodesic_residual(g, f) <= 1e-12
    assert math.sin(k.sphere_dist(q, f)) == pytest.approx(
        k.sphere_geodesic_residual(g, q), rel=1e-12
    )


def test_sphere_intersections_are_antipodal():
    g1 = k.sphere_geodesic(k.NORTH_POLE, k.SpherePoint((1.0, 0.0, 0.0)))
    g2 = k.sphere_geodesic(k.NORTH_POLE, k.SpherePoint((0.0, 1.0, 0.0)))
    a, b = k.sphere_intersections(g1, g2)
    assert k.sphere_dist(a, b) == pytest.approx(math.pi, abs=1e-12)
    assert min(k.sphere_dist(a, k.NORTH_POLE), k.sphere_dist(b, k.NORTH_POLE)) <= 1e-12


def test_sphere_degenerate_rejections():
    p = k.SpherePoint((1.0, 0.0, 0.0))
    anti = k.SpherePoint((-1.0, 0.0, 0.0))
    with pytest.raises(DegenerateInputError):
        k.sphere_geodesic(p, anti)
    with pytest.raises(DegenerateInputError):
        k.sphere_midpoint(p, anti)


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
