"""Cevian frames, the ratio-sum relation, converse construction, medians."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccplane.cevians import (
    CevianFrame,
    Triangle,
    _foot_legs,
    ceva_product,
    cevian_feet,
    cevian_frame,
    equilateral_triangle,
    euler_relation_residual,
    lambert_median_report,
    pqr_system,
    stretch_ratio,
    unit_sum_residual,
)
from ccplane.construct import RatioSumInput, construct_from_ratios
from ccplane import kernel, sampling
from ccplane.errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleGeometryError,
    InfeasibleInputError,
)
from ccplane.kernel import (
    ORIGIN,
    Geometry,
    HPoint,
    SpherePoint,
)
from ccplane.sampling import (
    MAX_TRIANGLE_ATTEMPTS,
    sample_frame,
    sample_interior_point,
    sample_triangle,
    substream,
)
from ccplane.trig import build_right_triangle, menelaus_ratio
from angle_oracles import point_route_angles
from cevian_oracles import polar_draw, projection_oracle
from hyperboloid_oracles import direction, point_along

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL
EUC = Geometry.EUCLIDEAN


def fixture_triangle() -> Triangle:
    a = HYP.model.polar(0.2, 0.9)
    b = HYP.model.polar(2.1, 1.4)
    c = HYP.model.polar(4.0, 0.7)
    return Triangle(HYP, a, b, c)


def fixture_frame() -> CevianFrame:
    tri = fixture_triangle()
    return cevian_frame(tri, sample_interior_point(tri, substream("fixture", 1, 0)))


class TestTriangle:
    def test_coincident_vertices_rejected(self):
        a = HYP.model.polar(0.0, 1.0)
        with pytest.raises(DegenerateInputError):
            Triangle(HYP, a, a, ORIGIN)

    def test_collinear_vertices_rejected(self):
        pts = [HYP.model.polar(0.3, t) for t in (0.5, 1.0, 2.0)]
        with pytest.raises(DegenerateInputError):
            Triangle(HYP, *pts)

    def test_oversized_side_rejected(self):
        a = HYP.model.polar(0.0, 6.0)
        b = HYP.model.polar(math.pi, 6.0)
        c = HYP.model.polar(math.pi / 2, 1.0)
        with pytest.raises(DomainError):
            Triangle(HYP, a, b, c)
        # The octant triangle has three sides of exactly pi/2.
        octant = [SpherePoint(v) for v in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
        with pytest.raises(DomainError):
            Triangle(SPH, *octant)

    def test_vertex_type_mismatch_rejected(self):
        with pytest.raises(DomainError):
            Triangle(EUC, ORIGIN, (1.0, 0.0), (0.0, 1.0))

    def test_side_lengths_match_metric(self):
        tri = fixture_triangle()
        bc, ca, ab = tri.side_lengths()
        dist = HYP.model.dist
        assert bc == pytest.approx(dist(tri.b, tri.c), abs=0)
        assert ca == pytest.approx(dist(tri.c, tri.a), abs=0)
        assert ab == pytest.approx(dist(tri.a, tri.b), abs=0)


# Three vertices 13.5-13.6 from the origin, all within 5e-9 rad of one
# direction: sides 0.164, 0.044 and 0.120 measure fine, but the cross
# product of the first two vertices rounds to a vector that is not
# spacelike, so side BC has no unit normal.
_FAR_THIN = [
    (2.3939626092869637, 13.588164922020693),
    (2.3939626070400966, 13.467909976434884),
    (2.3939626119378956, 13.632382321500174),
]


def _counting(calls, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


class TestSideLines:
    def test_far_thin_triangle_fails_as_degenerate(self):
        # The inside test once normalized that cross product itself and
        # leaked a bare ValueError (math domain error) from cevian_frame.
        model = HYP.model
        o = HPoint((388038.85366505507, -284549.7708232047, 263828.6941883913))
        with pytest.raises(DegenerateInputError, match="too far apart"):
            tri = Triangle(HYP, *(model.polar(t, r) for t, r in _FAR_THIN))
            cevian_frame(tri, o)

    def test_far_thin_triangles_raise_only_geometry_errors(self):
        # Thin triangles 8-14 from the origin straddle every rejection
        # threshold of the side lines; each must fail as a GeometryError.
        model = HYP.model
        rng = random.Random("thin-far")
        for _ in range(3000):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            pts = [model.polar(theta + rng.gauss(0.0, 3e-9), rng.uniform(8.0, 14.0))
                   for _ in range(3)]
            try:
                tri = Triangle(HYP, *pts)
                cevian_frame(tri, sample_interior_point(tri, rng))
            except GeometryError:
                continue

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_triangle_keeps_its_oriented_side_lines(self, geometry):
        model = geometry.model
        tri = sample_triangle(geometry, substream("side-lines", 3, 0))
        a, b, c = tri.a, tri.b, tri.c
        assert tri._lines == (model.line(b, c), model.line(c, a), model.line(a, b))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_frame_and_ceva_build_nine_lines(self, geometry, seed, monkeypatch):
        # Three side lines per triangle, three cevians through o for the
        # feet, three cevians through the feet for concurrency: nine
        # distinct lines, each built once (sixteen builds before).
        lines, triangles = [], []
        monkeypatch.setattr(kernel.PlaneModel, "line",
                            _counting(lines, kernel.PlaneModel.line))
        monkeypatch.setattr(Triangle, "__post_init__",
                            _counting(triangles, Triangle.__post_init__))
        fr = sample_frame(geometry, substream("nine-lines", seed, 0))
        ceva_product(fr.tri, fr.d, fr.e, fr.f)
        assert (len(triangles), len(lines)) == (1, 9)

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_frame_reads_three_side_values(self, geometry, monkeypatch):
        # o's value on each side line; the vertices' side is the orientation
        # the triangle measured as it was built.
        frames = [sample_frame(geometry, substream("side-values", i, 0)) for i in range(4)]
        calls = []
        monkeypatch.setattr(kernel.PlaneModel, "side_value",
                            _counting(calls, kernel.PlaneModel.side_value))
        for fr in frames:
            assert cevian_frame(fr.tri, fr.o) == fr
        assert len(calls) == 3 * len(frames)

    def test_nan_foot_fails_the_ceva_checks(self):
        tri = sample_triangle(EUC, substream("nan-foot", 1, 0))
        fr = cevian_frame(tri, sample_interior_point(tri, substream("nan-foot", 1, 1)))
        with pytest.raises(DomainError, match="does not lie on its side line"):
            ceva_product(tri, (math.nan, math.nan), fr.e, fr.f)

    def test_nan_interior_point_fails_the_between_check(self):
        # A NaN point fails the inside test, before any foot is built and
        # before the feet's between-check.  The point classes refuse NaN
        # coordinates, so the curved planes' NaN point is built past their
        # checks, as arithmetic could leave one.
        for geometry in (HYP, SPH, EUC):
            tri = sample_triangle(geometry, substream("nan-foot", 1, 0))
            if geometry is EUC:
                o = (math.nan, math.nan)
            else:
                o = object.__new__(geometry.model.point_type)
                object.__setattr__(o, "v", (math.nan,) * 3)
            with pytest.raises(DegenerateInputError, match="or is not finite"):
                cevian_frame(tri, o)


class TestCevianFrame:
    def test_fixture_ratios_frozen(self):
        fr = fixture_frame()
        assert fr.alpha == pytest.approx(2.109472578545435, abs=1e-12)
        assert fr.beta == pytest.approx(2.097785190938704, abs=1e-12)
        assert fr.gamma == pytest.approx(1.8122214516565816, abs=1e-12)

    def test_fixture_angles_frozen(self):
        fr = fixture_frame()
        assert fr.p == pytest.approx(0.9882888462962754, abs=1e-12)
        assert fr.q == pytest.approx(1.1909944433494122, abs=1e-12)
        assert fr.r == pytest.approx(0.9623093639441054, abs=1e-12)
        assert fr.p + fr.q + fr.r == pytest.approx(math.pi, abs=1e-12)

    def test_ratios_agree_with_lengths(self):
        fr = fixture_frame()
        assert fr.alpha == pytest.approx(math.tanh(fr.ao) / math.tanh(fr.od), abs=0)

    def test_feet_sit_on_their_sides(self):
        fr = fixture_frame()
        tri = fr.tri
        for foot, (s1, s2) in (
            (fr.d, (tri.b, tri.c)),
            (fr.e, (tri.c, tri.a)),
            (fr.f, (tri.a, tri.b)),
        ):
            assert HYP.model.line_residual(HYP.model.line(s1, s2), foot) < 1e-12
            dist = HYP.model.dist
            assert dist(s1, foot) + dist(foot, s2) == pytest.approx(
                dist(s1, s2), abs=1e-12
            )

    def test_on_side_point_rejected(self):
        tri = fixture_triangle()
        fr = fixture_frame()
        with pytest.raises(DegenerateInputError):
            cevian_frame(tri, fr.d)

    @pytest.mark.parametrize("side", range(3))
    @pytest.mark.parametrize("order", ["abc", "acb"])
    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_exterior_point_rejected(self, geometry, order, side):
        # Weights (1, 1, -0.2), the negative one on the vertex facing
        # ``side``, put the point just across that side line and inside
        # the other two, so only that side's test can reject it.  The two
        # vertex orders give triangles of opposite orientation.
        model = geometry.model
        drawn = sample_triangle(geometry, substream("exterior", 0, 0))
        a, b, c = (drawn.a, drawn.b, drawn.c) if order == "abc" else (drawn.a, drawn.c, drawn.b)
        tri = Triangle(geometry, a, b, c)
        lifted = [model.lift(v) for v in (a, b, c)]
        weights = [1.0, 1.0, 1.0]
        weights[side] = -0.2
        outside = model.project(tuple(
            sum(w * v[i] for w, v in zip(weights, lifted)) for i in range(3)))
        inside = model.project(tuple(
            sum(abs(w) * v[i] for w, v in zip(weights, lifted)) for i in range(3)))
        cevian_frame(tri, inside)
        with pytest.raises(DomainError, match="outside the triangle"):
            cevian_frame(tri, outside)

    def test_nan_angle_fails_the_close_up_gate(self):
        fr = fixture_frame()
        for name in ("p", "q", "r"):
            with pytest.raises(GeometryError, match="do not close up"):
                _replaced(fr, **{name: math.nan})


def _exact_angle(mpmath, geometry, v, p, q):
    """The angle at v between the rays toward p and q, at 50 digits.

    Between the tangents at v, P - (<V, P>/<V, V>) V in the form of the
    curved plane, and between P - V in the plane.  Scaling a point's
    homogeneous vector leaves both unchanged, so the rounding that takes
    a point off its surface does not enter.
    """
    with mpmath.workdps(50):
        V, P, Q = ([mpmath.mpf(x) for x in geometry.model.lift(x)] for x in (v, p, q))
        sign = -1 if geometry is HYP else 1

        def form(x, y):
            return (0 if geometry is EUC else sign * x[0] * y[0]) + x[1] * y[1] + x[2] * y[2]

        if geometry is EUC:
            tp, tq = [a - b for a, b in zip(P, V)], [a - b for a, b in zip(Q, V)]
        else:
            tp, tq = ([a - form(V, X) / form(V, V) * b for a, b in zip(X, V)] for X in (P, Q))
        return mpmath.acos(form(tp, tq) / mpmath.sqrt(form(tp, tp) * form(tq, tq)))


class TestFrameAngles:
    # cevian_frame measures p, q and r between the cevian lines it builds
    # for its feet; the point route measures the same angles at o from the
    # points b, f, a and d (``angle_oracles``).

    @pytest.mark.parametrize("geometry,tol", [(HYP, 1e-12), (SPH, 1e-13), (EUC, 1e-13)])
    def test_angles_match_the_point_route(self, geometry, tol):
        # The point route's direction toward a point turns by its rounding
        # over the leg's length, so its error grows as the shortest leg at
        # o shrinks: at substream 1660 on the hyperboloid, a leg OD of
        # 0.038 put it 3.8e-12 off BOD, and the line route 9e-14.
        for i in range(2000):
            fr = sample_frame(geometry, substream("frame-angles", 0, i))
            scaled = tol / min(1.0, fr.ao, fr.bo, fr.od, fr.of)
            for line_route, point_route in zip((fr.p, fr.q, fr.r), point_route_angles(fr)):
                assert abs(line_route - point_route) <= scaled, (i, line_route, point_route)

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_line_route_is_no_less_accurate(self, geometry):
        # Both routes against the angles BOF = pi - BOC, AOF = pi - AOC and
        # BOD = pi - BOA of the frame's own vertices and interior point.
        mpmath = pytest.importorskip("mpmath")
        worst_line = worst_point = 0.0
        for i in range(200):
            fr = sample_frame(geometry, substream("frame-angles-mp", 0, i))
            tri, o = fr.tri, fr.o
            with mpmath.workdps(50):
                exact = [mpmath.pi - _exact_angle(mpmath, geometry, o, x, y)
                         for x, y in ((tri.b, tri.c), (tri.a, tri.c), (tri.b, tri.a))]
                for x, line_route, point_route in zip(exact, (fr.p, fr.q, fr.r),
                                                      point_route_angles(fr)):
                    worst_line = max(worst_line, float(abs(line_route - x)))
                    worst_point = max(worst_point, float(abs(point_route - x)))
        assert worst_line <= worst_point

    def test_hyperbolic_frame_makes_twelve_hdist_calls(self, monkeypatch):
        # Six legs for the feet's between-check and six cevian segments;
        # the angles take no distance.
        tri = fixture_triangle()
        o = sample_interior_point(tri, substream("fixture", 1, 0))
        calls = []
        monkeypatch.setattr(kernel, "hdist", _counting(calls, kernel.hdist))
        cevian_frame(tri, o)
        assert len(calls) == 12


class TestRatioSumRelation:
    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_product_form_campaign(self, geometry):
        worst = 0.0
        for i in range(200):
            fr = sample_frame(geometry, substream("euler", 11, i))
            scale = 1.0 + abs(fr.alpha * fr.beta * fr.gamma)
            worst = max(worst, abs(euler_relation_residual(fr.alpha, fr.beta, fr.gamma)) / scale)
        assert worst < 1e-12

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_unit_sum_form_campaign(self, geometry):
        worst = 0.0
        for i in range(200):
            fr = sample_frame(geometry, substream("unitsum", 11, i))
            worst = max(worst, abs(unit_sum_residual(fr.alpha, fr.beta, fr.gamma)))
        assert worst < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        geometry=st.sampled_from([HYP, SPH, EUC]),
        index=st.integers(min_value=0, max_value=10**6),
    )
    def test_relation_property(self, geometry, index):
        fr = sample_frame(geometry, substream("euler-prop", 3, index))
        scale = 1.0 + abs(fr.alpha * fr.beta * fr.gamma)
        assert abs(euler_relation_residual(fr.alpha, fr.beta, fr.gamma)) < 1e-11 * scale


def _frame_pqr(fr: CevianFrame):
    return pqr_system(fr.tri.geometry, fr.p, fr.q, fr.r, fr.ao, fr.bo, fr.co,
                      fr.alpha, fr.beta, fr.gamma)


class TestPqrSystem:
    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_linear_relations_campaign(self, geometry):
        worst = 0.0
        for i in range(100):
            fr = sample_frame(geometry, substream("pqr", 11, i))
            sys_ = _frame_pqr(fr)
            scale = 1.0 + max(
                abs(fr.alpha * sys_.P), abs(fr.beta * sys_.Q), abs(fr.gamma * sys_.R)
            )
            worst = max(worst, max(sys_.residuals) / scale)
        assert worst < 1e-12

    def test_quantities_match_definition(self):
        fr = fixture_frame()
        sys_ = _frame_pqr(fr)
        assert sys_.P == pytest.approx(math.sin(fr.p) / math.tanh(fr.ao), abs=0)
        assert sys_.Q == pytest.approx(math.sin(fr.q) / math.tanh(fr.bo), abs=0)
        assert sys_.R == pytest.approx(math.sin(fr.r) / math.tanh(fr.co), abs=0)


def _moved_along(model, p, q, delta):
    """p moved distance delta toward q along their line.

    s_K(d - delta) P + s_K(delta) Q, for d = dist(p, q), is the point at
    distance delta from p on every plane (in the plane, a point of the
    segment at x0 = d); ``project`` scales it back to its point.
    """
    a, b = model.s_K(model.dist(p, q) - delta), model.s_K(delta)
    return model.project(tuple(a * x + b * y for x, y in zip(model.lift(p), model.lift(q))))


def _replaced(frame, **fields):
    """The frame with some fields replaced and nothing measured again."""
    return CevianFrame(**{name: getattr(frame, name) for name in frame._fields} | fields)


class TestProjectionOracle:
    def test_ratio_agreement_campaign(self):
        for geometry in Geometry:
            worst_dev = worst_col = worst_rel = 0.0
            for i in range(500):
                fr = sample_frame(geometry, substream("proj", 11, i))
                po = projection_oracle(fr)
                worst_dev = max(worst_dev, po.max_deviation)
                worst_col = max(worst_col, po.collinearity_residual)
                prod = po.ratios[0] * po.ratios[1] * po.ratios[2]
                worst_rel = max(
                    worst_rel, abs(po.euclid_relation_residual) / (1.0 + abs(prod))
                )
            assert worst_dev < 1e-11, geometry
            assert worst_col < 1e-11, geometry
            assert worst_rel < 1e-12, geometry

    @pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
    def test_sees_a_displaced_foot(self, geometry):
        # A foot moved 1e-7 along its side leaves the cevian through O,
        # so its image leaves the line through O and the vertex's image.
        model = geometry.model
        for i in range(50):
            fr = sample_frame(geometry, substream("proj-moved", 1, i))
            d = _moved_along(model, fr.d, fr.tri.c, 1e-7)
            assert model.dist(d, fr.d) == pytest.approx(1e-7, rel=1e-6)
            assert model.line_residual(fr.tri._lines[0], d) <= 1e-12
            po = projection_oracle(_replaced(fr, d=d))
            assert max(po.max_deviation, po.collinearity_residual) > 1e-9

    def test_point_without_a_central_image_rejected(self):
        # Seen from the antipode of O, every frame point is more than a
        # quarter turn away: P . O < 0, and its ray misses the tangent plane.
        fr = sample_frame(SPH, substream("proj-sph", 1, 0))
        antipode = SpherePoint(tuple(-x for x in fr.o.v))
        with pytest.raises(DomainError, match="no central image"):
            projection_oracle(_replaced(fr, o=antipode))


class TestConverseConstruction:
    def test_round_trip_campaign(self):
        worst_len = worst_ang = 0.0
        for i in range(100):
            fr = sample_frame(HYP, substream("construct", 11, i))
            lengths = RatioSumInput(fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of)
            rebuilt = construct_from_ratios(lengths).frame
            for name in ("ao", "bo", "co", "od", "oe", "of"):
                worst_len = max(worst_len, abs(getattr(rebuilt, name) - getattr(fr, name)))
            worst_ang = max(
                worst_ang,
                abs(rebuilt.p - fr.p),
                abs(rebuilt.q - fr.q),
                abs(rebuilt.r - fr.r),
            )
        assert worst_len < 1e-12
        assert worst_ang < 1e-11

    def test_equilateral_center_angles(self):
        # Medians of an equilateral triangle: the cevian angles p, q, r
        # come out pi/3 each, while consecutive vertex rays around the
        # center open up 2*pi/3.
        fr = _equilateral_frame(2.0)
        res = construct_from_ratios(RatioSumInput(fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of))
        third = math.pi / 3.0
        assert res.frame.p == pytest.approx(third, abs=1e-12)
        assert res.frame.q == pytest.approx(third, abs=1e-12)
        assert res.frame.r == pytest.approx(third, abs=1e-12)
        tri, o = res.frame.tri, res.frame.o
        for u, v in ((tri.a, tri.b), (tri.b, tri.c), (tri.c, tri.a)):
            assert HYP.model.angle(o, u, v) == pytest.approx(2.0 * third, abs=1e-12)

    def test_containment_residual_tiny_for_exact_input(self):
        fr = sample_frame(HYP, substream("construct-exact", 5, 0))
        res = construct_from_ratios(RatioSumInput(fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of))
        assert res.containment_residual < 1e-12
        assert abs(res.relation_residual) < 1e-12

    def test_relation_violation_rejected(self):
        with pytest.raises(InfeasibleInputError):
            construct_from_ratios(RatioSumInput(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))

    def test_helper_triangle_inequality_rejected(self):
        # Ratios (1/9, 19, 19) satisfy the relation exactly but give
        # helper sides with G > H + I once AO is pushed long and BO,
        # CO are tiny.
        od = 5.0
        ao = math.atanh(math.tanh(od) / 9.0)
        oe = math.atanh(math.tanh(0.01) / 19.0)
        with pytest.raises(InfeasibleGeometryError):
            construct_from_ratios(RatioSumInput(ao, 0.01, 0.01, od, oe, oe))

    def test_length_domain_rejected(self):
        with pytest.raises(DomainError):
            RatioSumInput(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            RatioSumInput(1.0, 1.0, 1.0, 1.0, 1.0, 11.0)

    def test_sine_factor_reproduces_sines(self):
        fr = fixture_frame()
        res = construct_from_ratios(RatioSumInput(fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of))
        assert res.sine_factor * res.aux_a == pytest.approx(
            math.sin(res.angle_bof), abs=1e-13
        )
        assert res.sine_factor * res.aux_b == pytest.approx(
            math.sin(res.angle_aof), abs=1e-13
        )
        assert res.sine_factor * res.aux_c == pytest.approx(
            math.sin(res.angle_bod), abs=1e-13
        )


def _equilateral_frame(side: float, geometry: Geometry = HYP) -> CevianFrame:
    model = geometry.model
    tri = equilateral_triangle(side, geometry)
    d = model.mid(tri.b, tri.c)
    e = model.mid(tri.c, tri.a)
    o = model.meet(model.line(tri.a, d), model.line(tri.b, e), tri.b, e)
    return cevian_frame(tri, o)


class TestCevaProduct:
    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_concurrent_cevians_multiply_to_one(self, geometry):
        worst = 0.0
        for i in range(100):
            fr = sample_frame(geometry, substream("ceva", 11, i))
            worst = max(worst, abs(ceva_product(fr.tri, fr.d, fr.e, fr.f) - 1.0))
        assert worst < 1e-11

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_frame_legs_give_the_same_product(self, geometry):
        for i in range(50):
            fr = sample_frame(geometry, substream("ceva-legs", 3, i))
            measured = ceva_product(fr.tri, fr.d, fr.e, fr.f)
            legs = cevian_feet(fr.tri, fr.o)[6]
            kept = ceva_product(fr.tri, fr.d, fr.e, fr.f, legs=legs)
            assert kept == measured

    def test_frame_legs_are_not_measured_again(self, monkeypatch):
        # cevian_feet measured the six legs for its between-check, so
        # with them the product measures six distances fewer.
        fr = sample_frame(HYP, substream("ceva-legs", 4, 0))
        legs = cevian_feet(fr.tri, fr.o)[6]
        kept, measured = [], []
        monkeypatch.setattr(kernel, "hdist", _counting(kept, kernel.hdist))
        ceva_product(fr.tri, fr.d, fr.e, fr.f, legs=legs)
        monkeypatch.undo()
        monkeypatch.setattr(kernel, "hdist", _counting(measured, kernel.hdist))
        ceva_product(fr.tri, fr.d, fr.e, fr.f)
        assert len(measured) - len(kept) == 6

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_medians_give_exactly_one(self, geometry):
        mid = geometry.model.mid
        tri = sample_triangle(geometry, substream("ceva-med", 2, 0))
        d = mid(tri.b, tri.c)
        e = mid(tri.c, tri.a)
        f = mid(tri.a, tri.b)
        assert ceva_product(tri, d, e, f) == pytest.approx(1.0, abs=1e-13)

    def test_perturbed_foot_breaks_concurrency(self):
        fr = sample_frame(HYP, substream("ceva-perturb", 4, 0))
        tri = fr.tri
        moved = point_along(fr.d, direction(fr.d, tri.b), 1e-3)
        with pytest.raises(DomainError):
            ceva_product(tri, moved, fr.e, fr.f)
        # The product of the moved foot, from its legs as ceva_product
        # measures them, written out here past the concurrency check.
        db, dc, ec, ea, fa, fb = _foot_legs(tri, moved, fr.e, fr.f)
        sh = HYP.model.s_K
        value = sh(db) / sh(dc) * sh(ec) / sh(ea) * sh(fa) / sh(fb)
        assert abs(value - 1.0) > 1e-5

    def test_foot_off_side_rejected(self):
        fr = sample_frame(HYP, substream("ceva-off", 4, 0))
        with pytest.raises(DomainError):
            ceva_product(fr.tri, fr.o, fr.e, fr.f)

    def test_sphere_meet_picks_the_antipode_on_the_segment(self):
        # Against the rule the sign test replaced, computed here from raw
        # vectors: of the antipodal pair x, -x where the two great circles
        # meet, the point with the smaller |s1 x| + |x s2| - |s1 s2|.
        def cross(x, y):
            return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                    x[0] * y[1] - x[1] * y[0])

        def norm(x):
            return math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])

        def unit(x):
            n = norm(x)
            return (x[0] / n, x[1] / n, x[2] / n)

        def dist(x, y):
            return math.atan2(norm(cross(x, y)), x[0] * y[0] + x[1] * y[1] + x[2] * y[2])

        def reference(p1, p2, s1, s2):
            x = unit(cross(unit(cross(p1.v, p2.v)), unit(cross(s1.v, s2.v))))
            a, b = SpherePoint(x), SpherePoint((-x[0], -x[1], -x[2]))

            def between(y):
                return dist(s1.v, y.v) + dist(y.v, s2.v) - dist(s1.v, s2.v)

            return a if between(a) <= between(b) else b

        def random_point(rng):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.sqrt(sum(x * x for x in v))
            return SpherePoint(tuple(x / n for x in v))

        model = SPH.model

        def meet(p1, p2, s1, s2):
            return model.meet(model.line(p1, p2), model.line(s1, s2), s1, s2)

        rng = random.Random("antipode")
        cases = [[random_point(rng) for _ in range(4)] for _ in range(2000)]
        for i in range(200):
            fr = sample_frame(SPH, substream("antipode", 1, i))
            t = fr.tri
            cases += [(t.a, fr.d, t.b, fr.e), (t.b, fr.e, t.c, fr.f), (t.c, fr.f, t.a, fr.d)]
        for p1, p2, s1, s2 in cases:
            assert meet(p1, p2, s1, s2) == reference(p1, p2, s1, s2)


class TestStretchRatio:
    def test_geometry_specific_forms(self):
        assert stretch_ratio(HYP, 1.0, 0.5) == math.tanh(1.0) / math.tanh(0.5)
        assert stretch_ratio(SPH, 0.8, 0.4) == math.tan(0.8) / math.tan(0.4)
        assert stretch_ratio(EUC, 1.0, 0.5) == 2.0

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            stretch_ratio(HYP, -1.0, 0.5)
        with pytest.raises(DomainError):
            stretch_ratio(SPH, 1.6, 0.4)

    @pytest.mark.parametrize("geometry", [HYP, SPH])
    def test_one_length_bound(self, geometry):
        # Every length check reads the model's side_limit: the limit itself
        # is accepted and the next float above it is rejected.
        limit = geometry.model.side_limit
        above = math.nextafter(limit, math.inf)
        stretch_ratio(geometry, limit, 0.5)
        build_right_triangle(limit, 0.5, geometry)
        with pytest.raises(DomainError):
            stretch_ratio(geometry, above, 0.5)
        with pytest.raises(DomainError):
            stretch_ratio(geometry, 0.5, above)
        with pytest.raises(DomainError):
            equilateral_triangle(above, geometry)
        with pytest.raises(DomainError):
            build_right_triangle(above, 0.5, geometry)


class TestEquilateralMedians:
    def test_alpha_is_two_in_every_geometry(self):
        cases = [
            (HYP, (0.5, 1.0, 2.0, 4.0)),
            (EUC, (1.0, 2.5)),
            (SPH, (0.3, 0.6, 1.2)),
        ]
        for geometry, sides in cases:
            for side in sides:
                report = lambert_median_report(side, geometry)
                assert report.alpha == pytest.approx(2.0, abs=1e-12), (geometry, side)
                assert report.median_residual < 1e-12

    def test_ad_over_od_frozen_values(self):
        expected = {
            (HYP, 0.5): 3.041382762089923,
            (HYP, 1.0): 3.162355994214564,
            (HYP, 2.0): 3.608106559502942,
            (HYP, 4.0): 5.027025429886764,
            (EUC, 1.0): 3.0,
            (SPH, 0.3): 2.984962234326773,
            (SPH, 0.6): 2.939382349964313,
            (SPH, 1.2): 2.749056241271953,
        }
        for (geometry, side), value in expected.items():
            report = lambert_median_report(side, geometry)
            assert report.ad_over_od == pytest.approx(value, abs=1e-12), (geometry, side)

    def test_curvature_splits_three(self):
        for side in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert lambert_median_report(side, HYP).ad_over_od > 3.0
        for side in (0.2, 0.5, 1.0, 1.4):
            assert lambert_median_report(side, SPH).ad_over_od < 3.0
        assert lambert_median_report(0.77, EUC).ad_over_od == pytest.approx(3.0, abs=1e-13)

    def test_small_side_approaches_euclidean(self):
        report = lambert_median_report(1e-3, HYP)
        assert report.ad_over_od > 3.0
        assert report.ad_over_od == pytest.approx(3.0, abs=1e-4)

    def test_equilateral_triangle_has_equal_sides(self):
        for geometry, side in ((HYP, 1.3), (SPH, 0.9), (EUC, 2.0)):
            tri = equilateral_triangle(side, geometry)
            for s in tri.side_lengths():
                assert s == pytest.approx(side, abs=1e-12)
        # Small sides keep full relative precision in every plane.
        for geometry in (HYP, SPH, EUC):
            for i in range(61):
                side = 10.0 ** (-3.0 + i / 20.0)
                for s in equilateral_triangle(side, geometry).side_lengths():
                    assert abs(s - side) <= 1e-14 * side, (geometry, side)

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            equilateral_triangle(-1.0, HYP)
        with pytest.raises(DomainError):
            equilateral_triangle(1.6, SPH)
        with pytest.raises(DomainError):
            equilateral_triangle(10.5, HYP)


class TestSampling:
    def test_substream_is_deterministic(self):
        a = substream("det", 9, 3)
        b = substream("det", 9, 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_sample_frame_reproduces(self):
        f1 = sample_frame(HYP, substream("repro", 42, 17))
        f2 = sample_frame(HYP, substream("repro", 42, 17))
        assert f1.alpha == f2.alpha
        assert f1.p == f2.p

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_sampled_triangles_respect_floors(self, geometry):
        angle = geometry.model.angle
        for i in range(25):
            tri = sample_triangle(geometry, substream("floors", 6, i))
            assert min(tri.side_lengths()) >= 0.05
            for v, p, q in ((tri.a, tri.b, tri.c), (tri.b, tri.c, tri.a), (tri.c, tri.a, tri.b)):
                assert angle(v, p, q) >= sampling._MIN_ANGLE

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_degenerate_stream_gives_up(self, monkeypatch, geometry):
        # Every draw is the same point, so every triangle is degenerate.
        class Stuck(random.Random):
            draws = 0

            def random(self):
                self.draws += 1
                return 0.5

        # Its sides vanish, so the law of cosines rejects every draw
        # before a Triangle is built.
        built = []
        original = Triangle.__post_init__

        def counting(tri):
            built.append(tri)
            return original(tri)

        monkeypatch.setattr(Triangle, "__post_init__", counting)
        rng = Stuck(0)
        reason = f"{geometry.value}.*{MAX_TRIANGLE_ATTEMPTS}"
        with pytest.raises(GeometryError, match=reason):
            sample_triangle(geometry, rng)
        assert rng.draws == 6 * MAX_TRIANGLE_ATTEMPTS
        assert built == []

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_pretest_keeps_the_reference_stream(self, geometry):
        for i in range(600):
            rng, ref_rng = substream("pretest", 4, i), substream("pretest", 4, i)
            tri = sample_triangle(geometry, rng)
            ref = reference_sample_triangle(geometry, ref_rng)
            assert repr((tri.a, tri.b, tri.c)) == repr((ref.a, ref.b, ref.c))
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
    def test_pretest_cosines_within_margin(self, geometry):
        # Plain draws alternate with draws packed at the rim of the disk,
        # where vertices are farthest out and sides short: there the
        # exact angle rounds the most.
        model = geometry.model
        radius = sampling._DISK_RADIUS[geometry]
        spread = 0.3 / model.s_K(radius(1.0))
        rng = random.Random(f"gap:{geometry.value}")
        worst, measured = 0.0, 0
        for i in range(6000):
            if i % 2:
                polar = [polar_draw(radius, rng) for _ in range(3)]
            else:
                t0 = 2.0 * math.pi * rng.random()
                polar = [((t0 + spread * rng.random()) % (2.0 * math.pi),
                          radius(1.0 - 0.1 * rng.random())) for _ in range(3)]
            try:
                tri = Triangle(geometry, *(model.polar(t, r) for t, r in polar))
            except GeometryError:
                continue
            if min(tri.side_lengths()) < sampling._MIN_SIDE:
                continue
            measured += 1
            exact = (model.angle(tri.a, tri.b, tri.c), model.angle(tri.b, tri.c, tri.a),
                     model.angle(tri.c, tri.a, tri.b))
            for c, angle in zip(model.corner_cosines(polar), exact):
                worst = max(worst, abs(c - math.cos(angle)))
        # The two angle routes agree to 3e-11 in cosine, the first-order
        # rounding bound for these disks (2.2e-11 on the hyperboloid,
        # 2.9e-13 on the sphere, 8.9e-13 in the plane), rounded up.
        assert measured > 3000
        assert worst < 3e-11

    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    def test_corner_at_the_floor_is_decided_by_its_cosine(self, monkeypatch, offset):
        # The first draw's corner at A opens _MIN_ANGLE + offset; a fat draw
        # follows for when the first is rejected.  The law-of-cosines
        # cosine alone decides: no exact angle is measured.
        a, b = (0.5, 0.2), (-1.2, -0.4)
        heading = math.atan2(b[1] - a[1], b[0] - a[0]) + sampling._MIN_ANGLE + offset
        c = (a[0] + 1.8 * math.cos(heading), a[1] + 1.8 * math.sin(heading))
        script = []
        for x, y in (a, b, c):
            script += [(math.hypot(x, y) / 3.0) ** 2,
                       (math.atan2(y, x) % (2.0 * math.pi)) / (2.0 * math.pi)]
        script += [4.0 / 9.0, 0.1, 4.0 / 9.0, 0.4, 4.0 / 9.0, 0.7]

        class Scripted(random.Random):
            def __init__(self):
                super().__init__(0)
                self.values = iter(script)

            def random(self):
                return next(self.values)

        drawn = [(2.0 * math.pi * script[i + 1], 3.0 * math.sqrt(script[i]))
                 for i in range(0, 6, 2)]
        cosines = EUC.model.corner_cosines(drawn)
        assert abs(cosines[0] - math.cos(sampling._MIN_ANGLE)) < 1e-12
        assert (max(cosines) <= math.cos(sampling._MIN_ANGLE)) is (offset > 0)
        angles = []
        model_type = type(EUC.model)
        angle = model_type.angle
        monkeypatch.setattr(model_type, "angle",
                            lambda self, *args: angles.append(args) or angle(self, *args))
        tri = sample_triangle(EUC, Scripted())
        assert angles == []
        assert (tri.a == EUC.model.polar(*drawn[0])) is (offset > 0)

    @pytest.mark.parametrize("where", ["picker", "triangle"])
    def test_non_geometry_errors_propagate(self, monkeypatch, where):
        def broken(*args):
            raise ZeroDivisionError(where)

        if where == "picker":
            monkeypatch.setattr(type(HYP.model), "polar", broken)
        else:
            monkeypatch.setattr(sampling, "Triangle", broken)
        with pytest.raises(ZeroDivisionError, match=where):
            sample_triangle(HYP, substream("bug", 1, 0))


def reference_sample_triangle(geometry: Geometry, rng: random.Random) -> Triangle:
    """The rejection loop with no pre-test: every draw is built, then
    checked against the side floor and the exact angle floor."""
    model = geometry.model
    angle, radius = model.angle, sampling._DISK_RADIUS[geometry]
    for _ in range(MAX_TRIANGLE_ATTEMPTS):
        verts = [model.polar(*polar_draw(radius, rng)) for _ in range(3)]
        try:
            tri = Triangle(geometry, *verts)
        except GeometryError:
            continue
        if min(tri.side_lengths()) < sampling._MIN_SIDE:
            continue
        corners = ((tri.a, tri.b, tri.c), (tri.b, tri.c, tri.a), (tri.c, tri.a, tri.b))
        if all(angle(v, p, q) >= sampling._MIN_ANGLE for v, p, q in corners):
            return tri
    raise InfeasibleGeometryError("the reference sampler gave up")


def _frame_in(geometry: Geometry, plane_frame: CevianFrame, eps: float) -> CevianFrame:
    """The plane frame scaled by eps and laid out by the exponential map
    at the base point of the given geometry."""
    polar = geometry.model.polar

    def lay(p):
        return polar(math.atan2(p[1], p[0]), eps * math.hypot(p[0], p[1]))

    tri = plane_frame.tri
    return cevian_frame(Triangle(geometry, lay(tri.a), lay(tri.b), lay(tri.c)),
                        lay(plane_frame.o))


def _leading_gaps(plane_frame: CevianFrame) -> list[float]:
    """Coefficients c of the relative gaps of alpha, beta and gamma when
    the frame is laid out by ``_frame_in``: (curved - flat)/flat is
    kappa c eps^2 + O(eps^4) in the plane of curvature kappa = -1 or 1.

    For the cevian from A through O to D on BC, at unit scale, let
    ad = |AD|, od = |OD|, ao = |AO|, phi the angle between AD and BC,
    h and H the heights of O and A over BC, and rho = od/ad = h/H, so
    that alpha = 1/rho - 1.  Every term below is linear in kappa.

    - Length nonlinearity.  Right triangles at the feet of the heights
      give s_K(od)/s_K(ad) = s_K(h)/s_K(H) in the curved frame.  With
      s_K(u) = u (1 - kappa u^2/6) and t_K(u) = u (1 + kappa u^2/3), at
      a fixed height ratio t_K(ao)/t_K(od) exceeds ao/od by the relative
      amount kappa ((ao^2 - od^2)/3 + cos(phi)^2 ad (ad + od)/6).
    - Height ratio.  The exponential map turns h/H into rho (1 + delta),
      which moves alpha by -delta/(1 - rho) relative.  In normal
      coordinates about the base point a geodesic accelerates by
      -(2/3) kappa |v|^2 w, w the part of the position normal to the
      velocity, so side BC, at signed offset m = b.n from the base point
      along its unit normal n, bows by (kappa m/3) s (l - s) n at
      distance s from B (l = |BC|).  The metric
      d^2 = |u - v|^2 - kappa (u x v)^2/3 shortens a height from u by
      kappa (u.t)^2/6 relative, t the unit direction of BC.  So a point u
      with foot at s_u and height h_u = (u - b).n has its height changed by
      -kappa (m s_u (l - s_u)/(3 h_u) + (u.t)^2/6) relative, and delta
      is that change for O less that for A.

    The length term is at most ad^2/2 <= 2 eps^2, since a cevian here is
    at most 2 eps long.  The bow of BC over O has no such bound: relative
    to h it grows as O nears BC, so a short foot segment OD amplifies it.
    """
    tri, o = plane_frame.tri, plane_frame.o
    out = []
    for a, b, c, d in ((tri.a, tri.b, tri.c, plane_frame.d),
                       (tri.b, tri.c, tri.a, plane_frame.e),
                       (tri.c, tri.a, tri.b, plane_frame.f)):
        length = math.dist(b, c)
        t = ((c[0] - b[0]) / length, (c[1] - b[1]) / length)
        n = (-t[1], t[0])
        m = b[0] * n[0] + b[1] * n[1]

        def height_change(u):
            s = (u[0] - b[0]) * t[0] + (u[1] - b[1]) * t[1]
            h = (u[0] - b[0]) * n[0] + (u[1] - b[1]) * n[1]
            return -(m * s * (length - s) / (3.0 * h) + (u[0] * t[0] + u[1] * t[1]) ** 2 / 6.0)

        ad, od, ao = math.dist(a, d), math.dist(o, d), math.dist(a, o)
        cos_phi = ((d[0] - a[0]) * t[0] + (d[1] - a[1]) * t[1]) / ad
        delta = height_change(o) - height_change(a)
        out.append((ao * ao - od * od) / 3.0 + cos_phi ** 2 * ad * (ad + od) / 6.0
                   - delta / (1.0 - od / ad))
    return out


class TestSmallFigureLimit:
    """Shrunk figures on the hyperboloid and the sphere obey the euclidean
    laws up to O(eps^2): the curvature enters through sinh/sin and
    tanh/tan, whose relative gap to the identity is x^2/6 and x^2/3, and
    for cevian frames also through the exponential map that lays the
    figure out (``_leading_gaps``)."""

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.floats(0.0, 2.0 * math.pi),
        spread=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        radii=st.tuples(*[st.floats(0.4, 1.0)] * 3),
        weights=st.tuples(*[st.floats(0.1, 1.0)] * 3),
    )
    # O near side CA: the leading gap of beta is 2.008 eps^2, of which the
    # length term is 0.26 eps^2.
    @example(start=0.0, spread=(0.0, 0.0), radii=(1.0, 0.4375, 1.0),
             weights=(1.0, 0.125, 1.0))
    # Isosceles corner draw: the three leading coefficients nearly cancel
    # (|c| <= 0.0034), the eps^4 rest is 0.24 of beta's leading term, and
    # halving eps leaves 0.31 of beta's gap.
    @example(start=0.0, spread=(0.0, 0.0), radii=(0.4, 1.0, 1.0),
             weights=(1.0, 0.1, 1.0))
    def test_cevian_ratios_converge(self, start, spread, radii, weights):
        angles = (start, start + 2.0 * math.pi / 3.0 + spread[0],
                  start + 4.0 * math.pi / 3.0 + spread[1])
        verts = [EUC.model.polar(t, r) for t, r in zip(angles, radii)]
        s = sum(weights)
        o = tuple(sum(w * v[i] for w, v in zip(weights, verts)) / s for i in range(2))
        plane = cevian_frame(Triangle(EUC, *verts), o)
        flat = (plane.alpha, plane.beta, plane.gamma)
        lead = _leading_gaps(plane)

        def gaps(geometry, eps):
            fr = _frame_in(geometry, plane, eps)
            curved = (fr.alpha, fr.beta, fr.gamma)
            return [(x - y) / y for x, y in zip(curved, flat)]

        for geometry, kappa in ((HYP, -1.0), (SPH, 1.0)):
            coarse_gaps, fine_gaps = gaps(geometry, 0.05), gaps(geometry, 0.025)
            # Each gap is kappa c eps^2 + c4 eps^4 + c6 eps^6 + ..., so the
            # extrapolation (16 fine - coarse)/3 is kappa c eps^2 - c6 eps^6/4:
            # c is pinned to 1e-3 against a remainder of 1.6e-6 c6, which
            # stayed below 4e-5 over 5,880 draws, 2,880 corners of the ranges
            # among them.  1e-12 is rounding.
            band = 1e-3 * 0.05 ** 2 + 1e-12
            for coarse_gap, fine_gap, c in zip(coarse_gaps, fine_gaps, lead):
                lead_gap = kappa * c * 0.05 ** 2
                extrapolated = (16.0 * fine_gap - coarse_gap) / 3.0
                assert extrapolated == pytest.approx(lead_gap, abs=band)
                # Halving eps quarters the gap where the leading term
                # dominates.  With L = kappa c eps^2 and the rest
                # r = coarse - L = c4 eps^4 + ..., the fine gap is
                # L/4 + r/16, so |fine| <= |L|/4 + |r|/16 and
                # |coarse| >= |L| - |r|; |fine| <= 0.3 |coarse| follows
                # when |r| <= 0.05/0.3625 |L| = |L|/7.25.  Requiring
                # |r| <= |L|/8 leaves 0.005 |L| of slack for the eps^6
                # part of r, which halving eps cuts by 64 rather than 16.
                if abs(coarse_gap - lead_gap) <= abs(lead_gap) / 8.0:
                    assert abs(fine_gap) <= 0.3 * abs(coarse_gap) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(total=st.floats(0.2, 2.0), share=st.floats(0.05, 0.95))
    def test_menelaus_ratio_converges(self, total, share):
        diff = share * total
        flat = menelaus_ratio(total, diff, EUC)
        assert flat == total / diff
        for geometry in (HYP, SPH):
            for eps in (0.1, 0.01):
                got = menelaus_ratio(eps * total, eps * diff, geometry)
                # |s_K(x)/x - 1| <= x^2/6 (to leading order) for both sinh and sin.
                assert abs(got - flat) / flat <= (eps * total) ** 2 / 5.0
