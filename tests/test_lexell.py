"""Area profile, split areas, constant-area locus, foliation, ideal case."""

import ast
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccplane import corevec as vec
from ccplane import kernel as k
from ccplane import lexell, render
from ccplane.construct import clamped_acos
from ccplane.corevec import mcross, mfoot, minner
from ccplane.errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleAreaError,
    InvalidPointError,
)
from ccplane.kernel import (
    ORIGIN,
    Geometry,
    HPoint,
    PlaneModel,
)
from ccplane.lexell import (
    SAMPLE_RANGE,
    AreaLocus,
    BaseConfig,
    Hypercycle,
    equal_subarc_check,
    foliation,
    hypercycle_points_and_mirror,
    hypercycle_points,
    hypercycle_residual,
    hypercycle_samples,
    lexell_locus,
    locus_residuals,
    max_apex_area,
    sample_positions,
)
from ccplane.constants import TOL_AREA
from ccplane.lexell import (
    BASE_LINE_TOL,
    MAX_APEX_HEIGHT,
    MAX_HALF_BASE,
    _base_areas,
    _bisector_mirror,
    _deficit,
    _invert_apex_area,
    _right_area,
)
from ccplane.sampling import substream
from hyperboloid_oracles import polar, reflect_across
from lexell_oracles import (
    apex_triangle,
    area_profile,
    cosh_c_from_angles,
    hypercycle_point,
    sinh_c_from_angles,
    truncated_ideal_area,
)

HYP = Geometry.HYPERBOLIC.model
BISECTOR = (0.0, 1.0, 0.0)


def _normal(l):
    """Unit spacelike normal of the geodesic with line covector l."""
    return (-l[0], l[1], l[2])


def _perp_apex(height: float):
    # The apex that ``lexell --apex-y height`` builds.
    return HYP.polar(math.pi / 2.0, height)


def _spread_band(base: BaseConfig) -> float:
    """The area-spread band ``_base_areas`` derives for a standard base:
    2 eps (7 pi + 9 + 6X), X the larger vertex arclength from the midpoint."""
    x = max(abs(math.asinh(base.a.v[1])), abs(math.asinh(base.b.v[1])))
    return 2.0 * sys.float_info.epsilon * (7.0 * math.pi + 9.0 + 6.0 * x)


def _bisector_perpendicular(rng):
    """A random line perpendicular to the standard base's bisector, the
    only axis a ``Hypercycle`` takes: the line through a point and its
    mirror image across the bisector, whose l1 is exactly 0."""
    p = HYP.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 3.0))
    return HYP.line(p, _bisector_mirror(p))


def _disk_apex(radius: float, angle: float):
    return k.disk_to_hpoint(k.DiskPoint(radius * math.cos(angle), radius * math.sin(angle)))


# The shortest half-base ``BaseConfig`` accepts: the vertices of x span a
# line when 4 (cosh x sinh x)^2 passes ``line``'s floor of 1e-20, first
# one ulp above 5e-11.
_SHORTEST_HALF_BASE = math.nextafter(5e-11, math.inf)


def _vertex_line(x: float):
    """The line through the standard vertices at +-x, built without
    ``BaseConfig``."""
    a = HYP.polar(0.0, x)
    return HYP.line(a, _bisector_mirror(a))


# Apexes across the CLI's input range: anywhere in the disk of radius
# 0.999, or on the bisector up to MAX_APEX_HEIGHT.  An apex on the base
# line raises DegenerateInputError, a GeometryError.
_APEXES = st.one_of(
    st.builds(_disk_apex, st.floats(0.0, 0.999), st.floats(0.0, 2.0 * math.pi)),
    st.builds(_perp_apex, st.floats(-MAX_APEX_HEIGHT, MAX_APEX_HEIGHT)),
)


class TestAreaProfile:
    def test_frozen_values(self):
        assert area_profile(1.0, 2.0) == pytest.approx(0.8670927065821965, abs=1e-15)

    def test_profile_reduces_to_simple_quotient(self):
        # (cu-1)(c+u)/((cu)^2-1) collapses to (c+u)/(cu+1); both forms
        # must agree, which guards the published shape against typos.
        for x, u in ((0.5, 1.3), (1.0, 4.0), (2.0, 17.0)):
            c = math.cosh(x)
            assert area_profile(x, u) == pytest.approx((c + u) / (c * u + 1.0), abs=1e-15)

    def test_value_at_one_is_one(self):
        for x in (0.3, 1.0, 2.5):
            assert area_profile(x, 1.0) == pytest.approx(1.0, abs=1e-15)


class TestApexArea:
    def test_frozen_value(self):
        assert 2.0 * _right_area(0.8, 1.0) == pytest.approx(
            0.6952371307430942, abs=1e-15
        )

    def test_matches_synthetic_deficit(self):
        worst = 0.0
        for i in range(200):
            rng = substream("apex-syn", 11, i)
            x = 0.2 + 2.8 * rng.random()
            y = 0.2 + 2.8 * rng.random()
            va, vb, p = apex_triangle(x, 0.0, y)
            worst = max(worst, abs(2.0 * _right_area(x, y) - _deficit(p, va, vb)))
        assert worst < 1e-12

    def test_strictly_increasing_in_height(self):
        for x in (0.4, 1.0, 2.2):
            values = [2.0 * _right_area(x, 0.05 * (j + 1)) for j in range(60)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_height_limit(self):
        assert 2.0 * _right_area(1.0, 1e-7) < 1e-6

    def test_supremum_bounds_all_heights(self):
        for x in (0.5, 1.0, 3.0):
            sup = max_apex_area(x)
            assert 2.0 * _right_area(x, 20.0) < sup
            assert abs(sup - 2.0 * _right_area(x, 39.0)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(min_value=0.2, max_value=3.0),
        y1=st.floats(min_value=0.1, max_value=5.0),
        dy=st.floats(min_value=1e-3, max_value=3.0),
    )
    def test_monotone_property(self, x, y1, dy):
        assert 2.0 * _right_area(x, y1 + dy) > 2.0 * _right_area(x, y1)


class TestSplitAreas:
    def test_frozen_values(self):
        d1, d2 = _right_area(1.0 - 0.3, 0.7), _right_area(1.0 + 0.3, 0.7)
        assert d1 == pytest.approx(0.2253386358938389, abs=1e-15)
        assert d2 == pytest.approx(0.3799536317391303, abs=1e-15)
        l1, l2 = _right_area(1.0 - 0.3, math.inf), _right_area(1.0 + 0.3, math.inf)
        assert l1 == pytest.approx(0.6489720817836955, abs=1e-15)
        assert l2 == pytest.approx(1.0386561395143918, abs=1e-15)

    def test_symmetric_split_halves_the_apex_area(self):
        a = 0.0
        for x, t in ((0.7, 0.9), (1.5, 2.0)):
            d1, d2 = _right_area(x - a, t), _right_area(x + a, t)
            assert d1 == pytest.approx(d2, abs=1e-15)
            assert d1 + d2 == pytest.approx(2.0 * _right_area(x, t), abs=1e-14)

    def test_zero_height_gives_zero_areas(self):
        assert (_right_area(1.0 - 0.4, 0.0), _right_area(1.0 + 0.4, 0.0)) == (0.0, 0.0)

    def test_sum_matches_synthetic_and_pieces_match_right_triangles(self):
        worst = 0.0
        for i in range(200):
            rng = substream("split-syn", 11, i)
            x = 0.2 + 2.8 * rng.random()
            a = (2.0 * rng.random() - 1.0) * 0.9 * x
            t = 0.2 + 2.8 * rng.random()
            va, vb, p = apex_triangle(x, a, t)
            foot = HYP.polar(0.0, a)
            d1, d2 = _right_area(x - a, t), _right_area(x + a, t)
            worst = max(
                worst,
                abs(d1 + d2 - _deficit(p, va, vb)),
                abs(d1 - _deficit(p, foot, va)),
                abs(d2 - _deficit(p, foot, vb)),
            )
        assert worst < 1e-12

    def test_each_piece_increases_with_height(self):
        heights = [0.2 * (j + 1) for j in range(30)]
        firsts, seconds = [], []
        for t in heights:
            d1, d2 = _right_area(1.2 - 0.5, t), _right_area(1.2 + 0.5, t)
            firsts.append(d1)
            seconds.append(d2)
        assert all(b > a for a, b in zip(firsts, firsts[1:]))
        assert all(b > a for a, b in zip(seconds, seconds[1:]))

    def test_tall_apex_approaches_ideal_limits(self):
        for x, a in ((0.5, 0.2), (1.0, -0.7), (2.0, 1.1), (3.0, 0.0)):
            d1, d2 = _right_area(x - a, 20.0), _right_area(x + a, 20.0)
            l1, l2 = _right_area(x - a, math.inf), _right_area(x + a, math.inf)
            assert d1 + d2 == pytest.approx(l1 + l2, abs=1e-7)
            assert d1 < l1 and d2 < l2


class TestTriangleArea:
    def test_thin_triangle_has_small_area(self):
        va, vb, p = apex_triangle(1.0, 0.0, 1e-4)
        assert 0.0 < _deficit(va, vb, p) < 1e-3

    def test_area_below_pi(self):
        for i in range(20):
            rng = substream("areapi", 1, i)
            x = 0.3 + 2.0 * rng.random()
            t = 0.3 + 3.0 * rng.random()
            va, vb, p = apex_triangle(x, 0.0, t)
            assert 0.0 < _deficit(va, vb, p) < math.pi


class TestFarVertexAngles:
    def test_small_angle_at_distant_vertex(self):
        # Right triangle with legs 15 (adjacent) and h (opposite): the
        # angle at the far vertex obeys tan = tanh(h)/sinh(15), which a
        # naive tangent Gram computation gets wrong by many orders.
        far = HYP.polar(0.0, 15.0)
        for h in (0.3, 0.7, 1.2):
            p = _perp_apex(h)
            expected = math.atan(math.tanh(h) / math.sinh(15.0))
            assert HYP.angle(far, ORIGIN, p) == pytest.approx(expected, rel=1e-9)


class TestHypercycle:
    def test_points_keep_their_offset(self):
        hc = Hypercycle((0.0, 0.0, 1.0), 0.8)
        for s in (-3.0, -0.7, 0.0, 1.1, 3.0):
            assert hypercycle_residual(hc, hypercycle_point(hc, s)) < 1e-12

    def test_zero_offset_is_the_axis(self):
        axis = (0.0, 0.0, 1.0)
        hc = Hypercycle(axis, 0.0)
        for s in (-2.0, 0.5, 2.0):
            assert HYP.line_residual(axis, hypercycle_point(hc, s)) < 1e-12

    def test_parameter_is_axis_arclength(self):
        hc = Hypercycle((0.0, 0.0, 1.0), 0.0)
        p0 = hypercycle_point(hc, 0.0)
        p1 = hypercycle_point(hc, 1.5)
        assert HYP.dist(p0, p1) == pytest.approx(1.5, abs=1e-12)

    def test_cached_axis_frame_is_bit_identical(self, monkeypatch):
        # Each curve finds the foot of the origin on its axis once; every
        # point, sample and residual must then equal, bit for bit, the
        # formulas that rebuild the whole frame on each call.
        feet = []

        foot = PlaneModel.foot

        def counted_foot(model, p, g):
            feet.append(g)
            return foot(model, p, g)

        monkeypatch.setattr(PlaneModel, "foot", counted_foot)
        rng = random.Random(2024)
        for _ in range(200):
            axis = _bisector_perpendicular(rng)
            n = _normal(axis)
            g0 = HPoint(mfoot(ORIGIN.v, n)).v
            u0 = mcross(g0, n)
            offset = rng.uniform(-5.0, 5.0)
            co, so = math.cosh(offset), math.sinh(offset)

            def reference(s):
                gs = tuple(math.cosh(s) * g0[i] + math.sinh(s) * u0[i] for i in range(3))
                return tuple(co * gs[i] + so * n[i] for i in range(3))

            hc = Hypercycle(axis, offset)
            del feet[:]
            for _ in range(5):
                s = rng.uniform(-3.0, 3.0)
                z = hypercycle_point(hc, s)
                assert z.v == reference(s)
                assert hypercycle_residual(hc, z) == abs(
                    minner(z.v, n) - math.sinh(offset)
                )
            step = 2.0 * SAMPLE_RANGE / 6
            want = [reference(-SAMPLE_RANGE + i * step) for i in range(7)]
            assert hypercycle_samples(hc, 7) == want
            assert feet == [axis]

    def test_samples_are_the_standard_set_cached(self):
        # ``samples`` is evaluated once per curve and equals, bit for bit,
        # the standard set built afresh; a curve made by ``at_offset``
        # takes its source's frame but never its samples.
        rng = random.Random(32)
        for _ in range(50):
            hc = Hypercycle(_bisector_perpendicular(rng), rng.uniform(-5.0, 5.0))
            want = hypercycle_samples(hc, lexell.HYPERCYCLE_SEGMENTS + 1)
            assert repr(hc.samples) == repr(tuple(want))
            assert hc.samples is hc.samples
            other = hc.at_offset(rng.uniform(-5.0, 5.0))
            assert "samples" not in other.__dict__
            fresh = Hypercycle(other.axis, other.offset)
            assert repr(other.samples) == repr(fresh.samples)

    def test_nonfinite_offset_rejected(self):
        axis = (0.0, 0.0, 1.0)
        for offset in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                Hypercycle(axis, offset)

    def test_overflowing_offset_rejected(self):
        # From an offset of about 354.5 no point of the curve fits a float.
        for offset in (400.0, 800.0):
            with pytest.raises(DomainError):
                Hypercycle((0.0, 0.0, 1.0), offset)

    def test_nonfinite_position_rejected(self):
        hc = Hypercycle((0.0, 0.0, 1.0), 0.5)
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                hypercycle_point(hc, s)

    def test_overflowing_position_rejected(self):
        hc = Hypercycle((0.0, 0.0, 1.0), 0.5)
        with pytest.raises(DomainError):
            hypercycle_point(hc, 1000.0)

    def test_unrepresentable_point_rejected(self):
        # Beyond the reach the coordinates overflow a float; inside it the
        # point is built and lies on the curve.
        hc = Hypercycle((0.0, 0.0, 1.0), 300.0)
        for s in (100.0, 300.0, 700.0):
            with pytest.raises(DomainError):
                hypercycle_point(hc, s)
        for s in (-50.0, 50.0):
            z = hypercycle_point(hc, s)
            assert hypercycle_residual(hc, z) <= 1e-12 * math.sinh(300.0)

    def test_too_few_samples_rejected(self):
        hc = Hypercycle((0.0, 0.0, 1.0), 0.6)
        with pytest.raises(DomainError):
            hypercycle_samples(hc, 1)

    @pytest.mark.parametrize("l1", [1.0, -0.25, 1e-300, 5e-324, math.nan])
    def test_axis_off_the_bisector_normal_rejected(self, l1):
        # An axis not perpendicular to the base's bisector has l1 != 0;
        # the curve formula drops that term, so the record refuses it.
        m = 0.7
        with pytest.raises(DomainError, match="not perpendicular to the base's bisector"):
            Hypercycle((-math.sinh(m), l1, math.cosh(m)), 0.5)
        for zero in (0.0, -0.0):
            Hypercycle((-math.sinh(m), zero, math.cosh(m)), 0.5)


class TestBaseConfig:
    def test_factory_round_trip(self):
        base = BaseConfig.from_half_distance(0.8)
        assert HYP.dist(base.a, base.b) == pytest.approx(1.6, abs=1e-12)
        assert HYP.line_residual(base.base_line(), ORIGIN) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            BaseConfig.from_half_distance(0.0)
        with pytest.raises(DomainError):
            BaseConfig.from_half_distance(5.5)

    def test_asymmetric_vertices_rejected(self):
        a = HYP.polar(0.0, 1.0)
        b = HYP.polar(0.3, 1.0)
        with pytest.raises(DomainError):
            BaseConfig(a, b, 1.0)

    @pytest.mark.parametrize("x", [1e-3, 0.3, 0.8, 1.5, 5.0])
    def test_vertex_one_ulp_off_rejected(self, x):
        # The base is the exact standard pair, not one within a tolerance:
        # a vertex one ulp off, still on the sheet, is refused.
        base = BaseConfig.from_half_distance(x)
        assert BaseConfig(base.a, base.b, x) == base
        for vertex in ("a", "b"):
            for i in range(3):
                for way in (-math.inf, math.inf):
                    v = list(getattr(base, vertex).v)
                    v[i] = math.nextafter(v[i], way)
                    moved = HPoint(tuple(v))
                    a, b = (moved, base.b) if vertex == "a" else (base.a, moved)
                    with pytest.raises(DomainError, match="standard pair"):
                        BaseConfig(a, b, x)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(_SHORTEST_HALF_BASE, MAX_HALF_BASE))
    @example(x=_SHORTEST_HALF_BASE)
    @example(x=MAX_HALF_BASE)
    def test_mirror_vertex_is_the_polar_one(self, x):
        # B is built as A's bisector mirror; it is polar(0, -x) to the bit.
        assert repr(BaseConfig.from_half_distance(x).b) == repr(HYP.polar(0.0, -x))

    @pytest.mark.parametrize("x", [5e-324, 1e-11, 5e-11])
    def test_base_too_short_to_span_a_line_rejected(self, x):
        # Every locus stands on the base line, so a base whose vertices
        # span none is refused where it is built, naming its half-distance.
        with pytest.raises(DomainError, match=f"^half-distance {x} is too short"):
            BaseConfig.from_half_distance(x)

    def test_the_shortest_base_builds_a_locus(self):
        # The refusal stops one ulp short of the first x whose vertices
        # span a line, and that base still carries a locus.
        assert _outcome(_vertex_line, _SHORTEST_HALF_BASE) == (0.0, 0.0, -1.0)
        below = math.nextafter(_SHORTEST_HALF_BASE, 0.0)
        assert _outcome(_vertex_line, below) == (
            DegenerateInputError,
            "points coincide, are antipodal or are too far apart to span a line",
        )
        base = BaseConfig.from_half_distance(_SHORTEST_HALF_BASE)
        locus = lexell_locus(base, _disk_apex(0.6, 0.5))
        assert locus.carrier.offset > 0.0

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, 1e-9, exclude_min=True))
    @example(x=_SHORTEST_HALF_BASE)
    @example(x=math.nextafter(_SHORTEST_HALF_BASE, 0.0))
    def test_refused_exactly_where_the_vertices_span_no_line(self, x):
        built = isinstance(_outcome(BaseConfig.from_half_distance, x), BaseConfig)
        assert built == (_outcome(_vertex_line, x) == (0.0, 0.0, -1.0))

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(_SHORTEST_HALF_BASE, MAX_HALF_BASE), apex=_APEXES)
    @example(x=_SHORTEST_HALF_BASE, apex=_perp_apex(1.0))
    @example(x=MAX_HALF_BASE, apex=_perp_apex(MAX_APEX_HEIGHT))
    def test_base_line_is_exactly_the_axis_of_x2(self, x, apex):
        # The line of every accepted base is (0, 0, -1), so an apex's
        # residual against it, the one ``lexell_locus`` reads, is |p2|.
        line = BaseConfig.from_half_distance(x).base_line()
        assert repr(line) == "(0.0, 0.0, -1.0)"
        assert HYP.line_residual(line, apex) == abs(apex.v[2])


class TestLexellLocus:
    def test_on_axis_apex_reproduces_apex_formula(self):
        base = BaseConfig.from_half_distance(0.8)
        locus = lexell_locus(base, _perp_apex(1.0))
        assert locus.area == pytest.approx(2.0 * _right_area(0.8, 1.0), abs=1e-12)
        assert locus.carrier.offset == pytest.approx(0.5668110250377684, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_apex_on_the_base_line_up_to_its_tolerance(self, sign):
        # An apex with |p2| = BASE_LINE_TOL lies on the base line; one ulp
        # further off it builds a locus.
        base = BaseConfig.from_half_distance(0.8)
        for p2, on_line in ((BASE_LINE_TOL, True), (math.nextafter(BASE_LINE_TOL, 1.0), False)):
            p2 *= sign
            apex = HPoint((math.sqrt(1.25 + p2 * p2), 0.5, p2))
            assert HYP.line_residual(base.base_line(), apex) == abs(p2)
            got = _outcome(lexell_locus, base, apex)
            if on_line:
                assert got == (DegenerateInputError, "apex lies on the base line")
            else:
                assert got.carrier.offset > 0.0

    def test_apex_lies_on_its_carrier(self):
        base = BaseConfig.from_half_distance(1.1)
        p = HYP.polar(0.9, 1.4)
        locus = lexell_locus(base, p)
        assert hypercycle_residual(locus.carrier, p) < 1e-12

    def test_mirrored_apex_gives_matching_locus(self):
        base = BaseConfig.from_half_distance(0.8)
        p = HYP.polar(1.1, 1.3)
        l1 = lexell_locus(base, p)
        l2 = lexell_locus(base, _bisector_mirror(p))
        assert l1.area == pytest.approx(l2.area, abs=1e-12)
        assert abs(l1.carrier.offset) == pytest.approx(
            abs(l2.carrier.offset), abs=1e-12
        )

    def test_residual_campaign(self):
        worst = [0.0, 0.0, 0.0, 0.0]
        for i in range(30):
            rng = substream("locus-camp", 11, i)
            base = BaseConfig.from_half_distance(0.3 + 1.2 * rng.random())
            while True:
                r = 2.0 * rng.random()
                th = 2.0 * math.pi * rng.random()
                p = HYP.polar(th, r)
                if HYP.line_residual(base.base_line(), p) > 0.05:
                    break
            res = locus_residuals(lexell_locus(base, p), samples=20, chords=20, seed=i)
            worst[0] = max(worst[0], res.area_spread)
            worst[1] = max(worst[1], res.mirror_residual)
            worst[2] = max(worst[2], res.midline_residual)
            worst[3] = max(worst[3], res.subarc_residual)
        assert worst[0] < 1e-11
        assert worst[1] < 1e-12
        assert worst[2] < 1e-12
        assert worst[3] < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(x=st.floats(1e-3, 5.0), apex=_APEXES)
    @example(x=5.0, apex=_perp_apex(1.0))
    def test_area_spread_within_its_band_at_the_edges(self, x, apex):
        # Short and long bases, apexes near the base line, near the disk's
        # rim and far up the bisector: a locus either fails as a
        # GeometryError or its area spread stays within the derived band.
        base = BaseConfig.from_half_distance(x)
        try:
            res = locus_residuals(lexell_locus(base, apex), samples=20, chords=0)
        except GeometryError:
            return
        assert res.area_spread <= _spread_band(base)

    def test_area_spread_sees_a_displaced_carrier(self):
        # A carrier at offset o + delta is no longer a constant-area curve:
        # the spread is |slope * delta| to within the band, so the gate
        # resolves every delta above band / slope.  Each computed area is
        # within half the band of exact, so the spread of any delta is
        # within one band of the exact spread, and the slope taken at
        # delta1 = 1e-9 is within band / delta1 of the exact slope: for
        # delta <= delta1 the first-order prediction holds to 2 bands.
        for i in range(3):
            locus = _seeded_locus(i)
            axis, o = locus.carrier.axis, locus.carrier.offset
            band = _spread_band(locus.base)

            def spread(delta):
                carrier = Hypercycle(axis, o + delta)
                moved = AreaLocus(locus.base, carrier, locus.mirror, locus.area)
                return locus_residuals(moved, samples=20, chords=0).area_spread

            assert spread(0.0) <= band
            slope = spread(1e-9) / 1e-9
            assert band / slope <= 1e-5 * TOL_AREA
            for delta in (1e-13, 1e-12, 1e-11, 1e-10):
                assert abs(spread(delta) - slope * delta) <= 2.0 * band
            assert spread(1e-5 * TOL_AREA) > band

    def test_one_axis_foot_per_locus(self, monkeypatch):
        # The mirror and the figure's axis curve G take the carrier's
        # frame: a locus, its default probe and its figure find the foot
        # of the origin on the axis once.
        feet = []
        foot = PlaneModel.foot

        def counted_foot(model, p, g):
            feet.append(g)
            return foot(model, p, g)

        monkeypatch.setattr(PlaneModel, "foot", counted_foot)
        apex = _disk_apex(0.5, 1.0)
        locus = lexell_locus(BaseConfig.from_half_distance(0.8), apex)
        locus_residuals(locus)
        render.scene_for_locus(locus, apex)
        assert feet == [locus.carrier.axis]

    def test_apex_on_base_line_rejected(self):
        base = BaseConfig.from_half_distance(0.8)
        on_line = HYP.polar(0.0, 0.3)
        with pytest.raises(DegenerateInputError):
            lexell_locus(base, on_line)

    def test_coincident_midpoints_rejected(self):
        # An apex straight above B: its bisector mirror P' sits straight
        # above A, and A, B are exact mirror images, so P + A and P' + B
        # agree to the last bit.  The axis through the two midpoints is
        # then no line, and ``line`` refuses it.
        base = BaseConfig.from_half_distance(0.8)
        b1 = base.b.v[1]
        apex = HPoint((math.sqrt(1.0 + b1 * b1 + 0.16), b1, 0.4))
        assert HYP.mid(apex, base.a) == HYP.mid(_bisector_mirror(apex), base.b)
        with pytest.raises(DegenerateInputError):
            lexell_locus(base, apex)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(1e-3, 5.0), apex=_APEXES)
    def test_axis_frame_has_the_zeros_the_loops_drop(self, x, apex):
        # Every locus axis has l1 = 0, and its frame g0[1] = +0.0 and
        # u0[0] = u0[2] = 0: the terms ``_curve_points`` and the probes
        # leave out.  Their points equal the full formula's, signed zero
        # at s = 0 included, or both fail the sheet check alike.
        try:
            locus = lexell_locus(BaseConfig.from_half_distance(x), apex)
        except GeometryError:
            return
        for hc in (locus.carrier, locus.mirror, locus.carrier.at_offset(0.0)):
            g0, u0 = hc._axis_frame[:2]
            assert hc.axis[1] == 0.0
            assert g0[1] == u0[0] == u0[2] == 0.0
            assert math.copysign(1.0, g0[1]) == 1.0
            ss = [0.0, -0.0, 0.5, -SAMPLE_RANGE]
            assert repr(_outcome(hypercycle_points, hc, ss)) == repr(
                _outcome(lambda: [k.on_sheet(_reference_point(hc, s)) for s in ss])
            )

    def test_tall_apexes_fail_only_as_geometry_errors(self):
        # Heights up to MAX_APEX_HEIGHT are accepted input; where the axis
        # through two far midpoints cannot be represented, the locus must
        # fail as a GeometryError, never as a bare arithmetic error.
        rejected = 0
        for x in (0.3, 0.8, 1.5, 3.0, 5.0):
            base = BaseConfig.from_half_distance(x)
            for i in range(79):
                try:
                    locus = lexell_locus(base, _perp_apex(1.0 + 0.5 * i))
                    locus_residuals(locus, samples=20, chords=0)
                except GeometryError:
                    rejected += 1
        assert rejected > 0


def _seeded_locus(i: int):
    # Drawn as the lexell campaign draws its loci.
    rng = substream("subarc-test", 5, i)
    base = BaseConfig.from_half_distance(rng.uniform(0.3, 1.5))
    u = rng.uniform(-0.7, 0.7)
    w = rng.uniform(0.1, 0.7) * (1.0 if rng.random() < 0.5 else -1.0)
    return lexell_locus(base, k.disk_to_hpoint(k.DiskPoint(u, w)))


class TestChordSplit:
    def test_axis_bisects_carrier_to_mirror_chords(self):
        base = BaseConfig.from_half_distance(0.9)
        locus = lexell_locus(base, _perp_apex(1.2))
        assert equal_subarc_check(locus, 50, seed=3) < 1e-12

    def test_crossing_lies_on_axis_and_chord(self):
        for i in range(20):
            locus = _seeded_locus(i)
            rng = random.Random(i)
            for _ in range(10):
                z1 = hypercycle_point(locus.carrier, SAMPLE_RANGE * rng.uniform(-1.0, 1.0))
                z2 = hypercycle_point(locus.mirror, SAMPLE_RANGE * rng.uniform(-1.0, 1.0))
                x = chord_crossing(z1, z2, locus.carrier.axis)
                assert HYP.line_residual(locus.carrier.axis, x) < 1e-12
                assert HYP.line_residual(HYP.line(z1, z2), x) < 1e-12
                d1, d2 = chord_split(z1, z2, locus.carrier.axis)
                assert (d1, d2) == (HYP.dist(z1, x), HYP.dist(x, z2))

    def test_one_substream_per_check(self, monkeypatch):
        seeded = []

        def counting(*args):
            seeded.append(args)
            return substream(*args)

        monkeypatch.setattr(k, "substream", counting)
        equal_subarc_check(_seeded_locus(0), 50, seed=9)
        assert seeded == [("subarc", 9)]

    def test_residual_sees_a_displaced_mirror(self):
        # A mirror at offset -o + delta is no longer bisected by the axis:
        # the imbalance must grow at first order in delta, from rounding
        # level at delta = 0 to past 1e-9 at delta = 1e-6.
        for i in range(5):
            locus = _seeded_locus(i)
            axis, o = locus.carrier.axis, locus.carrier.offset

            def residual(delta):
                mirror = Hypercycle(axis, -o + delta)
                moved = AreaLocus(locus.base, locus.carrier, mirror, locus.area)
                return equal_subarc_check(moved, 50, seed=i)

            assert residual(0.0) < 1e-12
            slope = residual(1e-6) / 1e-6
            assert slope * 1e-6 > 1e-9
            for delta in (1e-9, 1e-8, 1e-7):
                assert residual(delta) / delta == pytest.approx(slope, rel=1e-4)

    def test_same_side_chord_rejected(self):
        # With the carrier in the mirror's place every chord has both ends
        # on one side of the axis, and the first one stops the check.
        base = BaseConfig.from_half_distance(0.9)
        locus = lexell_locus(base, _perp_apex(1.2))
        same_side = AreaLocus(locus.base, locus.carrier, locus.carrier, locus.area)
        with pytest.raises(DomainError, match="chord endpoints must straddle the axis"):
            equal_subarc_check(same_side, 5)

    @pytest.mark.parametrize("near", ["carrier", "mirror"])
    def test_chords_keep_the_separation_check(self, near, monkeypatch):
        # The subarc probe writes ``k.hdist`` out, the separation check of
        # each piece included.  Every draw lands at the middle, so the chord
        # runs straight across the axis; the ``near`` curve lies 1e-6 from
        # it and the other 0.5.  The crossing, shrunk into the sheet band,
        # fails the check on the near piece with hdist's message.
        locus = _seeded_locus(0)
        o1, o2 = (1e-6, 0.5) if near == "carrier" else (0.5, 1e-6)
        axis = locus.carrier.axis
        probed = AreaLocus(locus.base, Hypercycle(axis, o1), Hypercycle(axis, -o2), locus.area)
        crossings = []

        class Middle:
            @staticmethod
            def random():
                return 0.5

        class Shrunk(_OffSheetNormalize):
            @staticmethod
            def mnormalize_point(x):
                crossings.append(tuple((1.0 - 5e-11) * c for c in vec.mnormalize_point(x)))
                return crossings[-1]

        monkeypatch.setattr(k, "substream", lambda *args: Middle())
        monkeypatch.setattr(lexell, "vec", Shrunk())
        got = _outcome(equal_subarc_check, probed, 1)
        (z1,), (z2,) = hypercycle_points(probed.carrier, [0.0]), hypercycle_points(probed.mirror, [0.0])
        (x,) = crossings
        assert got == _outcome(lambda: (k.hdist(z1, x), k.hdist(x, z2)))
        assert got[0] is InvalidPointError
        assert got[1].startswith("separation invariant violated: -<p,q> = ")
        assert isinstance(_outcome(k.hdist, z1, x), float) == (near == "mirror")

    def test_negative_chord_count_rejected(self):
        # A negative count measures no chord; it must not read as a
        # subarc residual of 0.
        locus = _seeded_locus(0)
        with pytest.raises(DomainError, match="chord count must be nonnegative: -3"):
            equal_subarc_check(locus, -3)
        with pytest.raises(DomainError, match="chord count must be nonnegative: -1"):
            locus_residuals(locus, chords=-1)
        assert equal_subarc_check(locus, 0) == 0.0
        assert locus_residuals(locus, chords=0).subarc_residual == 0.0


# References for the one-pass routes: each is the per-point or per-call
# route the fused code replaced, and the fused code must equal it bit for bit.


def chord_crossing(z1: HPoint, z2: HPoint, axis) -> HPoint:
    """Point where the axis cuts the segment z1 z2, one HPoint per chord.

    With s_i = l . z_i of opposite signs, w = |s2| z1 + |s1| z2 lies on
    both the axis and the chord; ``equal_subarc_check`` writes this out.
    """
    s1 = HYP.side_value(axis, z1)
    s2 = HYP.side_value(axis, z2)
    if s1 * s2 >= 0.0:
        raise DomainError("chord endpoints must straddle the axis")
    w1, w2 = abs(s2), abs(s1)
    a, b = z1.v, z2.v
    return HPoint(
        vec.mnormalize_point(
            (w1 * a[0] + w2 * b[0], w1 * a[1] + w2 * b[1], w1 * a[2] + w2 * b[2])
        )
    )


def chord_split(z1: HPoint, z2: HPoint, axis) -> tuple:
    """Lengths of the two pieces the axis cuts from segment z1 z2, by ``dist``."""
    crossing = chord_crossing(z1, z2, axis)
    return (HYP.dist(z1, crossing), HYP.dist(crossing, z2))


_OFF_SHEET = "not on the upper hyperboloid sheet: "


class _OffSheetNormalize:
    """``corevec`` as lexell reads it, but ``mnormalize_point`` lands at
    twice the point it should."""

    def __getattr__(self, name):
        return getattr(vec, name)

    @staticmethod
    def mnormalize_point(x):
        return tuple(2.0 * c for c in vec.mnormalize_point(x))


def _reference_point(hc: Hypercycle, s: float) -> tuple:
    g0, u0, co, so, reach = hc._axis_frame
    if not abs(s) <= reach:
        raise DomainError(f"axis position {s} puts the point beyond float range")
    ch = math.cosh(s)
    sh = math.sinh(s)
    n = _normal(hc.axis)
    return tuple(co * (ch * g0[i] + sh * u0[i]) + so * n[i] for i in range(3))


def _draw(r: float) -> float:
    """The axis position the subarc probe makes of the draw r."""
    return -SAMPLE_RANGE + 2.0 * SAMPLE_RANGE * r


def _reference_chords(locus: AreaLocus, draws) -> float:
    # One chord per (carrier draw, mirror draw) pair, each endpoint from
    # its own curve's ``hypercycle_points`` pass, in chord order.
    worst = 0.0
    for r1, r2 in draws:
        z1 = hypercycle_point(locus.carrier, _draw(r1))
        z2 = hypercycle_point(locus.mirror, _draw(r2))
        d1, d2 = chord_split(z1, z2, locus.carrier.axis)
        worst = max(worst, abs(d1 - d2))
    return worst


def _reference_subarc(locus: AreaLocus, n: int, seed: int) -> float:
    rng = substream("subarc", seed)
    return _reference_chords(locus, [(rng.random(), rng.random()) for _ in range(n)])


class _Scripted:
    """A substream whose draws are the given values, in order."""

    def __init__(self, values):
        self.random = iter(values).__next__


def _probe(monkeypatch, carrier: Hypercycle, mirror: Hypercycle, draws) -> tuple:
    """Outcomes of ``equal_subarc_check`` over the (carrier, mirror) draw
    pairs ``draws`` on the two curves, and of the per-chord reference."""
    base = BaseConfig.from_half_distance(0.8)
    locus = AreaLocus(base, carrier, mirror, 1.0)
    flat = [r for pair in draws for r in pair]
    monkeypatch.setattr(k, "substream", lambda *args: _Scripted(flat))
    return (
        _outcome(equal_subarc_check, locus, len(draws)),
        _outcome(_reference_chords, locus, draws),
    )


def _with_frame(hc: Hypercycle, frame) -> Hypercycle:
    """A fresh curve on hc's axis and offset holding ``frame``."""
    curve = Hypercycle(hc.axis, hc.offset)
    curve.__dict__["_axis_frame"] = frame
    return curve


def _reference_area(z, a, b) -> float:
    # The Fermi-coordinate area of z a b over line ab, one sample at a time.
    n = _normal(HYP.line(a, b))
    e = mcross(HYP.mid(a, b).v, n)
    if minner(a.v, e) < 0.0:
        e = tuple(-c for c in e)
    sa, sb = math.asinh(minner(a.v, e)), math.asinh(minner(b.v, e))
    h = minner(z.v, n)
    t = abs(math.asinh(h))
    s = math.asinh(minner(z.v, e) / math.hypot(1.0, h))
    return _right_area(sa - s, t) + _right_area(s - sb, t)


def _reference_residuals(locus: AreaLocus, samples: int, chords: int, seed: int) -> tuple:
    a, b = locus.base.a, locus.base.b
    step = 2.0 * SAMPLE_RANGE / (samples - 1)
    pts = [hypercycle_point(locus.carrier, -SAMPLE_RANGE + i * step) for i in range(samples)]
    areas = [_reference_area(z, a, b) for z in pts]
    midline = 0.0
    for z in pts:
        midline = max(
            midline,
            HYP.line_residual(locus.carrier.axis, HYP.mid(z, a)),
            HYP.line_residual(locus.carrier.axis, HYP.mid(z, b)),
        )
    return (
        max(areas) - min(areas),
        max(hypercycle_residual(locus.mirror, a), hypercycle_residual(locus.mirror, b)),
        midline,
        _reference_subarc(locus, chords, seed) if chords > 0 else 0.0,
    )


def _calls(fn, *args) -> dict:
    """How many times fn(*args) calls each builtin, keyed by the builtin,
    and enters each Python function, keyed by its code object."""
    calls: dict = {}

    def profile(frame, event, arg):
        if event == "c_call":
            calls[arg] = calls.get(arg, 0) + 1
        elif event == "call":
            calls[frame.f_code] = calls.get(frame.f_code, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def _outcome(fn, *args):
    """fn(*args), or the class and message of the GeometryError it raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return (type(exc), str(exc))


def _reference_invert(x: float, target: float) -> float:
    """Bisection for the height on the paper's form, 2 acos(f(cosh y))."""
    lo, hi = 0.0, MAX_APEX_HEIGHT
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * clamped_acos(area_profile(x, math.cosh(mid))) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def _random_point(rng, r_max: float):
    return HYP.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, r_max))


class TestOnePassRoutes:
    def test_points_equal_the_per_point_closed_form(self):
        # The mirror and the axis curve take the carrier's axis frame; each
        # frame must equal one built from scratch, and the paired pass must
        # give each curve's own points, bit for bit.
        for i in range(30):
            locus = _seeded_locus(i)
            axis, o = locus.carrier.axis, locus.carrier.offset
            rng = random.Random(i)
            axis_curve = locus.carrier.at_offset(0.0)
            for hc in (locus.mirror, axis_curve):
                fresh = Hypercycle(hc.axis, hc.offset)
                assert repr(hc._axis_frame) == repr(fresh._axis_frame)
            assert locus.mirror == Hypercycle(axis, -o)
            for hc in (locus.carrier, locus.mirror, axis_curve):
                ss = [rng.uniform(-6.0, 6.0) for _ in range(25)]
                want = [_reference_point(hc, s) for s in ss]
                assert hypercycle_points(hc, ss) == want
                assert [hypercycle_point(hc, s).v for s in ss] == want
            ss = [rng.uniform(-6.0, 6.0) for _ in range(25)]
            assert hypercycle_points_and_mirror(locus.carrier, ss) == (
                [_reference_point(Hypercycle(axis, o), s) for s in ss],
                [_reference_point(Hypercycle(axis, -o), s) for s in ss],
            )
        assert hypercycle_points(locus.carrier, []) == []
        assert hypercycle_points_and_mirror(locus.carrier, []) == ([], [])

    def test_points_check_every_position_and_point(self, monkeypatch):
        hc = Hypercycle((0.0, 0.0, 1.0), 300.0)
        with pytest.raises(DomainError):
            hypercycle_points(hc, [0.0, 1.0, 700.0])
        with pytest.raises(DomainError):
            hypercycle_points(hc, [0.0, math.nan])
        # The sheet check runs on each point: a frame whose normal is not
        # unit yields points off the sheet.
        skewed = Hypercycle((0.0, 0.0, 1.0), 0.5)
        skewed.__dict__["_axis_frame"] = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2.0, 0.5, 100.0)
        with pytest.raises(InvalidPointError):
            hypercycle_points(skewed, [0.0])
        # The paired pass checks each mirror point too: with g0 not
        # orthogonal to the normal, the point at s = 0 lies on the sheet
        # and its mirror image does not.
        lopsided = Hypercycle((0.0, 0.0, 1.0), 0.5)
        lopsided.__dict__["_axis_frame"] = (
            (math.sqrt(1.0625), 0.0, 0.25), (0.0, 1.0, 0.0), 1.0, -0.5, 100.0
        )
        assert len(hypercycle_points(lopsided, [0.0])) == 1
        with pytest.raises(InvalidPointError, match=r"0\.75\)$"):
            hypercycle_points_and_mirror(lopsided, [0.0])
        # The subarc probe builds each chord endpoint on its own curve and
        # checks it as that curve's pass does: a position past the reach,
        # a NaN and a skewed frame, on the carrier and on the mirror, the
        # other endpoint drawn at s = 0 on the locus's own curve.  With the
        # tangent turned back, v1 at s = 0 is -0.0 before ``or 0.0`` makes
        # it the +0.0 the message shows.
        turned = Hypercycle((0.0, 0.0, 1.0), 0.5)
        turned.__dict__["_axis_frame"] = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), 2.0, 0.5, 100.0)
        assert _outcome(hypercycle_points, turned, [0.0])[1].endswith("(2.0, 0.0, 0.5)")
        locus = _seeded_locus(0)
        for bad, r in (
            (hc, (700.0 + SAMPLE_RANGE) / 6.0), (hc, math.nan), (skewed, 0.5), (turned, 0.5)
        ):
            want = _outcome(hypercycle_points, bad, [_draw(r)])
            assert want[0] in (DomainError, InvalidPointError)
            got, reference = _probe(monkeypatch, bad, locus.mirror, [(r, 0.5)])
            assert got == reference == want
            got, reference = _probe(monkeypatch, locus.carrier, bad, [(0.5, r)])
            assert got == reference == want

    @pytest.mark.parametrize("offset", [0.5, 300.0])
    @pytest.mark.parametrize("where", ["-reach", "reach", "past -reach", "past reach", "nan"])
    def test_reach_check_matches_the_abs_form(self, offset, where, monkeypatch):
        # The chain -reach <= s <= reach is |s| <= reach: both hold at the
        # reach, where the point is built, and fail an ulp past it or on NaN.
        hc = Hypercycle((0.0, 0.0, 1.0), offset)
        reach = hc._axis_frame[4]
        s = {
            "-reach": -reach,
            "reach": reach,
            "past -reach": math.nextafter(-reach, -math.inf),
            "past reach": math.nextafter(reach, math.inf),
            "nan": math.nan,
        }[where]
        got = _outcome(hypercycle_points, hc, [s])
        assert got == _outcome(lambda: [k.on_sheet(_reference_point(hc, s))])
        assert isinstance(got, list) == (abs(s) <= reach)
        # The subarc probe's copy on the carrier and on the mirror: the
        # curve's frame takes the reach 1.5, or an ulp less, so that the
        # draw lands on it, past it or on NaN; the endpoint's outcome is its
        # curve's pass, and a chord built is measured as the reference does.
        r, edge = {
            "-reach": (0.25, 1.5),
            "reach": (0.75, 1.5),
            "past -reach": (0.25, math.nextafter(1.5, 0.0)),
            "past reach": (0.75, math.nextafter(1.5, 0.0)),
            "nan": (math.nan, 1.5),
        }[where]
        s = _draw(r)
        for side in (1.0, -1.0):
            curve = Hypercycle(hc.axis, side * offset)
            edged = _with_frame(curve, curve._axis_frame[:4] + (edge,))
            point = _outcome(hypercycle_points, edged, [s])
            assert isinstance(point, list) == (abs(s) <= edge)
            pair = (edged, curve) if side > 0.0 else (curve, edged)
            draws = [(r, 0.5)] if side > 0.0 else [(0.5, r)]
            got, reference = _probe(monkeypatch, *pair, draws)
            assert got == reference
            if not isinstance(point, list):
                assert got == point

    def test_a_curve_pass_calls_no_abs(self):
        # The reach check and the sheet check are comparison chains: per
        # position, a builtin call would cost more than the comparisons.
        locus = _seeded_locus(0)
        calls = _calls(hypercycle_points_and_mirror, locus.carrier, sample_positions(65))
        assert calls.get(abs, 0) == 0

    def test_the_probes_call_no_sheet_check_or_distance(self):
        # A curve pass, the locus probe and the subarc probe write out
        # ``k.on_sheet`` and ``k.hdist`` on their vectors; the tests above
        # and test_probe_points_pass_the_sheet_check hold them to both.
        # The subarc probe builds its chord endpoints in its own loop, so
        # it enters no curve pass either, and it normalizes one crossing
        # per chord through the ``vec.mnormalize_point`` the tests patch.
        locus = _seeded_locus(0)
        written_out = {k.on_sheet.__code__, k.hdist.__code__}
        for fn, args in (
            (hypercycle_points_and_mirror, (locus.carrier, sample_positions(65))),
            (locus_residuals, (locus,)),
        ):
            calls = _calls(fn, *args)
            assert lexell._curve_points.__code__ in calls
            assert written_out & calls.keys() == set()
        n = 12
        calls = _calls(equal_subarc_check, locus, n)
        curve_pass = {lexell._curve_points.__code__, hypercycle_points.__code__}
        assert (written_out | curve_pass) & calls.keys() == set()
        assert calls[vec.mnormalize_point.__code__] == n

    def test_subarc_check_raises_the_first_failure_in_chord_order(self, monkeypatch):
        # Chord 0's mirror endpoint (s = 1.5) and chord 1's carrier
        # endpoint (s = -1.5) both lie past a reach of 1: the probe checks
        # chord 0's endpoints before it draws chord 1, so the mirror's
        # message is the one raised.
        locus = _seeded_locus(0)
        carrier, mirror = (
            _with_frame(hc, hc._axis_frame[:4] + (1.0,)) for hc in (locus.carrier, locus.mirror)
        )
        assert _outcome(hypercycle_points, carrier, [-1.5]) == (
            DomainError, "axis position -1.5 puts the point beyond float range"
        )
        got, reference = _probe(monkeypatch, carrier, mirror, [(0.5, 0.75), (0.25, 0.5)])
        assert got == reference == (
            DomainError, "axis position 1.5 puts the point beyond float range"
        )

    def test_subarc_check_reads_each_curve_own_frame(self):
        # A mirror built on its own axis covector, not through
        # ``at_offset``: the carrier's axis negated, at +offset, is the same
        # curve traversed the other way, with its own frame.  A loop that
        # read the carrier's axis or frame for the mirror would build other
        # endpoints, and the probe must equal the per-chord reference.
        differs = 0
        for i in range(20):
            locus = _seeded_locus(i)
            axis, o = locus.carrier.axis, locus.carrier.offset
            mirror = Hypercycle(tuple(-c for c in axis), o)
            assert mirror._axis_frame[1] != locus.mirror._axis_frame[1]
            (z,) = hypercycle_points(mirror, [1.0])
            (w,) = hypercycle_points(locus.mirror, [-1.0])
            assert z == pytest.approx(w, rel=1e-12, abs=1e-12)
            flipped = AreaLocus(locus.base, locus.carrier, mirror, locus.area)
            got = equal_subarc_check(flipped, 20, seed=i)
            assert got == _reference_subarc(flipped, 20, i)
            differs += got != equal_subarc_check(locus, 20, seed=i)
        assert differs > 0

    def test_subarc_check_folds_its_maximum_inline(self):
        # Per chord: the two weights |s2| and |s1| and the imbalance.
        n = 12
        calls = _calls(equal_subarc_check, _seeded_locus(0), n)
        assert calls.get(max, 0) == 0
        assert calls.get(abs, 0) <= 3 * n

    @pytest.mark.parametrize(
        "skew, probe",
        [
            ("frame", "residuals"),
            ("frame", "chords"),
            ("frame", "foliation"),
            ("frame", "polyline"),
            ("frame", "polyline pair"),
            # Samples on the sheet, midpoints and crossings off it.
            ("normalize", "residuals"),
            ("normalize", "chords"),
        ],
    )
    def test_probe_points_pass_the_sheet_check(self, skew, probe, monkeypatch):
        # Every vector the probe reads passes HPoint's check.  "frame"
        # skews cosh(offset) in every curve's frame, as the frame of
        # test_points_check_every_position_and_point does, but keeps
        # sinh(offset), so that a leaf built inside ``foliation`` still
        # passes ``lexell_locus``; "normalize" scales every vector lexell
        # normalizes off the sheet.
        locus = _seeded_locus(0)
        if skew == "frame":
            frame = Hypercycle.__dict__["_axis_frame"].func

            def skewed(hc):
                g0, u0, co, so, reach = frame(hc)
                return (g0, u0, 2.0 * co, so, reach)

            monkeypatch.setattr(Hypercycle, "_axis_frame", property(skewed))
        else:
            monkeypatch.setattr(lexell, "vec", _OffSheetNormalize())
        limit = max_apex_area(locus.base.half_distance)
        run = {
            "residuals": lambda: locus_residuals(locus, samples=20, chords=0),
            "chords": lambda: equal_subarc_check(locus, 10),
            "foliation": lambda: foliation(locus.base, [0.25 * limit, 0.5 * limit]),
            "polyline": lambda: render.polyline_for_hypercycle(locus.carrier),
            "polyline pair": lambda: hypercycle_points_and_mirror(
                locus.carrier, sample_positions(lexell.HYPERCYCLE_SEGMENTS + 1)
            ),
        }[probe]
        with pytest.raises(InvalidPointError, match=f"^{_OFF_SHEET}") as raised:
            run()
        # The message is HPoint's for the vector it names.
        message = str(raised.value)
        with pytest.raises(InvalidPointError) as built:
            HPoint(ast.literal_eval(message[len(_OFF_SHEET):]))
        assert str(built.value) == message

    @pytest.mark.parametrize(
        "bad",
        [(2.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (1e160, 0.0, 0.0), (math.nan, 0.0, 0.0)],
        ids=["off the band", "lower sheet", "band overflows", "nan"],
    )
    @pytest.mark.parametrize("probe, call", [("midline", 1), ("midline", 2), ("chords", 1)])
    def test_written_out_sheet_checks_refuse_as_on_sheet(self, bad, probe, call, monkeypatch):
        # The normalization's ``call``-th vector is ``bad``: the midpoint
        # with a, or with b, of the first sample, or the first chord's
        # crossing.  Each copy of the check refuses it as ``k.on_sheet``
        # does, on the edges of its chain: past the band, v0 <= 0, the
        # band no longer finite, and NaN.
        calls = []

        class Bad(_OffSheetNormalize):
            @staticmethod
            def mnormalize_point(x):
                calls.append(x)
                return bad if len(calls) == call else vec.mnormalize_point(x)

        monkeypatch.setattr(lexell, "vec", Bad())
        locus = _seeded_locus(0)
        run = {
            "midline": lambda: locus_residuals(locus, samples=20, chords=0),
            "chords": lambda: equal_subarc_check(locus, 10),
        }[probe]
        got = _outcome(run)
        assert got == _outcome(k.on_sheet, bad)
        assert got[0] is InvalidPointError

    @pytest.mark.parametrize(
        "axis, g00, so, bad",
        [
            ((0.0, 0.0, 1.0), -1.0, 0.0, (-1.0, 0.0, 0.0)),
            ((-1.0, 0.0, 0.0), 0.0, 1.0, (-1.0, 0.0, 0.0)),
            ((0.0, 0.0, 1.0), 1e160, 0.0, (1e160, 0.0, 0.0)),
            ((0.0, 0.0, 1.0), math.nan, 0.0, (math.nan, 0.0, 0.0)),
        ],
        ids=["carrier on the lower sheet", "mirror on the lower sheet",
             "carrier's band overflows", "nan carrier"],
    )
    def test_curve_sheet_checks_refuse_as_on_sheet(self, axis, g00, so, bad, monkeypatch):
        # A frame whose point at s = 0 is ``bad`` on the carrier or, the
        # carrier (1, 0, 0) kept on the sheet, on the mirror; the written-out
        # check refuses it with ``k.on_sheet``'s outcome, the carrier's in
        # a pass over the carrier alone.
        hc = Hypercycle(axis, 0.5)
        hc.__dict__["_axis_frame"] = ((g00, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0, so, 100.0)
        carrier = _outcome(hypercycle_points, hc, [0.0])
        if so:
            assert carrier == [(1.0, 0.0, 0.0)]
            got = _outcome(hypercycle_points_and_mirror, hc, [0.0])
        else:
            got = carrier
        assert got == _outcome(k.on_sheet, bad)
        assert got[0] is InvalidPointError
        # The subarc probe builds each endpoint on its own curve's frame:
        # the curve whose point at s = 0 is ``bad`` (the mirror of hc, on
        # its own frame, where hc keeps its point on the sheet) is refused
        # as carrier and as mirror, opposite the seeded locus's other curve.
        off = hc
        if so:
            off = _with_frame(
                Hypercycle(axis, -0.5), ((g00, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0, -so, 100.0)
            )
        assert _outcome(hypercycle_points, off, [0.0]) == got
        locus = _seeded_locus(0)
        for pair in ((off, locus.mirror), (locus.carrier, off)):
            assert _probe(monkeypatch, *pair, [(0.5, 0.5)]) == (got, got)

    def test_base_areas_match_the_per_sample_deficit(self):
        # Both routes measure the same triangles; on these points the
        # deficit's own rounding stays far below the closed-form bound.
        for i in range(30):
            locus = _seeded_locus(i)
            a, b = locus.base.a, locus.base.b
            rng = random.Random(100 + i)
            pts = (
                hypercycle_samples(locus.carrier, 20)
                + hypercycle_samples(locus.mirror, 7)
                + [_random_point(rng, 3.0).v for _ in range(20)]
            )
            for area, z in zip(_base_areas(pts, a, b), pts):
                assert abs(area - _deficit(HPoint(z), a, b)) <= 1e-12

    def test_base_areas_equal_the_per_sample_right_pieces(self):
        # ``_base_areas`` writes ``_right_area`` out with tanh(t/2) shared
        # by the two pieces; each area equals the two calls, bit for bit,
        # on and off the carrier, and on the base line itself.
        for i in range(30):
            locus = _seeded_locus(i)
            a, b = locus.base.a, locus.base.b
            rng = random.Random(300 + i)
            pts = (
                hypercycle_samples(locus.carrier, 20)
                + hypercycle_samples(locus.mirror, 7)
                + [_random_point(rng, 3.0).v for _ in range(20)]
                + [HYP.polar(0.0, rng.uniform(-3.0, 3.0)).v, ORIGIN.v]
            )
            want = [_reference_area(HPoint(z), a, b) for z in pts]
            assert repr(_base_areas(pts, a, b)) == repr(want)

    def test_base_areas_past_the_recentring_limit(self):
        # Tall apexes put samples past the kernel's recentring limit, where
        # the deficit recentres its angles; the Fermi route needs no limit.
        base = BaseConfig.from_half_distance(0.8)
        pts = [
            z
            for height in (2.0, 6.0)
            for z in hypercycle_samples(lexell_locus(base, _perp_apex(height)).carrier, 20)
        ]
        assert max(z[0] for z in pts) > k._RECENTRE_LIMIT
        assert min(z[0] for z in pts) <= k._RECENTRE_LIMIT
        for area, z in zip(_base_areas(pts, base.a, base.b), pts):
            assert abs(area - _deficit(HPoint(z), base.a, base.b)) <= 1e-12

    def test_base_areas_match_high_precision_within_their_band(self):
        """Each area is within the band ``_base_areas`` derives,
        eps (7 (|R1| + |R2|) + 9 + 6X), of the same formula evaluated
        in 200-bit arithmetic on the same float inputs."""
        mpmath = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        with mpmath.workprec(200):
            for i in range(20):
                locus = _seeded_locus(i)
                a, b = locus.base.a, locus.base.b
                rng = random.Random(200 + i)
                pts = hypercycle_samples(locus.carrier, 20) + [
                    _random_point(rng, 3.0).v for _ in range(10)
                ]
                sa = mpmath.asinh(mpmath.mpf(a.v[1]))
                sb = mpmath.asinh(mpmath.mpf(b.v[1]))
                x = max(abs(float(sa)), abs(float(sb)))
                for area, z in zip(_base_areas(pts, a, b), pts):
                    h = -mpmath.mpf(z[2])
                    t = abs(mpmath.asinh(h))
                    s = mpmath.asinh(mpmath.mpf(z[1]) / mpmath.sqrt(1 + h * h))
                    r1, r2 = (
                        2 * mpmath.atan(mpmath.tanh(leg / 2) * mpmath.tanh(t / 2))
                        for leg in (sa - s, s - sb)
                    )
                    band = eps * (7.0 * float(abs(r1) + abs(r2)) + 9.0 + 6.0 * x)
                    assert abs(area - float(r1 + r2)) <= band

    def test_residuals_equal_the_per_sample_route(self):
        for i in range(20):
            locus = _seeded_locus(i)
            for samples, chords in ((20, 100), (8, 8), (2, 0)):
                res = locus_residuals(locus, samples=samples, chords=chords, seed=i)
                assert (
                    res.area_spread,
                    res.mirror_residual,
                    res.midline_residual,
                    res.subarc_residual,
                ) == _reference_residuals(locus, samples, chords, i)

    def test_subarc_check_equals_the_per_chord_loop(self):
        # The chords reach both of ``hdist``'s branches, the chord form
        # (asinh) and acosh, that ``equal_subarc_check`` writes out.
        branches = {math.asinh: 0, math.acosh: 0}
        for i in range(20):
            locus = _seeded_locus(i)
            for n in (0, 1, 7, 100):
                assert equal_subarc_check(locus, n, seed=i) == _reference_subarc(
                    locus, n, i
                )
                calls = _calls(equal_subarc_check, locus, n, i)
                for f in branches:
                    branches[f] += calls.get(f, 0)
        assert min(branches.values()) > 0

    @staticmethod
    def _inverse_targets():
        rng = random.Random(3)
        for x in (0.01, 0.3, 0.8, 1.5, 3.0, 5.0):
            limit = max_apex_area(x)
            targets = [limit * rng.random() for _ in range(10)]
            yield x, targets + [limit * (1.0 - 1e-9), 1e-14]

    def test_inverse_round_trips_within_its_derived_bound(self):
        """2.0 * _right_area(x, _invert_apex_area(x, T)) is T within 9 eps T.

        Both directions use the same float tanh(x/2), so it cancels.  The
        inverse takes tan(T/4) (T/4 is exact), one division and atanh; the
        forward takes tanh of y/2 (atanh's result, exactly), one product
        and atan.  tanh after atanh and atan after tan have condition at
        most 1, (1 - q^2) atanh(q)/q and sin(T/2)/(T/2), so to first order
        the relative error is the sum of the four library errors (2 eps
        each, taking each within 2 ulps) and the two roundings (eps/2
        each): 9 eps.
        """
        eps = sys.float_info.epsilon
        for x, targets in self._inverse_targets():
            for target in targets:
                forward = 2.0 * _right_area(x, _invert_apex_area(x, target))
                assert abs(forward - target) <= 9.0 * eps * target
        for x in (0.3, 5.0):
            target = max_apex_area(x) + 0.1
            assert _outcome(_invert_apex_area, x, target) == (
                InfeasibleAreaError,
                f"target area {target} rounds to the apex-area supremum {max_apex_area(x)}",
            )
        # The half-base is bounded as BaseConfig bounds it.
        for x in (0.0, -1.0, math.nextafter(MAX_HALF_BASE, math.inf), 20.0, 30.0):
            assert _outcome(_invert_apex_area, x, 0.5) == (
                DomainError, f"half-base {x} out of range"
            )

    def test_inverse_agrees_with_the_acos_bisection(self):
        # The reference's profile carries about 10 eps of rounding (the
        # f terms of criterion 08's band); acos turns that into 2 * 10 eps
        # / sin(T/2) of area, and the height moves by that over dT/dy =
        # 2 tx (1 - ty^2)/(1 + (tx ty)^2), tx = tanh(x/2), ty = tanh(y/2).
        # Where that is at most a tenth of the bisection's 1e-12 stop, the
        # reference's midpoint sits within 1e-12 of the exact height, and
        # the closed form's own height error is smaller still.
        eps = sys.float_info.epsilon
        compared = 0
        for x, targets in self._inverse_targets():
            for target in targets:
                y = _invert_apex_area(x, target)
                tx, ty = math.tanh(0.5 * x), math.tanh(0.5 * y)
                slope = 2.0 * tx * (1.0 - ty * ty) / (1.0 + (tx * ty) ** 2)
                if 20.0 * eps / (math.sin(0.5 * target) * slope) > 1e-13:
                    continue
                assert abs(y - _reference_invert(x, target)) <= 1e-12
                compared += 1
        assert compared >= 30

    def test_limits_are_the_right_area_with_an_ideal_leg(self):
        for x in (0.01, 0.3, 0.8, 1.5, 5.0, 20.0):
            explicit = 4.0 * math.atan(math.tanh(0.5 * x))
            assert 2.0 * _right_area(x, math.inf) == 2.0 * _right_area(math.inf, x) == explicit
            # The supremum is bounded by the longest half-base, as BaseConfig is.
            if x <= MAX_HALF_BASE:
                assert max_apex_area(x) == explicit
            else:
                assert _outcome(max_apex_area, x) == (
                    DomainError, f"half-base {x} out of range"
                )
        for x, a in ((0.5, 0.2), (1.0, -0.7), (2.0, 1.1), (3.0, 0.0)):
            assert (_right_area(x - a, math.inf), _right_area(x + a, math.inf)) == (
                2.0 * math.atan(math.tanh(0.5 * (x - a))),
                2.0 * math.atan(math.tanh(0.5 * (x + a))),
            )


class TestFoliation:
    def test_inverse_recovers_forward_height(self):
        base = BaseConfig.from_half_distance(0.8)
        target = 2.0 * _right_area(0.8, 1.0)
        leaves = foliation(base, [target])
        assert len(leaves) == 1
        assert leaves[0].area == pytest.approx(target, abs=1e-9)

    def test_leaves_sorted_with_growing_offsets(self):
        base = BaseConfig.from_half_distance(0.8)
        leaves = foliation(base, [1.4, 0.3, 0.8])
        areas = [leaf.area for leaf in leaves]
        offsets = [leaf.carrier.offset for leaf in leaves]
        assert areas == sorted(areas)
        assert offsets == sorted(offsets)
        assert areas == pytest.approx([0.3, 0.8, 1.4], abs=1e-9)

    def test_empty_targets(self):
        assert foliation(BaseConfig.from_half_distance(0.8), []) == []

    def test_target_close_to_the_supremum(self):
        # The recovered apex sits over twenty units out; the leaf must
        # still come back at full precision.
        base = BaseConfig.from_half_distance(0.8)
        target = max_apex_area(0.8) * (1.0 - 1e-9)
        leaves = foliation(base, [target])
        assert abs(leaves[0].area - target) < 1e-12
        assert leaves[0].carrier.offset > 10.0

    def test_repeated_target_rejected(self):
        base = BaseConfig.from_half_distance(0.8)
        with pytest.raises(DegenerateInputError, match="target area 0.5 is repeated"):
            foliation(base, [0.5, 0.3, 0.5])
        # Distinct targets one ulp apart get one height, so the offsets
        # fail to grow; 1e-13 apart they separate, but by less than the
        # membership band, so the leaves intersect.
        with pytest.raises(GeometryError, match="leaf offsets fail to grow with area"):
            foliation(base, [0.5, math.nextafter(0.5, 1.0)])
        with pytest.raises(GeometryError, match="distinct leaves intersect"):
            foliation(base, [0.5, 0.5 + 1e-13])

    def test_intersecting_leaves_detected(self, monkeypatch):
        # With a membership band wider than the leaves' spacing, each
        # leaf's samples land on the others and the check must fire.
        monkeypatch.setattr(lexell, "TOL_ID", 10.0)
        with pytest.raises(GeometryError, match="distinct leaves intersect"):
            foliation(BaseConfig.from_half_distance(0.8), [0.3, 0.8])

    def test_tiny_targets_put_the_apex_on_the_base_line(self):
        for x, target in ((0.01, 1e-14), (0.3, 1e-12)):
            with pytest.raises(
                InfeasibleAreaError,
                match=f"target area {target} puts the leaf's apex on the base line",
            ):
                foliation(BaseConfig.from_half_distance(x), [0.5 * max_apex_area(x), target])

    def test_leaf_areas_meet_their_targets(self):
        # Down to the smallest leaf the base-line bound admits: the height
        # asinh(BASE_LINE_TOL), moved by 64 eps.  The area is linear in a
        # small height, so the inverse's 9 eps round trip is the height's
        # too, and the move puts each target clearly on one side.
        rng = random.Random(12)
        low = math.asinh(BASE_LINE_TOL)
        eps = sys.float_info.epsilon
        for _ in range(40):
            x = rng.uniform(0.05, 5.0)
            base = BaseConfig.from_half_distance(x)
            limit = max_apex_area(x)
            smallest = 2.0 * _right_area(x, low * (1.0 + 64.0 * eps))
            targets = [smallest] + [limit * rng.random() for _ in range(4)]
            for leaf, target in zip(foliation(base, targets), sorted(targets)):
                assert abs(leaf.area - target) <= TOL_AREA
            with pytest.raises(InfeasibleAreaError, match="on the base line"):
                foliation(base, [2.0 * _right_area(x, low * (1.0 - 64.0 * eps))])

    def test_leaf_area_gate(self, monkeypatch):
        # A leaf built at the wrong height measures the wrong area.
        invert = lexell._invert_apex_area
        monkeypatch.setattr(lexell, "_invert_apex_area", lambda x, t: invert(x, t) + 1e-3)
        with pytest.raises(GeometryError, match=r"leaf for target area 0\.5 measures area 0\.50"):
            foliation(BaseConfig.from_half_distance(0.8), [0.5])

    def test_a_drawn_foliation_evaluates_each_leaf_once(self, monkeypatch):
        # The leaf scan and the figure read each carrier's cached sample
        # set, so the curve loop runs once per leaf, not once for the scan
        # and once more for the polyline.
        calls = []
        curve_points = lexell._curve_points

        def counted(hc, positions, mirrored):
            calls.append(hc)
            return curve_points(hc, positions, mirrored)

        monkeypatch.setattr(lexell, "_curve_points", counted)
        base = BaseConfig.from_half_distance(0.8)
        leaves = foliation(base, [0.3, 0.8, 1.2])
        scene = render.scene_for_foliation(base, tuple(leaves))
        assert calls == [leaf.carrier for leaf in leaves]
        for leaf, polyline in zip(leaves, scene.polylines):
            assert polyline == render.polyline_for_hypercycle(leaf.carrier)

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.8, 1.5, 3.0, 4.5, 5.0])
    def test_dense_leaf_scan_accepts_leaves_up_to_the_supremum(self, x):
        # The leaf scan reads each leaf's 65-point standard sample set;
        # it must accept every foliation a 50-point scan accepted, up to
        # targets 1e-13 short of the supremum, where a carrier's offset
        # exceeds fifteen.
        base = BaseConfig.from_half_distance(x)
        limit = max_apex_area(x)
        fractions = [1e-3, 0.01, 0.1, 0.3, 0.5, 0.7] + [1.0 - 10.0**-j for j in range(1, 14)]
        targets = [f * limit for f in fractions]
        leaves = foliation(base, targets)
        assert len(leaves) == len(targets)
        for leaf, target in zip(leaves, targets):
            assert abs(leaf.area - target) <= TOL_AREA

    def test_unreachable_area_rejected(self):
        base = BaseConfig.from_half_distance(0.8)
        limit = max_apex_area(0.8)
        with pytest.raises(InfeasibleAreaError):
            foliation(base, [limit + 0.1])
        with pytest.raises(InfeasibleAreaError):
            foliation(base, [0.0])


class TestIdealCase:
    def test_frozen_values(self):
        assert 2.0 * _right_area(math.inf, 1.0) == pytest.approx(
            1.731538966479317, abs=1e-15
        )
        assert sinh_c_from_angles(0.6, 0.9) == pytest.approx(
            3.2714147607748343, abs=1e-13
        )
        assert cosh_c_from_angles(0.6, 0.9) == pytest.approx(
            3.4208412031275977, abs=1e-13
        )

    def test_hyperbolic_identity_campaign(self):
        worst = 0.0
        for i in range(300):
            rng = substream("ideal-id", 11, i)
            alpha = 0.05 + rng.random() * (math.pi - 0.2)
            beta = 0.05 + rng.random() * max(math.pi - 0.1 - alpha - 0.05, 0.01)
            if alpha + beta > math.pi - 0.1:
                continue
            sh = sinh_c_from_angles(alpha, beta)
            ch = cosh_c_from_angles(alpha, beta)
            worst = max(worst, abs(ch * ch - sh * sh - 1.0))
        assert worst < 1e-10

    def test_right_angles_collapse_the_distance(self):
        assert sinh_c_from_angles(math.pi / 2.0, math.pi / 2.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_area_approaches_pi(self):
        assert 2.0 * _right_area(math.inf, 30.0) == pytest.approx(math.pi, abs=1e-12)

    def test_matches_apex_supremum(self):
        # Two ways to the same quantity: the apex-height supremum over a
        # base of half-length c, and the two-ideal-vertex area at apex
        # distance c.  Both reduce to 2*arctan(sinh c).
        for c in (0.4, 1.0, 2.3):
            assert max_apex_area(c) == pytest.approx(
                2.0 * _right_area(math.inf, c), abs=1e-12
            )

    def test_truncated_synthetic_agrees(self):
        for c in (0.3, 0.7, 1.2, 2.0):
            assert truncated_ideal_area(c) == pytest.approx(
                2.0 * _right_area(math.inf, c), abs=2e-6
            )

    def test_longer_truncation_converges_further(self):
        for c in (0.7, 2.0):
            ideal = 2.0 * _right_area(math.inf, c)
            gap15 = abs(truncated_ideal_area(c, 15.0) - ideal)
            gap20 = abs(truncated_ideal_area(c, 20.0) - ideal)
            assert gap20 < gap15 / 100.0
            assert gap20 < 1e-8


class TestClosedFormsMatchTheirOracles:
    # The model's polar coordinates and the bisector mirror are written in
    # closed form; each must equal, by repr, so signed zeros included, the
    # composition it stands for (tests/hyperboloid_oracles.py): the
    # exponential map from the origin's tangent basis and the reflection
    # through the bisector's unit normal.

    @staticmethod
    def _hold(p):
        assert repr(_bisector_mirror(p)) == repr(reflect_across(BISECTOR, p)), p

    def test_on_a_seeded_grid(self):
        rng = random.Random("mirror-oracle")
        for _ in range(5000):
            theta, r = rng.uniform(-7.0, 7.0), rng.uniform(-8.0, 8.0)
            p = HYP.polar(theta, r)
            assert repr(p) == repr(polar(theta, r))
            self._hold(p)
            self._hold(_disk_apex(rng.uniform(0.0, 0.999), rng.uniform(0.0, 2.0 * math.pi)))
        # Apexes with v1 = 0, of either sign, keep that zero's sign.
        for w in (-0.6, -0.1, 0.3, 0.9):
            p = k.disk_to_hpoint(k.DiskPoint(0.0, w))
            self._hold(p)
            self._hold(HPoint((p.v[0], -0.0, p.v[2])))
        assert repr(_bisector_mirror(HPoint((1.0, -0.0, 0.0))).v) == "(1.0, -0.0, 0.0)"

    def test_on_campaign_apexes(self):
        from ccplane.verify import _CAMPAIGNS

        draw, _ = _CAMPAIGNS["lexell"]()
        for i in range(300):
            base, p, _ = draw(Geometry.HYPERBOLIC, k.substream("verify-lexell-hyperbolic", 7, i))
            x = base.half_distance
            assert (repr(base.a), repr(base.b)) == (repr(polar(0.0, x)), repr(polar(0.0, -x)))
            self._hold(p)

    def test_on_apex_y_apexes(self):
        import argparse

        from ccplane.cli import _lexell_apex

        for i in range(1, 801):
            y = 0.05 * i
            p = _lexell_apex(argparse.Namespace(apex_y=y, apex=None))
            assert repr(p) == repr(polar(math.pi / 2.0, y))
            self._hold(p)
