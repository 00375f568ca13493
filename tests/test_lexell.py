"""Area profile, split areas, constant-area locus, foliation, ideal case."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplane import kernel as k
from ccplane import lexell
from ccplane.cevians import Triangle
from ccplane.corevec import mcross, minner
from ccplane.errors import (
    DegenerateInputError,
    DomainError,
    GeometryError,
    InfeasibleAreaError,
)
from ccplane.kernel import (
    ORIGIN,
    Geodesic,
    Geometry,
    angle_at,
    foot_of_perpendicular,
    geodesic_residual,
    geodesic_through,
    point_along,
    reflect_across,
    tangent_direction,
)
from ccplane.lexell import (
    SAMPLE_RANGE,
    BaseConfig,
    Hypercycle,
    apex_area_formula,
    apex_triangle,
    area_profile,
    area_profile_deriv,
    chord_crossing,
    chord_split,
    cosh_c_from_angles,
    equal_subarc_check,
    foliation,
    hypercycle_point,
    hypercycle_residual,
    hypercycle_samples,
    ideal_limit_area,
    lexell_locus,
    locus_residuals,
    max_apex_area,
    sinh_c_from_angles,
    split_area_limits,
    split_areas,
    triangle_area,
    truncated_ideal_area,
)
from ccplane.lexell import _deficit
from ccplane.sampling import substream

BISECTOR = Geodesic((0.0, 1.0, 0.0))


def _perp_apex(height: float):
    return point_along(ORIGIN, tangent_direction(ORIGIN, math.pi / 2.0), height)


class TestAreaProfile:
    def test_frozen_values(self):
        assert area_profile(1.0, 2.0) == pytest.approx(0.8670927065821965, abs=1e-15)
        assert area_profile_deriv(1.0, 2.0) == pytest.approx(
            -0.08271674606398696, abs=1e-15
        )

    def test_profile_reduces_to_simple_quotient(self):
        # (cu-1)(c+u)/((cu)^2-1) collapses to (c+u)/(cu+1); both forms
        # must agree, which guards the published shape against typos.
        for x, u in ((0.5, 1.3), (1.0, 4.0), (2.0, 17.0)):
            c = math.cosh(x)
            assert area_profile(x, u) == pytest.approx((c + u) / (c * u + 1.0), abs=1e-15)

    def test_value_at_one_is_one(self):
        for x in (0.3, 1.0, 2.5):
            assert area_profile(x, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_derivative_matches_finite_differences(self):
        worst = 0.0
        for x in (0.5, 1.0, 2.0):
            for j in range(60):
                u = 1.01 + (20.0 - 1.01) * j / 59
                h = 1e-5
                fd = (area_profile(x, u + h) - area_profile(x, u - h)) / (2.0 * h)
                cf = area_profile_deriv(x, u)
                assert cf < 0.0
                worst = max(worst, abs(cf - fd) / abs(cf))
        assert worst < 1e-7

    def test_derivative_vanishes_with_flat_base(self):
        assert abs(area_profile_deriv(1e-8, 3.0)) < 1e-15

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            area_profile(-1.0, 2.0)
        with pytest.raises(DomainError):
            area_profile(1.0, 0.5)
        with pytest.raises(DomainError):
            area_profile_deriv(1.0, 0.9)


class TestApexArea:
    def test_frozen_value(self):
        assert apex_area_formula(0.8, 1.0) == pytest.approx(
            0.6952371307430942, abs=1e-15
        )

    def test_matches_synthetic_deficit(self):
        worst = 0.0
        for i in range(200):
            rng = substream("apex-syn", 11, i)
            x = 0.2 + 2.8 * rng.random()
            y = 0.2 + 2.8 * rng.random()
            va, vb, p = apex_triangle(x, 0.0, y)
            worst = max(worst, abs(apex_area_formula(x, y) - _deficit(p, va, vb)))
        assert worst < 1e-12

    def test_strictly_increasing_in_height(self):
        for x in (0.4, 1.0, 2.2):
            values = [apex_area_formula(x, 0.05 * (j + 1)) for j in range(60)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_height_limit(self):
        assert apex_area_formula(1.0, 1e-7) < 1e-6

    def test_supremum_bounds_all_heights(self):
        for x in (0.5, 1.0, 3.0):
            sup = max_apex_area(x)
            assert apex_area_formula(x, 20.0) < sup
            assert abs(sup - apex_area_formula(x, 39.0)) < 1e-12

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            apex_area_formula(1.0, 0.0)
        with pytest.raises(DomainError):
            apex_area_formula(1.0, 41.0)

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(min_value=0.2, max_value=3.0),
        y1=st.floats(min_value=0.1, max_value=5.0),
        dy=st.floats(min_value=1e-3, max_value=3.0),
    )
    def test_monotone_property(self, x, y1, dy):
        assert apex_area_formula(x, y1 + dy) > apex_area_formula(x, y1)


class TestSplitAreas:
    def test_frozen_values(self):
        d1, d2 = split_areas(1.0, 0.3, 0.7)
        assert d1 == pytest.approx(0.2253386358938389, abs=1e-15)
        assert d2 == pytest.approx(0.3799536317391303, abs=1e-15)
        l1, l2 = split_area_limits(1.0, 0.3)
        assert l1 == pytest.approx(0.6489720817836955, abs=1e-15)
        assert l2 == pytest.approx(1.0386561395143918, abs=1e-15)

    def test_symmetric_split_halves_the_apex_area(self):
        for x, t in ((0.7, 0.9), (1.5, 2.0)):
            d1, d2 = split_areas(x, 0.0, t)
            assert d1 == pytest.approx(d2, abs=1e-15)
            assert d1 + d2 == pytest.approx(apex_area_formula(x, t), abs=1e-14)

    def test_zero_height_gives_zero_areas(self):
        assert split_areas(1.0, 0.4, 0.0) == (0.0, 0.0)

    def test_sum_matches_synthetic_and_pieces_match_right_triangles(self):
        worst = 0.0
        for i in range(200):
            rng = substream("split-syn", 11, i)
            x = 0.2 + 2.8 * rng.random()
            a = (2.0 * rng.random() - 1.0) * 0.9 * x
            t = 0.2 + 2.8 * rng.random()
            va, vb, p = apex_triangle(x, a, t)
            foot = point_along(ORIGIN, tangent_direction(ORIGIN, 0.0), a)
            d1, d2 = split_areas(x, a, t)
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
            d1, d2 = split_areas(1.2, 0.5, t)
            firsts.append(d1)
            seconds.append(d2)
        assert all(b > a for a, b in zip(firsts, firsts[1:]))
        assert all(b > a for a, b in zip(seconds, seconds[1:]))

    def test_tall_apex_approaches_ideal_limits(self):
        for x, a in ((0.5, 0.2), (1.0, -0.7), (2.0, 1.1), (3.0, 0.0)):
            d1, d2 = split_areas(x, a, 20.0)
            l1, l2 = split_area_limits(x, a)
            assert d1 + d2 == pytest.approx(l1 + l2, abs=1e-7)
            assert d1 < l1 and d2 < l2

    def test_foot_outside_base_rejected(self):
        with pytest.raises(DomainError):
            split_areas(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            split_area_limits(1.0, -1.2)


class TestTriangleArea:
    def test_requires_hyperbolic(self):
        tri = Triangle(Geometry.EUCLIDEAN, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(DomainError):
            triangle_area(tri)

    def test_thin_triangle_has_small_area(self):
        va, vb, p = apex_triangle(1.0, 0.0, 1e-4)
        tri = Triangle(Geometry.HYPERBOLIC, va, vb, p)
        assert 0.0 < triangle_area(tri) < 1e-3

    def test_area_below_pi(self):
        for i in range(20):
            rng = substream("areapi", 1, i)
            x = 0.3 + 2.0 * rng.random()
            t = 0.3 + 3.0 * rng.random()
            va, vb, p = apex_triangle(x, 0.0, t)
            assert 0.0 < triangle_area(Triangle(Geometry.HYPERBOLIC, va, vb, p)) < math.pi


class TestFarVertexAngles:
    def test_small_angle_at_distant_vertex(self):
        # Right triangle with legs 15 (adjacent) and h (opposite): the
        # angle at the far vertex obeys tan = tanh(h)/sinh(15), which a
        # naive tangent Gram computation gets wrong by many orders.
        far = point_along(ORIGIN, tangent_direction(ORIGIN, 0.0), 15.0)
        for h in (0.3, 0.7, 1.2):
            p = _perp_apex(h)
            expected = math.atan(math.tanh(h) / math.sinh(15.0))
            assert angle_at(far, ORIGIN, p) == pytest.approx(expected, rel=1e-9)


class TestHypercycle:
    def test_points_keep_their_offset(self):
        hc = Hypercycle(Geodesic((0.0, 0.0, 1.0)), 0.8)
        for s in (-3.0, -0.7, 0.0, 1.1, 3.0):
            assert hypercycle_residual(hc, hypercycle_point(hc, s)) < 1e-12

    def test_zero_offset_is_the_axis(self):
        axis = Geodesic((0.0, 0.0, 1.0))
        hc = Hypercycle(axis, 0.0)
        for s in (-2.0, 0.5, 2.0):
            assert geodesic_residual(axis, hypercycle_point(hc, s)) < 1e-12

    def test_parameter_is_axis_arclength(self):
        from ccplane.kernel import hdist

        hc = Hypercycle(Geodesic((0.0, 0.0, 1.0)), 0.0)
        p0 = hypercycle_point(hc, 0.0)
        p1 = hypercycle_point(hc, 1.5)
        assert hdist(p0, p1) == pytest.approx(1.5, abs=1e-12)

    def test_cached_axis_frame_is_bit_identical(self, monkeypatch):
        # Each curve finds the foot of the origin on its axis once; every
        # point, sample and residual must then equal, bit for bit, the
        # formulas that rebuild the whole frame on each call.
        feet = []

        def counted_foot(p, g):
            feet.append(g)
            return foot_of_perpendicular(p, g)

        monkeypatch.setattr(k, "foot_of_perpendicular", counted_foot)
        rng = random.Random(2024)
        for _ in range(200):
            p = point_along(
                ORIGIN, tangent_direction(ORIGIN, rng.uniform(0.0, 2.0 * math.pi)),
                rng.uniform(0.0, 3.0),
            )
            axis = geodesic_through(
                p, point_along(p, tangent_direction(p, rng.uniform(0.0, 2.0 * math.pi)),
                               rng.uniform(0.5, 3.0)),
            )
            g0 = foot_of_perpendicular(ORIGIN, axis).v
            u0 = mcross(g0, axis.normal)
            offset = rng.uniform(-5.0, 5.0)
            co, so = math.cosh(offset), math.sinh(offset)

            def reference(s):
                gs = tuple(math.cosh(s) * g0[i] + math.sinh(s) * u0[i] for i in range(3))
                return tuple(co * gs[i] + so * axis.normal[i] for i in range(3))

            hc = Hypercycle(axis, offset)
            del feet[:]
            for _ in range(5):
                s = rng.uniform(-3.0, 3.0)
                z = hypercycle_point(hc, s)
                assert z.v == reference(s)
                assert hypercycle_residual(hc, z) == abs(
                    minner(z.v, axis.normal) - math.sinh(offset)
                )
            step = 2.0 * SAMPLE_RANGE / 6
            want = [reference(-SAMPLE_RANGE + i * step) for i in range(7)]
            assert [z.v for z in hypercycle_samples(hc, 7)] == want
            assert feet == [axis]

    def test_nonfinite_offset_rejected(self):
        axis = Geodesic((0.0, 0.0, 1.0))
        for offset in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                Hypercycle(axis, offset)

    def test_overflowing_offset_rejected(self):
        # From an offset of about 354.5 no point of the curve fits a float.
        for offset in (400.0, 800.0):
            with pytest.raises(DomainError):
                Hypercycle(Geodesic((0.0, 0.0, 1.0)), offset)

    def test_nonfinite_position_rejected(self):
        hc = Hypercycle(Geodesic((0.0, 0.0, 1.0)), 0.5)
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                hypercycle_point(hc, s)

    def test_overflowing_position_rejected(self):
        hc = Hypercycle(Geodesic((0.0, 0.0, 1.0)), 0.5)
        with pytest.raises(DomainError):
            hypercycle_point(hc, 1000.0)

    def test_unrepresentable_point_rejected(self):
        # Beyond the reach the coordinates overflow a float; inside it the
        # point is built and lies on the curve.
        hc = Hypercycle(Geodesic((0.0, 0.0, 1.0)), 300.0)
        for s in (100.0, 300.0, 700.0):
            with pytest.raises(DomainError):
                hypercycle_point(hc, s)
        for s in (-50.0, 50.0):
            z = hypercycle_point(hc, s)
            assert hypercycle_residual(hc, z) <= 1e-12 * math.sinh(300.0)

    def test_too_few_samples_rejected(self):
        hc = Hypercycle(Geodesic((0.0, 0.0, 1.0)), 0.6)
        with pytest.raises(DomainError):
            hypercycle_samples(hc, 1)


class TestBaseConfig:
    def test_factory_round_trip(self):
        from ccplane.kernel import hdist

        base = BaseConfig.from_half_distance(0.8)
        assert hdist(base.a, base.b) == pytest.approx(1.6, abs=1e-12)
        assert geodesic_residual(base.base_line(), ORIGIN) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            BaseConfig.from_half_distance(0.0)
        with pytest.raises(DomainError):
            BaseConfig.from_half_distance(5.5)

    def test_asymmetric_vertices_rejected(self):
        a = point_along(ORIGIN, tangent_direction(ORIGIN, 0.0), 1.0)
        b = point_along(ORIGIN, tangent_direction(ORIGIN, 0.3), 1.0)
        with pytest.raises(DomainError):
            BaseConfig(a, b, 1.0)


class TestLexellLocus:
    def test_on_axis_apex_reproduces_apex_formula(self):
        base = BaseConfig.from_half_distance(0.8)
        locus = lexell_locus(base, _perp_apex(1.0))
        assert locus.area == pytest.approx(apex_area_formula(0.8, 1.0), abs=1e-12)
        assert locus.carrier.offset == pytest.approx(0.5668110250377684, abs=1e-12)

    def test_apex_lies_on_its_carrier(self):
        base = BaseConfig.from_half_distance(1.1)
        p = point_along(ORIGIN, tangent_direction(ORIGIN, 0.9), 1.4)
        locus = lexell_locus(base, p)
        assert hypercycle_residual(locus.carrier, p) < 1e-12

    def test_mirrored_apex_gives_matching_locus(self):
        base = BaseConfig.from_half_distance(0.8)
        p = point_along(ORIGIN, tangent_direction(ORIGIN, 1.1), 1.3)
        l1 = lexell_locus(base, p)
        l2 = lexell_locus(base, reflect_across(BISECTOR, p))
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
                p = point_along(ORIGIN, tangent_direction(ORIGIN, th), r)
                if geodesic_residual(base.base_line(), p) > 0.05:
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

    def test_apex_on_base_line_rejected(self):
        base = BaseConfig.from_half_distance(0.8)
        on_line = point_along(ORIGIN, tangent_direction(ORIGIN, 0.0), 0.3)
        with pytest.raises(DegenerateInputError):
            lexell_locus(base, on_line)

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
                assert geodesic_residual(locus.carrier.axis, x) < 1e-12
                assert geodesic_residual(geodesic_through(z1, z2), x) < 1e-12
                d1, d2 = chord_split(z1, z2, locus.carrier.axis)
                assert (d1, d2) == (k.hdist(z1, x), k.hdist(x, z2))

    def test_one_substream_per_check(self, monkeypatch):
        seeded = []

        def counting(*args):
            seeded.append(args)
            return substream(*args)

        monkeypatch.setattr(lexell, "substream", counting)
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
                moved = replace(locus, mirror=Hypercycle(axis, -o + delta))
                return equal_subarc_check(moved, 50, seed=i)

            assert residual(0.0) < 1e-12
            slope = residual(1e-6) / 1e-6
            assert slope * 1e-6 > 1e-9
            for delta in (1e-9, 1e-8, 1e-7):
                assert residual(delta) / delta == pytest.approx(slope, rel=1e-4)

    def test_same_side_chord_rejected(self):
        base = BaseConfig.from_half_distance(0.9)
        locus = lexell_locus(base, _perp_apex(1.2))
        z1 = hypercycle_point(locus.carrier, -1.0)
        z2 = hypercycle_point(locus.carrier, 1.0)
        with pytest.raises(DomainError):
            chord_split(z1, z2, locus.carrier.axis)


class TestFoliation:
    def test_inverse_recovers_forward_height(self):
        base = BaseConfig.from_half_distance(0.8)
        target = apex_area_formula(0.8, 1.0)
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

    def test_unreachable_area_rejected(self):
        base = BaseConfig.from_half_distance(0.8)
        limit = max_apex_area(0.8)
        with pytest.raises(InfeasibleAreaError):
            foliation(base, [limit + 0.1])
        with pytest.raises(InfeasibleAreaError):
            foliation(base, [0.0])


class TestIdealCase:
    def test_frozen_values(self):
        assert ideal_limit_area(1.0) == pytest.approx(1.731538966479317, abs=1e-15)
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
        assert ideal_limit_area(30.0) == pytest.approx(math.pi, abs=1e-12)

    def test_matches_apex_supremum(self):
        # Two ways to the same quantity: the apex-height supremum over a
        # base of half-length c, and the two-ideal-vertex area at apex
        # distance c.  Both reduce to 2*arctan(sinh c).
        for c in (0.4, 1.0, 2.3):
            assert max_apex_area(c) == pytest.approx(ideal_limit_area(c), abs=1e-12)

    def test_truncated_synthetic_agrees(self):
        for c in (0.3, 0.7, 1.2, 2.0):
            assert truncated_ideal_area(c) == pytest.approx(
                ideal_limit_area(c), abs=2e-6
            )

    def test_longer_truncation_converges_further(self):
        for c in (0.7, 2.0):
            gap15 = abs(truncated_ideal_area(c, 15.0) - ideal_limit_area(c))
            gap20 = abs(truncated_ideal_area(c, 20.0) - ideal_limit_area(c))
            assert gap20 < gap15 / 100.0
            assert gap20 < 1e-8

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            ideal_limit_area(0.0)
        with pytest.raises(DomainError):
            sinh_c_from_angles(2.0, 2.0)
        with pytest.raises(DomainError):
            cosh_c_from_angles(0.0, 1.0)
