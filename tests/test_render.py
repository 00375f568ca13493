"""Disk figures: arc geometry, scene invariants, SVG serialization."""

import math
import random
import xml.etree.ElementTree as ET

import pytest

from ccplane import kernel as k
from ccplane import render
from ccplane.errors import DomainError, GeometryError, OutOfModelError
from ccplane.kernel import Geometry, HPoint
from ccplane.lexell import (
    BaseConfig,
    Hypercycle,
    foliation,
    hypercycle_samples,
    lexell_locus,
)
from ccplane.render import (
    RenderScene,
    SceneArc,
    SceneChord,
    arc_for_geodesic,
    arc_for_segment,
    disk_xy,
    polyline_for_hypercycle,
    scene_for_foliation,
    scene_for_frame,
    scene_for_locus,
    scene_to_svg,
    validate_scene,
)
from ccplane.sampling import sample_frame, substream
from hyperboloid_oracles import point_along, tangent_direction

HYP = Geometry.HYPERBOLIC.model


def _random_geodesic(rng):
    p = HYP.polar(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.2, 2.5))
    q = point_along(
        p, tangent_direction(p, rng.uniform(0.0, 2.0 * math.pi)),
        rng.uniform(0.5, 2.0),
    )
    return HYP.line(p, q), p, q


class TestIdealEndpoints:
    def test_endpoints_on_unit_circle_and_on_the_line(self):
        rng = substream("render-ideal", 7)
        for _ in range(100):
            g, _, _ = _random_geodesic(rng)
            l0, l1, l2 = g
            for x, y in k.ideal_endpoints(g):
                assert abs(x * x + y * y - 1.0) < 1e-12
                assert abs(l0 + l1 * x + l2 * y) < 1e-12


class TestArcGeometry:
    def test_orthogonality_identity(self):
        # An arc circle through two boundary points meets the boundary
        # at right angles exactly when |c|^2 = r^2 + 1.
        rng = substream("render-ortho", 7)
        for _ in range(100):
            g, _, _ = _random_geodesic(rng)
            arc = arc_for_geodesic(g)
            if isinstance(arc, SceneChord):
                continue
            assert abs(arc.cx**2 + arc.cy**2 - (arc.r**2 + 1.0)) < 1e-9

    def test_through_origin_becomes_chord(self):
        p = HYP.polar(0.7, 1.0)
        g = HYP.line(k.ORIGIN, p)
        arc = arc_for_geodesic(g)
        assert isinstance(arc, SceneChord)
        # A diameter's endpoints are antipodal on the boundary.
        assert abs(arc.x1 + arc.x2) < 1e-12
        assert abs(arc.y1 + arc.y2) < 1e-12

    def test_segment_endpoints_are_the_disk_images(self):
        rng = substream("render-seg", 7)
        for _ in range(50):
            g, p, q = _random_geodesic(rng)
            arc = arc_for_segment(p, q)
            (x1, y1), (x2, y2) = disk_xy(p), disk_xy(q)
            assert (arc.x1, arc.y1) == pytest.approx((x1, y1), abs=1e-15)
            assert (arc.x2, arc.y2) == pytest.approx((x2, y2), abs=1e-15)
            if isinstance(arc, SceneArc):
                for ex, ey in ((arc.x1, arc.y1), (arc.x2, arc.y2)):
                    assert abs(math.hypot(ex - arc.cx, ey - arc.cy) - arc.r) < 1e-9

    def test_segment_arc_shares_the_full_geodesic_circle(self):
        rng = substream("render-share", 7)
        g, p, q = _random_geodesic(rng)
        full = arc_for_geodesic(g)
        part = arc_for_segment(p, q)
        if isinstance(full, SceneArc) and isinstance(part, SceneArc):
            assert part.cx == pytest.approx(full.cx, abs=1e-12)
            assert part.cy == pytest.approx(full.cy, abs=1e-12)
            assert part.r == pytest.approx(full.r, abs=1e-12)


    @pytest.mark.parametrize("l0", [1e-3, 1e-5, 3e-7, 1e-7, 1e-12, 0.0])
    def test_near_diameters_validate(self, l0):
        # Far from the center the circle's noise grows as eps * r^2; the
        # check must absorb it, and below the drawing resolution a
        # straight chord stands in for the arc.
        l = math.sqrt(1.0 + l0 * l0)
        for sign in (1.0, -1.0):
            arc = arc_for_geodesic((sign * l0, 0.6 * l, 0.8 * l))
            chord = isinstance(arc, SceneChord)
            validate_scene(RenderScene(chords=(arc,)) if chord else RenderScene(arcs=(arc,)))
            assert chord == (l0 <= 1e-4 / 480.0)


class TestHypercyclePolyline:
    def test_sample_count_and_containment(self):
        hc = Hypercycle((0.0, 0.0, 1.0), 0.6)
        pl = polyline_for_hypercycle(hc)
        assert len(pl.points) == render.HYPERCYCLE_SEGMENTS + 1
        for x, y in pl.points:
            assert x * x + y * y < 1.0

    def test_points_are_the_disk_images_of_the_samples(self):
        rng = random.Random(12)
        for _ in range(20):
            g, _, _ = _random_geodesic(rng)
            hc = Hypercycle(g, rng.uniform(-4.0, 4.0))
            want = [
                disk_xy(HPoint(z))
                for z in hypercycle_samples(hc, render.HYPERCYCLE_SEGMENTS + 1)
            ]
            assert polyline_for_hypercycle(hc).points == tuple(want)

    def test_sample_on_the_boundary_rejected(self):
        # At offset 40 the disk image of a sample rounds onto the unit
        # circle; the polyline refuses it as DiskPoint does.
        hc = Hypercycle((0.0, 0.0, 1.0), 40.0)
        with pytest.raises(OutOfModelError):
            disk_xy(HPoint(hypercycle_samples(hc, render.HYPERCYCLE_SEGMENTS + 1)[0]))
        with pytest.raises(OutOfModelError, match="outside the open unit disk"):
            polyline_for_hypercycle(hc)


class TestSceneBuilders:
    def test_frame_scene_validates_and_labels(self):
        frame = sample_frame(Geometry.HYPERBOLIC, substream("render-frame", 3))
        scene = scene_for_frame(frame)
        validate_scene(scene)
        assert {p.label for p in scene.points} == {"A", "B", "C", "O", "D", "E", "F"}
        assert len(scene.arcs) + len(scene.chords) == 6
        assert len(scene.triangles) == 1

    def test_frame_figures_render_for_every_seed(self):
        # The seeds of ``ccplane render frame --seed N``; near-diameter
        # sides and cevians among them once failed the orthogonality check.
        for seed in range(-1, 400):
            frame = sample_frame(Geometry.HYPERBOLIC, substream("render-frame", seed))
            scene_to_svg(scene_for_frame(frame))

    def test_spherical_frame_rejected(self):
        frame = sample_frame(Geometry.SPHERICAL, substream("render-frame", 4))
        with pytest.raises(DomainError):
            scene_for_frame(frame)

    def test_locus_scene_validates(self):
        base = BaseConfig.from_half_distance(0.8)
        apex = k.disk_to_hpoint(k.DiskPoint(0.1, 0.4))
        locus = lexell_locus(base, apex)
        scene = scene_for_locus(locus, apex)
        validate_scene(scene)
        labels = {p.label for p in scene.points}
        assert labels == {"A", "B", "P", "C", "C′", "G"}
        styles = {pl.style for pl in scene.polylines}
        assert styles == {"carrier", "mirror"}

    def test_foliation_scene_validates(self):
        base = BaseConfig.from_half_distance(0.8)
        leaves = tuple(foliation(base, [0.3, 0.8, 1.2]))
        scene = scene_for_foliation(base, leaves)
        validate_scene(scene)
        assert len(scene.polylines) == 3


class TestValidateScene:
    def test_rejects_point_outside_disk(self):
        scene = RenderScene(points=(render.ScenePoint(1.2, 0.0, "X"),))
        with pytest.raises(GeometryError):
            validate_scene(scene)

    def test_rejects_non_orthogonal_arc(self):
        # Center too close to the origin for its radius.
        arc = SceneArc(0.5, 0.0, 0.0, 0.5, 0.6, 0.6, 0.6)
        with pytest.raises(GeometryError):
            validate_scene(RenderScene(arcs=(arc,)))

    def test_rejects_endpoint_off_circle(self):
        # Orthogonal circle, but the first endpoint is nowhere near it.
        r = 1.0
        cx = cy = math.sqrt(2.0) / 2.0 * math.sqrt(2.0)  # |c|^2 = 2 = r^2 + 1
        arc = SceneArc(0.0, 0.0, cx - r, cy, cx, cy, r)
        with pytest.raises(GeometryError):
            validate_scene(RenderScene(arcs=(arc,)))


class TestSvg:
    def test_well_formed_and_deterministic(self):
        frame = sample_frame(Geometry.HYPERBOLIC, substream("render-svg", 5))
        scene = scene_for_frame(frame)
        svg = scene_to_svg(scene)
        assert svg == scene_to_svg(scene)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        texts = root.findall("s:text", ns)
        assert {t.text for t in texts} == {"A", "B", "C", "O", "D", "E", "F"}
        assert len(root.findall("s:path", ns)) + len(root.findall("s:line", ns)) == 6
        assert len(root.findall("s:polygon", ns)) == 1

    def test_boundary_circle_present(self):
        base = BaseConfig.from_half_distance(0.7)
        apex = k.disk_to_hpoint(k.DiskPoint(0.0, 0.35))
        scene = scene_for_locus(lexell_locus(base, apex), apex)
        root = ET.fromstring(scene_to_svg(scene))
        ns = {"s": "http://www.w3.org/2000/svg"}
        circles = root.findall("s:circle", ns)
        assert any(c.get("class") == "boundary" for c in circles)
        assert len(root.findall("s:polyline", ns)) == 2

    def test_invalid_scene_refused(self):
        scene = RenderScene(points=(render.ScenePoint(2.0, 0.0, "X"),))
        with pytest.raises(GeometryError):
            scene_to_svg(scene)
