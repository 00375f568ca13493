"""Disk-model figures: scene assembly, invariant checks, SVG output.

Everything here works in conformal disk coordinates.  Geodesics become
circular arcs meeting the unit circle at right angles (or straight
chords through the center); hypercycles are drawn as sampled polylines
since they meet the boundary obliquely and no single circular arc
shared with the validation rule applies.  A hypercycle's polyline runs
through the curve's own standard sample set, ``Hypercycle.samples``;
``lexell`` alone fixes its size (``HYPERCYCLE_SEGMENTS``), and a locus
figure's carrier and mirror take that count from there.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from . import kernel as k
from .errors import DomainError, GeometryError, OutOfModelError
from .kernel import Geometry, HPoint, Record, Vec3

# CevianFrame (cevians) and AreaLocus, BaseConfig and Hypercycle (lexell)
# appear in annotations only, which are never evaluated: a frame figure
# does not load lexell, nor a locus cevians.

# The disk draws the hyperbolic plane; its model builds the segment lines.
_MODEL = Geometry.HYPERBOLIC.model

# Interior coordinates may poke out of the unit circle by rounding only.
_DISK_SLACK = 1e-9
# Orthogonality of arc circles against the boundary: |c|^2 = r^2 + 1.
_ORTHO_TOL = 1e-6
# Rounding of |c|^2 - r^2 - 1 stays below this times (1 + r^2).
_ORTHO_NOISE = 8.0 * sys.float_info.epsilon

XY = tuple[float, float]


class ScenePoint(Record):
    """Labeled marker at disk coordinates."""

    __slots__ = ("x", "y", "label", "style")
    _defaults = {"style": "point"}


class SceneArc(Record):
    """Arc of a circle orthogonal to the unit circle.

    The endpoints are where drawing starts and stops; the full circle
    has center (cx, cy) outside the disk and radius r.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "cx", "cy", "r", "style")
    _defaults = {"style": "side"}


class SceneChord(Record):
    """Straight segment; the arc degenerates for geodesics through 0."""

    __slots__ = ("x1", "y1", "x2", "y2", "style")
    _defaults = {"style": "side"}


class ScenePolyline(Record):
    """Sampled curve, used for hypercycles."""

    __slots__ = ("points", "style")
    _defaults = {"style": "carrier"}


class SceneTriangle(Record):
    """Shaded triangle, straight-edged in disk coordinates."""

    __slots__ = ("vertices", "style")
    _defaults = {"style": "fill"}


class RenderScene(Record):
    """Complete figure: every element in closed-unit-disk coordinates."""

    __slots__ = ("points", "arcs", "chords", "polylines", "triangles")
    _defaults = dict.fromkeys(__slots__, ())


def disk_xy(p: HPoint) -> XY:
    """Disk coordinates of a hyperboloid point."""
    d = k.hpoint_to_disk(p)
    return (d.u, d.w)


def _arc_or_chord(l: Vec3, start: XY, end: XY, style: str) -> SceneArc | SceneChord:
    # The geodesic's circle has center -(l1, l2)/l0 and radius 1/|l0|,
    # so |c|^2 - r^2 = (l1^2 + l2^2 - l0^2)/l0^2 = 1 up to rounding.  It
    # strays from a straight line by at most |l0|/2 inside the disk;
    # below the drawing resolution the straight chord is drawn instead.
    l0, l1, l2 = l
    if abs(l0) <= _DRAW_RESOLUTION:
        return SceneChord(start[0], start[1], end[0], end[1], style=style)
    return SceneArc(
        start[0], start[1], end[0], end[1], -l1 / l0, -l2 / l0, 1.0 / abs(l0), style=style
    )


def arc_for_geodesic(l: Vec3, style: str = "side") -> SceneArc | SceneChord:
    """Full geodesic, given by its line covector, as a boundary-to-boundary
    arc or diameter."""
    u, v = k.ideal_endpoints(l)
    return _arc_or_chord(l, u, v, style)


def arc_for_segment(p: HPoint, q: HPoint, style: str = "side") -> SceneArc | SceneChord:
    """Geodesic segment between two points as an arc or chord."""
    return _arc_or_chord(_MODEL.line(p, q), disk_xy(p), disk_xy(q), style)


def polyline_for_hypercycle(hc: Hypercycle, style: str = "carrier") -> ScenePolyline:
    """Hypercycle through its cached standard sample set, ``hc.samples``
    (evenly spaced axis arclengths); see ``_polyline``."""
    return _polyline(hc.samples, style)


def _disk_points(vectors: Sequence[Vec3]) -> list[XY]:
    """Disk coordinates of hyperboloid vectors already through HPoint's
    sheet check: each goes there as ``disk_xy`` takes a point, under
    DiskPoint's check that it lies inside the open unit disk, and builds
    neither point."""
    pts = []
    for v0, v1, v2 in vectors:
        f = 1.0 / (1.0 + v0)
        u, w = v1 * f, v2 * f
        if not (u * u + w * w < 1.0):
            raise OutOfModelError(f"outside the open unit disk: ({u}, {w})")
        pts.append((u, w))
    return pts


def _polyline(vectors: Sequence[Vec3], style: str) -> ScenePolyline:
    """Polyline through checked hyperboloid vectors; see ``_disk_points``."""
    return ScenePolyline(tuple(_disk_points(vectors)), style=style)


def _point(p: HPoint, label: str) -> ScenePoint:
    x, y = disk_xy(p)
    return ScenePoint(x, y, label)


def scene_for_frame(frame: CevianFrame) -> RenderScene:
    """Triangle, cevians and their feet for one cevian frame."""
    tri = frame.tri
    if tri.geometry is not Geometry.HYPERBOLIC:
        raise DomainError("disk figures exist for hyperbolic frames only")
    sides = tuple(
        arc_for_segment(p, q, style="side")
        for p, q in ((tri.a, tri.b), (tri.b, tri.c), (tri.c, tri.a))
    )
    cevians = tuple(
        arc_for_segment(p, q, style="cevian")
        for p, q in ((tri.a, frame.d), (tri.b, frame.e), (tri.c, frame.f))
    )
    elements = sides + cevians
    return RenderScene(
        points=(
            _point(tri.a, "A"),
            _point(tri.b, "B"),
            _point(tri.c, "C"),
            _point(frame.o, "O"),
            _point(frame.d, "D"),
            _point(frame.e, "E"),
            _point(frame.f, "F"),
        ),
        arcs=tuple(e for e in elements if isinstance(e, SceneArc)),
        chords=tuple(e for e in elements if isinstance(e, SceneChord)),
        triangles=(
            SceneTriangle((disk_xy(tri.a), disk_xy(tri.b), disk_xy(tri.c))),
        ),
    )


def _curve_label(v: Vec3, label: str) -> ScenePoint:
    ((x, y),) = _disk_points((v,))
    return ScenePoint(x, y, label, style="curve")


def scene_for_locus(locus: AreaLocus, apex: HPoint) -> RenderScene:
    """Base, axis, carrier and mirror hypercycles, and the apex.

    The mirror through the base vertices is labeled C, the carrier the
    apex rides on C′, and the equidistant axis geodesic G.  G is drawn
    on the carrier's axis frame, and the two polylines come from one
    pass over their shared positions (``hypercycle_points_and_mirror``).
    Each label is one checked curve vector taken to the disk as the
    polylines' vertices are.
    """
    from .lexell import (
        HYPERCYCLE_SEGMENTS,
        SAMPLE_RANGE,
        hypercycle_points,
        hypercycle_points_and_mirror,
        sample_positions,
    )

    base_line = arc_for_geodesic(locus.base.base_line(), style="base")
    axis = arc_for_geodesic(locus.carrier.axis, style="axis")
    elements = (base_line, axis)
    label_at = (0.85 * SAMPLE_RANGE,)
    a, b, p = _point(locus.base.a, "A"), _point(locus.base.b, "B"), _point(apex, "P")
    points = (
        a, b, p,
        _curve_label(hypercycle_points(locus.mirror, label_at)[0], "C"),
        _curve_label(hypercycle_points(locus.carrier, label_at)[0], "C′"),
        _curve_label(hypercycle_points(locus.carrier.at_offset(0.0), label_at)[0], "G"),
    )
    carrier, mirror = hypercycle_points_and_mirror(
        locus.carrier, sample_positions(HYPERCYCLE_SEGMENTS + 1)
    )
    return RenderScene(
        points=points,
        arcs=tuple(e for e in elements if isinstance(e, SceneArc)),
        chords=tuple(e for e in elements if isinstance(e, SceneChord)),
        polylines=(_polyline(carrier, "carrier"), _polyline(mirror, "mirror")),
        triangles=(SceneTriangle(((a.x, a.y), (b.x, b.y), (p.x, p.y))),),
    )


def scene_for_foliation(base: BaseConfig, leaves: tuple[AreaLocus, ...]) -> RenderScene:
    """Nested constant-area leaves over one base."""
    base_line = arc_for_geodesic(base.base_line(), style="base")
    return RenderScene(
        points=(_point(base.a, "A"), _point(base.b, "B")),
        arcs=(base_line,) if isinstance(base_line, SceneArc) else (),
        chords=(base_line,) if isinstance(base_line, SceneChord) else (),
        polylines=tuple(
            polyline_for_hypercycle(leaf.carrier, style="carrier") for leaf in leaves
        ),
    )


def _check_inside(x: float, y: float, what: str) -> None:
    # Written ``not <=`` so that a NaN coordinate fails too.
    if not x * x + y * y <= 1.0 + _DISK_SLACK:
        raise GeometryError(f"{what} outside the closed unit disk: ({x}, {y})")


def validate_scene(scene: RenderScene) -> None:
    """Check every invariant a disk figure must satisfy.

    Coordinates stay in the closed unit disk (arc centers excepted:
    orthogonal circles keep their centers outside), every arc circle is
    orthogonal to the boundary, and arc endpoints lie on their circle.
    Every comparison is written ``not <=``, so a NaN anywhere fails it.
    Polyline vertices, a hundred or more per locus figure, are compared
    inline; ``_check_inside`` raises for the first that fails.
    """
    for pt in scene.points:
        _check_inside(pt.x, pt.y, f"point {pt.label!r}")
    for ch in scene.chords:
        _check_inside(ch.x1, ch.y1, "chord endpoint")
        _check_inside(ch.x2, ch.y2, "chord endpoint")
    for arc in scene.arcs:
        _check_inside(arc.x1, arc.y1, "arc endpoint")
        _check_inside(arc.x2, arc.y2, "arc endpoint")
        # cx, cy and r are quotients of a covector that is unit only up to
        # rounding; for near-diameters that noise outgrows _ORTHO_TOL.
        ortho = abs(arc.cx * arc.cx + arc.cy * arc.cy - (arc.r * arc.r + 1.0))
        if not ortho <= _ORTHO_TOL + _ORTHO_NOISE * (1.0 + arc.r * arc.r):
            raise GeometryError(f"arc circle not orthogonal to the boundary: {ortho}")
        for ex, ey in ((arc.x1, arc.y1), (arc.x2, arc.y2)):
            gap = abs(math.hypot(ex - arc.cx, ey - arc.cy) - arc.r)
            if not gap <= _ORTHO_TOL:
                raise GeometryError(f"arc endpoint off its circle by {gap}")
    bound = 1.0 + _DISK_SLACK
    for pl in scene.polylines:
        if len(pl.points) < 2:
            raise GeometryError("polyline needs at least two points")
        for x, y in pl.points:
            if not x * x + y * y <= bound:
                _check_inside(x, y, "polyline vertex")
    for tr in scene.triangles:
        for x, y in tr.vertices:
            _check_inside(x, y, "triangle vertex")


_SVG_SIZE = 1000.0
_SVG_CENTER = 500.0
_SVG_RADIUS = 480.0
# Smallest disk length the SVG output resolves: coordinates are written
# with four decimals in a viewBox where the disk radius is _SVG_RADIUS.
_DRAW_RESOLUTION = 1e-4 / _SVG_RADIUS

_CSS = """\
.boundary { fill: none; stroke: #333; stroke-width: 2; }
.side { fill: none; stroke: #1f4e79; stroke-width: 2.5; }
.cevian { fill: none; stroke: #b05920; stroke-width: 1.8; }
.base { fill: none; stroke: #1f4e79; stroke-width: 2.5; }
.axis { fill: none; stroke: #777; stroke-width: 1.5; stroke-dasharray: 8 5; }
.carrier { fill: none; stroke: #1f7a33; stroke-width: 2.2; }
.mirror { fill: none; stroke: #1f7a33; stroke-width: 2.2; stroke-dasharray: 4 4; }
.fill { fill: #1f4e79; fill-opacity: 0.10; stroke: none; }
.point { fill: #111; }
.label { font: 28px sans-serif; fill: #111; }"""


def _arc_path(arc: SceneArc) -> str:
    # The visible piece of an orthogonal circle always subtends less
    # than pi at its center, so the small-arc flag is fixed.  The y
    # flip turns a counterclockwise sweep into an SVG sweep of 1.
    cross = (arc.x1 - arc.cx) * (arc.y2 - arc.cy) - (arc.y1 - arc.cy) * (
        arc.x2 - arc.cx
    )
    sweep = 1 if cross > 0.0 else 0
    c, r = _SVG_CENTER, _SVG_RADIUS
    sr = f"{r * arc.r:.4f}"
    return (
        f'<path class="{arc.style}" d="M {c + r * arc.x1:.4f} {c - r * arc.y1:.4f} '
        f'A {sr} {sr} 0 0 {sweep} {c + r * arc.x2:.4f} {c - r * arc.y2:.4f}"/>'
    )


def _svg_points(points: tuple[XY, ...]) -> str:
    # One % call formats the whole list; "%.4f" writes the bytes that an
    # f-string's ":.4f" writes, so only the call count changes.
    c, r = _SVG_CENTER, _SVG_RADIUS
    coords = []
    for x, y in points:
        coords += (c + r * x, c - r * y)
    return " ".join(["%.4f,%.4f"] * len(points)) % tuple(coords)


def scene_to_svg(scene: RenderScene) -> str:
    """Serialize a validated scene as a standalone SVG document.

    Disk point (x, y) is drawn at (C + R x, C - R y), C = _SVG_CENTER and
    R = _SVG_RADIUS, with four decimals.  A polygon's or polyline's point
    list is formatted by one % call, not one format per vertex.
    """
    validate_scene(scene)
    c, r = _SVG_CENTER, _SVG_RADIUS
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_SVG_SIZE:.0f} {_SVG_SIZE:.0f}">',
        f"<style>{_CSS}</style>",
        f'<circle class="boundary" cx="{c:.4f}" cy="{c:.4f}" r="{r:.4f}"/>',
    ]
    for tr in scene.triangles:
        parts.append(f'<polygon class="{tr.style}" points="{_svg_points(tr.vertices)}"/>')
    for arc in scene.arcs:
        parts.append(_arc_path(arc))
    for ch in scene.chords:
        parts.append(
            f'<line class="{ch.style}" x1="{c + r * ch.x1:.4f}" y1="{c - r * ch.y1:.4f}" '
            f'x2="{c + r * ch.x2:.4f}" y2="{c - r * ch.y2:.4f}"/>'
        )
    for pl in scene.polylines:
        parts.append(f'<polyline class="{pl.style}" points="{_svg_points(pl.points)}"/>')
    for pt in scene.points:
        x, y = c + r * pt.x, c - r * pt.y
        if pt.style != "curve":
            parts.append(f'<circle class="{pt.style}" cx="{x:.4f}" cy="{y:.4f}" r="5"/>')
        parts.append(
            f'<text class="label" x="{x + 10.0:.4f}" y="{y - 10.0:.4f}">{pt.label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
