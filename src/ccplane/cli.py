"""Command-line front end: campaigns, constructions, loci, figures.

Exit codes: 0 success, 1 infeasible input, failed verification, a
measured residual above its gate (``lexell``'s area spread,
``construct``'s round trip) or an output path that cannot be written,
2 usage error.  Identical flags produce byte-identical JSON.  A
command whose residual is above its gate still writes its record and
figure; any other failure prints none, since output files are written
before anything goes to stdout.

Each command is a short process that compiles what it imports, so each
handler imports the layers it runs: only ``ccplane verify`` loads the
campaign engine, ``verify``, and a campaign only its theorem's layers,
with the models in ``planes`` only on the sphere or the euclidean plane;
only ``ccplane construct`` loads the converse construction,
``construct``; ``render frame`` never loads ``lexell``, a locus never
loads ``sampling`` or ``cevians``, only a figure (``render``,
``--svg``) loads ``render``, and only ``verify menelaus`` loads
``trig``.  The JSON writer, ``json_document``, lives here, since every
command prints its record through it.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import kernel as k
from .constants import THEOREMS, TOL_AREA, TOL_CONSTRUCT, UNITS
from .errors import DomainError, GeometryError
from .kernel import Geometry


def _parse_geometry(value: str) -> Geometry:
    try:
        return Geometry(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown geometry: {value!r}")


def _parse_finite(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {value!r}")
    return x


def _parse_tolerance(value: str) -> float:
    x = _parse_finite(value)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive: {value!r}")
    return x


def _parse_apex_height(value: str) -> float:
    from .lexell import MAX_APEX_HEIGHT

    y = _parse_finite(value)
    if abs(y) > MAX_APEX_HEIGHT:
        raise argparse.ArgumentTypeError(
            f"apex height outside [-{MAX_APEX_HEIGHT}, {MAX_APEX_HEIGHT}]: {value!r}"
        )
    return y


def _count_at_least(minimum: int):
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {value!r}")
        return n

    return parse


def _parse_areas(value: str) -> tuple[float, ...]:
    areas = tuple(_parse_finite(part) for part in value.split(",") if part.strip())
    if not areas:
        raise argparse.ArgumentTypeError("area list is empty")
    return areas


def _parse_disk_point(value: str) -> tuple[float, float]:
    parts = value.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected U,W disk coordinates: {value!r}")
    return (_parse_finite(parts[0]), _parse_finite(parts[1]))


class _UnwritableOutputError(Exception):
    """An output path that cannot be written; the command exits 1."""


def _write_file(text: str, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UnwritableOutputError(f"cannot write {path}: {exc.strerror or exc}")


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise DomainError(f"non-finite value has no JSON form: {v}")
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return _render_object(v)
    raise DomainError(f"unsupported JSON value type: {type(v).__name__}")


def _render_object(record: dict) -> str:
    parts = [
        f"{_json_value(key)}: {_json_value(record[key])}" for key in sorted(record)
    ]
    return "{" + ", ".join(parts) + "}"


def json_document(record: dict) -> str:
    """One-line JSON with sorted keys and 17-significant-digit floats.

    Identical input produces byte-identical output, which is what makes
    report diffs meaningful in CI.
    """
    return _render_object(record) + "\n"


def _emit(document: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(document)
    else:
        _write_file(document, path)


def _report(record: dict, args, scene) -> None:
    """Write the ``--svg`` figure of ``scene(render)``, then emit the JSON
    record.

    ``render`` is imported only here, under ``--svg``, and handed to the
    scene builder, so a command that draws nothing never loads it.  The
    figure is drawn and written before anything is printed, so a figure
    that fails to draw or a path that cannot be written exits 1 with
    nothing on stdout.
    """
    if args.svg is not None:
        from . import render

        _write_file(render.scene_to_svg(scene(render)), args.svg)
    _emit(json_document(record), args.json)


def _cmd_verify(args, parser) -> int:
    from .verify import SUPPORTED, report_record, run_verification

    if args.geometry not in SUPPORTED[args.theorem]:
        parser.error(
            f"{args.theorem} is not supported on {args.geometry.value} geometry"
        )
    report = run_verification(
        args.theorem, args.geometry, args.trials, args.seed, args.tolerance
    )
    _emit(json_document(report_record(report)), args.json)
    return 0 if report.passed else 1


def _cmd_construct(args, parser) -> int:
    from .construct import RatioSumInput, construct_from_ratios

    result = construct_from_ratios(RatioSumInput(*args.lengths))
    frame = result.frame
    measured = (frame.ao, frame.bo, frame.co, frame.od, frame.oe, frame.of)
    length_residual = max(abs(m - i) for m, i in zip(measured, args.lengths))
    angle_residual = max(
        abs(frame.p - result.angle_bof),
        abs(frame.q - result.angle_aof),
        abs(frame.r - result.angle_bod),
    )
    da = k.hpoint_to_disk(frame.tri.a)
    db = k.hpoint_to_disk(frame.tri.b)
    dc = k.hpoint_to_disk(frame.tri.c)
    record = {
        "delta": result.sine_factor,
        "heron_area": result.aux_area,
        "aux_g": result.aux_a,
        "aux_h": result.aux_b,
        "aux_i": result.aux_c,
        "angle_bof": result.angle_bof,
        "angle_aof": result.angle_aof,
        "angle_bod": result.angle_bod,
        "angle_boc": math.pi - result.angle_bof,
        "angle_aoc": math.pi - result.angle_aof,
        "angle_aob": math.pi - result.angle_bod,
        "vertex_ax": da.u,
        "vertex_ay": da.w,
        "vertex_bx": db.u,
        "vertex_by": db.w,
        "vertex_cx": dc.u,
        "vertex_cy": dc.w,
        "relation_residual": result.relation_residual,
        "containment_residual": result.containment_residual,
        "roundtrip_length_residual": length_residual,
        "roundtrip_angle_residual": angle_residual,
        **UNITS,
    }
    _report(record, args, lambda render: render.scene_for_frame(frame))
    # Each round-trip residual is the construction's measured check; the
    # record and figure are written either way.
    return 0 if length_residual <= TOL_CONSTRUCT and angle_residual <= TOL_CONSTRUCT else 1


def _axis_angles(axis) -> tuple[float, float]:
    (x1, y1), (x2, y2) = k.ideal_endpoints(axis)
    return tuple(sorted((math.atan2(y1, x1), math.atan2(y2, x2))))


def _lexell_apex(args):
    # A zero height or an on-axis disk point lands on the base line;
    # the locus construction rejects that as degenerate (exit 1).
    if args.apex_y is not None:
        return Geometry.HYPERBOLIC.model.polar(math.pi / 2.0, args.apex_y)
    u, w = args.apex
    return k.disk_to_hpoint(k.DiskPoint(u, w))


def _cmd_lexell(args, parser) -> int:
    from .lexell import BaseConfig, foliation, lexell_locus, locus_residuals

    # The flags are checked before the base, so that a half-distance the
    # base refuses does not hide the usage error, as in ``_cmd_render``.
    if args.foliate is None and args.apex_y is None and args.apex is None:
        parser.error("need an apex: --apex-y or --apex (or --foliate)")
    base = BaseConfig.from_half_distance(args.x)
    if args.foliate is not None:
        leaves = foliation(base, list(args.foliate))
        record = {
            "half_distance": args.x,
            "leaf_count": len(leaves),
            "areas": [leaf.area for leaf in leaves],
            "offsets": [leaf.carrier.offset for leaf in leaves],
            **UNITS,
        }
        _report(record, args, lambda render: render.scene_for_foliation(base, tuple(leaves)))
        return 0
    apex = _lexell_apex(args)
    locus = lexell_locus(base, apex)
    residuals = locus_residuals(locus, samples=args.samples, chords=0)
    angle_lo, angle_hi = _axis_angles(locus.carrier.axis)
    record = {
        "half_distance": args.x,
        "axis_angle_1": angle_lo,
        "axis_angle_2": angle_hi,
        "offset": locus.carrier.offset,
        "area": locus.area,
        "area_spread": residuals.area_spread,
        "samples": args.samples,
        **UNITS,
    }
    _report(record, args, lambda render: render.scene_for_locus(locus, apex))
    return 0 if residuals.area_spread <= TOL_AREA else 1


def _cmd_render(args, parser) -> int:
    # The apex and --foliate flags name a figure too: an apex a locus,
    # areas a foliation, neither a frame.  Naming another figure is a
    # usage error, so neither kind of flag is dropped without a word.
    flagged = ("foliation" if args.foliate is not None else
               "frame" if args.apex_y is None and args.apex is None else "locus")
    if args.figure != flagged:
        parser.error(f"the flags name a {flagged}, not a {args.figure}: a locus takes "
                     "--apex-y or --apex, a foliation --foliate AREAS, a frame neither")
    from .render import scene_for_foliation, scene_for_frame, scene_for_locus, scene_to_svg

    if args.figure == "frame":
        from .sampling import sample_frame

        frame = sample_frame(Geometry.HYPERBOLIC, k.substream("render-frame", args.seed))
        scene = scene_for_frame(frame)
    else:
        from .lexell import BaseConfig, foliation, lexell_locus

        base = BaseConfig.from_half_distance(args.x)
        if args.figure == "locus":
            apex = _lexell_apex(args)
            scene = scene_for_locus(lexell_locus(base, apex), apex)
        else:
            scene = scene_for_foliation(base, tuple(foliation(base, list(args.foliate))))
    _write_file(scene_to_svg(scene), args.svg)
    return 0


def _add_apex_flags(sub) -> None:
    # Each flag names a different figure, so two of them together are a
    # usage error rather than one silently overriding the other.
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--apex-y", type=_parse_apex_height, default=None,
                       help="apex height on the perpendicular axis (model units)")
    group.add_argument("--apex", type=_parse_disk_point, default=None,
                       help="apex as U,W disk coordinates")
    group.add_argument("--foliate", type=_parse_areas, default=None,
                       metavar="AREAS", help="comma-separated target areas")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccplane",
        description="Constant-curvature plane toolkit: verification campaigns, "
        "cevian constructions, constant-area loci, disk figures.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run a randomized identity campaign")
    p_verify.add_argument("theorem", choices=THEOREMS)
    p_verify.add_argument("--geometry", type=_parse_geometry,
                          default=Geometry.HYPERBOLIC)
    p_verify.add_argument("--trials", type=_count_at_least(1), default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=_parse_tolerance, default=None)
    p_verify.add_argument("--json", metavar="PATH", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = subs.add_parser(
        "construct", help="rebuild a cevian frame from six lengths"
    )
    p_construct.add_argument(
        "lengths", type=_parse_finite, nargs=6, metavar="LENGTH",
        help="the six cevian segment lengths AO BO CO OD OE OF",
    )
    p_construct.add_argument("--json", metavar="PATH", default=None)
    p_construct.add_argument("--svg", metavar="PATH", default=None)
    p_construct.set_defaults(func=_cmd_construct)

    p_lexell = subs.add_parser(
        "lexell", help="constant-area locus over a symmetric base"
    )
    p_lexell.add_argument("x", type=_parse_finite, help="base half-distance")
    _add_apex_flags(p_lexell)
    p_lexell.add_argument("--samples", type=_count_at_least(2), default=20)
    p_lexell.add_argument("--json", metavar="PATH", default=None)
    p_lexell.add_argument("--svg", metavar="PATH", default=None)
    p_lexell.set_defaults(func=_cmd_lexell)

    p_render = subs.add_parser("render", help="write a disk figure as SVG")
    p_render.add_argument("figure", choices=("frame", "locus", "foliation"))
    p_render.add_argument("--seed", type=int, default=0)
    p_render.add_argument("--x", type=_parse_finite, default=0.8,
                          help="base half-distance")
    _add_apex_flags(p_render)
    p_render.add_argument("--svg", metavar="PATH", required=True)
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (GeometryError, _UnwritableOutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
