"""End-to-end CLI runs: exit codes, JSON shape, byte determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ccplane
from ccplane import lexell, render
from ccplane.cevians import cevian_frame, equilateral_triangle
from ccplane.cli import main
from ccplane.constants import TOL_AREA, TOL_CONSTRUCT
from ccplane.errors import GeometryError
from ccplane.kernel import Geometry
from ccplane.lexell import LocusResiduals, _right_area


def run_cli(*args):
    # The child runs the source tree this test imported, installed or not.
    src = str(Path(ccplane.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ccplane", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def median_lengths():
    tri = equilateral_triangle(1.0, Geometry.HYPERBOLIC)
    model = Geometry.HYPERBOLIC.model
    e = model.mid(tri.c, tri.a)
    o = model.meet(
        model.line(tri.a, model.mid(tri.b, tri.c)), model.line(tri.b, e), tri.b, e
    )
    fr = cevian_frame(tri, o)
    return [fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of]


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("ccplane ")]


class TestReadmeExamples:
    def test_section_lists_every_command(self):
        commands = {line.split()[1] for line in readme_cli_lines()}
        assert commands == {"verify", "construct", "lexell", "render"}

    @pytest.mark.parametrize("line", readme_cli_lines())
    def test_example_exits_as_documented(self, line, tmp_path):
        # A trailing "# ... exit N" comment documents a nonzero exit code.
        documented = re.search(r"#.*exit (\d)", line)
        argv = shlex.split(line, comments=True)[1:]
        argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
        out = run_cli(*argv)
        assert out.returncode == (int(documented.group(1)) if documented else 0), out.stderr
        for svg in (a for a in argv if a.endswith(".svg")):
            assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


class TestVerifyCommand:
    def test_byte_identical_reruns(self):
        first = run_cli("verify", "euler-ratio", "--trials", "200", "--seed", "42")
        second = run_cli("verify", "euler-ratio", "--trials", "200", "--seed", "42")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_report_fields(self):
        out = run_cli("verify", "menelaus", "--geometry", "spherical",
                      "--trials", "25", "--seed", "3")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["theorem"] == "menelaus"
        assert rec["geometry"] == "spherical"
        assert rec["trials"] == 25
        assert rec["seed"] == 3
        assert rec["passed"] is True
        assert rec["max_residual"] <= rec["tolerance"]
        assert rec["units"] == "model-units"
        assert rec["angle_units"] == "radians"

    def test_forced_failure_exits_one(self):
        out = run_cli("verify", "ceva", "--trials", "5", "--tolerance", "1e-30")
        assert out.returncode == 1
        assert json.loads(out.stdout)["passed"] is False

    def test_unsupported_combination_is_usage_error(self):
        out = run_cli("verify", "lexell", "--geometry", "spherical")
        assert out.returncode == 2
        assert "not supported" in out.stderr

    def test_unknown_theorem_is_usage_error(self):
        assert run_cli("verify", "pythagoras").returncode == 2

    def test_json_flag_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli("verify", "lambert", "--geometry", "euclidean",
                      "--trials", "10", "--json", str(path))
        assert out.returncode == 0
        assert out.stdout == ""
        rec = json.loads(path.read_text())
        assert rec["tolerance"] == 1e-12


class TestConstructCommand:
    def test_equilateral_medians_round_trip(self):
        out = run_cli("construct", *[repr(v) for v in median_lengths()])
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        third = 2.0 * math.pi / 3.0
        for key in ("angle_aob", "angle_boc", "angle_aoc"):
            assert rec[key] == pytest.approx(third, abs=1e-9)
        assert rec["roundtrip_length_residual"] < 1e-9
        assert rec["roundtrip_angle_residual"] < 1e-9
        assert rec["containment_residual"] < 1e-9

    def test_deterministic_output(self):
        args = [repr(v) for v in median_lengths()]
        assert run_cli("construct", *args).stdout == run_cli("construct", *args).stdout

    def test_relation_violation_reason(self):
        out = run_cli("construct", "1.0", "1.0", "1.0", "0.5", "0.5", "0.5")
        assert out.returncode == 1
        assert "relation residual" in out.stderr

    def test_heron_radicand_reason(self):
        # alpha = beta = 3 and gamma = 1 satisfy the ratio-sum relation,
        # but two tiny cevians against one huge one flatten the helper
        # triangle, so the Heron radicand goes nonpositive.
        ao = bo = 0.01
        co = of = 5.0
        od = oe = math.atanh(math.tanh(0.01) / 3.0)
        out = run_cli("construct", repr(ao), repr(bo), repr(co),
                      repr(od), repr(oe), repr(of))
        assert out.returncode == 1
        assert "Heron radicand" in out.stderr

    def test_wrong_arity_is_usage_error(self):
        assert run_cli("construct", "1.0", "2.0").returncode == 2

    def test_svg_written(self, tmp_path):
        path = tmp_path / "frame.svg"
        out = run_cli("construct", *[repr(v) for v in median_lengths()],
                      "--svg", str(path))
        assert out.returncode == 0
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")

    def test_round_trip_over_the_gate_exits_one(self, monkeypatch, capsys, tmp_path):
        # Vertex A laid off a relative 1e-7 too far out rebuilds a frame
        # whose AO misses its length by 5.7e-8, inside the 1e-6
        # containment gate: the record and the figure are still written,
        # and the command exits 1.
        # Patched on the class: an instance attribute would outlive the
        # undo and shadow later class-level patches.
        cls = type(Geometry.HYPERBOLIC.model)
        polar = cls.polar

        def stretched(self, theta, r):
            return polar(self, theta, r * (1.0 + 1e-7) if theta == 0.0 else r)

        monkeypatch.setattr(cls, "polar", stretched)
        svg = tmp_path / "frame.svg"
        assert main([*_CONSTRUCT, "--svg", str(svg)]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert TOL_CONSTRUCT < rec["roundtrip_length_residual"] < 1e-7
        assert rec["roundtrip_angle_residual"] <= TOL_CONSTRUCT
        assert ET.fromstring(svg.read_text()).tag.endswith("svg")


class TestLexellCommand:
    def test_on_axis_locus_report(self):
        out = run_cli("lexell", "0.8", "--apex-y", "1.0")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["area"] == pytest.approx(2.0 * _right_area(0.8, 1.0), abs=1e-12)
        assert rec["area_spread"] <= 1e-8
        assert rec["offset"] > 0.0
        assert rec["samples"] == 20
        assert -math.pi <= rec["axis_angle_1"] < rec["axis_angle_2"] <= math.pi

    def test_mirrored_apex_same_parameters(self):
        left = json.loads(run_cli("lexell", "0.8", "--apex=-0.1,0.4").stdout)
        right = json.loads(run_cli("lexell", "0.8", "--apex=0.1,0.4").stdout)
        assert left["offset"] == pytest.approx(right["offset"], abs=1e-11)
        assert left["area"] == pytest.approx(right["area"], abs=1e-11)

    def test_area_spread_over_the_gate_exits_one(self, monkeypatch, capsys):
        calls = []

        def spread(locus, **kwargs):
            calls.append(kwargs)
            return LocusResiduals(2.0 * TOL_AREA, 0.0, 0.0, 0.0)

        monkeypatch.setattr(lexell, "locus_residuals", spread)
        assert main(["lexell", "0.8", "--apex-y", "1.0"]) == 1
        assert json.loads(capsys.readouterr().out)["area_spread"] == 2.0 * TOL_AREA
        assert calls == [{"samples": 20, "chords": 0}]

    def test_degenerate_apex_exits_one(self):
        out = run_cli("lexell", "0.8", "--apex", "0.3,0.0")
        assert out.returncode == 1
        assert "base line" in out.stderr

    def test_tallest_apex_exits_one_without_traceback(self, tmp_path):
        for argv in (("lexell", "0.8", "--apex-y", "40"),
                     ("render", "locus", "--x", "0.8", "--apex-y", "40",
                      "--svg", str(tmp_path / "locus.svg"))):
            out = run_cli(*argv)
            assert out.returncode == 1, argv
            assert out.stderr.startswith("error:"), argv
            assert "Traceback" not in out.stderr, argv

    def test_geometry_flag_is_usage_error(self):
        # The locus is hyperbolic-only, so the command takes no --geometry.
        for geometry in ("hyperbolic", "spherical"):
            out = run_cli("lexell", "0.8", "--geometry", geometry, "--apex-y", "1.0")
            assert out.returncode == 2
            assert out.stdout == ""

    def test_missing_apex_is_usage_error(self):
        assert run_cli("lexell", "0.8").returncode == 2

    @pytest.mark.parametrize("argv, message", [
        (["lexell", "0"], "need an apex"),
        (["lexell", "1e-11"], "need an apex"),
        (["lexell", "9"], "need an apex"),
        (["render", "locus", "--x", "0", "--svg", "x.svg"], "the flags name a frame"),
        (["render", "locus", "--x", "1e-11", "--svg", "x.svg"], "the flags name a frame"),
    ], ids=["lexell 0", "lexell 1e-11", "lexell 9", "render 0", "render 1e-11"])
    def test_missing_apex_is_usage_error_on_any_base(self, argv, message, capsys):
        # The flags are checked before the base: a half-distance the base
        # refuses (0, 1e-11 too short to span a line, 9 too long) does not
        # turn the usage error into the base's DomainError.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err

    def test_foliate_leaves_ordered(self, tmp_path):
        path = tmp_path / "foliation.svg"
        out = run_cli("lexell", "0.8", "--foliate", "0.3,0.8,1.2",
                      "--svg", str(path))
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["leaf_count"] == 3
        assert rec["offsets"] == sorted(rec["offsets"])
        for target, got in zip((0.3, 0.8, 1.2), rec["areas"]):
            assert got == pytest.approx(target, abs=1e-9)
        assert len(ET.fromstring(path.read_text()).findall(
            "{http://www.w3.org/2000/svg}polyline")) == 3

    def test_infeasible_foliation_target_exits_one(self):
        out = run_cli("lexell", "0.8", "--foliate", "9.0")
        assert out.returncode == 1
        assert "attainable" in out.stderr

    def test_repeated_foliation_target_exits_one(self, capsys):
        # Two equal targets would ask for one leaf twice; the list is
        # refused before any height is searched for.
        assert main(["lexell", "0.8", "--foliate", "0.5,0.3,0.5"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: target area 0.5 is repeated; leaves must differ\n"

    @pytest.mark.parametrize("x,target", [("0.01", "1e-14"), ("0.3", "1e-12")])
    def test_foliation_target_on_the_base_line_exits_one(self, x, target):
        # The leaf's apex would sit within the locus's base-line bound.
        out = run_cli("lexell", x, "--foliate", target)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            f"error: target area {target} puts the leaf's apex on the base line\n"
        )

    def test_tiny_foliation_leaf_meets_its_target(self):
        out = run_cli("lexell", "0.3", "--foliate", "1e-9")
        assert out.returncode == 0
        (area,) = json.loads(out.stdout)["areas"]
        assert abs(area - 1e-9) <= TOL_AREA

    def test_locus_svg_has_figure_labels(self, tmp_path):
        path = tmp_path / "locus.svg"
        out = run_cli("lexell", "0.8", "--apex-y", "1.0", "--svg", str(path))
        assert out.returncode == 0
        root = ET.fromstring(path.read_text())
        texts = {t.text for t in root.findall("{http://www.w3.org/2000/svg}text")}
        assert texts == {"A", "B", "P", "C", "C′", "G"}


class TestRenderCommand:
    def test_frame_figure(self, tmp_path):
        path = tmp_path / "frame.svg"
        out = run_cli("render", "frame", "--seed", "5", "--svg", str(path))
        assert out.returncode == 0
        assert path.read_text().startswith("<svg")

    def test_locus_needs_apex(self, tmp_path):
        out = run_cli("render", "locus", "--svg", str(tmp_path / "x.svg"))
        assert out.returncode == 2

    def test_foliation_figure(self, tmp_path):
        path = tmp_path / "fol.svg"
        out = run_cli("render", "foliation", "--x", "0.8",
                      "--foliate", "0.4,0.9", "--svg", str(path))
        assert out.returncode == 0
        assert len(ET.fromstring(path.read_text()).findall(
            "{http://www.w3.org/2000/svg}polyline")) == 2

    def test_missing_svg_is_usage_error(self):
        assert run_cli("render", "frame").returncode == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "ceva", "--trials", "0"], "--trials"),
        (["lexell", "0.8", "--apex-y", "1.0", "--samples", "1"], "--samples"),
        (["verify", "ceva", "--tolerance", "nan"], "--tolerance"),
        (["verify", "ceva", "--tolerance", "inf"], "--tolerance"),
        (["verify", "ceva", "--tolerance", "0"], "--tolerance"),
        (["verify", "ceva", "--tolerance", "-0.5"], "--tolerance"),
        (["lexell", "0.8", "--apex-y", "1e6"], "--apex-y"),
        (["lexell", "0.8", "--apex-y", "-41"], "--apex-y"),
        (["lexell", "0.8", "--apex-y", "nan"], "--apex-y"),
        (["lexell", "nan", "--apex-y", "1.0"], "x"),
        (["render", "locus", "--x", "inf", "--apex-y", "1.0", "--svg", "x.svg"], "--x"),
        (["lexell", "0.8", "--apex", "nan,0.2"], "--apex"),
        (["construct", "0.5", "0.5", "0.5", "0.2", "0.2", "nan"], "LENGTH"),
        (["lexell", "0.8", "--foliate", "0.3,inf"], "--foliate"),
    ],
)
def test_bad_values_are_usage_errors(argv, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "frame", "--seed", "1", "--foliate", "0.3", "--svg", "f.svg"],
        ["render", "frame", "--apex-y", "2", "--svg", "f.svg"],
        ["render", "frame", "--apex=0.1,0.4", "--svg", "f.svg"],
        ["render", "locus", "--svg", "f.svg"],
        ["render", "locus", "--foliate", "0.5", "--svg", "f.svg"],
        ["render", "foliation", "--apex-y", "1.0", "--svg", "f.svg"],
        ["render", "foliation", "--svg", "f.svg"],
    ],
)
def test_render_flags_must_name_its_figure(argv, capsys, tmp_path, monkeypatch):
    # An apex names a locus, --foliate a foliation and neither a frame; a
    # figure drawn from other flags would drop them without a word.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert f"not a {argv[1]}" in out.err
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["lexell", "0.8", "--apex-y", "1.0", "--apex=0.1,0.4"],
        ["lexell", "0.8", "--apex-y", "1.0", "--foliate", "0.5"],
        ["lexell", "0.8", "--apex=0.1,0.4", "--foliate", "0.5"],
        ["render", "locus", "--apex-y", "1.0", "--apex=0.1,0.4", "--svg", "x.svg"],
        ["render", "foliation", "--apex-y", "1.0", "--foliate", "0.5", "--svg", "x.svg"],
    ],
)
def test_conflicting_apex_flags_are_usage_errors(argv, capsys, tmp_path, monkeypatch):
    # --apex-y, --apex and --foliate each name the figure; given two, the
    # command would draw one and drop the other without a word.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert "not allowed with argument" in out.err
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def test_failed_figure_prints_no_json(monkeypatch, capsys, tmp_path):
    # The figure is drawn before the record is printed, so a command
    # whose SVG fails leaves stdout empty instead of a success record.
    def broken(scene):
        raise GeometryError("figure failed")

    monkeypatch.setattr(render, "scene_to_svg", broken)
    svg = str(tmp_path / "figure.svg")
    for argv in (
        ["lexell", "0.8", "--apex-y", "1.0", "--svg", svg],
        ["lexell", "0.8", "--foliate", "0.3,0.8", "--svg", svg],
        ["construct", *[repr(v) for v in median_lengths()], "--svg", svg],
    ):
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == "", argv
        assert "figure failed" in out.err, argv
        assert not (tmp_path / "figure.svg").exists(), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lambert", "--trials", "5", "--json", "{bad}"],
        ["construct", *[repr(v) for v in median_lengths()], "--svg", "{bad}"],
        ["construct", *[repr(v) for v in median_lengths()], "--json", "{bad}"],
        ["lexell", "0.8", "--apex=0.3,0.4", "--svg", "{bad}"],
        ["lexell", "0.8", "--foliate", "0.3,0.8", "--json", "{bad}"],
        ["render", "frame", "--svg", "{bad}"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in (argv[0], argv[-2])),
)
def test_unwritable_output_exits_one(argv, capsys, tmp_path):
    # The files are written before stdout, so nothing is printed either.
    bad = str(tmp_path / "missing" / "out")
    assert main([a.replace("{bad}", bad) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: cannot write {bad}: ")


def test_cli_import_skips_the_class_generator():
    # Each command is a fresh process that pays for its own import; these
    # modules come with the standard library's class generator.  -S keeps
    # site's own imports out of the count.
    src = str(Path(ccplane.__file__).resolve().parents[1])
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    probe = f"import sys; import ccplane.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# The ccplane modules every command loads: the command line with its
# JSON writer, the point types with the hyperboloid's model and their
# vector kernels, the constants (theorem ids and units included) and the
# errors.  The campaign engine, ``verify``, is a layer of ``verify *``.
_BASE_MODULES = {"cli", "constants", "corevec", "errors", "kernel"}

# Runs one command in a fresh interpreter and prints its exit code and
# the ccplane modules it loaded.
_LOADED = """
import contextlib, io, sys
from ccplane.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("ccplane.")))
"""


def _fresh_modules(code: str, *args: str) -> tuple[str, set[str]]:
    src = str(Path(ccplane.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    first, *modules = out.stdout.split()
    return first, {m.removeprefix("ccplane.") for m in modules}


_CONSTRUCT = ["construct", "0.57028982711412934", "0.57028982711412934",
              "0.57028982711412934", "0.26373540186720129", "0.26373540186720112",
              "0.26373540186720129"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["verify", "menelaus", "--trials", "5"], {"verify", "trig"}),
        (["verify", "lambert", "--trials", "5"], {"verify", "cevians"}),
        (["verify", "euler-ratio", "--trials", "5"], {"verify", "cevians", "sampling"}),
        (["verify", "ceva", "--trials", "5"], {"verify", "cevians", "sampling"}),
        (["verify", "pqr", "--trials", "5"], {"verify", "cevians", "sampling"}),
        (["verify", "lexell", "--trials", "2"], {"verify", "lexell"}),
        (["verify", "ceva", "--geometry", "spherical", "--trials", "5"],
         {"verify", "cevians", "sampling", "planes"}),
        (["verify", "menelaus", "--geometry", "euclidean", "--trials", "5"],
         {"verify", "trig", "planes"}),
        (["render", "frame", "--seed", "5", "--svg", "{svg}"],
         {"cevians", "sampling", "render"}),
        ([*_CONSTRUCT, "--svg", "{svg}"], {"cevians", "construct", "render"}),
        (_CONSTRUCT, {"cevians", "construct"}),
        (["lexell", "0.8", "--apex-y", "1.0", "--svg", "{svg}"], {"lexell", "render"}),
        (["lexell", "0.8", "--apex=0.1,0.4"], {"lexell"}),
        (["lexell", "0.8", "--foliate", "0.3,0.8,1.2"], {"lexell"}),
        (["render", "locus", "--x", "0.8", "--apex-y", "1.0", "--svg", "{svg}"],
         {"lexell", "render"}),
        (["render", "foliation", "--x", "0.8", "--foliate", "0.4,0.9", "--svg", "{svg}"],
         {"lexell", "render"}),
    ],
    ids=["verify-menelaus", "verify-lambert", "verify-euler-ratio", "verify-ceva",
         "verify-pqr", "verify-lexell", "verify-ceva-spherical", "verify-menelaus-euclidean",
         "render-frame", "construct-svg", "construct",
         "lexell-apex-y-svg", "lexell-apex", "lexell-foliate", "render-locus",
         "render-foliation"],
)
def test_command_loads_only_its_layers(argv, layers, tmp_path):
    # Each command is a fresh process that compiles every module it loads,
    # so a layer the command does not run must stay unloaded.
    svg = str(tmp_path / "figure.svg")
    code, loaded = _fresh_modules(_LOADED, *[a.replace("{svg}", svg) for a in argv])
    assert code == "0"
    assert loaded == _BASE_MODULES | layers


def test_verify_import_loads_no_layer():
    # A campaign imports its theorem's layers when it runs; importing the
    # campaign table alone loads none of them.
    probe = ("import sys, ccplane.verify; "
             "print(0, *(m for m in sys.modules if m.startswith('ccplane.')))")
    assert _fresh_modules(probe) == ("0", _BASE_MODULES - {"cli"} | {"verify"})


def test_kernel_import_loads_no_other_plane():
    # The sphere's and the euclidean plane's models compile on first use:
    # ``kernel``, the point types and the hyperboloid's model, holds
    # neither of them and loads no module that does.
    probe = ("import sys, ccplane.kernel as k; "
             "print(0, *(m for m in sys.modules if m.startswith('ccplane.')), "
             "*(n for n in ('SphereModel', 'EuclideanModel') if hasattr(k, n)))")
    assert _fresh_modules(probe) == ("0", {"constants", "corevec", "errors", "kernel"})


def test_other_planes_build_their_models_once_on_first_use():
    # The first read of a model on the sphere or the euclidean plane loads
    # ``planes``; every later read returns the model that read built.
    probe = """
import sys
from ccplane.kernel import Geometry
before = "ccplane.planes" in sys.modules
sphere = Geometry.SPHERICAL.model
print(0, f"before={before}", f"after={'ccplane.planes' in sys.modules}",
      f"sphere={sphere is Geometry.SPHERICAL.model}",
      f"plane={Geometry.EUCLIDEAN.model is Geometry.EUCLIDEAN.model}",
      f"distinct={sphere is not Geometry.EUCLIDEAN.model}", type(sphere).__module__)
"""
    assert _fresh_modules(probe) == ("0", {
        "before=False", "after=True", "sphere=True", "plane=True", "distinct=True", "planes",
    })
