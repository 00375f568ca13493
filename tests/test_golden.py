"""Golden outputs: campaign reports and rendered frames, byte for byte.

``golden.json`` beside this file holds the JSON report of every
``SUPPORTED`` campaign at 50 trials for seeds 0 and 7, and the sha256 of
the SVG that ``ccplane render frame --seed S`` writes for S = 0..9.
Its ``loci`` entries cover the Lexell figures: the ``verify lexell``
report at 200 trials for seeds 0 and 7, and for each of eight fixed
inputs the exit code, stdout and SVG sha256 of ``lexell X --apex=U,W
--svg``, ``lexell X --foliate AREAS --svg``, ``render locus`` and
``render foliation``.  A change that is meant to keep every output
keeps these; a change that moves a report rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each moved entry, old and new, to stderr, and lists each
moved report in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from ccplane.cli import main
from ccplane.kernel import Geometry
from ccplane.verify import SUPPORTED, json_document, report_record, run_verification

GOLDEN = Path(__file__).with_name("golden.json")
TRIALS = 50
SEEDS = (0, 7)
FRAME_SEEDS = range(10)

LEXELL_TRIALS = 200

# (half-distance, apex disk point, foliation areas).  The apexes run from
# near the base to v0 ~ 100, where the area samples pass the kernel's
# recentring limit; the areas span each base's attainable range.
LOCUS_INPUTS = (
    (0.3, (0.1, 0.4), (0.1, 0.3, 0.5)),
    (0.8, (0.0, 0.5), (0.2, 0.6, 1.0, 1.4)),
    (0.8, (0.5, 0.6), (0.5,)),
    (1.2, (-0.3, -0.4), (0.4, 1.9)),
    (1.5, (0.2, 0.9), (1.0, 2.0, 2.2)),
    (2.5, (0.7, 0.1), (0.3, 2.8)),
    (0.8, (0.0, 0.99), (1.45,)),
    (0.5, (-0.6, 0.3), (0.05, 0.9)),
)

CAMPAIGNS = [
    (theorem, geometry, seed)
    for theorem, geometries in SUPPORTED.items()
    for geometry in geometries
    for seed in SEEDS
]


def campaign_key(theorem, geometry, seed) -> str:
    return f"{theorem}/{geometry.value}/{seed}"


def report_document(theorem, geometry, seed) -> str:
    return json_document(report_record(run_verification(theorem, geometry, TRIALS, seed)))


def frame_digest(seed: int, directory: Path) -> str:
    path = directory / f"frame-{seed}.svg"
    assert main(["render", "frame", "--seed", str(seed), "--svg", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flag_list(values) -> str:
    return ",".join(repr(v) for v in values)


def locus_commands(index: int) -> dict[str, list[str]]:
    """The four Lexell commands of one fixed input, keyed for golden.json."""
    x, (u, w), areas = LOCUS_INPUTS[index]
    apex = f"--apex={u!r},{w!r}"
    foliate = f"--foliate={_flag_list(areas)}"
    return {
        f"lexell-apex/{index}": ["lexell", repr(x), apex],
        f"lexell-foliate/{index}": ["lexell", repr(x), foliate],
        f"render-locus/{index}": ["render", "locus", f"--x={x!r}", apex],
        f"render-foliation/{index}": ["render", "foliation", f"--x={x!r}", foliate],
    }


LOCUS_COMMANDS = {
    key: argv for i in range(len(LOCUS_INPUTS)) for key, argv in locus_commands(i).items()
}


def command_outcome(argv: list[str], directory: Path) -> dict:
    """Exit code, stdout and SVG sha256 of one ``ccplane`` command."""
    path = directory / "figure.svg"
    path.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--svg", str(path)])
    svg = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "svg_sha256": svg}


def lexell_report(seed: int) -> str:
    return json_document(
        report_record(run_verification("lexell", Geometry.HYPERBOLIC, LEXELL_TRIALS, seed))
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_campaign(golden):
    assert sorted(golden["reports"]) == sorted(campaign_key(*c) for c in CAMPAIGNS)
    assert sorted(golden["frame_svg_sha256"]) == sorted(str(s) for s in FRAME_SEEDS)
    assert sorted(golden["loci"]["reports"]) == sorted(str(s) for s in SEEDS)
    assert sorted(golden["loci"]["commands"]) == sorted(LOCUS_COMMANDS)


@pytest.mark.parametrize("theorem,geometry,seed", CAMPAIGNS,
                         ids=[campaign_key(*c) for c in CAMPAIGNS])
def test_report_is_unchanged(golden, theorem, geometry, seed):
    key = campaign_key(theorem, geometry, seed)
    assert report_document(theorem, geometry, seed) == golden["reports"][key]


@pytest.mark.parametrize("seed", FRAME_SEEDS)
def test_frame_svg_is_unchanged(golden, seed, tmp_path):
    assert frame_digest(seed, tmp_path) == golden["frame_svg_sha256"][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_lexell_report_is_unchanged(golden, seed):
    assert lexell_report(seed) == golden["loci"]["reports"][str(seed)]


@pytest.mark.parametrize("key", sorted(LOCUS_COMMANDS))
def test_locus_command_is_unchanged(golden, key, tmp_path):
    assert command_outcome(LOCUS_COMMANDS[key], tmp_path) == golden["loci"]["commands"][key]


def _changes(old, new, path=()):
    """(key path, old value, new value) of every entry that differs."""
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            yield from _changes(a, b, (*path, key))
        elif a != b:
            yield (*path, key), a, b


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = {
            "reports": {campaign_key(*c): report_document(*c) for c in CAMPAIGNS},
            "frame_svg_sha256": {str(s): frame_digest(s, Path(tmp)) for s in FRAME_SEEDS},
            "loci": {
                "reports": {str(s): lexell_report(s) for s in SEEDS},
                "commands": {
                    key: command_outcome(argv, Path(tmp))
                    for key, argv in LOCUS_COMMANDS.items()
                },
            },
        }
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for path, a, b in _changes(old, data):
        print(f"{' '.join(path)}\n  - {a!r}\n  + {b!r}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
