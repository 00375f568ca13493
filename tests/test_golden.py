"""Golden outputs: campaign reports and rendered figures, byte for byte.

Every command entry below has one shape, a command outcome: the exit
code and the sha256 of stderr and of the SVG, with the stdout of
``verify`` and ``lexell`` kept in full, so a moved ``max_residual`` or
``offset`` shows its value, and the sha256 of any other stdout.

``golden.json`` beside this file holds the JSON report of every
``SUPPORTED`` campaign at 50 trials for seeds 0 and 7.  Its ``loci``
entries cover the Lexell figures: the ``verify lexell`` report at 200
trials for seeds 0 and 7, and for each of eight fixed inputs the
outcome of ``lexell X --apex=U,W --svg``, ``lexell X --foliate AREAS
--svg``, ``render locus --svg`` and ``render foliation --svg``.  Its
``construct`` entries hold the outcome of ``construct LENGTHS --svg``
for the README's median lengths, for the ``repr`` lengths of six sampled
hyperbolic frames (substream ``golden-construct``) and for
``1 1 1 1 1 1``, which fails the ratio-sum relation and exits 1.  Its
``loci`` ``residuals`` entries hold the ``repr`` of ``locus_residuals``
with the library defaults (20 samples, 100 chords, seed 0) for each of
the eight inputs: the probe the loci benchmark times, whose chords no
command runs.

Its ``sweep`` entries are the byte-identity sweep: the outcome of every
``ccplane`` line of the README's shell blocks, of ``render frame --seed
S --svg`` for S = 0..39, and of every ``SUPPORTED`` campaign at 2,000
trials (lexell 200) for seeds 11 and 12.

``golden_loci_grid.json`` pins the loci grid: ``lexell X --apex-y Y``,
the same with ``--svg`` and ``render locus --x X --apex-y Y --svg``, for
X in {0.3, 0.8, 1.5, 3, 5} and Y = 1..40 in steps of 0.5, 1,185
commands, with the same outcome fields as the sweep (null where no SVG
is written).  The grid is chosen by its ranges, not by what passes: the
tall apexes that exit 1 today (ROADMAP item 2) are pinned with their
messages.

A change that is meant to keep every output keeps these; a change that
moves a report rewrites both files with

    PYTHONPATH=src python tests/test_golden.py

which prints each moved entry, old and new, to stderr, and lists each
moved report in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from ccplane.cli import main
from ccplane.kernel import DiskPoint, Geometry, disk_to_hpoint, substream
from ccplane.lexell import BaseConfig, lexell_locus, locus_residuals
from ccplane.sampling import sample_frame
from ccplane.verify import SUPPORTED, json_document, report_record, run_verification

GOLDEN = Path(__file__).with_name("golden.json")
GRID_GOLDEN = Path(__file__).with_name("golden_loci_grid.json")
README = Path(__file__).parents[1] / "README.md"
TRIALS = 50
SEEDS = (0, 7)

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


def _flag_list(values) -> str:
    return ",".join(repr(v) for v in values)


def locus_commands(index: int) -> dict[str, list[str]]:
    """The four Lexell commands of one fixed input, keyed for golden.json."""
    x, (u, w), areas = LOCUS_INPUTS[index]
    apex = f"--apex={u!r},{w!r}"
    foliate = f"--foliate={_flag_list(areas)}"
    return {
        f"lexell-apex/{index}": ["lexell", repr(x), apex, "--svg", "-"],
        f"lexell-foliate/{index}": ["lexell", repr(x), foliate, "--svg", "-"],
        f"render-locus/{index}": ["render", "locus", f"--x={x!r}", apex, "--svg", "-"],
        f"render-foliation/{index}": ["render", "foliation", f"--x={x!r}", foliate,
                                      "--svg", "-"],
    }


LOCUS_COMMANDS = {
    key: argv for i in range(len(LOCUS_INPUTS)) for key, argv in locus_commands(i).items()
}


def locus_probe(index: int) -> str:
    """``repr`` of the default probe of one fixed input's locus."""
    x, (u, w), _ = LOCUS_INPUTS[index]
    locus = lexell_locus(BaseConfig.from_half_distance(x), disk_to_hpoint(DiskPoint(u, w)))
    return repr(locus_residuals(locus, samples=20))


# The sweep: the README's commands, frame figures and long campaigns.
SWEEP_FRAME_SEEDS = range(40)
SWEEP_SEEDS = (11, 12)
SWEEP_TRIALS = 2000


def readme_commands() -> dict[str, list[str]]:
    """The ``ccplane`` lines of the README's ``sh`` blocks, keyed by line."""
    commands, in_block = {}, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = line == "```sh"
        elif in_block and line.startswith("ccplane "):
            argv = shlex.split(line, comments=True)[1:]
            commands[f"readme/{shlex.join(argv)}"] = argv
    return commands


def sweep_commands() -> dict[str, list[str]]:
    """The sweep's commands, keyed for golden.json."""
    commands = readme_commands()
    for s in SWEEP_FRAME_SEEDS:
        commands[f"render-frame/{s}"] = ["render", "frame", "--seed", str(s), "--svg", "-"]
    for theorem, geometries in SUPPORTED.items():
        trials = str(LEXELL_TRIALS if theorem == "lexell" else SWEEP_TRIALS)
        for geometry in geometries:
            for seed in SWEEP_SEEDS:
                commands[f"verify/{theorem}/{geometry.value}/{seed}"] = [
                    "verify", theorem, "--geometry", geometry.value, "--trials", trials,
                    "--seed", str(seed),
                ]
    return commands


SWEEP_COMMANDS = sweep_commands()


# The loci grid: five base half-distances, apex heights 1..40 by 0.5.
GRID_XS = (0.3, 0.8, 1.5, 3.0, 5.0)
GRID_YS = tuple(1.0 + 0.5 * i for i in range(79))
GRID_KINDS = ("lexell", "lexell-svg", "render-locus")


def grid_command(kind: str, x: float, y: float) -> list[str]:
    """One loci grid command, without its ``--svg`` path."""
    if kind == "render-locus":
        return ["render", "locus", f"--x={x!r}", f"--apex-y={y!r}"]
    return ["lexell", repr(x), f"--apex-y={y!r}"]


def grid_key(kind: str, x: float, y: float) -> str:
    return f"{kind}/{x!r}/{y!r}"


# The README's median segments of the equilateral triangle of side 1.
README_LENGTHS = ("0.57028982711412934", "0.57028982711412934", "0.57028982711412934",
                  "0.26373540186720129", "0.26373540186720112", "0.26373540186720129")
CONSTRUCT_FRAMES = 6


def construct_commands() -> dict[str, list[str]]:
    """The ``construct`` commands pinned in golden.json, keyed by input."""
    commands = {"construct/readme": ["construct", *README_LENGTHS]}
    for i in range(CONSTRUCT_FRAMES):
        fr = sample_frame(Geometry.HYPERBOLIC, substream("golden-construct", 0, i))
        lengths = (fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of)
        commands[f"construct/frame-{i}"] = ["construct", *(repr(v) for v in lengths)]
    commands["construct/infeasible"] = ["construct", *"1 1 1 1 1 1".split()]
    return {key: [*argv, "--svg", "-"] for key, argv in commands.items()}


CONSTRUCT_COMMANDS = construct_commands()


def _sha256(data) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def sweep_outcome(argv: list[str], directory: Path) -> dict:
    """Exit code and output digests of one ``ccplane`` command.

    ``--svg PATH`` writes to a file in ``directory`` instead of PATH.
    ``verify`` and ``lexell`` keep their stdout in full, other commands
    its sha256.
    """
    path = directory / "figure.svg"
    path.unlink(missing_ok=True)
    argv = [str(path) if prev == "--svg" else a for prev, a in zip([None, *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    outcome = {
        "exit": code,
        "stderr_sha256": _sha256(err.getvalue().encode()),
        "svg_sha256": _sha256(path.read_bytes() if path.exists() else None),
    }
    if argv[0] in ("verify", "lexell"):
        outcome["stdout"] = out.getvalue()
    else:
        outcome["stdout_sha256"] = _sha256(out.getvalue().encode())
    return outcome


def grid_outcome(kind: str, x: float, y: float, directory: Path) -> dict:
    """Exit code and output digests of one loci grid command."""
    svg = [] if kind == "lexell" else ["--svg", "-"]
    return sweep_outcome(grid_command(kind, x, y) + svg, directory)


def grid_outcomes(kind: str, x: float, directory: Path) -> dict[str, dict]:
    """Outcomes of one command kind at one half-distance, keyed by grid_key."""
    return {grid_key(kind, x, y): grid_outcome(kind, x, y, directory) for y in GRID_YS}


def lexell_report(seed: int) -> str:
    return json_document(
        report_record(run_verification("lexell", Geometry.HYPERBOLIC, LEXELL_TRIALS, seed))
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def grid_golden():
    return json.loads(GRID_GOLDEN.read_text())


def test_golden_file_covers_every_campaign(golden):
    assert sorted(golden["reports"]) == sorted(campaign_key(*c) for c in CAMPAIGNS)
    assert sorted(golden["loci"]["reports"]) == sorted(str(s) for s in SEEDS)
    assert sorted(golden["loci"]["commands"]) == sorted(LOCUS_COMMANDS)
    assert sorted(golden["loci"]["residuals"]) == [str(i) for i in range(len(LOCUS_INPUTS))]
    assert sorted(golden["sweep"]) == sorted(SWEEP_COMMANDS)
    assert len(readme_commands()) == 12
    assert sorted(golden["construct"]) == sorted(CONSTRUCT_COMMANDS)


def test_grid_file_covers_the_grid(grid_golden):
    keys = [grid_key(kind, x, y) for kind in GRID_KINDS for x in GRID_XS for y in GRID_YS]
    assert len(keys) == 1185
    assert sorted(grid_golden) == sorted(keys)


@pytest.mark.parametrize("theorem,geometry,seed", CAMPAIGNS,
                         ids=[campaign_key(*c) for c in CAMPAIGNS])
def test_report_is_unchanged(golden, theorem, geometry, seed):
    key = campaign_key(theorem, geometry, seed)
    assert report_document(theorem, geometry, seed) == golden["reports"][key]


@pytest.mark.parametrize("seed", SEEDS)
def test_lexell_report_is_unchanged(golden, seed):
    assert lexell_report(seed) == golden["loci"]["reports"][str(seed)]


@pytest.mark.parametrize("key", sorted(LOCUS_COMMANDS))
def test_locus_command_is_unchanged(golden, key, tmp_path):
    assert sweep_outcome(LOCUS_COMMANDS[key], tmp_path) == golden["loci"]["commands"][key]


@pytest.mark.parametrize("index", range(len(LOCUS_INPUTS)))
def test_locus_probe_is_unchanged(golden, index):
    assert locus_probe(index) == golden["loci"]["residuals"][str(index)]


@pytest.mark.parametrize("key", sorted(CONSTRUCT_COMMANDS))
def test_construct_command_is_unchanged(golden, key, tmp_path):
    assert sweep_outcome(CONSTRUCT_COMMANDS[key], tmp_path) == golden["construct"][key]


@pytest.mark.parametrize("kind", GRID_KINDS)
@pytest.mark.parametrize("x", GRID_XS)
def test_loci_grid_is_unchanged(grid_golden, kind, x, tmp_path):
    outcomes = grid_outcomes(kind, x, tmp_path)
    moved = [key for key, outcome in outcomes.items() if outcome != grid_golden[key]]
    assert not moved, f"moved grid entries: {moved}"


@pytest.mark.parametrize(
    "key", sorted(k for k in SWEEP_COMMANDS if not k.startswith("render-frame/"))
)
def test_sweep_command_is_unchanged(golden, key, tmp_path):
    assert sweep_outcome(SWEEP_COMMANDS[key], tmp_path) == golden["sweep"][key]


def test_sweep_frames_are_unchanged(golden, tmp_path):
    moved = [
        key
        for key, argv in SWEEP_COMMANDS.items()
        if key.startswith("render-frame/")
        and sweep_outcome(argv, tmp_path) != golden["sweep"][key]
    ]
    assert not moved, f"moved sweep entries: {moved}"


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
            "loci": {
                "reports": {str(s): lexell_report(s) for s in SEEDS},
                "commands": {
                    key: sweep_outcome(argv, Path(tmp))
                    for key, argv in LOCUS_COMMANDS.items()
                },
                "residuals": {str(i): locus_probe(i) for i in range(len(LOCUS_INPUTS))},
            },
            "construct": {
                key: sweep_outcome(argv, Path(tmp))
                for key, argv in CONSTRUCT_COMMANDS.items()
            },
            "sweep": {
                key: sweep_outcome(argv, Path(tmp)) for key, argv in SWEEP_COMMANDS.items()
            },
        }
        grid = {
            key: outcome
            for kind in GRID_KINDS
            for x in GRID_XS
            for key, outcome in grid_outcomes(kind, x, Path(tmp)).items()
        }
    for path, new in ((GOLDEN, data), (GRID_GOLDEN, grid)):
        old = json.loads(path.read_text()) if path.exists() else {}
        for keys, a, b in _changes(old, new):
            print(f"{' '.join(keys)}\n  - {a!r}\n  + {b!r}", file=sys.stderr)
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
