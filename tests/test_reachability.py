"""Every ``src/`` function is entered by some command or campaign.

A fresh interpreter installs ``sys.setprofile`` before ``import
ccplane``, so calls made while the package imports count.  It then runs,
in process through ``cli.main``, every ``ccplane`` line of the README
(SVGs go to a temporary directory), every ``SUPPORTED`` campaign at
``TRIALS`` trials, and ``render frame`` for seeds 0-19.  The functions
it never enters must be exactly ``UNREACHED``, each with the reason it
stays.  A function that no command needs fails this test until it is
deleted, given a caller, or listed here; deleting or reviving a listed
one means updating the list.  Class bodies, lambdas and comprehensions
are not counted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccplane"

TRIALS = 20
FRAME_SEEDS = 20

UNREACHED = {
    "cevians.ProjectionOracle.__init__": "built only by projection_oracle",
    "cevians.RatioSumInput.from_frame": "test oracle: builds the converse input from a sampled frame",
    "cevians.projection_oracle": "test oracle: the projection used to derive the ratio sums",
    "cli._parse_tolerance": "argparse type of --tolerance, which no README line passes",
    "corevec.mdist": "L0 kernel timed by perfbench; kernel.hdist writes it out inline",
    "corevec.mtangent": "L0 kernel timed by perfbench; kernel._tangent_at writes it out inline",
    "corevec.scross": "L0 kernel timed by perfbench; SphereModel writes it out inline",
    "corevec.sdist": "L0 kernel timed by perfbench; SphereModel.dist writes it out inline",
    "corevec.stangent": "test_kernel's reference for SphereModel's tangents",
    "kernel.Record.__delattr__": "value classes are immutable; test_records holds the refusal",
    "kernel.Record.__eq__": "value equality, held by test_records; no command compares records",
    "kernel.Record.__hash__": "value hashing, held by test_records; no command hashes records",
    "kernel.Record.__repr__": "value repr, held by test_records; no command prints a record",
    "kernel.Record.__setattr__": "value classes are immutable; test_records holds the refusal",
    "kernel.Record._values": "field tuple behind __eq__ and __hash__",
    "kernel.TangentPoint.__init__": "built only by radial_project",
    "kernel._recentre": "angle_at past v0 = 75: `lexell --apex-y` above about 5 reaches it",
    "kernel.direction": "public primitive; lexell takes its tangents from mcross",
    "kernel.mink_inner": "exported Minkowski form; the package uses corevec.minner",
    "kernel.radial_project": "test oracle for the hyperboloid projection",
    "kernel.tangent_direction": "builds test apexes and points along rays",
    "lexell._check_ideal_angles": "checks the inputs of the two ideal-vertex formulas below",
    "lexell.apex_area_formula": "closed-form reference that the tests hold the deficit to",
    "lexell.apex_triangle": "builds the split configuration for the split-area tests",
    "lexell.area_profile": "the paper's form of the area, a test reference",
    "lexell.cosh_c_from_angles": "ideal-vertex identity of the paper, checked by tests",
    "lexell.ideal_limit_area": "the two-ideal-vertex area of the paper, checked by tests",
    "lexell.sinh_c_from_angles": "ideal-vertex identity of the paper, checked by tests",
    "lexell.split_area_limits": "ideal limits of split_areas, checked by tests",
    "lexell.split_areas": "the paper's split areas; the locus probe sums the same pieces",
    "lexell.triangle_area": "deficit area of a Triangle, checked by tests",
    "lexell.truncated_ideal_area": "far-vertex stand-in for ideal_limit_area, checked by tests",
    "sampling._angles_ok": "exact-angle fallback inside the pre-test margin; rare draws reach it",
    "trig.cathetus_from_hypotenuse": "right-triangle law checked by tests",
}

# Runs in a fresh interpreter: argv[1] is the source directory, argv[2]
# a scratch directory for SVGs, argv[3] the README, argv[4] the trial
# count and argv[5] the number of frame seeds.  Prints the entered
# (file, first line, name) triples as JSON.
_WORKLOAD = r"""
import contextlib, io, json, sys

src, tmp, readme, trials, frames = sys.argv[1:6]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(src):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from ccplane.cli import main
from ccplane.verify import SUPPORTED, run_verification

lines = [
    line.split("#")[0].split()
    for line in open(readme, encoding="utf-8")
    if line.startswith("ccplane ")
]
commands = [
    [f"{tmp}/{arg}" if arg.endswith(".svg") else arg for arg in words[1:]]
    for words in lines
]
commands += [
    ["render", "frame", "--seed", str(seed), "--svg", f"{tmp}/frame-{seed}.svg"]
    for seed in range(int(frames))
]
sink = io.StringIO()
for argv in commands:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(argv)
        except SystemExit:
            pass
for theorem, geometries in SUPPORTED.items():
    for geometry in geometries:
        run_verification(theorem, geometry, int(trials), 0)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module-qualified name of every function in src/.

    The first line is the first decorator's when there is one, as in the
    code object's ``co_firstlineno``.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{module}.{name}"
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_every_function_is_reached_or_listed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            _WORKLOAD,
            str(SRC),
            str(tmp_path),
            str(ROOT / "README.md"),
            str(TRIALS),
            str(FRAME_SEEDS),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    functions = _functions()
    entered = {
        functions[(path, line)]
        for path, line, _ in json.loads(result.stdout)
        if (path, line) in functions
    }
    assert entered, "the profile saw no ccplane call"
    unreached = set(functions.values()) - entered
    assert sorted(unreached) == sorted(UNREACHED)
