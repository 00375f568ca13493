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

Six more tests read the same sources: one holds the five line
operations to their one home on ``PlaneModel``, one holds each model to
two coordinate maps, ``lift`` and ``project``, one holds ``kernel`` to
six free functions beside the models, one holds the angle and the
midpoint to their one home on ``PlaneModel``, one holds the sheet
normalization to ``HyperboloidModel.project`` and the disk chart, and one
counts the places in each module that name a plane.
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
    "cevians.RatioSumInput.from_frame": "test oracle: builds the converse input from a sampled frame",
    "cevians.projection_oracle": "test oracle: the projection used to derive the ratio sums",
    "corevec.mdist": "L0 kernel timed by perfbench; kernel.hdist writes it out inline",
    "corevec.mfoot": "L0 kernel timed by perfbench; PlaneModel.foot writes it out inline",
    "corevec.minner": (
        "L0 kernel timed by perfbench; mnormalize_point writes the form out, "
        "and its one caller, HyperboloidModel._recentre, is listed below"
    ),
    "corevec.mmid": "L0 kernel timed by perfbench; PlaneModel.mid writes it out",
    "corevec.mnormalize_space": "builds perfbench's L0 line normal; mtangent calls it",
    "corevec.mreflect": "L0 kernel timed by perfbench; the Lexell bisector mirror is its sign flip",
    "corevec.mtangent": "L0 kernel timed by perfbench; the tangent-route angle oracle writes it out",
    "corevec.scross": "L0 kernel timed by perfbench; SphereModel writes it out inline",
    "corevec.sdist": "L0 kernel timed by perfbench; SphereModel.dist writes it out inline",
    "corevec.stangent": "test oracle for the point-route angle",
    "kernel.Record.__delattr__": "value classes are immutable; test_records holds the refusal",
    "kernel.Record.__eq__": "value equality, held by test_records; no command compares records",
    "kernel.Record.__hash__": "value hashing, held by test_records; no command hashes records",
    "kernel.Record.__repr__": "value repr, held by test_records; no command prints a record",
    "kernel.Record.__setattr__": "value classes are immutable; test_records holds the refusal",
    "kernel.Record._values": "field tuple behind __eq__ and __hash__",
    "kernel.HyperboloidModel._recentre": (
        "HyperboloidModel.angle past v0 = 75: `lexell --apex-y` above about 5 reaches it"
    ),
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


# The incidence operations of the three planes, written once on PlaneModel,
# and the hyperboloid's free functions they replaced.
LINE_OPERATIONS = ("line", "meet", "side_value", "line_residual", "foot")
REPLACED = ("geodesic_through", "intersect_geodesics", "geodesic_residual",
            "foot_of_perpendicular")


def test_line_operations_have_one_home():
    defined = [n for n in _functions().values() if n.rsplit(".", 1)[1] in LINE_OPERATIONS]
    assigned, mentions = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                assigned += [
                    f"{path.stem}.{node.name}.{target.id}"
                    for item in node.body if isinstance(item, ast.Assign)
                    for target in item.targets
                    if isinstance(target, ast.Name) and target.id in LINE_OPERATIONS
                ]
            # Definitions, imports, names and attributes alike.
            name = (getattr(node, "name", None) or getattr(node, "id", None)
                    or getattr(node, "attr", None))
            if name in REPLACED:
                mentions.append(f"{path.name}:{node.lineno} {name}")
    assert sorted(defined) == sorted(f"kernel.PlaneModel.{op}" for op in LINE_OPERATIONS)
    assert assigned == []
    assert mentions == []


# A plane model has two coordinate maps, ``lift`` (point to homogeneous
# vector) and ``project`` (back).  These names were the ambient coordinate
# system beside them and the hyperboloid-only projection.
REMOVED_MAPS = ("coords", "_normalize", "normalize_to_hyperboloid", "radial_project",
                "TangentPoint")


def test_each_model_has_one_pair_of_coordinate_maps():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # Definitions, imports, attributes and class-body assignments;
            # a local variable of that name is not a coordinate map.
            names = [getattr(node, "name", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ClassDef):
                names += [
                    target.id
                    for item in node.body if isinstance(item, ast.Assign)
                    for target in ast.walk(item) if isinstance(target, ast.Name)
                ]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in REMOVED_MAPS]
    assert found == []
    models = {n.rsplit(".", 1)[0] for n in _functions().values()
              if n.rsplit(".", 1)[1] == "project"}
    assert models == {"kernel.HyperboloidModel", "kernel.SphereModel", "kernel.EuclideanModel"}


# The hyperbolic plane's operations live on HyperboloidModel, as the
# sphere's live on SphereModel.  The free functions left in ``kernel`` are
# below, each with the reason it is not a model's method; the names in
# MOVED_TO_MODEL were the hyperboloid's second interface beside its model.
KERNEL_FUNCTIONS = {
    "on_sheet": "the sheet check, on bare vectors",
    "hdist": "the hyperbolic distance, on bare vectors",
    "substream": "the seeded streams of the campaigns",
    "disk_to_hpoint": "the disk chart, from the disk",
    "hpoint_to_disk": "the disk chart, into the disk",
    "ideal_endpoints": "the disk chart's boundary map",
}
MOVED_TO_MODEL = ("angle_at", "midpoint", "point_along", "reflect_across", "direction",
                  "tangent_direction", "tangent_basis")


def test_kernel_keeps_its_free_functions():
    tree = ast.parse((SRC / "kernel.py").read_text(encoding="utf-8"))
    public = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    assert sorted(public) == sorted(KERNEL_FUNCTIONS)
    # The boundary map has this one home; the renderer and the CLI read it.
    names = _functions().values()
    assert [n for n in names if n.endswith(".ideal_endpoints")] == ["kernel.ideal_endpoints"]
    # No module reaches for the old names, as an attribute or an import.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.name if isinstance(node, ast.alias) else getattr(node, "attr", None)
            if name in MOVED_TO_MODEL:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []


# The angle between two lines is written once, on PlaneModel, and every
# plane measures the angle at a point through it: the hyperboloid keeps
# only its recentring of a far vertex, and no model builds tangents.  The
# midpoint is written once too, on PlaneModel.
def test_angles_have_one_home():
    names = _functions().values()
    assert sorted(n for n in names if n.endswith(".angle")) == [
        "kernel.HyperboloidModel.angle", "kernel.PlaneModel.angle"]
    assert [n for n in names if n.endswith(".line_angle")] == ["kernel.PlaneModel.line_angle"]
    assert [n for n in names if n.endswith(".mid")] == ["kernel.PlaneModel.mid"]
    assert [n for n in names if n.endswith("._tangent")] == []
    tree = ast.parse((SRC / "kernel.py").read_text(encoding="utf-8"))
    (angle,) = [
        item for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "HyperboloidModel"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "angle"
    ]
    assert [node.attr for node in ast.walk(angle)
            if isinstance(node, ast.Attribute) and node.attr == "atan2"] == []


# Every point a model builds from a homogeneous vector (feet, midpoints,
# meets) comes back through its ``project``, so the hyperboloid's sheet
# normalization is written in ``kernel`` only there and in the disk
# chart's lift.
def test_sheet_normalization_only_in_project():
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.alias):
                name = child.name
            else:
                name = getattr(child, "attr", None) or getattr(child, "id", None)
            if name == "mnormalize_point":
                found.add(where or "<module>")
            visit(child, where)

    visit(ast.parse((SRC / "kernel.py").read_text(encoding="utf-8")), "")
    assert found == {"HyperboloidModel.project", "disk_to_hpoint"}


# The places that name a plane (``Geometry.HYPERBOLIC``, ``SPHERICAL`` or
# ``EUCLIDEAN``), per module.  Every other function reads its plane from
# its input, as ``cevian_frame`` reads it from its triangle.  Removing a
# fork lowers a count here; adding one must say why.
GEOMETRY_TAGS = {
    "verify": 4, "cevians": 3, "cli": 3, "kernel": 3, "sampling": 3, "lexell": 2, "render": 2,
}


def test_geometry_tags_per_module():
    members = {"HYPERBOLIC", "SPHERICAL", "EUCLIDEAN"}
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        n = sum(
            1 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in members
            and isinstance(node.value, ast.Name) and node.value.id == "Geometry"
        )
        if n:
            counts[path.stem] = n
    assert counts == GEOMETRY_TAGS
