"""Workload definitions: the op streams, how each op runs, how it is checked.

Every op is generated from ``random.Random(f"{workload}:{seed}:{index}")``,
so a seed fixes the whole op stream and op ``i`` never depends on how many
ops a run managed to complete.  The program only ever sees the generated
inputs.  The in-process workloads run an endless stream of fresh ops; the
oneshot workload passes over its fixed list of ``prefix`` commands again
and again, so the set of distinct commands a run attempts, and which of
them fail, is fixed by the seed however long the run is.

An op's ``call`` is the timed part: the calls into ccplane and nothing
else.  ``check`` runs afterwards, untimed, and turns the program's result
into an ``Outcome``.  An op *fails* when it raises, exits non-zero, fails
its campaign gate or produces output that does not check out; an output
that the program hands back as a success but that does not check out is
additionally *wrong*, which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ccplane import cli
from ccplane import kernel as k
from ccplane.kernel import Geometry
from ccplane.lexell import (
    BaseConfig,
    foliation,
    lexell_locus,
    locus_residuals,
    max_apex_area,
)
from ccplane.render import scene_for_foliation, scene_for_locus, scene_to_svg
from ccplane.sampling import sample_frame, substream
from ccplane.verify import run_verification

# Gates a locus must meet: the acceptance suite's criterion-10 bounds.
AREA_GATE = 1e-8
LOCUS_GATE = 1e-9
# Construction round trip (criterion-05) and the construction's own
# ratio-sum tolerance.
ROUNDTRIP_GATE = 1e-8
RELATION_GATE = 1e-8

SVG_ROOT = "{http://www.w3.org/2000/svg}svg"

FRAMES_CAMPAIGNS = (
    ("euler-ratio", "hyperbolic"),
    ("euler-ratio", "spherical"),
    ("euler-ratio", "euclidean"),
    ("ceva", "hyperbolic"),
    ("ceva", "spherical"),
    ("ceva", "euclidean"),
    ("pqr", "hyperbolic"),
    ("pqr", "spherical"),
)
FRAMES_TRIALS = 20

LOCI_CAMPAIGN_TRIALS = 4
LOCI_LEAVES = 3
LOCI_CYCLE = ("campaign", "figure", "figure", "foliation")

ONESHOT_CYCLE = (
    "render-frame",
    "render-locus",
    "render-foliation",
    "lexell",
    "lexell-foliate",
    "construct",
    "verify-menelaus",
    "verify-lambert",
    "verify-euler-ratio",
)
ONESHOT_VERIFY_TRIALS = {"menelaus": 200, "lambert": 200, "euler-ratio": 50}
# A command this slow counts as failed, so a hang cannot stall the run.
COMMAND_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What one op did: its size in ops, failures and residual ratios."""

    ops: int
    failed: int = 0
    wrong: bool = False
    ratios: tuple[float, ...] = ()  # residual / gate, for every gated output
    svg_bytes: tuple[int, ...] = ()
    note: str = ""


def _fail(op_size: int, note: str, wrong: bool = False) -> Outcome:
    return Outcome(ops=op_size, failed=op_size, wrong=wrong, note=note)


def _svg_ok(svg: str) -> bool:
    try:
        return ET.fromstring(svg).tag == SVG_ROOT
    except ET.ParseError:
        return False


def _gated(op_size: int, pairs, svgs=()) -> Outcome:
    """Outcome of a successful call: every (residual, gate) must hold and
    every SVG must parse, or the output is wrong."""
    ratios = tuple(abs(r) / g for r, g in pairs)
    bad_svg = not all(_svg_ok(s) for s in svgs)
    if bad_svg or not all(math.isfinite(r) and r <= 1.0 for r in ratios):
        return Outcome(
            ops=op_size, failed=op_size, wrong=True, ratios=ratios,
            note="svg does not parse" if bad_svg else "residual over gate",
        )
    return Outcome(ops=op_size, ratios=ratios, svg_bytes=tuple(len(s) for s in svgs))


def _disk_apex(rng: random.Random) -> tuple[float, float]:
    # The apex range the lexell campaign draws from.
    u = rng.uniform(-0.7, 0.7)
    w = rng.uniform(0.1, 0.7) * (1.0 if rng.random() < 0.5 else -1.0)
    return u, w


def _targets(rng: random.Random, x: float, n: int) -> tuple[float, ...]:
    # Uniform inside the open attainable range (0, max_apex_area(x)).
    limit = max_apex_area(x)
    return tuple(limit * rng.random() for _ in range(n))


# ---------------------------------------------------------------- in-process


@dataclass(frozen=True)
class Campaign:
    """One fixed-size ``run_verification`` call; each trial is an op."""

    theorem: str
    geometry: str
    trials: int
    seed: int

    @property
    def size(self) -> int:
        return self.trials

    @property
    def label(self) -> str:
        return f"{self.theorem}.{self.geometry}"

    def call(self):
        return run_verification(
            self.theorem, Geometry(self.geometry), self.trials, self.seed
        )

    def check(self, rep) -> Outcome:
        consistent = (
            rep.theorem == self.theorem
            and rep.geometry.value == self.geometry
            and rep.trials == self.trials
            and rep.passed == (rep.max_residual <= rep.tolerance)
        )
        if not consistent:
            return _fail(self.size, "report inconsistent with its inputs", wrong=True)
        ratio = rep.max_residual / rep.tolerance
        if not rep.passed:
            return Outcome(ops=self.size, failed=self.size, ratios=(ratio,),
                           note="campaign gate failed")
        return Outcome(ops=self.size, ratios=(ratio,))


@dataclass(frozen=True)
class LocusFigure:
    """What ``ccplane lexell X --apex=U,W --svg`` computes, in process."""

    x: float
    u: float
    w: float

    label = "figure"
    size = 1

    def call(self):
        base = BaseConfig.from_half_distance(self.x)
        apex = k.disk_to_hpoint(k.DiskPoint(self.u, self.w))
        locus = lexell_locus(base, apex)
        res = locus_residuals(locus, samples=20)
        return res, scene_to_svg(scene_for_locus(locus, apex))

    def check(self, result) -> Outcome:
        res, svg = result
        return _gated(
            1,
            (
                (res.area_spread, AREA_GATE),
                (res.mirror_residual, LOCUS_GATE),
                (res.midline_residual, LOCUS_GATE),
                (res.subarc_residual, LOCUS_GATE),
            ),
            (svg,),
        )


@dataclass(frozen=True)
class FoliationFigure:
    """``foliation`` plus its figure; each leaf is an op."""

    x: float
    areas: tuple[float, ...]

    label = "foliation"

    @property
    def size(self) -> int:
        return len(self.areas)

    def call(self):
        base = BaseConfig.from_half_distance(self.x)
        leaves = tuple(foliation(base, list(self.areas)))
        return leaves, scene_to_svg(scene_for_foliation(base, leaves))

    def check(self, result) -> Outcome:
        leaves, svg = result
        if len(leaves) != self.size:
            return _fail(self.size, "leaf count differs from the targets", wrong=True)
        pairs = [
            (leaf.area - target, AREA_GATE)
            for leaf, target in zip(leaves, sorted(self.areas))
        ]
        return _gated(self.size, pairs, (svg,))


def frames_op(seed: int, i: int) -> Campaign:
    theorem, geometry = FRAMES_CAMPAIGNS[i % len(FRAMES_CAMPAIGNS)]
    rng = random.Random(f"frames:{seed}:{i}")
    return Campaign(theorem, geometry, FRAMES_TRIALS, rng.randrange(1 << 31))


def loci_op(seed: int, i: int):
    rng = random.Random(f"loci:{seed}:{i}")
    kind = LOCI_CYCLE[i % len(LOCI_CYCLE)]
    if kind == "campaign":
        return Campaign("lexell", "hyperbolic", LOCI_CAMPAIGN_TRIALS,
                        rng.randrange(1 << 31))
    x = rng.uniform(0.3, 1.5)
    if kind == "figure":
        return LocusFigure(x, *_disk_apex(rng))
    return FoliationFigure(x, _targets(rng, x, LOCI_LEAVES))


# ------------------------------------------------------------------ commands


def _num(v: float) -> str:
    return repr(float(v))


def _areas_arg(areas) -> str:
    return ",".join(_num(a) for a in areas)


@dataclass(frozen=True)
class Command:
    """One ``ccplane`` command line; ``{svg}`` marks the SVG path."""

    kind: str
    args: tuple[str, ...]
    expect: tuple[float, ...] = ()  # kind-specific inputs the check needs

    size = 1

    @property
    def label(self) -> str:
        return self.kind

    def argv(self, svg_path: Path) -> list[str]:
        return [a.replace("{svg}", str(svg_path)) for a in self.args]

    def run_process(self, svg_path: Path, env: dict) -> tuple[int, str]:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ccplane", *self.argv(svg_path)],
                capture_output=True, text=True, env=env, timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            return -1, ""
        return proc.returncode, proc.stdout

    def run_in_process(self, svg_path: Path) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(self.argv(svg_path))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # what an uncaught error exits with in a process
                code = 1
        return code, out.getvalue()

    def check(self, code: int, stdout: str, svg_path: Path) -> Outcome:
        if code != 0:
            return _fail(1, f"exit {code}")
        svgs = ()
        if "{svg}" in self.args:
            try:
                svgs = (svg_path.read_text(encoding="utf-8"),)
            except OSError:
                return _fail(1, "no svg written", wrong=True)
        if self.kind.startswith("render-"):
            if stdout:
                return _fail(1, "render wrote to stdout", wrong=True)
            return _gated(1, (), svgs)
        try:
            record = json.loads(stdout)
        except ValueError:
            return _fail(1, "stdout is not JSON", wrong=True)
        keys = _EXPECTED_KEYS[self.kind]
        if not isinstance(record, dict) or set(record) != keys:
            return _fail(1, "unexpected JSON keys", wrong=True)
        return _CHECKS[self.kind](self, record, svgs)


def _check_verify(cmd: Command, record: dict, svgs) -> Outcome:
    if not record["passed"] or record["max_residual"] > record["tolerance"]:
        return _fail(1, "passed report over its gate", wrong=True)
    return _gated(1, ((record["max_residual"], record["tolerance"]),), svgs)


def _check_lexell(cmd: Command, record: dict, svgs) -> Outcome:
    if record["half_distance"] != cmd.expect[0]:
        return _fail(1, "half-distance not echoed", wrong=True)
    return _gated(1, ((record["area_spread"], AREA_GATE),), svgs)


def _check_foliate(cmd: Command, record: dict, svgs) -> Outcome:
    targets = sorted(cmd.expect[1:])
    if record["leaf_count"] != len(targets) or len(record["areas"]) != len(targets):
        return _fail(1, "leaf count differs from the targets", wrong=True)
    pairs = [(a - t, AREA_GATE) for a, t in zip(record["areas"], targets)]
    return _gated(1, pairs, svgs)


def _check_construct(cmd: Command, record: dict, svgs) -> Outcome:
    return _gated(
        1,
        (
            (record["roundtrip_length_residual"], ROUNDTRIP_GATE),
            (record["roundtrip_angle_residual"], ROUNDTRIP_GATE),
            (record["relation_residual"], RELATION_GATE),
        ),
        svgs,
    )


_UNIT_KEYS = {"units", "angle_units"}
_EXPECTED_KEYS = {
    "lexell": _UNIT_KEYS | {"half_distance", "axis_angle_1", "axis_angle_2",
                            "offset", "area", "area_spread", "samples"},
    "lexell-foliate": _UNIT_KEYS | {"half_distance", "leaf_count", "areas", "offsets"},
    "construct": _UNIT_KEYS | {
        "delta", "heron_area", "aux_g", "aux_h", "aux_i", "angle_bof", "angle_aof",
        "angle_bod", "angle_boc", "angle_aoc", "angle_aob", "vertex_ax", "vertex_ay",
        "vertex_bx", "vertex_by", "vertex_cx", "vertex_cy", "relation_residual",
        "containment_residual", "roundtrip_length_residual",
        "roundtrip_angle_residual",
    },
}
_VERIFY_KEYS = _UNIT_KEYS | {"theorem", "geometry", "trials", "seed", "tolerance",
                             "max_residual", "passed"}
_CHECKS = {"lexell": _check_lexell, "lexell-foliate": _check_foliate,
           "construct": _check_construct}
for _theorem in ONESHOT_VERIFY_TRIALS:
    _EXPECTED_KEYS[f"verify-{_theorem}"] = _VERIFY_KEYS
    _CHECKS[f"verify-{_theorem}"] = _check_verify


def oneshot_op(seed: int, i: int) -> Command:
    rng = random.Random(f"oneshot:{seed}:{i}")
    kind = ONESHOT_CYCLE[i % len(ONESHOT_CYCLE)]
    if kind == "render-frame":
        # Seeds are taken as drawn and never filtered, so the renderer's
        # known failures show up in the failure counts.
        return Command(kind, ("render", "frame", "--seed", str(rng.randrange(10**6)),
                              "--svg", "{svg}"))
    if kind.startswith("verify-"):
        theorem = kind[len("verify-"):]
        return Command(kind, ("verify", theorem, "--geometry", "hyperbolic",
                              "--trials", str(ONESHOT_VERIFY_TRIALS[theorem]),
                              "--seed", str(rng.randrange(1 << 31))))
    if kind == "construct":
        frame = sample_frame(Geometry.HYPERBOLIC, substream("oneshot-construct", seed, i))
        lengths = (frame.ao, frame.bo, frame.co, frame.od, frame.oe, frame.of)
        return Command(kind, ("construct", *map(_num, lengths), "--svg", "{svg}"))
    x = rng.uniform(0.3, 1.5)
    if kind in ("render-locus", "lexell"):
        u, w = _disk_apex(rng)
        apex = f"--apex={_num(u)},{_num(w)}"
        if kind == "lexell":
            return Command(kind, ("lexell", _num(x), apex, "--svg", "{svg}"), (x,))
        return Command(kind, ("render", "locus", "--x", _num(x), apex, "--svg", "{svg}"))
    areas = _targets(rng, x, LOCI_LEAVES)
    if kind == "lexell-foliate":
        return Command(kind, ("lexell", _num(x), "--foliate", _areas_arg(areas),
                              "--svg", "{svg}"), (x, *areas))
    return Command(kind, ("render", "foliation", "--x", _num(x),
                          "--foliate", _areas_arg(areas), "--svg", "{svg}"))


def execute(op, svg_path: Path, env: dict | None) -> tuple[float, Outcome]:
    """Run one op and check it; returns (seconds in the program, outcome).

    Commands run as ``ccplane`` processes with ``env``, or in this
    process through ``cli.main`` when ``env`` is None.
    """
    clock = time.perf_counter
    if isinstance(op, Command):
        svg_path.unlink(missing_ok=True)
        start = clock()
        if env is None:
            code, stdout = op.run_in_process(svg_path)
        else:
            code, stdout = op.run_process(svg_path, env)
        elapsed = clock() - start
        return elapsed, op.check(code, stdout, svg_path)
    start = clock()
    try:
        result = op.call()
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return clock() - start, _fail(op.size, f"{type(exc).__name__}: {exc}")
    elapsed = clock() - start
    return elapsed, op.check(result)


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[int, int], object]  # (seed, index) -> op
    round_len: int  # ops per round: one pass over the fixed mix
    prefix: int  # ops that always run; residual and count metrics use these
    in_process: bool
    modules: tuple[str, ...]  # entry points a fresh process imports for set-up
    cycles: bool = False  # pass over the prefix again instead of going on

    def ops(self, seed: int):
        """(stream index, op) pairs: the prefix, then more of the stream or,
        when the workload cycles, the prefix over again."""
        if self.cycles:
            return itertools.cycle(enumerate(self.op_list(seed, self.prefix)))
        return ((i, self.make_op(seed, i)) for i in itertools.count())

    def op_list(self, seed: int, n: int) -> list:
        return [self.make_op(seed, i) for i in range(n)]


WORKLOADS = {
    "frames": Workload("frames", frames_op, len(FRAMES_CAMPAIGNS), 64, True,
                       ("ccplane.verify",)),
    "loci": Workload("loci", loci_op, len(LOCI_CYCLE), 64, True,
                     ("ccplane.verify", "ccplane.lexell", "ccplane.render")),
    "oneshot": Workload("oneshot", oneshot_op, len(ONESHOT_CYCLE), 36, False,
                        ("ccplane.cli",), cycles=True),
}
