"""Untraced micro-timings of single layers on fixed inputs.

These do not depend on the workload seed: the inputs are the same in
every run, so the figures compare directly between runs and commits.
Every timing is the median over repeats, in reference seconds.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

from ccplane import corevec
from ccplane.cevians import cevian_frame
from ccplane.kernel import DiskPoint, Geometry, disk_to_hpoint
from ccplane.lexell import BaseConfig, lexell_locus
from ccplane.render import scene_for_locus, scene_to_svg
from ccplane.sampling import sample_interior_point, sample_triangle, substream
from ccplane.verify import run_verification

import yardstick


def _hyp_point(t: float, theta: float):
    return (math.cosh(t), math.sinh(t) * math.cos(theta), math.sinh(t) * math.sin(theta))


# The kernel inputs that benchmarks/bench_corevec.py times.
_P = _hyp_point(0.7, 0.3)
_Q = _hyp_point(1.1, 2.1)
_RAW = tuple(1.0000003 * c for c in _P)
_NORMAL = corevec.mnormalize_space(corevec.mcross(_P, _Q))
_SP = (0.2, 0.3, math.sqrt(1.0 - 0.04 - 0.09))
_SQ = (0.5, -0.1, math.sqrt(1.0 - 0.25 - 0.01))

COREVEC_OPS = (
    ("minner", (_P, _Q)),
    ("mcross", (_P, _Q)),
    ("mnormalize_point", (_RAW,)),
    ("mdist", (_P, _Q)),
    ("mtangent", (_P, _Q)),
    ("mgeo_point", (_P, _NORMAL, 0.8)),
    ("mreflect", (_P, _NORMAL)),
    ("mfoot", (_P, _NORMAL)),
    ("mmid", (_P, _Q)),
    ("sdot", (_SP, _SQ)),
    ("scross", (_SP, _SQ)),
    ("sdist", (_SP, _SQ)),
)

# The ROADMAP L3 table: every campaign some workload runs, with the
# trials of one timed chunk.
L3_CAMPAIGNS = (
    ("euler-ratio", "hyperbolic", 20),
    ("euler-ratio", "spherical", 20),
    ("euler-ratio", "euclidean", 20),
    ("ceva", "hyperbolic", 20),
    ("ceva", "spherical", 20),
    ("ceva", "euclidean", 20),
    ("pqr", "hyperbolic", 20),
    ("pqr", "spherical", 20),
    ("lexell", "hyperbolic", 5),
    ("menelaus", "hyperbolic", 50),
    ("lambert", "hyperbolic", 50),
)

REPEATS = 7
_KERNEL_LOOP = 20_000
_FIXED_INPUTS = 20


def _median_per_call(body, calls: int = 1, stick=yardstick.IN_PROCESS) -> float:
    """Median reference seconds per call of ``body``, which makes ``calls``
    calls."""
    samples = []
    for _ in range(REPEATS):
        before = stick.measure()
        start = time.perf_counter()
        body()
        wall = time.perf_counter() - start
        samples.append(stick.scale(wall, before, stick.measure()) / calls)
    return statistics.median(samples)


def corevec_ns() -> dict[str, float]:
    out = {}
    for name, args in COREVEC_OPS:
        fn = getattr(corevec, name)

        def body(fn=fn, args=args):
            for _ in range(_KERNEL_LOOP):
                fn(*args)

        out[f"corevec.{name}_ns"] = _median_per_call(body, _KERNEL_LOOP) * 1e9
    return out


def construction_us() -> dict[str, float]:
    tris = []
    for i in range(_FIXED_INPUTS):
        rng = substream("perfbench-micro-frame", 0, i)
        tri = sample_triangle(Geometry.HYPERBOLIC, rng)
        tris.append((tri, sample_interior_point(tri, rng)))
    loci = []
    for i in range(_FIXED_INPUTS):
        rng = substream("perfbench-micro-locus", 0, i)
        base = BaseConfig.from_half_distance(rng.uniform(0.3, 1.5))
        apex = disk_to_hpoint(DiskPoint(rng.uniform(-0.7, 0.7), rng.uniform(0.1, 0.7)))
        loci.append((base, apex))
    scenes = [scene_for_locus(lexell_locus(base, apex), apex) for base, apex in loci]

    def frames():
        for tri, o in tris:
            cevian_frame(tri, o)

    def locus():
        for base, apex in loci:
            lexell_locus(base, apex)

    def svg():
        for scene in scenes:
            scene_to_svg(scene)

    n = _FIXED_INPUTS
    return {
        "cevians.cevian_frame_us": _median_per_call(frames, n) * 1e6,
        "lexell.lexell_locus_us": _median_per_call(locus, n) * 1e6,
        "render.scene_to_svg_us": _median_per_call(svg, n) * 1e6,
    }


def verify_us_per_trial() -> dict[str, float]:
    out = {}
    for theorem, geometry, trials in L3_CAMPAIGNS:
        seeds = iter(range(REPEATS))

        def chunk():
            run_verification(theorem, Geometry(geometry), trials, seed=next(seeds))

        out[f"verify.us_per_trial.{theorem}.{geometry}"] = (
            _median_per_call(chunk, trials) * 1e6)
    return out


_COUNT_IMPORTS = (
    "import sys; n = len(sys.modules); import ccplane.cli; "
    "print(len(sys.modules) - n)"
)


def cli_startup(env: dict) -> dict[str, float]:
    """Bare interpreter, fresh ``import ccplane.cli`` and its module count.

    The bare interpreter is the reference that process timings are scaled
    by, so it is reported in wall milliseconds; the import is the scaled
    time of ``python -c "import ccplane.cli"`` less the bare interpreter's
    nominal time.
    """
    stick = yardstick.for_processes(env)
    py = sys.executable
    bare = statistics.median(stick.measure() for _ in range(REPEATS))
    with_cli = _median_per_call(
        lambda: subprocess.run([py, "-c", "import ccplane.cli"], env=env, check=True,
                               capture_output=True, timeout=120),
        stick=stick)
    count = subprocess.run([py, "-c", _COUNT_IMPORTS], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    return {
        "cli.interpreter_ms": bare * 1e3,
        "cli.import_ms": (with_cli - stick.nominal_s) * 1e3,
        "cli.import_modules": int(count.stdout),
    }


def measure_all(env: dict) -> dict[str, float]:
    return {**corevec_ns(), **construction_us(), **verify_us_per_trial(),
            **cli_startup(env)}
