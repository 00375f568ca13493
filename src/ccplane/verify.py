"""Randomized verification campaigns and deterministic JSON reports.

Each campaign is a draw and a measure.  The draw takes one trial's
figure, the inputs of its construction, from the trial's seed-split
substream; the measure builds that figure and returns the worst residual
of one identity, and draws nothing, so trial i can be drawn again from
``substream(f"verify-{theorem}-{geometry.value}", seed, i)`` and
measured alone.  The worst trial folds into a report, and
``report_record`` flattens it into the record whose JSON form the CLI
writes (``cli.json_document``), byte-identical across runs.  Only
``ccplane verify`` imports this module: the theorem ids and the units
it reads live in ``constants``, where every command finds them.
"""

from __future__ import annotations

import math
from typing import Callable

from . import kernel as k
from .constants import THEOREMS, UNITS
from .errors import DomainError
from .kernel import Geometry, Record, substream

# Lexell's constant-area locus is a pair of hyperbolic hypercycles.
SUPPORTED: dict[str, tuple[Geometry, ...]] = {
    theorem: (Geometry.HYPERBOLIC,) if theorem == "lexell" else tuple(Geometry)
    for theorem in THEOREMS
}


def default_tolerance(theorem: str, geometry: Geometry) -> float:
    """Campaign gate: the tolerance each theorem is expected to make."""
    if theorem == "lambert" and geometry is Geometry.EUCLIDEAN:
        return 1e-12
    if theorem == "lexell":
        return 1e-8
    return 1e-9


class VerifyReport(Record):
    """Outcome of one campaign; fully determined by theorem/geometry/seed."""

    __slots__ = (
        "theorem", "geometry", "trials", "seed", "tolerance", "max_residual", "passed",
    )


# Each campaign is a pair (draw, measure).  ``draw(geometry, rng)`` makes
# every random draw of one trial and returns its figure, the tuple of the
# construction's inputs; ``measure(*figure)`` builds the figure and returns
# its worst residual, and draws nothing.  A campaign imports its theorem's
# layers when run_verification starts it, never per trial, so a process
# loads only the layers it runs, and a layer function replaced after
# import (a test double, a tracer's span) is the one every trial of the
# next campaign calls.
_Campaign = tuple[Callable[[Geometry, object], tuple], Callable[..., float]]


def _menelaus_campaign() -> _Campaign:
    from .trig import build_right_triangle, menelaus_ratio, menelaus_rhs

    def draw(geometry: Geometry, rng) -> tuple:
        b = rng.uniform(0.1, math.pi / 2 - 0.1 if geometry is Geometry.SPHERICAL else 5.0)
        return b, rng.uniform(0.1, math.pi / 2 - 0.1), geometry

    def measure(b: float, alpha: float, geometry: Geometry) -> float:
        cfg = build_right_triangle(b, alpha, geometry)
        lhs = menelaus_ratio(b + cfg.adjacent, b - cfg.adjacent, geometry)
        rhs = menelaus_rhs(alpha)
        return abs(lhs - rhs) / rhs

    return draw, measure


# Euler, Ceva and P/Q/R share one campaign, ``_frame_campaign``: one draw,
# a sampled triangle and interior point, and one measure through
# ``cevian_frame``.  Each reads its residual off the frame through the
# ``cevians`` module that the campaign imported when it started.

def _euler_residual(cevians, frame) -> float:
    scale = 1.0 + abs(frame.alpha * frame.beta * frame.gamma)
    return max(abs(cevians.euler_relation_residual(frame)) / scale,
               cevians.unit_sum_residual(frame))


def _pqr_residual(cevians, frame) -> float:
    sys_ = cevians.pqr_system(frame)
    scale = 1.0 + max(
        abs(frame.alpha * sys_.P), abs(frame.beta * sys_.Q), abs(frame.gamma * sys_.R)
    )
    return max(sys_.residuals) / scale


def _ceva_residual(cevians, frame) -> float:
    product = cevians.ceva_product(frame.tri, frame.d, frame.e, frame.f, legs=frame.legs())
    return abs(product - 1.0)


def _frame_campaign(residual: Callable[..., float]) -> _Campaign:
    from . import cevians
    from .sampling import sample_interior_point, sample_triangle

    def draw(geometry: Geometry, rng) -> tuple:
        tri = sample_triangle(geometry, rng)
        return tri, sample_interior_point(tri, rng)

    def measure(tri, o) -> float:
        return residual(cevians, cevians.cevian_frame(tri, o))

    return draw, measure


def _lambert_campaign() -> _Campaign:
    from .cevians import lambert_median_report

    def draw(geometry: Geometry, rng) -> tuple:
        return rng.uniform(0.1, 1.2 if geometry is Geometry.SPHERICAL else 4.0), geometry

    def measure(side: float, geometry: Geometry) -> float:
        rep = lambert_median_report(side, geometry)
        residual = abs(rep.alpha - 2.0)
        kappa = geometry.model.kappa
        if kappa == 0.0:
            return max(residual, abs(rep.ad_over_od - 3.0))
        # AD/OD is above 3 where kappa < 0 and below 3 where kappa > 0.
        return residual if kappa * (rep.ad_over_od - 3.0) < 0.0 else math.inf

    return draw, measure


def _lexell_campaign() -> _Campaign:
    from .lexell import BaseConfig, lexell_locus, locus_residuals

    def draw(geometry: Geometry, rng) -> tuple:
        base = BaseConfig.from_half_distance(rng.uniform(0.3, 1.5))
        u = rng.uniform(-0.7, 0.7)
        w = rng.uniform(0.1, 0.7) * (1.0 if rng.random() < 0.5 else -1.0)
        return base, k.disk_to_hpoint(k.DiskPoint(u, w)), rng.randrange(1 << 30)

    def measure(base, apex, probe_seed: int) -> float:
        res = locus_residuals(lexell_locus(base, apex), samples=8, chords=8, seed=probe_seed)
        return max(
            res.area_spread, res.mirror_residual, res.midline_residual, res.subarc_residual
        )

    return draw, measure


_CAMPAIGNS: dict[str, Callable[[], _Campaign]] = {
    "menelaus": _menelaus_campaign,
    "euler-ratio": lambda: _frame_campaign(_euler_residual),
    "ceva": lambda: _frame_campaign(_ceva_residual),
    "lambert": _lambert_campaign,
    "pqr": lambda: _frame_campaign(_pqr_residual),
    "lexell": _lexell_campaign,
}


def _is_a(value, kind) -> bool:
    # A bool is an int, but it would print as true or false in the report.
    return isinstance(value, kind) and not isinstance(value, bool)


def run_verification(
    theorem: str,
    geometry: Geometry,
    trials: int = 1000,
    seed: int = 0,
    tolerance: float | None = None,
) -> VerifyReport:
    """Run one campaign and summarize its worst trial."""
    if not isinstance(theorem, str) or theorem not in SUPPORTED:
        raise DomainError(f"unknown theorem: {theorem}")
    # A str passes the membership test below, as Geometry is a str enum.
    if not isinstance(geometry, Geometry):
        raise DomainError(f"not a Geometry member: {geometry!r}")
    if geometry not in SUPPORTED[theorem]:
        raise DomainError(f"{theorem} is not supported on {geometry.value} geometry")
    if not (_is_a(trials, int) and _is_a(seed, int)):
        raise DomainError(f"trials and seed must be ints: {trials!r}, {seed!r}")
    if trials < 1:
        raise DomainError(f"need at least one trial: {trials}")
    if tolerance is None:
        tolerance = default_tolerance(theorem, geometry)
    elif not (_is_a(tolerance, (int, float)) and 0.0 < tolerance < math.inf):
        # The CLI's bound: no campaign passes under a gate of zero or NaN,
        # every finite residual passes under inf, and neither NaN nor inf
        # has a JSON form for the report.
        raise DomainError(f"tolerance must be positive and finite: {tolerance!r}")
    draw, measure = _CAMPAIGNS[theorem]()
    label = f"verify-{theorem}-{geometry.value}"
    worst = 0.0
    for i in range(trials):
        r = measure(*draw(geometry, substream(label, seed, i)))
        # A residual that is not finite fails its campaign, as a failed sign
        # test does: it counts as inf, since a NaN never compares greater
        # and would be dropped.
        if not math.isfinite(r):
            r = math.inf
        if r > worst:
            worst = r
    return VerifyReport(
        theorem=theorem,
        geometry=geometry,
        trials=trials,
        seed=seed,
        tolerance=tolerance,
        max_residual=worst,
        passed=worst <= tolerance,
    )


def report_record(rep: VerifyReport) -> dict:
    """Flat JSON-ready record for a report, units stated explicitly."""
    return {
        "theorem": rep.theorem,
        "geometry": rep.geometry.value,
        "trials": rep.trials,
        "seed": rep.seed,
        "tolerance": rep.tolerance,
        "max_residual": rep.max_residual,
        "passed": rep.passed,
        **UNITS,
    }

