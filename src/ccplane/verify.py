"""Randomized verification campaigns and deterministic JSON reports.

Each campaign draws independent trials from seed-split substreams,
measures the worst residual of one identity, and folds the outcome
into a report whose JSON form is byte-identical across runs: keys are
sorted and every float is written with 17 significant digits.
"""

from __future__ import annotations

import math
from typing import Callable

from . import kernel as k
from .cevians import (
    ceva_product,
    euler_relation_residual,
    lambert_median_report,
    pqr_system,
    unit_sum_residual,
)
from .errors import DomainError
from .kernel import Geometry, Record
from .lexell import BaseConfig, lexell_locus, locus_residuals
from .sampling import sample_frame, substream
from .trig import build_right_triangle, menelaus_ratio, menelaus_rhs

THEOREMS = ("menelaus", "euler-ratio", "ceva", "lambert", "lexell", "pqr")

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

    def __init__(
        self,
        theorem: str,
        geometry: Geometry,
        trials: int,
        seed: int,
        tolerance: float,
        max_residual: float,
        passed: bool,
    ) -> None:
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "passed", passed)


def _menelaus_trial(geometry: Geometry, rng) -> float:
    if geometry is Geometry.SPHERICAL:
        b = rng.uniform(0.1, math.pi / 2 - 0.1)
    else:
        b = rng.uniform(0.1, 5.0)
    alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
    cfg = build_right_triangle(b, alpha, geometry)
    lhs = menelaus_ratio(b + cfg.adjacent, b - cfg.adjacent, geometry)
    rhs = menelaus_rhs(alpha)
    return abs(lhs - rhs) / rhs


def _euler_trial(geometry: Geometry, rng) -> float:
    frame = sample_frame(geometry, rng)
    scale = 1.0 + abs(frame.alpha * frame.beta * frame.gamma)
    return max(abs(euler_relation_residual(frame)) / scale, unit_sum_residual(frame))


def _pqr_trial(geometry: Geometry, rng) -> float:
    frame = sample_frame(geometry, rng)
    sys_ = pqr_system(frame)
    scale = 1.0 + max(
        abs(frame.alpha * sys_.P), abs(frame.beta * sys_.Q), abs(frame.gamma * sys_.R)
    )
    return max(sys_.residuals) / scale


def _ceva_trial(geometry: Geometry, rng) -> float:
    frame = sample_frame(geometry, rng)
    product = ceva_product(frame.tri, frame.d, frame.e, frame.f)
    return abs(product - 1.0)


def _lambert_trial(geometry: Geometry, rng) -> float:
    if geometry is Geometry.SPHERICAL:
        side = rng.uniform(0.1, 1.2)
    else:
        side = rng.uniform(0.1, 4.0)
    rep = lambert_median_report(side, geometry)
    residual = abs(rep.alpha - 2.0)
    kappa = geometry.model.kappa
    if kappa == 0.0:
        return max(residual, abs(rep.ad_over_od - 3.0))
    # AD/OD is above 3 where kappa < 0 and below 3 where kappa > 0.
    return residual if kappa * (rep.ad_over_od - 3.0) < 0.0 else math.inf


def _lexell_trial(geometry: Geometry, rng) -> float:
    x = rng.uniform(0.3, 1.5)
    base = BaseConfig.from_half_distance(x)
    u = rng.uniform(-0.7, 0.7)
    w = rng.uniform(0.1, 0.7) * (1.0 if rng.random() < 0.5 else -1.0)
    apex = k.disk_to_hpoint(k.DiskPoint(u, w))
    locus = lexell_locus(base, apex)
    res = locus_residuals(locus, samples=8, chords=8, seed=rng.randrange(1 << 30))
    return max(
        res.area_spread, res.mirror_residual, res.midline_residual, res.subarc_residual
    )


_TRIALS: dict[str, Callable[[Geometry, object], float]] = {
    "menelaus": _menelaus_trial,
    "euler-ratio": _euler_trial,
    "ceva": _ceva_trial,
    "lambert": _lambert_trial,
    "pqr": _pqr_trial,
    "lexell": _lexell_trial,
}


def run_verification(
    theorem: str,
    geometry: Geometry,
    trials: int = 1000,
    seed: int = 0,
    tolerance: float | None = None,
) -> VerifyReport:
    """Run one campaign and summarize its worst trial."""
    if theorem not in SUPPORTED:
        raise DomainError(f"unknown theorem: {theorem}")
    if geometry not in SUPPORTED[theorem]:
        raise DomainError(f"{theorem} is not supported on {geometry.value} geometry")
    if trials < 1:
        raise DomainError(f"need at least one trial: {trials}")
    if tolerance is None:
        tolerance = default_tolerance(theorem, geometry)
    trial = _TRIALS[theorem]
    label = f"verify-{theorem}-{geometry.value}"
    worst = 0.0
    for i in range(trials):
        r = trial(geometry, substream(label, seed, i))
        # max() would drop a NaN (max(0.0, nan) is 0.0): a residual that is
        # not finite fails its campaign, as a failed sign test does.
        worst = max(worst, r if math.isfinite(r) else math.inf)
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
        "units": "model-units",
        "angle_units": "radians",
    }


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
