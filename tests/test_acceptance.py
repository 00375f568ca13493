"""Acceptance gate: one check per stated criterion, at stated tolerance.

Each test prints a single PASS/FAIL line for its criterion before
asserting, so a full run reads as a checklist (run with -s to see the
lines as they happen).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccplane
from ccplane import kernel as k
from ccplane.cevians import (
    ceva_product,
    cevian_frame,
    equilateral_triangle,
    euler_relation_residual,
    lambert_median_report,
    pqr_system,
    unit_sum_residual,
)
from ccplane.construct import RatioSumInput, construct_from_ratios
from ccplane.kernel import Geometry
from ccplane.lexell import BaseConfig, _deficit, _right_area, lexell_locus, locus_residuals
from ccplane.sampling import sample_frame, substream
from ccplane.trig import build_right_triangle, menelaus_ratio, menelaus_rhs
from cevian_oracles import projection_oracle
from lexell_oracles import (
    apex_triangle,
    area_profile,
    cosh_c_from_angles,
    sinh_c_from_angles,
    truncated_ideal_area,
)

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL
EUC = Geometry.EUCLIDEAN
GEOMETRIES = (HYP, SPH, EUC)


def _report(criterion: str, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {name}: {verdict} ({detail})")
    assert ok, f"{criterion} {name}: {detail}"


@pytest.fixture(scope="module")
def frames():
    return {
        geo: [
            sample_frame(geo, substream(f"acceptance-frames-{geo.value}", 2, i))
            for i in range(1000)
        ]
        for geo in GEOMETRIES
    }


def test_criterion_01_menelaus():
    worst = 0.0
    for i in range(1000):
        rng = substream("acceptance-menelaus-hyp", 1, i)
        b = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = build_right_triangle(b, alpha, HYP)
        lhs = menelaus_ratio(b + cfg.adjacent, b - cfg.adjacent, HYP)
        rhs = menelaus_rhs(alpha)
        worst = max(worst, abs(lhs - rhs) / rhs)
    for i in range(1000):
        rng = substream("acceptance-menelaus-sph", 1, i)
        b = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = build_right_triangle(b, alpha, SPH)
        lhs = menelaus_ratio(b + cfg.adjacent, b - cfg.adjacent, SPH)
        rhs = menelaus_rhs(alpha)
        worst = max(worst, abs(lhs - rhs) / rhs)
    _report("criterion-01", "menelaus", worst <= 1e-9,
            f"max relative residual {worst:.3e} <= 1e-09, 1000 trials per geometry")


def test_criterion_02_euler_ratio_sum(frames):
    worst_rel = worst_unit = 0.0
    for geo in GEOMETRIES:
        for frame in frames[geo]:
            scale = 1.0 + abs(frame.alpha * frame.beta * frame.gamma)
            worst_rel = max(worst_rel, abs(euler_relation_residual(frame)) / scale)
            worst_unit = max(worst_unit, unit_sum_residual(frame))
    ok = worst_rel <= 1e-9 and worst_unit <= 1e-9
    _report("criterion-02", "euler-ratio-sum", ok,
            f"relation {worst_rel:.3e}, unit-sum {worst_unit:.3e} <= 1e-09, "
            "1000 frames per geometry")


def test_criterion_03_pqr_system(frames):
    worst = 0.0
    for geo in (HYP, SPH):
        for frame in frames[geo]:
            sys_ = pqr_system(frame)
            scale = 1.0 + max(
                abs(frame.alpha * sys_.P),
                abs(frame.beta * sys_.Q),
                abs(frame.gamma * sys_.R),
            )
            worst = max(worst, max(sys_.residuals) / scale)
    _report("criterion-03", "pqr-system", worst <= 1e-9,
            f"max scaled residual {worst:.3e} <= 1e-09 on criterion-2 frames")


def test_criterion_04_projection_oracle(frames):
    worst_dev = worst_rel = worst_col = 0.0
    for geo in GEOMETRIES:
        for frame in frames[geo][:500]:
            oracle = projection_oracle(frame)
            worst_dev = max(worst_dev, oracle.max_deviation)
            worst_rel = max(worst_rel, abs(oracle.euclid_relation_residual))
            worst_col = max(worst_col, oracle.collinearity_residual)
    ok = worst_dev <= 1e-9 and worst_rel <= 1e-9 and worst_col <= 1e-9
    _report("criterion-04", "projection-oracle", ok,
            f"ratio deviation {worst_dev:.3e}, euclidean relation {worst_rel:.3e}, "
            f"collinearity {worst_col:.3e} <= 1e-09, 500 frames per geometry")


def test_criterion_05_construction_round_trip(frames):
    worst = 0.0
    for frame in frames[HYP][:500]:
        lengths = RatioSumInput(frame.ao, frame.bo, frame.co, frame.od, frame.oe, frame.of)
        rebuilt = construct_from_ratios(lengths).frame
        worst = max(
            worst,
            abs(rebuilt.ao - frame.ao), abs(rebuilt.bo - frame.bo),
            abs(rebuilt.co - frame.co), abs(rebuilt.od - frame.od),
            abs(rebuilt.oe - frame.oe), abs(rebuilt.of - frame.of),
            abs(rebuilt.p - frame.p), abs(rebuilt.q - frame.q),
            abs(rebuilt.r - frame.r),
        )
    tri = equilateral_triangle(1.0, HYP)
    model = HYP.model
    e = model.mid(tri.c, tri.a)
    o = model.meet(
        model.line(tri.a, model.mid(tri.b, tri.c)), model.line(tri.b, e), tri.b, e
    )
    fr = cevian_frame(tri, o)
    res = construct_from_ratios(RatioSumInput(fr.ao, fr.bo, fr.co, fr.od, fr.oe, fr.of))
    third = 2.0 * math.pi / 3.0
    eq_gap = max(
        abs(math.pi - res.angle_bof - third),
        abs(math.pi - res.angle_aof - third),
        abs(math.pi - res.angle_bod - third),
    )
    ok = worst <= 1e-8 and eq_gap <= 1e-9
    _report("criterion-05", "construction-round-trip", ok,
            f"max length/angle gap {worst:.3e} <= 1e-08 over 500 frames, "
            f"equilateral vertex angles off 2pi/3 by {eq_gap:.3e}")


def test_criterion_06_ceva(frames):
    worst = 0.0
    for geo in GEOMETRIES:
        for frame in frames[geo]:
            product = ceva_product(frame.tri, frame.d, frame.e, frame.f)
            worst = max(worst, abs(product - 1.0))
    median_gap = 0.0
    for geo in GEOMETRIES:
        tri = equilateral_triangle(0.9, geo)
        mid = geo.model.mid
        product = ceva_product(
            tri, mid(tri.b, tri.c), mid(tri.c, tri.a), mid(tri.a, tri.b)
        )
        median_gap = max(median_gap, abs(product - 1.0))
    ok = worst <= 1e-9 and median_gap <= 1e-12
    _report("criterion-06", "ceva", ok,
            f"max |product - 1| {worst:.3e} <= 1e-09 over 1000 frames per "
            f"geometry, medians off by {median_gap:.3e}")


def test_criterion_07_lambert():
    worst_alpha = 0.0
    ordering_ok = True
    for side in (0.5, 1.0, 2.0, 4.0):
        rep = lambert_median_report(side, HYP)
        worst_alpha = max(worst_alpha, abs(rep.alpha - 2.0))
        ordering_ok = ordering_ok and rep.ad_over_od > 3.0
    euclid_gap = 0.0
    for side in (0.5, 1.0, 2.0):
        rep = lambert_median_report(side, EUC)
        euclid_gap = max(euclid_gap, abs(rep.ad_over_od - 3.0))
        worst_alpha = max(worst_alpha, abs(rep.alpha - 2.0))
    for side in (0.3, 0.6, 1.2):
        rep = lambert_median_report(side, SPH)
        worst_alpha = max(worst_alpha, abs(rep.alpha - 2.0))
        ordering_ok = ordering_ok and rep.ad_over_od < 3.0
    small = lambert_median_report(1e-3, HYP)
    small_gap = abs(small.ad_over_od - 3.0)
    ok = (worst_alpha <= 1e-9 and ordering_ok and euclid_gap <= 1e-12
          and small_gap <= 1e-4)
    _report("criterion-07", "lambert", ok,
            f"max |alpha - 2| {worst_alpha:.3e} <= 1e-09, euclidean AD/OD gap "
            f"{euclid_gap:.3e} <= 1e-12, orderings hold, side 1e-3 gap "
            f"{small_gap:.3e} <= 1e-04")


def _profile_band(x: float, u: float) -> float:
    """Rounding band of |area_profile(x, u) - cos(_right_area(x, y))|.

    With u = cosh(y), the two sides agree in exact arithmetic.  To first
    order in eps, with each library function within 2 ulps (2 eps
    relative) and each arithmetic operation correctly rounded (eps/2):
    - cosh x and cosh y enter f with sensitivities c(u^2 - 1)/(cu + 1)^2
      and u sinh^2 x/(cu + 1)^2, both below 1: 2 eps each;
    - six of f's seven roundings cost at most eps/2 each (the rounding
      of m = cu cancels between m - 1 and m^2 - 1), and the rounding of
      m^2 is amplified by m^2/(m^2 - 1) in m^2 - 1;
    - half the area, 2 atan(tanh(x/2) tanh(y/2)), carries two tanh, one
      product and one atan, each with condition at most 1: 6.5 eps
      relative.  cos moves by at most (pi/2) times that, plus its own 2 eps.
    """
    eps = sys.float_info.epsilon
    m2 = (math.cosh(x) * u) ** 2
    return eps * (4.0 + 0.5 * (6.0 + m2 / (m2 - 1.0)) + 6.5 * math.pi / 2.0 + 2.0)


def test_criterion_08_area_function():
    worst_ratio = 0.0
    growing = True
    for x in (0.5, 1.0, 2.0):
        areas = []
        for i in range(80):
            y = math.acosh(1.01 * (20.0 / 1.01) ** (i / 79.0))
            u = math.cosh(y)
            areas.append(2.0 * _right_area(x, y))
            gap = abs(area_profile(x, u) - math.cos(0.5 * areas[-1]))
            worst_ratio = max(worst_ratio, gap / _profile_band(x, u))
        growing = growing and all(b > a for a, b in zip(areas, areas[1:]))
    worst_area = 0.0
    for i in range(500):
        rng = substream("acceptance-apex-area", 8, i)
        x = rng.uniform(0.2, 2.0)
        y = rng.uniform(0.1, 3.0)
        a_pt, b_pt, p_pt = apex_triangle(x, 0.0, y)
        synthetic = _deficit(a_pt, b_pt, p_pt)
        worst_area = max(worst_area, abs(2.0 * _right_area(x, y) - synthetic))
    ok = worst_ratio <= 1.0 and growing and worst_area <= 1e-8
    _report("criterion-08", "area-function", ok,
            f"profile vs cos(area/2) {worst_ratio:.3f} of its band <= 1, areas "
            f"{'grow' if growing else 'fail to grow'} with height, apex area vs "
            f"synthetic {worst_area:.3e} <= 1e-08 over 500 trials")


def test_criterion_09_split_areas():
    worst = 0.0
    pairs = []
    for i in range(500):
        rng = substream("acceptance-splits", 8, i)
        x = rng.uniform(0.3, 1.8)
        a = rng.uniform(-0.9, 0.9) * x
        t = rng.uniform(0.1, 3.0)
        d1, d2 = _right_area(x - a, t), _right_area(x + a, t)
        a_pt, b_pt, p_pt = apex_triangle(x, a, t)
        synthetic = _deficit(a_pt, b_pt, p_pt)
        worst = max(worst, abs(d1 + d2 - synthetic))
        if i < 20:
            pairs.append((x, a))
    worst_limit = 0.0
    for x, a in pairs:
        at_20 = _right_area(x - a, 20.0) + _right_area(x + a, 20.0)
        limit = _right_area(x - a, math.inf) + _right_area(x + a, math.inf)
        worst_limit = max(worst_limit, abs(at_20 - limit))
    ok = worst <= 1e-8 and worst_limit <= 1e-6
    _report("criterion-09", "split-areas", ok,
            f"sum vs synthetic {worst:.3e} <= 1e-08 over 500 trials, t=20 vs "
            f"ideal limit {worst_limit:.3e} <= 1e-06")


def test_criterion_10_lexell_locus():
    worst_spread = worst_mirror = worst_mid = worst_sub = 0.0
    for i in range(100):
        rng = substream("acceptance-lexell", 8, i)
        x = rng.uniform(0.3, 1.5)
        u = rng.uniform(-0.7, 0.7)
        w = rng.uniform(0.1, 0.7) * (1.0 if rng.random() < 0.5 else -1.0)
        locus = lexell_locus(
            BaseConfig.from_half_distance(x), k.disk_to_hpoint(k.DiskPoint(u, w))
        )
        res = locus_residuals(locus, samples=20, chords=1, seed=i)
        worst_spread = max(worst_spread, res.area_spread)
        worst_mirror = max(worst_mirror, res.mirror_residual)
        worst_mid = max(worst_mid, res.midline_residual)
        worst_sub = max(worst_sub, res.subarc_residual)
    ok = (worst_spread <= 1e-8 and worst_mirror <= 1e-9
          and worst_mid <= 1e-9 and worst_sub <= 1e-9)
    _report("criterion-10", "lexell-locus", ok,
            f"area spread {worst_spread:.3e} <= 1e-08, mirror "
            f"{worst_mirror:.3e}, midpoints {worst_mid:.3e}, subarcs "
            f"{worst_sub:.3e} <= 1e-09, 100 configurations")


def test_criterion_11_ideal_two_vertex():
    worst = 0.0
    for i in range(1000):
        rng = substream("acceptance-ideal", 8, i)
        alpha = rng.uniform(0.1, math.pi - 0.2)
        beta = rng.uniform(0.1, math.pi - 0.1 - alpha)
        s = sinh_c_from_angles(alpha, beta)
        c = cosh_c_from_angles(alpha, beta)
        worst = max(worst, abs(c * c - s * s - 1.0))
    worst_trunc = 0.0
    for i in range(50):
        rng = substream("acceptance-ideal-trunc", 8, i)
        alpha = rng.uniform(0.35, 1.2)
        beta = rng.uniform(0.35, 1.2)
        s = sinh_c_from_angles(alpha, beta)
        c = math.asinh(s)
        half_closed = math.pi / 2.0 - math.atan(1.0 / s)
        half_synthetic = truncated_ideal_area(c, 15.0) / 2.0
        worst_trunc = max(worst_trunc, abs(half_closed - half_synthetic))
    ok = worst <= 1e-9 and worst_trunc <= 1e-5
    _report("criterion-11", "ideal-two-vertex", ok,
            f"cosh^2 - sinh^2 - 1 residual {worst:.3e} <= 1e-09 over 1000 "
            f"angle pairs, truncation-15 half-area gap {worst_trunc:.3e} <= 1e-05")


def test_criterion_12_cli_determinism():
    def run(*args):
        # The child runs the source tree this test imported, installed or not.
        src = str(Path(ccplane.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "ccplane", *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    identical = pass_code = True
    for args in (("euler-ratio", "--trials", "200"), ("lexell", "--trials", "20")):
        first = run("verify", *args, "--seed", "42")
        second = run("verify", *args, "--seed", "42")
        identical &= first.stdout == second.stdout and first.stdout != ""
        pass_code &= first.returncode == 0 and json.loads(first.stdout)["passed"] is True
    infeasible = run("construct", "1.0", "1.0", "1.0", "0.5", "0.5", "0.5")
    usage = run("verify", "lexell", "--geometry", "spherical")
    codes_ok = infeasible.returncode == 1 and usage.returncode == 2
    ok = identical and pass_code and codes_ok
    _report("criterion-12", "cli-determinism", ok,
            f"byte-identical reruns {identical}, exit codes 0/"
            f"{infeasible.returncode}/{usage.returncode} on pass/infeasible/usage")
