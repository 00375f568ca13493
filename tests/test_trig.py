import math
import random

import pytest

from ccplane import trig
from ccplane.errors import DomainError
from ccplane.kernel import Geometry

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL
EUC = Geometry.EUCLIDEAN


def test_cathetus_law_frozen_value():
    # b = 1, alpha = pi/3: atanh(tanh(1)/2), measured off the model first
    c = trig.cathetus_from_hypotenuse(1.0, math.pi / 3, HYP)
    assert c == pytest.approx(0.40099158142700686, abs=1e-15)


def test_cathetus_synthetic_matches_formula_hyperbolic():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = trig.build_right_triangle(b, alpha, HYP)
        c = trig.cathetus_from_hypotenuse(b, alpha, HYP)
        worst = max(worst, abs(cfg.adjacent - c))
    assert worst <= 1e-11


def test_cathetus_synthetic_matches_formula_spherical():
    rng = random.Random(102)
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = trig.build_right_triangle(b, alpha, SPH)
        c = trig.cathetus_from_hypotenuse(b, alpha, SPH)
        worst = max(worst, abs(cfg.adjacent - c))
    assert worst <= 1e-11


def test_euclidean_cathetus_closed_form():
    cfg = trig.build_right_triangle(2.0, math.pi / 3, EUC)
    assert cfg.adjacent == pytest.approx(1.0, abs=1e-15)
    assert cfg.opposite == pytest.approx(math.sqrt(3.0), abs=1e-15)
    # The synthetic route drops the foot onto the x axis exactly, so the
    # legs come out as the closed forms to the last bit.
    rng = random.Random(45)
    for _ in range(200):
        b = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = trig.build_right_triangle(b, alpha, EUC)
        assert (cfg.adjacent, cfg.opposite) == (b * math.cos(alpha), b * math.sin(alpha))


def test_menelaus_rhs_at_pi_third_is_three():
    assert trig.menelaus_rhs(math.pi / 3) == pytest.approx(3.0, abs=1e-12)


def test_transversal_ratio_matches_angle_form():
    for geometry, b_hi in ((HYP, 5.0), (SPH, math.pi / 2 - 0.1)):
        rng = random.Random(7)
        for _ in range(200):
            b = rng.uniform(0.1, b_hi)
            alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
            cfg = trig.build_right_triangle(b, alpha, geometry)
            lhs = trig.menelaus_ratio(b + cfg.adjacent, b - cfg.adjacent, geometry)
            rhs = trig.menelaus_rhs(alpha)
            assert abs(lhs - rhs) / rhs <= 1e-10


def test_transversal_ratio_independent_of_ray_point():
    alpha = 0.83
    values = []
    for b in (0.4, 1.1, 2.6, 4.9):
        cfg = trig.build_right_triangle(b, alpha, HYP)
        values.append(trig.menelaus_ratio(b + cfg.adjacent, b - cfg.adjacent, HYP))
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-11)


def test_small_triangles_approach_euclidean_ratio():
    rng = random.Random(11)
    for _ in range(50):
        b = rng.uniform(1e-4, 1e-3)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        c = trig.cathetus_from_hypotenuse(b, alpha, HYP)
        hyp_ratio = trig.menelaus_ratio(b + c, b - c, HYP)
        euc_ratio = (b + c) / (b - c)
        assert abs(hyp_ratio - euc_ratio) / euc_ratio <= 1e-5


def test_ratio_blows_up_as_difference_vanishes():
    assert trig.menelaus_ratio(1.0, 1e-12, HYP) > 1e11


def test_menelaus_ratio_rejects_bad_lengths():
    with pytest.raises(DomainError):
        trig.menelaus_ratio(1.0, 0.0, HYP)
    with pytest.raises(DomainError):
        trig.menelaus_ratio(0.5, 0.6, HYP)
    with pytest.raises(DomainError):
        trig.menelaus_ratio(3.2, 0.1, SPH)


def test_cathetus_rejects_out_of_range():
    with pytest.raises(DomainError):
        trig.cathetus_from_hypotenuse(-1.0, 0.5, HYP)
    with pytest.raises(DomainError):
        trig.cathetus_from_hypotenuse(11.0, 0.5, HYP)
    with pytest.raises(DomainError):
        trig.cathetus_from_hypotenuse(1.6, 0.5, SPH)
    with pytest.raises(DomainError):
        trig.cathetus_from_hypotenuse(1.0, math.pi / 2, HYP)


def test_angle_from_sides_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        b = rng.uniform(0.2, 4.0)
        c = rng.uniform(0.2, 4.0)
        angle = rng.uniform(0.2, math.pi - 0.2)
        a = trig.hyp_side_from_sas(b, c, angle)
        assert trig.hyp_angle_from_sides(a, b, c) == pytest.approx(
            angle, rel=1e-9, abs=1e-10
        )


def test_right_angle_cosine_law_consistency():
    cfg = trig.build_right_triangle(1.7, 0.6, HYP)
    gamma = trig.hyp_angle_from_sides(
        cfg.hypotenuse, cfg.adjacent, cfg.opposite
    )
    assert gamma == pytest.approx(math.pi / 2, abs=1e-10)


def test_sine_law_residual_small_on_valid_triangles():
    rng = random.Random(17)
    for _ in range(100):
        b = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.3, 3.0)
        angle = rng.uniform(0.3, math.pi - 0.3)
        a = trig.hyp_side_from_sas(b, c, angle)
        assert trig.sine_law_residual(a, b, c) <= 1e-10


def test_degenerate_sides_rejected():
    # a = b + c fails the strict triangle inequality
    with pytest.raises(DomainError):
        trig.hyp_angle_from_sides(3.0, 1.0, 0.5)
