import math
import random
import sys

import pytest

from ccplane import trig
from ccplane.errors import DomainError
from ccplane.kernel import Geometry

HYP = Geometry.HYPERBOLIC
SPH = Geometry.SPHERICAL
EUC = Geometry.EUCLIDEAN
EPS = sys.float_info.epsilon


def _cathetus(b, alpha, geometry):
    """The cathetus law in closed form: the leg adjacent to alpha in a
    right triangle with hypotenuse b, t_K(c) = cos(alpha) t_K(b)."""
    model = geometry.model
    return model.t_K_inv(math.cos(alpha) * model.t_K(b))


def test_cathetus_law_frozen_value():
    # b = 1, alpha = pi/3: atanh(tanh(1)/2), measured off the model first
    c = _cathetus(1.0, math.pi / 3, HYP)
    assert c == pytest.approx(0.40099158142700686, abs=1e-15)


def test_cathetus_synthetic_matches_formula_hyperbolic():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.1, 5.0)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = trig.build_right_triangle(b, alpha, HYP)
        c = _cathetus(b, alpha, HYP)
        worst = max(worst, abs(cfg.adjacent - c))
    assert worst <= 1e-11


def test_cathetus_synthetic_matches_formula_spherical():
    rng = random.Random(102)
    worst = 0.0
    for _ in range(200):
        b = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha = rng.uniform(0.1, math.pi / 2 - 0.1)
        cfg = trig.build_right_triangle(b, alpha, SPH)
        c = _cathetus(b, alpha, SPH)
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
    for geometry, b_hi in ((HYP, 5.0), (SPH, math.pi / 2 - 0.1), (EUC, 5.0)):
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
        c = _cathetus(b, alpha, HYP)
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


def test_menelaus_sum_bound_is_twice_the_side_limit():
    # b + c stays within two legs of at most side_limit each.  On the
    # sphere that is the old "below pi" bound to the bit.
    with pytest.raises(DomainError):
        trig.menelaus_ratio(math.pi, 0.1, SPH)
    assert trig.menelaus_ratio(math.nextafter(math.pi, 0.0), 0.1, SPH) > 0.0
    with pytest.raises(DomainError):
        trig.menelaus_ratio(20.5, 0.1, HYP)
    assert trig.menelaus_ratio(20.0, 0.1, HYP) > 0.0
    assert trig.menelaus_ratio(1e6, 0.1, EUC) == pytest.approx(1e7)


def test_cathetus_rejects_out_of_range():
    # The synthetic construction checks its right triangle before it builds.
    with pytest.raises(DomainError):
        trig.build_right_triangle(-1.0, 0.5, HYP)
    with pytest.raises(DomainError):
        trig.build_right_triangle(11.0, 0.5, HYP)
    with pytest.raises(DomainError):
        trig.build_right_triangle(1.6, 0.5, SPH)
    with pytest.raises(DomainError):
        trig.build_right_triangle(1.0, math.pi / 2, HYP)


@pytest.mark.parametrize("geometry", [HYP, SPH, EUC])
def test_right_angle_relation_gate(geometry):
    # RightTriangleConfig checks X(h) = X(a) + X(b) - kappa X(a) X(b) within
    # the rounding band 32 eps (1 + X(h)) (1 + |kappa| X(a))^2.  Every
    # construction up to the side limit passes; the same legs with the
    # adjacent one moved 1.5 bands further off the relation do not.
    model = geometry.model
    kappa, x = model.kappa, model.versine
    limit = min(model.side_limit, 1e4)  # the plane has no side limit
    rng = random.Random(303)
    for _ in range(300):
        h = limit * (1.0 - rng.random())
        alpha = rng.uniform(0.01, math.pi / 2 - 0.01)
        cfg = trig.build_right_triangle(h, alpha, geometry)
        a, b = cfg.adjacent, cfg.opposite
        band = 32.0 * EPS * (1.0 + x(h)) * (1.0 + abs(kappa) * x(a)) ** 2

        def residual(a):
            return x(h) - (x(a) + x(b) - kappa * x(a) * x(b))

        # dR/da = -s_K(a) (1 - kappa X(b)); step the way R already leans.
        step = 1.5 * band / (model.s_K(a) * (1.0 - kappa * x(b)))
        moved = a - math.copysign(step, residual(a))
        assert band < abs(residual(moved)) < 2.0 * band
        with pytest.raises(DomainError, match="right-angle relation"):
            trig.RightTriangleConfig(geometry, alpha, h, moved, b)


def test_long_adjacent_legs_build():
    # Past an adjacent leg of about 7.4 the hyperbolic construction's
    # rounding grows like cosh(a)^2; the derived band covers it.  A base
    # angle near 0 at a long hypotenuse gives such a leg.
    cfg = trig.build_right_triangle(9.979535086846758, 3.2604718296125536e-05, HYP)
    assert cfg.adjacent > 9.9
    rng = random.Random(707)
    for _ in range(20000):
        h = HYP.model.side_limit * (1.0 - rng.random())
        e = 10.0 ** rng.uniform(-7.0, math.log10(math.pi / 2))
        alpha = e if rng.random() < 0.5 else math.pi / 2 - e
        if 0.0 < alpha < math.pi / 2:
            trig.build_right_triangle(h, alpha, HYP)


def test_right_angle_cosine_law_consistency():
    # Rebuild the synthetic figure and measure its corner at the foot.
    model = HYP.model
    ray_point = model.polar(0.6, 1.7)
    foot = model.foot(ray_point, model.line(model.base, model.polar(0.0, 1.0)))
    cfg = trig.build_right_triangle(1.7, 0.6, HYP)
    assert model.dist(model.base, foot) == cfg.adjacent
    assert model.dist(foot, ray_point) == cfg.opposite
    gamma = model.angle(foot, model.base, ray_point)
    assert gamma == pytest.approx(math.pi / 2, abs=1e-10)
