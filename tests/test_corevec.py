import math
import random

import pytest

from ccplane import corevec as vec


def _random_hyperboloid(rng):
    x1 = rng.uniform(-2.0, 2.0)
    x2 = rng.uniform(-2.0, 2.0)
    return (math.sqrt(1.0 + x1 * x1 + x2 * x2), x1, x2)


def test_kernel_invariants():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_hyperboloid(rng)
        q = _random_hyperboloid(rng)
        assert abs(vec.minner(p, p) + 1.0) <= 1e-12
        c = vec.mcross(p, q)
        assert abs(vec.minner(c, p)) <= 1e-12
        assert abs(vec.minner(c, q)) <= 1e-12
        m = vec.mmid(p, q)
        assert abs(vec.mdist(p, m) - vec.mdist(m, q)) <= 1e-12


def test_mdist_small_separation_accuracy():
    # chord form keeps relative accuracy where acosh alone would not
    p = (1.0, 0.0, 0.0)
    for d in (1e-4, 1e-6, 1e-8):
        q = (math.cosh(d), math.sinh(d), 0.0)
        assert vec.mdist(p, q) == pytest.approx(d, rel=1e-10)
