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


def _normalize_reference(v):
    # The sheet normalization composed from minner: the reference that
    # mnormalize_point's written-out form equals to the bit.
    q = -vec.minner(v, v)
    if abs(q - 1.0) <= vec._FORM_NOISE * (1.0 + v[0] * v[0]):
        if v[0] < 0.0:
            return (-v[0], -v[1], -v[2])
        return (v[0], v[1], v[2])
    s = math.sqrt(q)
    if v[0] < 0.0:
        s = -s
    return (v[0] / s, v[1] / s, v[2] / s)


def test_mnormalize_point_matches_minner_form_bit_for_bit():
    # Both branches, each with v0 of both signs, against the composed form.
    rng = random.Random(26)
    cases = {}
    for _ in range(2000):
        p = _random_hyperboloid(rng)
        # On the sheet the form is within its noise band of 1 (the
        # untouched branch); a scale moves it out (the dividing branch).
        scale = rng.choice((1.0, rng.uniform(0.1, 10.0)))
        sign = rng.choice((1.0, -1.0))
        v = (sign * scale * p[0], sign * scale * p[1], sign * scale * p[2])
        q = -vec.minner(v, v)
        in_band = abs(q - 1.0) <= vec._FORM_NOISE * (1.0 + v[0] * v[0])
        cases[in_band, sign] = cases.get((in_band, sign), 0) + 1
        got = vec.mnormalize_point(v)
        assert repr(got) == repr(_normalize_reference(v))
        assert got[0] > 0.0
    assert len(cases) == 4 and min(cases.values()) > 200


def test_mnormalize_point_rejects_spacelike():
    with pytest.raises(ValueError):
        vec.mnormalize_point((0.5, 1.0, 0.0))
