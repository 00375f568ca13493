"""The paper's own forms of the Lexell areas, kept as test oracles.

``lexell`` writes every closed-form area as one right-triangle formula,
``_right_area``.  The paper reaches the same areas by other forms: the
profile f(u), whose arccos is half the bisector area; the sinh and cosh
of the finite side of a triangle with two angles and one ideal vertex;
and the area of a triangle whose base vertices sit far out on the base
line in place of the ideal ones.  The tests hold the closed forms and
the measured deficit to these.  Inputs are not checked: each caller
draws them inside the forms' domains.

``hypercycle_point`` is the one-point form of ``hypercycle_points`` as an
HPoint, which the tests use to place single curve points; no command
builds one.
"""

import math

from ccplane import corevec as vec
from ccplane.kernel import Geometry, HPoint
from ccplane.lexell import _deficit, hypercycle_points

HYP = Geometry.HYPERBOLIC.model


def area_profile(x, u):
    """The paper's f(u) for half-base x: the cosine of one right piece's
    area, so f(cosh y) = cos(_right_area(x, y))."""
    cx = math.cosh(x)
    return (cx * u - 1.0) * (cx + u) / ((cx * u) ** 2 - 1.0)


def sinh_c_from_angles(alpha, beta):
    """sinh of the finite side of a triangle with angles alpha, beta, 0."""
    return (math.cos(alpha) + math.cos(beta)) / (math.sin(alpha) * math.sin(beta))


def cosh_c_from_angles(alpha, beta):
    """cosh of the finite side of a triangle with angles alpha, beta, 0."""
    return (1.0 + math.cos(alpha) * math.cos(beta)) / (math.sin(alpha) * math.sin(beta))


def apex_triangle(x, a, t):
    """Vertices (A, B, P) of the split configuration, A at +x.

    The base lies on the disk's real axis; the apex P sits at height t
    above the foot point at signed offset a.
    """
    foot = HYP.polar(0.0, a)
    # (0, 0, 1) is the unit tangent at the foot pointing up, off the base.
    return (
        HYP.polar(0.0, x),
        HYP.polar(0.0, -x),
        HPoint(vec.mgeo_point(foot.v, (0.0, 0.0, 1.0), t)),
    )


def truncated_ideal_area(c, truncation=15.0):
    """Deficit of the triangle with base vertices at +-truncation on the
    base line and the apex at height c over the midpoint: a stand-in for
    the two-ideal-vertex area 2 * _right_area(inf, c).  At truncation 15
    the base vertices lie past the model's recentring limit, so the
    deficit measures their angles through ``HyperboloidModel.angle``'s
    recentring branch."""
    va = HYP.polar(0.0, truncation)
    vb = HYP.polar(0.0, -truncation)
    return _deficit(HYP.polar(math.pi / 2.0, c), va, vb)


def hypercycle_point(hc, s):
    """Point over the axis position s, as an HPoint; see ``hypercycle_points``."""
    return HPoint(hypercycle_points(hc, (s,))[0])
