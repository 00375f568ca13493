"""Right-triangle laws and the two-point transversal ratio.

A ray leaves A at angle alpha to a baseline; dropping a perpendicular
from a ray point C back to the baseline yields a right triangle with
hypotenuse AC = b and adjacent cathetus AB = c.  The cathetus laws are

    tanh c = cos(alpha) * tanh b        (hyperbolic)
    tan  c = cos(alpha) * tan  b        (spherical)
    c      = cos(alpha) * b             (euclidean)

and the transversal ratio built from the two lengths satisfies

    sinh(b + c) / sinh(b - c) = (1 + cos alpha) / (1 - cos alpha)

with sin in place of sinh on the sphere.  The ratio does not depend on
which ray point was dropped, which is what the product identities for
crossed transversals rest on.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError
from .kernel import Geometry, Record


def _check_right_triangle(b: float, alpha: float, geometry: Geometry) -> None:
    if not b > 0.0:
        raise DomainError(f"hypotenuse must be positive: {b}")
    if b > geometry.model.side_limit:
        raise DomainError(f"hypotenuse above working range: {b}")
    if not 0.0 < alpha < math.pi / 2:
        raise DomainError(f"base angle must lie in (0, pi/2): {alpha}")


def cathetus_from_hypotenuse(b: float, alpha: float, geometry: Geometry) -> float:
    """Leg adjacent to alpha in a right triangle with hypotenuse b."""
    _check_right_triangle(b, alpha, geometry)
    model = geometry.model
    return model.t_K_inv(math.cos(alpha) * model.t_K(b))


class RightTriangleConfig(Record):
    """Right triangle measured off a synthetic construction.

    ``hypotenuse`` joins the apex A to the ray point C, ``adjacent``
    runs from A along the baseline to the foot B and ``opposite`` is
    the perpendicular drop.  The right angle at B makes X(h) = X(a) + X(b)
    - kappa X(a) X(b) in X = ``model.versine``: each plane's Pythagoras law.
    """

    __slots__ = ("geometry", "alpha", "hypotenuse", "adjacent", "opposite")

    def __post_init__(self) -> None:
        _check_right_triangle(self.hypotenuse, self.alpha, self.geometry)
        model = self.geometry.model
        kappa = model.kappa
        xh = model.versine(self.hypotenuse)
        xa = model.versine(self.adjacent)
        xb = model.versine(self.opposite)
        residual = xh - (xa + xb - kappa * xa * xb)
        # The band bounds the rounding of the legs model.dist measures
        # (derived in CHANGES.md): on the hyperbolic plane cosh of the
        # opposite leg sums terms of size cosh a cosh h, hence (1 + X(a))^2.
        band = 32.0 * sys.float_info.epsilon * (1.0 + xh) * (1.0 + abs(kappa) * xa) ** 2
        if not abs(residual) <= band:
            raise DomainError("legs and hypotenuse break the right-angle relation")


def build_right_triangle(
    b: float, alpha: float, geometry: Geometry
) -> RightTriangleConfig:
    """Construct the triangle with ruler and perpendicular, then measure.

    This is the synthetic route: place the apex, walk distance b along
    the ray at angle alpha, and drop a perpendicular foot onto the
    baseline.  Lengths are read back off the model, independently of
    the closed-form cathetus law.
    """
    _check_right_triangle(b, alpha, geometry)
    model = geometry.model
    ray_point = model.polar(alpha, b)
    foot = model.foot(ray_point, model.line(model.base, model.polar(0.0, 1.0)))
    return RightTriangleConfig(
        geometry, alpha, b, model.dist(model.base, foot), model.dist(foot, ray_point)
    )


def menelaus_ratio(total: float, diff: float, geometry: Geometry) -> float:
    """Transversal ratio sinh(total)/sinh(diff), sin/sin on the sphere.

    ``total`` is b + c and ``diff`` is b - c for a hypotenuse b and
    adjacent cathetus c; the euclidean form is the plain quotient.  Both
    legs are within the plane's ``side_limit``, so ``total`` may not pass
    twice that: below pi on the sphere, where 2*nextafter(pi/2, 0) is
    nextafter(pi, 0), at most 20 on the hyperboloid, and unbounded in the
    euclidean plane.
    """
    if not diff > 0.0:
        raise DomainError(f"difference of lengths must be positive: {diff}")
    if not total > diff:
        raise DomainError(f"sum must exceed the difference: {total} <= {diff}")
    model = geometry.model
    if total > 2.0 * model.side_limit:
        raise DomainError(f"sum {total} above twice the working range {model.side_limit}")
    return model.s_K(total) / model.s_K(diff)


def menelaus_rhs(alpha: float) -> float:
    """(1 + cos alpha) / (1 - cos alpha), the angle side of the ratio."""
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"angle must lie in (0, pi): {alpha}")
    c = math.cos(alpha)
    return (1.0 + c) / (1.0 - c)

