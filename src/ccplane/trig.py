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
from dataclasses import dataclass

from .constants import MAX_HYPERBOLIC_SIDE, TOL_CLAMP, TOL_ID
from .errors import DomainError
from .kernel import Geometry


def clamped_acos(x: float) -> float:
    """acos with the argument clamped just past [-1, 1]."""
    if abs(x) > 1.0 + TOL_CLAMP:
        raise DomainError(f"acos argument out of range: {x}")
    return math.acos(min(1.0, max(-1.0, x)))


def clamped_acosh(x: float) -> float:
    """acosh with the argument clamped just below 1."""
    if x < 1.0 - TOL_CLAMP:
        raise DomainError(f"acosh argument out of range: {x}")
    return math.acosh(max(1.0, x))


def _check_hypotenuse(b: float, geometry: Geometry) -> None:
    if not b > 0.0:
        raise DomainError(f"hypotenuse must be positive: {b}")
    if b > geometry.model.side_limit:
        raise DomainError(f"hypotenuse above working range: {b}")


def cathetus_from_hypotenuse(b: float, alpha: float, geometry: Geometry) -> float:
    """Leg adjacent to alpha in a right triangle with hypotenuse b."""
    _check_hypotenuse(b, geometry)
    if not 0.0 < alpha < math.pi / 2:
        raise DomainError(f"base angle must lie in (0, pi/2): {alpha}")
    model = geometry.model
    return model.t_K_inv(math.cos(alpha) * model.t_K(b))


@dataclass(frozen=True)
class RightTriangleConfig:
    """Right triangle measured off a synthetic construction.

    ``hypotenuse`` joins the apex A to the ray point C, ``adjacent``
    runs from A along the baseline to the foot B and ``opposite`` is
    the perpendicular drop.  The right angle sits at B.
    """

    geometry: Geometry
    alpha: float
    hypotenuse: float
    adjacent: float
    opposite: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.pi / 2:
            raise DomainError(f"base angle must lie in (0, pi/2): {self.alpha}")
        _check_hypotenuse(self.hypotenuse, self.geometry)
        if self.geometry is Geometry.HYPERBOLIC:
            lhs = math.cosh(self.hypotenuse)
            rhs = math.cosh(self.adjacent) * math.cosh(self.opposite)
        elif self.geometry is Geometry.SPHERICAL:
            lhs = math.cos(self.hypotenuse)
            rhs = math.cos(self.adjacent) * math.cos(self.opposite)
        else:
            lhs = self.hypotenuse * self.hypotenuse
            rhs = self.adjacent * self.adjacent + self.opposite * self.opposite
        if abs(lhs - rhs) > TOL_ID * (1.0 + abs(lhs)):
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
    _check_hypotenuse(b, geometry)
    if not 0.0 < alpha < math.pi / 2:
        raise DomainError(f"base angle must lie in (0, pi/2): {alpha}")
    model = geometry.model
    ray_point = model.polar(alpha, b)
    foot = model.foot(ray_point, model.base, model.polar(0.0, 1.0))
    return RightTriangleConfig(
        geometry, alpha, b, model.dist(model.base, foot), model.dist(foot, ray_point)
    )


def menelaus_ratio(total: float, diff: float, geometry: Geometry) -> float:
    """Transversal ratio sinh(total)/sinh(diff), sin/sin on the sphere.

    ``total`` is b + c and ``diff`` is b - c for a hypotenuse b and
    adjacent cathetus c; the euclidean form is the plain quotient.
    """
    if not diff > 0.0:
        raise DomainError(f"difference of lengths must be positive: {diff}")
    if not total > diff:
        raise DomainError(f"sum must exceed the difference: {total} <= {diff}")
    if geometry is Geometry.SPHERICAL:
        if total >= math.pi:
            raise DomainError(f"spherical sum must stay below pi: {total}")
    sh = geometry.model.s_K
    return sh(total) / sh(diff)


def menelaus_rhs(alpha: float) -> float:
    """(1 + cos alpha) / (1 - cos alpha), the angle side of the ratio."""
    if not 0.0 < alpha < math.pi:
        raise DomainError(f"angle must lie in (0, pi): {alpha}")
    c = math.cos(alpha)
    return (1.0 + c) / (1.0 - c)


def hyp_angle_from_sides(a: float, b: float, c: float) -> float:
    """Angle opposite side a in a hyperbolic triangle with sides a, b, c."""
    for s in (a, b, c):
        if not 0.0 < s <= MAX_HYPERBOLIC_SIDE:
            raise DomainError(f"side out of working range: {s}")
    num = math.cosh(b) * math.cosh(c) - math.cosh(a)
    return clamped_acos(num / (math.sinh(b) * math.sinh(c)))


def hyp_side_from_sas(b: float, c: float, angle: float) -> float:
    """Side opposite the given angle enclosed by sides b and c."""
    for s in (b, c):
        if not 0.0 < s <= MAX_HYPERBOLIC_SIDE:
            raise DomainError(f"side out of working range: {s}")
    if not 0.0 < angle < math.pi:
        raise DomainError(f"angle must lie in (0, pi): {angle}")
    return clamped_acosh(
        math.cosh(b) * math.cosh(c) - math.sinh(b) * math.sinh(c) * math.cos(angle)
    )


def sine_law_residual(a: float, b: float, c: float) -> float:
    """Max pairwise deviation of sinh(side)/sin(opposite angle)."""
    angle_a = hyp_angle_from_sides(a, b, c)
    angle_b = hyp_angle_from_sides(b, c, a)
    angle_c = hyp_angle_from_sides(c, a, b)
    ra = math.sinh(a) / math.sin(angle_a)
    rb = math.sinh(b) / math.sin(angle_b)
    rc = math.sinh(c) / math.sin(angle_c)
    return max(abs(ra - rb), abs(rb - rc), abs(rc - ra))
