"""The converse construction: a hyperbolic cevian frame from six lengths.

Given the six cevian segment lengths AO, BO, CO, OD, OE and OF, with
th = tanh and alpha, beta, gamma the stretch ratios of ``cevians``, the
auxiliary quantities G = th(AO)/(alpha+1), H = th(BO)/(beta+1) and
I = th(CO)/(gamma+1) form a euclidean triangle whose angles are exactly
the angles BOF, AOF, BOD of the frame, which fixes the six rays around
O and lets every length be laid off directly.  The rebuilt frame is
measured again by ``cevians.cevian_frame``, so the CLI can report the
round trip.  Only ``ccplane construct`` imports this module.
"""

from __future__ import annotations

import math

from .cevians import Triangle, cevian_frame
from .constants import MAX_HYPERBOLIC_SIDE, TOL_CLAMP, TOL_CONSTRUCT, TOL_ID
from .errors import DomainError, InfeasibleGeometryError, InfeasibleInputError
from .kernel import Geometry, Record


class RatioSumInput(Record):
    """Six cevian lengths handed to the converse construction."""

    __slots__ = ("ao", "bo", "co", "od", "oe", "of")

    def __post_init__(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not 0.0 < value <= MAX_HYPERBOLIC_SIDE:
                raise DomainError(f"length {name}={value} outside (0, {MAX_HYPERBOLIC_SIDE}]")


class ConstructionResult(Record):
    """Frame rebuilt from six lengths, with the auxiliary data used.

    aux_a, aux_b, aux_c are the euclidean helper sides G, H, I;
    ``aux_area`` is their Heron area and ``sine_factor`` the reciprocal
    circumdiameter, so each recovered sine is sine_factor times the
    matching helper side.  The rebuilt triangle and its center are
    ``frame.tri`` and ``frame.o``.
    """

    __slots__ = (
        "frame", "aux_a", "aux_b", "aux_c", "aux_area", "sine_factor",
        "angle_bof", "angle_aof", "angle_bod", "relation_residual",
        "containment_residual",
    )


def clamped_acos(x: float) -> float:
    """acos with the argument clamped just past [-1, 1]."""
    if abs(x) > 1.0 + TOL_CLAMP:
        raise DomainError(f"acos argument out of range: {x}")
    return math.acos(min(1.0, max(-1.0, x)))


def construct_from_ratios(inp: RatioSumInput) -> ConstructionResult:
    """Rebuild a hyperbolic cevian frame from its six lengths.

    Fails as infeasible when the ratio-sum relation residual exceeds
    the construction tolerance, when the helper sides violate the
    triangle inequality (Heron radicand), or when a recovered sine
    leaves [0, 1].
    """
    ta, tb, tc = math.tanh(inp.ao), math.tanh(inp.bo), math.tanh(inp.co)
    alpha = ta / math.tanh(inp.od)
    beta = tb / math.tanh(inp.oe)
    gamma = tc / math.tanh(inp.of)
    relation_residual = alpha * beta * gamma - (alpha + beta + gamma + 2.0)
    if abs(relation_residual) > TOL_CONSTRUCT:
        raise InfeasibleInputError(
            f"ratio-sum relation residual {relation_residual:.3e} exceeds {TOL_CONSTRUCT}"
        )
    aux_a = ta / (alpha + 1.0)
    aux_b = tb / (beta + 1.0)
    aux_c = tc / (gamma + 1.0)
    radicand = (
        (aux_a + aux_b + aux_c)
        * (aux_a + aux_b - aux_c)
        * (aux_c + aux_a - aux_b)
        * (aux_b + aux_c - aux_a)
    )
    if radicand <= 0.0:
        raise InfeasibleGeometryError(
            "helper sides fail the triangle inequality (Heron radicand nonpositive)"
        )
    aux_area = 0.25 * math.sqrt(radicand)
    sine_factor = 2.0 * aux_area / (aux_a * aux_b * aux_c)
    for sine in (sine_factor * aux_a, sine_factor * aux_b, sine_factor * aux_c):
        if sine > 1.0 + TOL_CLAMP:
            raise InfeasibleGeometryError(f"recovered sine {sine} exceeds 1 (sine bound)")
    angle_bof = clamped_acos(
        (aux_b * aux_b + aux_c * aux_c - aux_a * aux_a) / (2.0 * aux_b * aux_c)
    )
    angle_aof = clamped_acos(
        (aux_c * aux_c + aux_a * aux_a - aux_b * aux_b) / (2.0 * aux_c * aux_a)
    )
    angle_bod = clamped_acos(
        (aux_a * aux_a + aux_b * aux_b - aux_c * aux_c) / (2.0 * aux_a * aux_b)
    )
    if abs(angle_bof + angle_aof + angle_bod - math.pi) > TOL_ID:
        raise InfeasibleGeometryError("recovered angles do not close up to pi")
    model = Geometry.HYPERBOLIC.model
    center = model.base
    rays = {
        "a": (0.0, inp.ao),
        "f": (angle_aof, inp.of),
        "b": (angle_aof + angle_bof, inp.bo),
        "d": (math.pi, inp.od),
        "c": (angle_aof + math.pi, inp.co),
        "e": (angle_aof + angle_bof + math.pi, inp.oe),
    }
    laid = {name: model.polar(theta, length) for name, (theta, length) in rays.items()}
    containment_residual = max(
        model.line_residual(model.line(laid["b"], laid["c"]), laid["d"]),
        model.line_residual(model.line(laid["c"], laid["a"]), laid["e"]),
        model.line_residual(model.line(laid["a"], laid["b"]), laid["f"]),
    )
    if containment_residual > 1e-6:
        raise InfeasibleGeometryError(
            f"laid-off feet miss the opposite sides by {containment_residual:.3e}"
        )
    triangle = Triangle(Geometry.HYPERBOLIC, laid["a"], laid["b"], laid["c"])
    return ConstructionResult(
        frame=cevian_frame(triangle, center),
        aux_a=aux_a,
        aux_b=aux_b,
        aux_c=aux_c,
        aux_area=aux_area,
        sine_factor=sine_factor,
        angle_bof=angle_bof,
        angle_aof=angle_aof,
        angle_bod=angle_bod,
        relation_residual=relation_residual,
        containment_residual=containment_residual,
    )
