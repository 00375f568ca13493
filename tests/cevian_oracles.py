"""The projection oracle: a second route to a cevian frame's ratios.

The ``verify`` campaigns measure a frame in its own plane.  This oracle
instead projects the frame centrally onto the tangent plane at its
interior point, where the figure is euclidean and keeps its ratios, and
the tests hold the measured frame to it on all three planes.
"""

import math
from types import SimpleNamespace

from ccplane.errors import DomainError


def projection_oracle(frame):
    """Check a frame against its central projection onto the tangent plane at o.

    In homogeneous coordinates (``model.lift``) a point P goes to
    X = P/(P . O) on the tangent plane at O, where P . O is the point form
    p0 o0 + kappa (p1 o1 + p2 o2), that is cosh, cos or 1 of the distance
    from o.  Lines go to straight lines, and Y = X - O has length t_K of
    that distance in the line form kappa y0^2 + y1^2 + y2^2.  So the
    euclidean ratios |Y_A|/|Y_D|, |Y_B|/|Y_E|, |Y_C|/|Y_F| must reproduce
    alpha, beta, gamma, and each vertex and its foot must lie on one line
    through O, det(O, Y_A, Y_D) = 0.  No distance is measured on the way.
    A point at a quarter turn or more from o on the sphere has no image,
    P . O <= 0, and raises DomainError.

    Returns the three ratios, their largest deviation from the frame's,
    the euclidean relation residual r1 r2 r3 - (r1 + r2 + r3 + 2) and the
    largest collinearity residual, as attributes of one namespace.
    """
    tri = frame.tri
    model = tri.geometry.model
    kappa = model.kappa
    o0, o1, o2 = model.lift(frame.o)
    ys = []
    for point in (tri.a, frame.d, tri.b, frame.e, tri.c, frame.f):
        p0, p1, p2 = model.lift(point)
        c = p0 * o0 + kappa * (p1 * o1 + p2 * o2)
        if not c > 0.0:
            raise DomainError("a frame point has no central image at the interior point")
        y0, y1, y2 = p0 / c - o0, p1 / c - o1, p2 / c - o2
        ys.append((y0, y1, y2, math.sqrt(kappa * (y0 * y0) + y1 * y1 + y2 * y2)))
    ratios = []
    collinearity = 0.0
    for (v0, v1, v2, nv), (f0, f1, f2, nf) in zip(ys[0::2], ys[1::2]):
        ratios.append(nv / nf)
        det = o0 * (v1 * f2 - v2 * f1) + o1 * (v2 * f0 - v0 * f2) + o2 * (v0 * f1 - v1 * f0)
        collinearity = max(collinearity, abs(det) / (nv * nf))
    r1, r2, r3 = ratios
    return SimpleNamespace(
        ratios=(r1, r2, r3),
        max_deviation=max(abs(r1 - frame.alpha), abs(r2 - frame.beta), abs(r3 - frame.gamma)),
        euclid_relation_residual=r1 * r2 * r3 - (r1 + r2 + r3 + 2.0),
        collinearity_residual=collinearity,
    )


def polar_draw(radius, rng):
    """One vertex of a triangle draw, as ``sampling.sample_triangle`` takes
    it: u from ``rng``, its distance ``radius(u)``, then the heading.
    Returns the (theta, r) pair."""
    r = radius(rng.random())
    return rng.random() * 2.0 * math.pi, r
