"""Scalar 3-vector kernels.

Everything here is unchecked hot-path arithmetic on plain float triples.
Validation and typed wrappers live in ``ccplane.kernel``.

The ambient space is R^3 carrying either the Minkowski form
<x, y> = -x0*y0 + x1*y1 + x2*y2 (functions prefixed ``m``) or the
Euclidean dot product (sphere helpers prefixed ``s``).

Only ``import math`` belongs here, never ``from math import ...``: every
public callable of this module counts as a kernel, and a re-bound math
function would be mistaken for one by anything that wraps the kernels.
"""

import math

# Name of the kernel engine, reported in benchmark fingerprints.
BACKEND = "python"

# 16 * double eps: noise band for the quadratic form of a unit timelike
# vector, scaled by v0^2 where it is applied.
_FORM_NOISE = 16.0 * 2.220446049250313e-16


def minner(x, y):
    """Minkowski bilinear form, signature (-, +, +)."""
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def mcross(x, y):
    """Minkowski cross product: <mcross(x, y), z> = det(x, y, z)."""
    return (
        -(x[1] * y[2] - x[2] * y[1]),
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


def mnormalize_point(v):
    """Scale a timelike vector onto the upper hyperboloid sheet.

    The form's rounding noise is ~ eps * v0^2.  Within that band of 1
    the vector is already unit to working precision and sqrt(q) is
    indistinguishable from 1, so dividing would only inject the noise
    into the components; they are returned untouched.  Genuinely
    non-timelike input still lands in sqrt(<0) and fails loudly.

    The form is ``minner(v, v)`` written out on unpacked coordinates,
    the same operations in the same order, so the result is bit for bit
    that of the composed call at a fraction of its cost.  The band is one
    comparison chain, -band <= q - 1 <= band, which is |q - 1| <= band
    with no call: both are false for a NaN.
    """
    v0, v1, v2 = v
    # n = -v0^2 is the form's first term, and 1 - n is 1 + v0^2 exactly.
    n = -v0 * v0
    q = -(n + v1 * v1 + v2 * v2)
    band = _FORM_NOISE * (1.0 - n)
    if -band <= q - 1.0 <= band:
        if v0 < 0.0:
            return (-v0, -v1, -v2)
        return (v0, v1, v2)
    s = math.sqrt(q)
    if v0 < 0.0:
        s = -s
    return (v0 / s, v1 / s, v2 / s)


def mnormalize_space(v):
    """Scale a spacelike vector to unit Minkowski norm."""
    s = math.sqrt(minner(v, v))
    return (v[0] / s, v[1] / s, v[2] / s)


def mdist(p, q):
    """Distance between hyperboloid points.

    Near coincidence acosh(-<p,q>) loses half the digits, so the chord
    form 2*asinh(|p - q|/2) is used there instead.
    """
    m = -minner(p, q)
    if m < 1.5:
        d = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
        c = minner(d, d)
        if c <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(c))
    return math.acosh(m)


def mtangent(p, q):
    """Unit tangent vector at p pointing toward q."""
    m = minner(p, q)
    w = (q[0] + m * p[0], q[1] + m * p[1], q[2] + m * p[2])
    if m > -2.0:
        return mnormalize_space(w)
    # Far apart, the squared components of w cancel catastrophically;
    # the norm is sqrt(m^2 - 1) identically, so use that instead.
    s = math.sqrt(m * m - 1.0)
    return (w[0] / s, w[1] / s, w[2] / s)


def mgeo_point(p, n, t):
    """cosh(t) p + sinh(t) n, renormalized onto the hyperboloid."""
    ch = math.cosh(t)
    sh = math.sinh(t)
    return mnormalize_point(
        (ch * p[0] + sh * n[0], ch * p[1] + sh * n[1], ch * p[2] + sh * n[2])
    )


def mreflect(p, n):
    """Reflect p across the geodesic with unit spacelike normal n."""
    s = 2.0 * minner(p, n)
    return mnormalize_point((p[0] - s * n[0], p[1] - s * n[1], p[2] - s * n[2]))


def mfoot(p, n):
    """Orthogonal projection of p onto the geodesic with normal n."""
    s = minner(p, n)
    return mnormalize_point((p[0] - s * n[0], p[1] - s * n[1], p[2] - s * n[2]))


def mmid(p, q):
    """Hyperbolic midpoint of p and q."""
    return mnormalize_point((p[0] + q[0], p[1] + q[1], p[2] + q[2]))


def sdot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def scross(x, y):
    return (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )


def sdist(p, q):
    """Great-circle distance, stable at both ends of [0, pi]."""
    c = scross(p, q)
    return math.atan2(math.sqrt(sdot(c, c)), sdot(p, q))

