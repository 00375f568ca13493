"""Shared tolerances, working ranges, and the names every command reads:
the theorem ids and the units of every JSON record."""

import math

# Hyperboloid / unit-sphere membership drift allowed on constructed points.
TOL_POINT = 1e-10

# Identity residuals (containment, concurrency, membership checks).
TOL_ID = 1e-9

# Inverse trig arguments may overshoot their domain by this much before
# the input is treated as invalid rather than clamped.
TOL_CLAMP = 1e-12

# Ratio-sum relation residual admitted by the converse construction.
TOL_CONSTRUCT = 1e-8

# Area comparisons (angle deficit vs closed forms).
TOL_AREA = 1e-8

# Side lengths accepted by triangle builders.
MAX_HYPERBOLIC_SIDE = 10.0
MAX_SPHERICAL_SIDE = math.pi / 2

# The theorem ids of the ``verify`` campaigns.
THEOREMS = ("menelaus", "euler-ratio", "ceva", "lambert", "lexell", "pqr")

# The units every JSON record of the package states, campaign reports and
# the CLI's records alike.
UNITS = {"units": "model-units", "angle_units": "radians"}
