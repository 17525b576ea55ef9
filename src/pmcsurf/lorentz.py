"""Minkowski linear algebra and charts of the future unit hyperboloid.

Ambient signature is (-, +, ..., +) with the time coordinate first. The
future unit hyperboloid is the set of q with <q, q> = -1 and q0 > 0. Two
charts are used throughout: stereographic projection onto the open unit
disk (conformal factor lambda = 2 / (1 - |x|^2)) and, in two dimensions,
geodesic polar coordinates (s, theta) about the vertex.
"""

from enum import Enum

import numpy as np

from .errors import DomainError

HYPERBOLOID_TOL = 1e-9


class CausalClass(Enum):
    TIMELIKE = "timelike"
    NULL = "null"
    SPACELIKE = "spacelike"


def inner(v, w):
    """Minkowski inner product, batched over leading axes."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return -v[..., 0] * w[..., 0] + np.sum(v[..., 1:] * w[..., 1:], axis=-1)


def classify(v):
    """Causal class of a single vector. The zero vector counts as spacelike."""
    v = np.asarray(v, dtype=float)
    ip = float(inner(v, v))
    if ip < 0:
        return CausalClass.TIMELIKE
    if ip > 0:
        return CausalClass.SPACELIKE
    if np.all(v == 0.0):
        return CausalClass.SPACELIKE
    return CausalClass.NULL


def lorentz_distance(q, o):
    """Lorentzian distance sqrt(-<q-o, q-o>) for q in the chronological future of o."""
    d = np.asarray(q, dtype=float) - np.asarray(o, dtype=float)
    ip = inner(d, d)
    if np.any(ip >= 0) or np.any(d[..., 0] <= 0):
        raise DomainError("point is not in the chronological future of the origin")
    return np.sqrt(-ip)


def conformal_factor(x):
    """lambda(x) = 2 / (1 - |x|^2) on the open unit disk/ball."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 >= 1.0):
        raise DomainError("point lies outside the open unit ball")
    return 2.0 / (1.0 - r2)


def inverse_stereographic(x):
    """Map a point of the open unit ball to the future unit hyperboloid."""
    x = np.asarray(x, dtype=float)
    lam = conformal_factor(x)
    q0 = lam - 1.0
    return np.concatenate([q0[..., None], lam[..., None] * x], axis=-1)


def stereographic(q):
    """Project a future unit hyperboloid point to the open unit ball."""
    q = np.asarray(q, dtype=float)
    ip = inner(q, q)
    if np.any(np.abs(ip + 1.0) > HYPERBOLOID_TOL) or np.any(q[..., 0] <= 0):
        raise DomainError("point does not lie on the future unit hyperboloid")
    return q[..., 1:] / (1.0 + q[..., 0, None])


def geodesic_polar_to_disk(s, theta):
    """Geodesic polar coordinates (s >= 0, theta) to conformal disk coordinates."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(s < 0):
        raise DomainError("geodesic radius must be nonnegative")
    rho = np.tanh(s / 2.0)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)


def polar_chart_point(s, theta):
    """Hyperboloid point (cosh s, sinh s cos theta, sinh s sin theta)."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.stack(
        [np.cosh(s), np.sinh(s) * np.cos(theta), np.sinh(s) * np.sin(theta)], axis=-1
    )


def polar_chart_tangents(s, theta):
    """Coordinate tangent vectors (d/ds, d/dtheta) of the polar chart."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    ts = np.stack(
        [np.sinh(s), np.cosh(s) * np.cos(theta), np.cosh(s) * np.sin(theta)], axis=-1
    )
    tth = np.stack(
        [np.zeros_like(s), -np.sinh(s) * np.sin(theta), np.sinh(s) * np.cos(theta)],
        axis=-1,
    )
    return ts, tth
