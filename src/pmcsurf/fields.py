"""Grid containers for radial (geodesic polar) and Cartesian graph fields."""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError, UsageError


_S_MAX_LIMIT = math.asinh(sys.float_info.max)  # sinh overflows a float past it

# Largest n_s * n_theta of a polar grid: 512x1024. A solve's peak RSS grows
# about 3x per doubling of both sides (117 MB at 128x256, 298 MB at 256x512),
# and a solve at the cap peaks at about 1.0 GB.
MAX_NODES = 2**19


@dataclass(frozen=True)
class PolarGrid:
    """Uniform geodesic polar grid on a ball of the hyperbolic plane.

    Nodes sit at s_i = i * ds for i = 0..n_s (pole included, i = n_s is the
    boundary circle) and theta_j = j * dtheta for j = 0..n_theta - 1.
    """

    n_s: int
    n_theta: int
    s_max: float

    def __post_init__(self):
        if self.n_s < 2 or self.n_theta < 8 or self.n_theta % 2 != 0:
            raise UsageError("polar grid needs n_s >= 2 and even n_theta >= 8")
        if self.n_s * self.n_theta > MAX_NODES:
            raise UsageError("polar grid has more than %d nodes" % MAX_NODES)
        if not 0 < self.s_max <= _S_MAX_LIMIT:
            raise UsageError("s_max must be positive, at most %.4f (sinh overflows)" % _S_MAX_LIMIT)

    @property
    def ds(self):
        return self.s_max / self.n_s

    @property
    def dtheta(self):
        return 2 * np.pi / self.n_theta

    @property
    def s_nodes(self):
        return np.arange(self.n_s + 1) * self.ds

    @property
    def theta_nodes(self):
        return np.arange(self.n_theta) * self.dtheta


@dataclass
class ScalarField:
    """Scalar samples on a PolarGrid. The pole value is stored once."""

    grid: PolarGrid
    pole: float
    rings: np.ndarray  # shape (n_s, n_theta), rows are s_1 .. s_{n_s}

    def __post_init__(self):
        self.rings = np.asarray(self.rings, dtype=float)
        if self.rings.shape != (self.grid.n_s, self.grid.n_theta):
            raise UsageError("ring array shape does not match the grid")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, 0.0, np.zeros((grid.n_s, grid.n_theta)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(s, theta); fn must broadcast over arrays."""
        s = grid.s_nodes[1:, None]
        th = grid.theta_nodes[None, :]
        rings = np.broadcast_to(fn(s, th), (grid.n_s, grid.n_theta)).astype(float)
        return cls(grid, float(fn(0.0, 0.0)), rings.copy())

    @classmethod
    def from_matrix(cls, grid, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (grid.n_s + 1, grid.n_theta):
            raise UsageError("matrix shape does not match the grid")
        return cls(grid, float(mat[0].mean()), mat[1:].copy())

    @classmethod
    def from_flat(cls, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_s * grid.n_theta + 1,):
            raise UsageError("flat value count does not match the grid")
        return cls(grid, float(values[0]), values[1:].reshape(grid.n_s, grid.n_theta))

    def matrix(self):
        """Full node matrix, pole value replicated along row 0."""
        out = np.empty((self.grid.n_s + 1, self.grid.n_theta))
        out[0] = self.pole
        out[1:] = self.rings
        return out

    def flat(self):
        """Pole first, then rings row-major."""
        return np.concatenate([[self.pole], self.rings.ravel()])

    def copy(self):
        return ScalarField(self.grid, self.pole, self.rings.copy())

    def min(self):
        return min(self.pole, float(self.rings.min()))

    def max(self):
        return max(self.pole, float(self.rings.max()))

    def evaluator(self):
        """Bicubic interpolant (s, theta) -> value, periodic in theta."""
        g = self.grid
        mat = self.matrix()
        pad = 3
        th = g.theta_nodes
        th_ext = np.concatenate([th[-pad:] - 2 * np.pi, th, th[:pad] + 2 * np.pi])
        mat_ext = np.concatenate([mat[:, -pad:], mat, mat[:, :pad]], axis=1)
        from scipy.interpolate import RectBivariateSpline  # slow to import, so only here

        spl = RectBivariateSpline(g.s_nodes, th_ext, mat_ext, kx=3, ky=3, s=0)

        def ev(s, theta):
            s = np.asarray(s, dtype=float)
            if np.any(s < -1e-12) or np.any(s > g.s_max * (1 + 1e-12)):
                raise OutOfDomainError("radius outside the sampled ball")
            th_q = np.mod(np.asarray(theta, dtype=float), 2 * np.pi)
            return spl.ev(np.clip(s, 0.0, g.s_max), th_q)

        return ev


# ---------------------------------------------------------------------------
# polar difference stencils: every centered difference of polar-grid samples.
# Node matrices hold the pole value along row 0 (ScalarField.matrix); the
# s-derivatives are NaN there, see pole_gradient and pole_quadratic_fit.


def diff_s(A, ds):
    """Centered s-difference of rows, one-sided second order on the last."""
    out = np.full_like(A, np.nan)
    n = A.shape[0] - 1
    out[1:n] = (A[2:] - A[:-2]) / (2 * ds)
    out[n] = (3 * A[n] - 4 * A[n - 1] + A[n - 2]) / (2 * ds)
    return out


def diff_theta(A, dtheta):
    """Centered periodic difference along axis 1; 0 on a constant pole row."""
    return (np.roll(A, -1, axis=1) - np.roll(A, 1, axis=1)) / (2 * dtheta)


def polar_gradient(grid, M):
    """First chart partials (u_s, u_theta) at every node of a node matrix."""
    if grid.n_s < 3:  # the one-sided u_ss of polar_jets reads four rings
        raise UsageError("polar stencils need n_s >= 3")
    return diff_s(M, grid.ds), diff_theta(M, grid.dtheta)


def polar_jets(grid, M):
    """Chart partials u_s, u_t, u_ss, u_st = d_s u_t and u_tt at every node, by name."""
    u_s, u_t = polar_gradient(grid, M)
    n, ds, dt = grid.n_s, grid.ds, grid.dtheta
    u_ss = np.full_like(M, np.nan)
    u_ss[1:n] = (M[2:] - 2 * M[1:n] + M[:-2]) / ds**2
    u_ss[n] = (2 * M[n] - 5 * M[n - 1] + 4 * M[n - 2] - M[n - 3]) / ds**2
    u_tt = (np.roll(M, -1, axis=1) - 2 * M + np.roll(M, 1, axis=1)) / dt**2
    return {"u_s": u_s, "u_t": u_t, "u_ss": u_ss, "u_st": diff_s(u_t, ds), "u_tt": u_tt}


def gradient_norm_sq(u_s, u_t, s):
    """|Du|_h^2 in the polar chart; s must be positive."""
    return u_s**2 + (u_t / np.sinh(s)) ** 2


def pole_gradient(grid, M):
    """Pole gradient (a, b) in normal coordinates, from ring 1's first Fourier mode."""
    th = grid.theta_nodes
    scale = grid.n_theta * grid.ds
    return 2.0 * (M[1] @ np.cos(th)) / scale, 2.0 * (M[1] @ np.sin(th)) / scale


def pole_quadratic_fit(fld):
    """Gradient and Hessian at the pole from a quadratic least-squares fit.

    Fits u over the pole node plus the first two rings in the geodesic
    normal coordinates s*(cos, sin).
    """
    g = fld.grid
    th = g.theta_nodes
    pts = [np.zeros((1, 2))]
    vals = [np.array([fld.pole])]
    for i in (1, 2):
        s = g.s_nodes[i]
        pts.append(np.stack([s * np.cos(th), s * np.sin(th)], axis=-1))
        vals.append(fld.rings[i - 1])
    P = np.concatenate(pts)
    V = np.concatenate(vals)
    A = np.stack(
        [np.ones(len(P)), P[:, 0], P[:, 1], P[:, 0] ** 2, P[:, 0] * P[:, 1], P[:, 1] ** 2],
        axis=-1,
    )
    c, *_ = np.linalg.lstsq(A, V, rcond=None)
    grad = np.array([c[1], c[2]])
    hess = np.array([[2 * c[3], c[4]], [c[4], 2 * c[5]]])
    return grad, hess


@dataclass(frozen=True)
class BoxGrid:
    """Uniform node grid on a symmetric box [-R_k, R_k] per axis."""

    extents: tuple
    counts: tuple

    def __post_init__(self):
        if len(self.extents) != len(self.counts):
            raise UsageError("per-axis extents and counts must align")
        if len(self.extents) < 1:
            raise UsageError("need at least one axis")
        if any(n < 4 for n in self.counts):
            raise UsageError("need at least 4 nodes per axis")
        if any(not r > 0 for r in self.extents):
            raise UsageError("extents must be positive")

    @classmethod
    def cube(cls, m, half_width, n):
        return cls((float(half_width),) * m, (int(n),) * m)

    @property
    def m(self):
        return len(self.extents)

    @property
    def axes(self):
        return [np.linspace(-r, r, n) for r, n in zip(self.extents, self.counts)]

    @property
    def spacing(self):
        return tuple(2 * r / (n - 1) for r, n in zip(self.extents, self.counts))

    def node_radii(self):
        """|x| at every node."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.sqrt(sum(c * c for c in mesh))


@dataclass
class CartesianField:
    """Scalar samples of a graph function on a BoxGrid.

    margin records the declared spacelike margin: the discrete gradient
    satisfies |grad f| <= 1 - margin at interior nodes.
    """

    grid: BoxGrid
    values: np.ndarray
    margin: float = field(default=0.0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != tuple(self.grid.counts):
            raise UsageError("value array shape does not match the grid")

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn on the grid; evaluates slab by slab to bound memory."""
        vals = np.empty(tuple(grid.counts))
        axes = grid.axes
        rest = list(np.meshgrid(*axes[1:], indexing="ij")) if grid.m > 1 else []
        for i, x0 in enumerate(axes[0]):
            coords = [np.full(rest[0].shape if rest else (), x0)] + rest
            pts = np.stack(coords, axis=-1)
            vals[i] = fn(pts)
        out = cls(grid, vals)
        out.margin = out.spacelike_margin()
        return out

    def gradient(self):
        """Second-order centered/one-sided partial derivative arrays."""
        return np.gradient(self.values, *self.grid.spacing, edge_order=2)

    def spacelike_margin(self):
        grads = self.gradient()
        gn = np.sqrt(sum(g * g for g in grads))
        return float(1.0 - gn.max())
