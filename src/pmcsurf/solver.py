"""Prescribed mean curvature Dirichlet problems on hyperbolic geodesic balls.

The unknown is the log-radial height u on a ball of the hyperbolic plane,
discretized on a geodesic polar grid. The equation is the divergence form

    div_h(w Du) = m (e^u Hbar(u; q) - w),    w = (1 - |Du|_h^2)^(-1/2),

with Dirichlet data on the boundary circle. The scheme is a finite volume
balance with tilt factors evaluated on cell faces, with an analytic Jacobian
kept as its stencil (StencilJacobian): a 9-point coefficient array on the
interior nodes plus the pole row, filled once per Newton step. Each step makes
one linear solve, spsolve. Rotationally symmetric data keeps every iterate
radial, and then no coefficient varies along theta: a real FFT in theta
splits the system into one tridiagonal system per Fourier mode, solved by
one sweep over the rings. Any other stencil is laid out on a sparse index
layout, built once per problem on first use, and factored by SuperLU; the
Jacobian is structurally symmetric, so the LU orders the columns by minimum
degree on A + A^T (MMD_AT_PLUS_A), which halves the fill that the default
COLAMD leaves. Chebyshev collocation of the radial boundary value problem
provides an independent oracle for rotationally symmetric data. One damped Newton
driver, _newton, solves both: it stops at tol or at the round-off floor of the
residual and names the cause of any other stop. A residual check in the
conformal disk chart cross-validates converged solutions against a different
form of the same operator.
"""

import math
import sys
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError, NotSpacelikeError, UsageError
from .fields import (
    MAX_NODES, PolarGrid, ScalarField, gradient_norm_sq, polar_gradient, polar_jets, pole_gradient,
)

_M = 2  # PDE grids are two dimensional; the radial oracle accepts any m
_THETA_MIN = 1e-3  # the PDE and oracle guards of _newton keep every slope |Du| <= 1 - _THETA_MIN
_EXP_MAX = math.log(sys.float_info.max)  # exp overflows a float past it


# ---------------------------------------------------------------------------
# curvature data


@dataclass(frozen=True)
class PrescribedCurvature:
    """Mean curvature data on the future cone, in log-radial coordinates.

    hbar(t, s, theta) evaluates the prescribed curvature at the point with
    Lorentzian distance e^t over the hyperbolic-plane point (s, theta); all
    three arguments broadcast. dtheta_dt, when given, is the analytic
    derivative d/dt [e^t hbar(t, s, theta)]; a centered difference is used
    otherwise. The validity box [t_min, t_max] bounds the heights at which
    the data is trusted (and sampled by the hypothesis checks).
    """

    name: str
    hbar: object
    dtheta_dt: object = None
    t_min: float = math.log(0.2)
    t_max: float = math.log(5.0)
    radial: bool = True

    def theta(self, t, s, th=0.0):
        """Theta(t, q) = e^t Hbar(q e^t)."""
        return np.exp(t) * self.hbar(t, s, th)

    def dtheta(self, t, s, th=0.0):
        if self.dtheta_dt is not None:
            return self.dtheta_dt(t, s, th)
        dt = 1e-6
        up = np.exp(t + dt) * self.hbar(t + dt, s, th)
        dn = np.exp(t - dt) * self.hbar(t - dt, s, th)
        return (up - dn) / (2 * dt)


def constant_curvature(c):
    c = float(c)
    if not 0 < c < math.inf:
        raise UsageError("constant curvature must be positive and finite")

    def hbar(t, s, th=0.0):
        return np.broadcast_arrays(np.asarray(t, dtype=float) * 0.0 + c, s)[0]

    def dth(t, s, th=0.0):
        return np.broadcast_arrays(c * np.exp(np.asarray(t, dtype=float)), s)[0]

    return PrescribedCurvature("const:%g" % c, hbar, dth)


def rational_curvature(eps=0.0):
    """2 l / (1 + l^2) profile with an optional sech(s) enhancement.

    At eps = 0 the unit hyperboloid solves the equation exactly. For
    eps > 0 the data stays admissible with barrier radii (0.8, 1.25) as
    long as eps < 0.28125: the tight side is 2 l^2 (1 + eps) / (1 + l^2) < 1
    at l = 0.8 and s = 0.
    """
    eps = float(eps)
    if not 0 <= eps < 1:
        raise UsageError("sech amplitude must lie in [0, 1)")

    def hbar(t, s, th=0.0):
        ell = np.exp(np.asarray(t, dtype=float))
        return 2 * ell / (1 + ell**2) * (1 + eps / np.cosh(s))

    def dth(t, s, th=0.0):
        e2 = np.exp(2 * np.asarray(t, dtype=float))
        return 4 * e2 / (1 + e2) ** 2 * (1 + eps / np.cosh(s))

    return PrescribedCurvature("rational:%g" % eps, hbar, dth)


def dilation_curvature():
    """Hbar = 1/l. Scale invariant: e^t hbar is constant in t."""

    def hbar(t, s, th=0.0):
        return np.broadcast_arrays(np.exp(-np.asarray(t, dtype=float)), s)[0]

    def dth(t, s, th=0.0):
        return np.broadcast_arrays(np.zeros_like(np.asarray(t, dtype=float)), s)[0]

    return PrescribedCurvature("dilation", hbar, dth)


def table_curvature(path):
    """Bicubic interpolant of a sampled (t, s) table.

    CSV layout: first row is a label cell followed by the s grid, each later
    row is a t value followed by Hbar samples. Queries are clamped to the
    table box. Positivity is checked on the samples.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split(","))
    if len(rows) < 5 or len(rows[0]) < 5:
        raise UsageError("curvature table needs at least a 4x4 value grid")
    try:
        s_grid = np.array([float(v) for v in rows[0][1:]])
        t_grid = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    except ValueError as exc:
        raise UsageError("malformed curvature table: %s" % exc) from exc
    if vals.shape != (len(t_grid), len(s_grid)):
        raise UsageError("ragged curvature table")
    if not all(np.all(np.isfinite(a)) for a in (s_grid, t_grid, vals)):
        raise UsageError("curvature table contains non-finite values")
    if np.any(np.diff(t_grid) <= 0) or np.any(np.diff(s_grid) <= 0):
        raise UsageError("table grids must be strictly increasing")
    if vals.min() <= 0:
        raise UsageError("curvature table contains non-positive values")
    from scipy.interpolate import RectBivariateSpline  # slow to import, so only here

    spl = RectBivariateSpline(t_grid, s_grid, vals, kx=3, ky=3, s=0)
    t_lo, t_hi = float(t_grid[0]), float(t_grid[-1])
    s_lo, s_hi = float(s_grid[0]), float(s_grid[-1])

    def _ev(t, s, dx=0):
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        tq = np.clip(t, t_lo, t_hi).ravel()
        sq = np.clip(s, s_lo, s_hi).ravel()
        return spl.ev(tq, sq, dx=dx).reshape(t.shape)

    def hbar(t, s, th=0.0):
        return _ev(t, s)

    def dth(t, s, th=0.0):
        return np.exp(t) * (_ev(t, s) + _ev(t, s, dx=1))

    return PrescribedCurvature("table:%s" % path, hbar, dth, t_min=t_lo, t_max=t_hi)


def parse_curvature(spec):
    """Builtin curvature data from a spec string.

    const:<c>, rational[:<eps>], dilation, table:<csv path>.
    """
    head, _, arg = str(spec).partition(":")
    if head == "const":
        if not arg:
            raise UsageError("const curvature needs a value, e.g. const:1")
        try:
            return constant_curvature(float(arg))
        except ValueError as exc:
            raise UsageError("bad constant: %r" % arg) from exc
    if head == "rational":
        try:
            return rational_curvature(float(arg) if arg else 0.0)
        except ValueError as exc:
            raise UsageError("bad amplitude: %r" % arg) from exc
    if head == "dilation":
        return dilation_curvature()
    if head == "table":
        if not arg:
            raise UsageError("table curvature needs a file path")
        return table_curvature(arg)
    raise UsageError("unknown curvature spec %r" % spec)


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass
class HypothesisReport:
    name: str
    h1_min: float
    h2_Lambda: float
    h3_l: float | None
    h3_L: float | None
    hbar_min: float
    passes: dict
    sampling: dict
    requested: tuple | None = None
    requested_ok: bool | None = None

    def as_dict(self):
        out = {
            "name": self.name,
            "h1_min": self.h1_min,
            "h2_Lambda": self.h2_Lambda,
            "h3_l": self.h3_l,
            "h3_L": self.h3_L,
            "hbar_min": self.hbar_min,
            "passes": dict(self.passes),
            "sampling": dict(self.sampling),
        }
        if self.requested is not None:
            out["requested"] = list(self.requested)
            out["requested_ok"] = self.requested_ok
        return out


def check_hypotheses(H, n_t=41, n_s=41, s_span=8.0, requested_radii=None):
    """Sampled verification of the admissibility conditions on Hbar.

    Checks, on a (t, s) sample grid over the validity box and a hyperbolic
    ball of radius s_span: monotonicity of Theta = e^t Hbar in t (weak and
    strict versions), a C^1-size estimate Lambda from values and difference
    quotients, and the existence of barrier radii l <= 1 <= L with
    l Hbar(q l) < 1 and L Hbar(q L) > 1 everywhere. These are sampled
    certificates, not proofs; the sampling spec travels with the report.
    """
    if not (H.t_min < 0.0 < H.t_max):
        raise UsageError("validity box must contain t = 0 (the unit hyperboloid)")
    if int(n_t) < 2 or int(n_s) < 2:
        raise UsageError("the hypothesis checks need at least two samples in t and in s")
    if int(n_t) * int(n_s) > MAX_NODES:
        raise UsageError("the hypothesis checks take at most %d samples" % MAX_NODES)
    if not 0 < s_span < math.inf:
        raise UsageError("s_span must be positive and finite")
    t = np.linspace(H.t_min, H.t_max, int(n_t))
    s = np.linspace(0.0, float(s_span), int(n_s))
    th_samples = [0.0] if H.radial else list(np.linspace(0.0, 2 * np.pi, 9)[:-1])

    T, S = np.meshgrid(t, s, indexing="ij")
    h1_min = np.inf
    hbar_min = np.inf
    lam = 0.0
    for th in th_samples:
        vals = np.asarray(H.hbar(T, S, th), dtype=float)
        dth = np.asarray(H.dtheta(T, S, th), dtype=float)
        h1_min = min(h1_min, float(dth.min()))
        hbar_min = min(hbar_min, float(vals.min()))
        dv_t = np.gradient(vals, t, axis=0)
        dv_s = np.gradient(vals, s, axis=1)
        lam = max(lam, float(np.abs(vals).max()), float(np.abs(dv_t).max()), float(np.abs(dv_s).max()))

    def _theta_range(ell):
        lo, hi = np.inf, -np.inf
        for th in th_samples:
            v = np.log(ell) * np.ones_like(s)
            q = np.exp(v) * np.asarray(H.hbar(v, s, th), dtype=float)
            lo = min(lo, float(q.min()))
            hi = max(hi, float(q.max()))
        return lo, hi

    strict = 1e-12
    h3_l = None
    h3_L = None
    for ell in np.exp(np.linspace(H.t_min, H.t_max, 81)):
        if ell <= 1.0:
            if _theta_range(ell)[1] < 1.0 - strict and (h3_l is None or ell > h3_l):
                h3_l = float(ell)
        if ell >= 1.0:
            if _theta_range(ell)[0] > 1.0 + strict and (h3_L is None or ell < h3_L):
                h3_L = float(ell)

    requested_ok = None
    if requested_radii is not None:
        l_req, L_req = float(requested_radii[0]), float(requested_radii[1])
        if not (0 < l_req <= 1.0 <= L_req):
            raise UsageError("requested radii must satisfy 0 < l <= 1 <= L")
        requested_ok = bool(
            _theta_range(l_req)[1] < 1.0 - strict and _theta_range(L_req)[0] > 1.0 + strict
        )

    passes = {
        "H1": bool(h1_min >= -1e-12),
        "H1p": bool(h1_min >= 1e-8),
        "H2": bool(np.isfinite(lam)),
        "H3": bool(h3_l is not None and h3_L is not None),
        "positive": bool(hbar_min > 0),
    }
    sampling = {
        "n_t": int(n_t),
        "n_s": int(n_s),
        "s_span": float(s_span),
        "t_range": [float(H.t_min), float(H.t_max)],
        "n_theta": len(th_samples),
    }
    return HypothesisReport(
        H.name, h1_min, lam, h3_l, h3_L, hbar_min, passes, sampling,
        requested_radii if requested_radii is None else (float(requested_radii[0]), float(requested_radii[1])),
        requested_ok,
    )


# ---------------------------------------------------------------------------
# finite volume discretization


def _as_boundary(boundary, grid):
    """Dirichlet data as one value per angle: finite, and small enough that
    the pole row's exp(u) stays a float."""
    g = np.asarray(boundary(grid.theta_nodes) if callable(boundary) else boundary, dtype=float)
    if g.ndim == 0 or callable(boundary):
        g = np.broadcast_to(g, (grid.n_theta,))
    elif g.shape != (grid.n_theta,):
        raise UsageError("boundary data must be scalar, callable, or one value per angle")
    if not (np.isfinite(g).all() and g.max() <= _EXP_MAX):
        raise UsageError("boundary data must be finite and at most %.4f (exp overflows)" % _EXP_MAX)
    return g.copy()


class _Slopes:
    """Slopes of a node matrix M, by name. Radial faces (rings i, i + 1) carry
    d = u_s, v = u_theta and gam_r = |Du|^2, angular faces (angles j, j + 1)
    a = u_s, c = u_theta and gam_a, interior nodes the centered u_s, u_t and
    gam_n, the pole its gradient (pa, pb). max_sq is the largest |Du|^2 of
    them all."""

    def __init__(self, grid, M):
        ns, ds, s = grid.n_s, grid.ds, grid.s_nodes
        u_s, u_t = polar_gradient(grid, M)
        self.u_s, self.u_t = u_s[1:ns], u_t[1:ns]
        self.d = (M[1:] - M[:-1]) / ds
        self.v = 0.5 * (u_t[:-1] + u_t[1:])
        self.c = (np.roll(M[1:ns], -1, axis=1) - M[1:ns]) / grid.dtheta
        self.a = 0.5 * (self.u_s + np.roll(self.u_s, -1, axis=1))
        self.gam_r = gradient_norm_sq(self.d, self.v, (s[:-1] + ds / 2)[:, None])
        self.gam_a = gradient_norm_sq(self.a, self.c, s[1:ns, None])
        self.gam_n = gradient_norm_sq(self.u_s, self.u_t, s[1:ns, None])
        self.pa, self.pb = pole_gradient(grid, M)
        self.pole_sq = self.pa**2 + self.pb**2
        self.max_sq = max(
            float(self.gam_r.max()), float(self.gam_a.max()), float(self.gam_n.max()), self.pole_sq
        )

    def tilts(self):
        """Tilt factors (1 - |Du|^2)^(-1/2): w_r, w_a, w_n and the pole's w_p."""
        w_r, w_a, w_n = (1.0 / np.sqrt(1.0 - gam) for gam in (self.gam_r, self.gam_a, self.gam_n))
        return w_r, w_a, w_n, 1.0 / math.sqrt(1.0 - self.pole_sq)


class DiscreteProblem:
    """Finite volume residual and Jacobian on a geodesic polar grid.

    Unknowns are the pole value followed by the interior rings (row major,
    angle fastest). The boundary ring carries Dirichlet data. Fluxes through
    cell faces use face-centered tilt factors; around the pole the balance
    runs over a geodesic disk of radius ds/2.
    """

    def __init__(self, grid, H, boundary=0.0):
        if grid.n_s < 3:
            raise UsageError("need at least two interior rings")
        self.grid = grid
        self.H = H
        self.g = _as_boundary(boundary, grid)
        ns, nth = grid.n_s, grid.n_theta
        self.n_unknowns = 1 + (ns - 1) * nth
        ds, dth = grid.ds, grid.dtheta
        s = grid.s_nodes
        self.s_face = np.sinh(s[:-1] + ds / 2)[:, None]
        self.s_node = np.sinh(s[1:ns])[:, None]
        area = np.empty(ns)
        area[0] = 2 * np.pi * (np.cosh(ds / 2) - 1.0)
        area[1:] = np.sinh(s[1:ns]) * np.sinh(ds / 2) * dth * 2  # the factor 2 last: no overflow
        self.area = area
        self._s_col = s[1:ns][:, None]
        self._th_row = grid.theta_nodes[None, :]

    @cached_property
    def _layout(self):
        """(keep, rows, cols): of the Jacobian entries in the order jacobian()
        fills them, the mask of those in an unknown's column and their sparse
        (row, column) pairs. Built the first time SuperLU needs it; the FFT
        path works on the stencil itself."""
        ns, nth = self.grid.n_s, self.grid.n_theta
        # unknown index per node (-1 on the boundary ring), int32 as scipy
        # stores sparse indices
        idx = np.full((ns + 1, nth), -1, dtype=np.int32)
        idx[0] = 0
        idx[1:ns] = np.arange(1, self.n_unknowns).reshape(ns - 1, nth)
        # the stencil entries of every interior node, then the pole row;
        # boundary columns are dropped here, once
        rows = np.broadcast_to(idx[1:ns], (3, 3, ns - 1, nth))
        cols = np.array(
            [[np.roll(idx[a : a + ns - 1], 1 - b, axis=1) for b in range(3)] for a in range(3)]
        )
        rows = np.concatenate([rows.ravel(), np.zeros(nth + 1, dtype=np.int32)])
        cols = np.concatenate([cols.ravel(), idx[0, :1], idx[1]])
        keep = cols >= 0
        return keep, rows[keep], cols[keep]

    def expand(self, x):
        """Full node matrix from the unknown vector (boundary row appended)."""
        ns, nth = self.grid.n_s, self.grid.n_theta
        M = np.empty((ns + 1, nth))
        M[0] = x[0]
        M[1:ns] = x[1:].reshape(ns - 1, nth)
        M[ns] = self.g
        return M

    def restrict(self, M):
        return np.concatenate([[M[0].mean()], M[1 : self.grid.n_s].ravel()])

    def slope_sq(self, x):
        """Max |Du|^2 over faces, interior nodes and the pole."""
        return _Slopes(self.grid, self.expand(x)).max_sq

    def _hbar_interior(self, M):
        return np.asarray(self.H.hbar(M[1 : self.grid.n_s], self._s_col, self._th_row), dtype=float)

    def residual(self, x):
        ns, nth = self.grid.n_s, self.grid.n_theta
        ds, dth = self.grid.ds, self.grid.dtheta
        M = self.expand(x)
        sl = _Slopes(self.grid, M)
        if sl.max_sq >= 1.0:
            raise NotSpacelikeError("grid slope reaches the light cone")
        w_r, w_a, w_n, w_p = sl.tilts()
        flux_r = self.s_face * w_r * sl.d
        flux_a = w_a * sl.c / self.s_node
        R = np.empty(self.n_unknowns)
        net = dth * (flux_r[1:] - flux_r[:-1]) + ds * (flux_a - np.roll(flux_a, 1, axis=1))
        hv = self._hbar_interior(M)
        src = _M * (np.exp(M[1:ns]) * hv - w_n)
        R[1:] = (net / self.area[1:ns, None] - src).ravel()
        h0 = float(self.H.hbar(M[0, 0], 0.0, 0.0))
        R[0] = dth * flux_r[0].sum() / self.area[0] - _M * (math.exp(M[0, 0]) * h0 - w_p)
        return R

    def jacobian(self, x):
        """Analytic linearization of residual(), as a StencilJacobian.

        A 9-point stencil fill: C[1 + di, 1 + dj] couples interior node
        (i, j) to node (i + di, j + dj). Each face's flux derivative is laid
        on its two cells with opposite signs. The pole row is filled apart.
        """
        ns, nth = self.grid.n_s, self.grid.n_theta
        ds, dth = self.grid.ds, self.grid.dtheta
        M = self.expand(x)
        sl = _Slopes(self.grid, M)
        w_r, w_a, w_n, w_p = sl.tilts()
        C = np.zeros((3, 3, ns - 1, nth))

        # radial face i (rings i, i + 1): s_face[i] F[k, 1 + dj] is its flux
        # derivative against node (i + k, j + dj); ring i adds it, ring i + 1
        # subtracts it. s_face enters as its ratio to the cell area, which
        # stays finite where s_face alone nearly overflows
        A = (w_r + w_r**3 * sl.d**2) / ds
        Q = sl.d * w_r**3 * sl.v / self.s_face / self.s_face / (4 * dth)
        F = np.stack([[-Q, -A, Q], [-Q, A, Q]])
        area = self.area[1:ns, None]
        C[1:] += dth * (self.s_face[1:] / area) * F[:, :, 1:]
        C[:2] -= dth * (self.s_face[:-1] / area) * F[:, :, :-1]

        # angular face j (angles j, j + 1) on ring i: G[1 + di, k] is its flux
        # derivative against node (i + di, j + k); angle j adds it, j + 1 subtracts it
        A = (w_a + w_a**3 * (sl.c / self.s_node) ** 2) / (self.s_node * dth)
        P = (sl.c / self.s_node) * w_a**3 * sl.a / (4 * ds)
        G = np.stack([[-P, -P], [-A, A], [P, P]])
        coef = ds / self.area[1:ns, None]
        C[:, 1:] += coef * G
        C[:, :2] -= coef * np.roll(G, 1, axis=-1)

        # source terms at interior nodes
        C[1, 1] -= _M * np.asarray(self.H.dtheta(M[1:ns], self._s_col, self._th_row), dtype=float)
        src_s = _M * w_n**3 * sl.u_s / (2 * ds)
        src_t = _M * w_n**3 * (sl.u_t / self.s_node) / self.s_node / (2 * dth)
        C[2, 1] += src_s
        C[0, 1] -= src_s
        C[1, 2] += src_t
        C[1, 0] -= src_t

        # pole row: the face-0 fluxes, the zeroth order term and the tilt
        # coupling to ring 1
        F0 = F[:, :, 0] * (dth * self.s_face[0, 0] / self.area[0])
        pole = F0[0].sum() - _M * float(self.H.dtheta(M[0, 0], 0.0, 0.0))
        th = self.grid.theta_nodes
        ring1 = F0[1, 1] + np.roll(F0[1, 2], 1) + np.roll(F0[1, 0], -1)
        ring1 += _M * w_p**3 * (sl.pa * np.cos(th) + sl.pb * np.sin(th)) * 2.0 / (nth * ds)

        return StencilJacobian(self, C, pole, ring1)


# a coefficient that varies along theta by at most this share of the largest
# coefficient of its ring is theta-invariant: filling it rounds it by a few eps
# already, so its theta-mean perturbs each row of J by no more than that
_SPREAD_TOL = 8 * np.finfo(float).eps


class StencilJacobian:
    """The Jacobian of a DiscreteProblem, kept as its stencil.

    C[1 + di, 1 + dj, i, j] couples interior node (ring i + 1, angle j) to
    node (i + 1 + di, j + dj); pole is the pole row's diagonal entry and
    ring1[j] its coupling to ring 1. As a matrix, ring 1's three couplings
    to the pole merge into one entry and the last ring's couplings to the
    boundary drop out. tocsc() lays the stencil out on the problem's sparse
    index layout; apply() and fft_solve() work on the stencil itself.
    """

    def __init__(self, prob, C, pole, ring1):
        self._prob = prob
        self.C, self.pole, self.ring1 = C, pole, ring1

    @property
    def nnz(self):
        """Stored entries of tocsc(): n_theta >= 8 keeps a row's three angles apart."""
        n_rings, nth = self.C.shape[2:]
        return 9 * n_rings * nth - 4 * nth + 1

    def tocsc(self):
        """The stencil laid out as a CSC matrix, for SuperLU."""
        from scipy.sparse import coo_matrix  # slow to import, so only here

        p, n = self._prob, self._prob.n_unknowns
        keep, rows, cols = p._layout
        vals = np.concatenate([self.C.ravel(), [self.pole], self.ring1])[keep]
        # through CSR: the order in which it sums ring 1's merged pole entries
        # is the one every SuperLU solve has used
        return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr().tocsc()

    def apply(self, v, absolute=False):
        """J v, or |J| v (every matrix entry in absolute value) when absolute."""
        C, pole, ring1 = self.C, self.pole, self.ring1
        to_pole = C[0, :, 0].sum(axis=0)  # ring 1's merged pole entries
        if absolute:
            C, pole, ring1, to_pole = np.abs(C), abs(pole), np.abs(ring1), np.abs(to_pole)
        n_rings, nth = C.shape[2:]
        V = v[1:].reshape(n_rings, nth)
        out = np.zeros((n_rings, nth))
        for b in range(3):
            S = np.roll(V, 1 - b, axis=1)  # S[:, j] = V[:, j + b - 1]
            out[1:] += C[0, b, 1:] * S[:-1]
            out += C[1, b] * S
            out[:-1] += C[2, b, :-1] * S[1:]
        out[0] += to_pole * v[0]
        return np.concatenate([[pole * v[0] + ring1 @ V[0]], out.ravel()])

    def theta_invariant(self):
        """No coefficient varies along theta by more than _SPREAD_TOL of the
        largest one of its ring (for the pole row: of the pole row)."""
        C, ring1 = self.C, self.ring1
        if np.ptp(ring1) > _SPREAD_TOL * max(abs(self.pole), np.abs(ring1).max()):
            return False
        spread = np.ptp(C, axis=3).max(axis=(0, 1))
        return bool((spread <= _SPREAD_TOL * np.abs(C).max(axis=(0, 1, 3))).all())

    def fft_solve(self, b):
        """J x = b, b of shape (n,) or (n, k), for a theta-invariant stencil;
        None for any other stencil.

        A real FFT along theta splits J into one tridiagonal system in the
        ring index per Fourier mode, from the theta-means of the coefficients
        (Swarztrauber & Sweet, SIAM J. Numer. Anal. 10 (1973); Lai & Wang,
        Numer. Methods PDE 18 (2002)). The pole row borders mode 0 and sees
        ring 1 only through its sum; the unknown it adds is n_theta times the
        pole value, which keeps both rows diagonally dominant. One elimination
        sweep over the rings solves every mode and right-hand side at once,
        without pivoting, so it also returns None unless every mode system is
        diagonally dominant, where that is stable (Higham, Accuracy and
        Stability of Numerical Algorithms, SIAM 2002, ch. 9).
        """
        if not self.theta_invariant():
            return None
        nth = self.C.shape[3]
        cbar, r1bar = self.C.mean(axis=3), self.ring1.mean()
        # angle j + d carries mode k of angle j times exp(2 pi i d k / n_theta)
        k = np.arange(nth // 2 + 1)
        phase = np.exp(2j * np.pi * np.outer([-1, 0, 1], k) / nth)
        coef = np.einsum("abi,bk->aik", cbar, phase)
        # sweep row 0 is the pole row on mode 0 and the identity on the others
        lo, di, up = (np.concatenate([np.zeros((1, k.size)), c]) for c in coef)
        di[0, 0], di[0, 1:], up[0, 0] = self.pole / nth, 1.0, r1bar
        lo[1] = 0.0
        lo[1, 0] = cbar[0, :, 0].sum()  # ring 1's pole entry
        up[-1] = 0.0  # the last ring's boundary couplings drop out
        # dominance up to rounding in each row: where dTheta/dt = 0 (dilation
        # data) rows sit on the margin, and mode 0 sums its row to near zero
        row = np.concatenate([[abs(self.pole) / nth + abs(r1bar)], np.abs(cbar).sum(axis=(0, 1))])
        if not (np.abs(lo) + np.abs(up) <= np.abs(di) + _SPREAD_TOL * row[:, None]).all():
            return None
        B = b.reshape(b.shape[0], -1)
        y = np.zeros((di.shape[0], k.size, B.shape[1]), dtype=complex)
        y[0, 0] = B[0]
        # with angle 0 split off, a ring constant in b has exactly zero higher
        # modes, which the radix-5 and -7 FFT passes would leave at rounding level
        rings = B[1:].reshape(-1, nth, B.shape[1])
        y[1:] = np.fft.rfft(rings - rings[:, :1], axis=1)
        y[1:, 0] += nth * rings[:, 0]
        for i in range(1, di.shape[0]):
            w = lo[i] / di[i - 1]
            di[i] -= w * up[i - 1]
            y[i] -= w[:, None] * y[i - 1]
        y[-1] /= di[-1][:, None]
        for i in range(di.shape[0] - 2, -1, -1):
            y[i] = (y[i] - up[i][:, None] * y[i + 1]) / di[i][:, None]
        x = np.empty(B.shape)
        x[0] = y[0, 0].real / nth
        x[1:] = np.fft.irfft(y[1:], n=nth, axis=1).reshape(-1, B.shape[1])
        return x.reshape(b.shape)


def spsolve(J, b):
    """The Newton step's one linear solve, J x = b, for a StencilJacobian J.

    fft_solve takes a theta-invariant stencil (rotationally symmetric data
    and a radial iterate); any other is laid out by tocsc() and factored by
    SuperLU, its columns ordered by minimum degree on A + A^T, since J is
    structurally symmetric: that halves the fill of scipy's default COLAMD.
    The name is scipy's because the benchmark's tracer
    (perfbench/tracing.py) times the linear solve by patching solver.spsolve.
    """
    x = J.fft_solve(b)
    if x is not None:
        return x
    from scipy.sparse.linalg import spsolve as superlu  # slow to import, so only here

    return superlu(J.tocsc(), b, permc_spec="MMD_AT_PLUS_A")


# ---------------------------------------------------------------------------
# damped Newton solver


@dataclass
class SolveReport:
    iterations: int
    residual_norm: float
    max_w: float
    min_u: float
    max_u: float
    converged: bool
    damping_events: int
    n_s: int
    n_theta: int
    s_max: float
    tol: float
    message: str = ""

    def as_dict(self):
        return asdict(self)


def bump_field(grid, amp=0.2):
    """Radial Gaussian bump of unit width vanishing at the boundary, handy as a guess."""
    s_max = grid.s_max

    def fn(s, th):
        return amp * np.exp(-(s**2)) * (1 - (s / s_max) ** 2)

    return ScalarField.from_function(grid, fn)


def _initial_state(prob, u0):
    grid = prob.grid
    if u0 is None:
        # the conformal-disk harmonic extension of the data: mode k of
        # g - mean(g) scales like (tanh(s/2) / tanh(s_max/2))^k, so the pole
        # takes the mean and constant data gives the constant vector
        gm = float(prob.g.mean())
        coef = np.fft.rfft(prob.g - gm)
        coef[0] = 0.0
        r = np.tanh(grid.s_nodes[1 : grid.n_s, None] / 2) / math.tanh(grid.s_max / 2)
        rings = np.fft.irfft(coef * r ** np.arange(coef.size), n=grid.n_theta, axis=1)
        x = np.concatenate([[gm], (gm + rings).ravel()])
    elif isinstance(u0, ScalarField):
        same = (
            u0.grid.n_s == grid.n_s
            and u0.grid.n_theta == grid.n_theta
            and abs(u0.grid.s_max - grid.s_max) < 1e-12 * max(1.0, grid.s_max)
        )
        if not same:
            raise UsageError("initial guess grid does not match")
        x = prob.restrict(u0.matrix())
    elif callable(u0):
        x = prob.restrict(ScalarField.from_function(grid, u0).matrix())
    else:
        # a bare constant would form a cliff at the boundary ring, so taper
        # the offset quadratically down to the Dirichlet data
        c = float(u0)
        gm = float(prob.g.mean())
        s = grid.s_nodes[:, None]
        M = gm + (c - gm) * (1.0 - (s / grid.s_max) ** 2) + np.zeros(grid.n_theta)
        x = prob.restrict(M)
    return x


def _newton(x, residual, linearize, spacelike, tol, max_iters):
    """Damped Newton for residual(x) = 0: the Dirichlet solve and the radial oracle.

    linearize(x, R) returns, from one solve, the Newton step and the step z that
    rounding in R alone causes (Higham, Accuracy and Stability of Numerical
    Algorithms, SIAM 2002, ch. 7). Steps are halved, down to 1e-8, until spacelike
    holds and |R| drops by the factor 1 - alpha / 4; a step within 8 |z| needs no
    drop. Newton stops at |R| <= tol or after a full step within 8 |z| (Deuflhard,
    Newton Methods for Nonlinear Problems, Springer 2004). Returns (x, |R|,
    iterations, damped steps, converged, message); message names the cause of
    the stop and is "" at tol."""
    R = residual(x)
    rn = float(np.abs(R).max())
    if rn <= tol:
        return x, rn, 0, 0, True, "converged at the initial state"
    iterations = damped = 0
    while iterations < max_iters:
        step, z = linearize(x, R)
        if not (np.isfinite(step).all() and np.isfinite(z).all()):
            return x, rn, iterations, damped, False, "singular Jacobian"
        at_floor = np.abs(step).max() <= 8.0 * np.abs(z).max()
        alpha, cause = 1.0, "spacelike-margin breach"
        while alpha >= 1e-8:
            xt = x + alpha * step
            if spacelike(xt):
                cause = "line search stalled"
                Rt = residual(xt)
                rt = float(np.abs(Rt).max())
                if at_floor or rt <= (1.0 - 0.25 * alpha) * rn or rt <= tol:
                    break
            alpha *= 0.5
        else:
            return x, rn, iterations, damped, False, cause
        damped += alpha < 1.0
        x, R, rn = xt, Rt, rt
        iterations += 1
        if rn <= tol:
            return x, rn, iterations, damped, True, ""
        if at_floor and alpha == 1.0:
            return x, rn, iterations, damped, True, "converged at the round-off floor"
    return x, rn, iterations, damped, False, "max iterations reached"


def solve_dirichlet(
    H,
    s_max,
    n_s=64,
    n_theta=128,
    boundary=0.0,
    u0=None,
    tol=1e-10,
    max_iters=50,
    precheck=True,
):
    """Damped Newton solve of the Dirichlet problem on a geodesic ball.

    Returns (field, report). Without u0 Newton starts from the conformal-disk
    harmonic extension of the boundary data (the constant for constant data).
    Newton runs through _newton, with the rounding floor eps (|J| |x|)_r for
    row r. Non-convergence is reported, not raised.
    """
    grid = PolarGrid(int(n_s), int(n_theta), float(s_max))
    prob = DiscreteProblem(grid, H, boundary)
    if precheck:
        try:
            hyp = check_hypotheses(H)
            if not hyp.passes["H3"]:
                warnings.warn(
                    "curvature data has no certified barrier radii; "
                    "height bounds are not guaranteed",
                    stacklevel=2,
                )
        except UsageError:
            pass
    guard = (1.0 - _THETA_MIN) ** 2
    x = _initial_state(prob, u0)
    if prob.slope_sq(x) > guard:
        raise UsageError("initial guess violates the spacelike margin")

    def linearize(x, R):
        J = prob.jacobian(x)
        floor = np.finfo(float).eps * J.apply(np.abs(x), absolute=True)
        sol = spsolve(J, np.stack([-R, floor], axis=1))
        return sol[:, 0], sol[:, 1]

    x, rn, iterations, damping_events, converged, message = _newton(
        x, prob.residual, linearize, lambda x: prob.slope_sq(x) <= guard, tol, max_iters
    )
    M = prob.expand(x)
    _, _, w_n, w_p = _Slopes(grid, M).tilts()
    report = SolveReport(
        iterations=iterations, residual_norm=rn, max_w=max(float(w_n.max()), w_p),
        min_u=float(M.min()), max_u=float(M.max()), converged=converged,
        damping_events=damping_events, n_s=grid.n_s, n_theta=grid.n_theta, s_max=grid.s_max,
        tol=tol, message=message,
    )
    return ScalarField.from_matrix(grid, M), report


# ---------------------------------------------------------------------------
# radial collocation oracle


@dataclass
class RadialProfile:
    """u and du = u' on uniform nodes s of spacing step, sampled from interp."""

    s: np.ndarray
    u: np.ndarray
    du: np.ndarray
    u0: float
    step: float
    error_estimate: float
    _cheb = None  # not a field: (b, points, u - b) of the polynomial, set by the oracle

    def interp(self, s_query):
        b, points, v = self._cheb
        return b + _barycentric(points, v, s_query)


def _barycentric(points, values, q):
    """The polynomial through values at Chebyshev points, evaluated at q
    (Berrut & Trefethen, SIAM Rev. 46 (2004))."""
    wt = (-1.0) ** np.arange(points.size)
    wt[[0, -1]] /= 2.0
    q = np.asarray(q, dtype=float)
    parts = []
    for qb in np.array_split(q.ravel(), 1 + q.size * points.size // 2**20):  # 8 MB blocks
        d = qb[:, None] - points
        with np.errstate(divide="ignore", invalid="ignore"):
            k = wt / d
            r = (k @ values) / k.sum(axis=1)
        hit = np.isnan(r) & np.isfinite(qb)  # a query on a point: inf / inf
        r[hit] = values[np.argmin(np.abs(d[hit]), axis=1)]
        parts.append(r)
    return np.concatenate(parts).reshape(q.shape)


def _collocate(H, s_max, n, b, v0, m):
    """Newton for v = u - b at the points s_max cos(j pi / n) from v0(points);
    D differentiates (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 6).
    F = w^3 u'' + (m - 1) w coth(s) u' - m (Theta(u, |s|) - w) at the inner points,
    v = 0 at the ends. The unknowns are the inner values; max |u'| stays within
    1 - 1e-3, and with tol = 0 Newton stops at the rounding floor of F."""
    j = np.arange(n + 1)
    x, c = np.cos(np.pi * j / n), (-1.0) ** j * np.where(j % n == 0, 2.0, 1.0)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    s, D = s_max * x, (D - np.diag(D.sum(axis=1))) / s_max
    D2 = D @ D
    v, inner = v0(s), slice(1, n)
    s_in, coth = np.abs(s[inner]), 1.0 / np.tanh(s[inner])
    aD, aD2 = np.abs(D[inner]), np.abs(D2[inner])  # for the rounding floor of F

    def terms(y):
        vy = np.concatenate([v[:1], y, v[-1:]])
        p, q = (D @ vy)[inner], (D2 @ vy)[inner]
        w = 1.0 / np.sqrt(1.0 - p**2)
        th = np.asarray(H.theta(b + y, s_in), dtype=float)
        return vy, p, q, w, th, w**3 * q + (m - 1) * w * coth * p - m * (th - w)

    def linearize(y, F):
        vy, p, q, w, th, _ = terms(y)
        floor = np.finfo(float).eps * (m * (np.abs(th) + w) + w**3 * (aD2 @ np.abs(vy))
                                       + (m - 1) * w * np.abs(coth) * (aD @ np.abs(vy)))
        dF_dp = (3 * p * w**2 * q + (m - 1) * coth + m * p) * w**3
        J = dF_dp[:, None] * D[inner, inner] + (w**3)[:, None] * D2[inner, inner]
        J[np.diag_indices(n - 1)] -= m * np.asarray(H.dtheta(b + y, s_in), dtype=float)
        return np.linalg.solve(J, np.stack([-F, floor], axis=1)).T

    def spacelike(y):
        return np.abs(D @ np.concatenate([v[:1], y, v[-1:]])).max() <= 1.0 - _THETA_MIN

    y, _, _, _, converged, message = _newton(v[inner], lambda y: terms(y)[-1], linearize,
                                             spacelike, 0.0, 50)
    if not converged:
        error = NotSpacelikeError if message == "spacelike-margin breach" else ConvergenceError
        raise error("collocation Newton: %s" % message)
    v[inner] = y
    return s, D, v


def radial_ode_oracle(H, s_max, step=None, boundary=0.0, bracket=None, m=2):
    """Radial profile by Chebyshev collocation, independent of the PDE grid:
    w^3 u'' + (m - 1) w coth(s) u' = m (Theta(u, s) - w), u(s_max) = boundary, on
    the even extension to [-s_max, s_max] (Trefethen, ch. 13-14) at odd degrees
    n <= 1025 and 2n - 1, so no point sits on the pole. error_estimate is their
    max gap at the degree-n points; the arrays sample the fine polynomial on 2k + 1
    uniform nodes, k = s_max / step (default 4096). bracket bounds u(0)."""
    if not H.radial:
        raise UsageError("the radial oracle needs rotationally symmetric data")
    s_max, b = float(s_max), float(boundary)
    if not 0 < s_max < math.inf:
        raise UsageError("s_max must be positive and finite")
    n = min(1025, 2 * int(12 * s_max) + 17)  # odd; the cap bounds the dense matrices
    sc, _, vc = _collocate(H, s_max, n, b, np.zeros_like, m)
    sf, Df, vf = _collocate(H, s_max, 2 * n - 1, b, lambda s: _barycentric(sc, vc, s), m)
    k = 4096 if step is None else max(16, int(round(s_max / step)))
    s = np.linspace(0.0, s_max, 2 * k + 1)
    u = b + _barycentric(sf, vf, s)
    if bracket is not None and not float(bracket[0]) <= u[0] <= float(bracket[1]):
        raise BracketError("pole value %.6g outside the bracket [%g, %g]" % (u[0], *bracket))
    err = float(np.abs(_barycentric(sf, vf, sc) - vc).max())
    prof = RadialProfile(s, u, _barycentric(sf, Df @ vf, s), float(u[0]), s_max / (2 * k), err)
    prof._cheb = (b, sf, vf)
    return prof


# ---------------------------------------------------------------------------
# conformal disk chart residual


def poincare_residual(u, H):
    """Max-norm residual of the equation in the conformal disk chart.

    Evaluates the quasilinear second order operator with the
    disk-coordinate coefficient functions, from Euclidean disk-coordinate
    jets of the field on the inner half of the rings. It vanishes to
    second order on converged polar-grid solutions, in a chart none of the
    solver machinery touches. Nodes with 1 - |x|^2 below 1e-12 are excluded.
    """
    if isinstance(H, (int, float)):
        H = constant_curvature(H)
    g = u.grid
    m = _M
    sel = slice(1, min(max(2, g.n_s // 2), g.n_s - 1) + 1)
    M = u.matrix()
    Mv = M[sel]
    jets = polar_jets(g, M)
    us, ut_m, uss, ust, utt_m = (jets[k][sel] for k in ("u_s", "u_t", "u_ss", "u_st", "u_tt"))
    sc = g.s_nodes[sel][:, None]
    lam = 2 * np.cosh(sc / 2) ** 2
    rho = np.tanh(sc / 2)
    # chart jets in disk polar coordinates (rho, theta), then Cartesian
    z_r = lam * us
    z_t = ut_m / rho
    h_rr = lam * (np.sinh(sc) * us + lam * uss)
    h_rt = lam * ust / rho - ut_m / rho**2
    h_tt = utt_m / rho**2 + z_r / rho
    cth = np.cos(g.theta_nodes)[None, :]
    sth = np.sin(g.theta_nodes)[None, :]
    z1 = z_r * cth - z_t * sth
    z2 = z_r * sth + z_t * cth
    H11 = h_rr * cth**2 - 2 * h_rt * cth * sth + h_tt * sth**2
    H12 = (h_rr - h_tt) * cth * sth + h_rt * (cth**2 - sth**2)
    H22 = h_rr * sth**2 + 2 * h_rt * cth * sth + h_tt * cth**2
    zsq = z1**2 + z2**2
    q = 1.0 - zsq / lam**2
    keep = np.broadcast_to((1 - rho**2 > 1e-12) & (q > 1e-12), Mv.shape)
    if not keep.any():
        raise NotSpacelikeError("no usable chart nodes")
    th = np.broadcast_to(g.theta_nodes[None, :], Mv.shape)
    hv = np.asarray(H.hbar(Mv, sc, th), dtype=float)
    a11 = q + z1**2 / lam**2
    a22 = q + z2**2 / lam**2
    a12 = z1 * z2 / lam**2
    b1 = lam * ((m - 2) - (m - 1) * zsq / lam**2) * (rho * cth)
    b2 = lam * ((m - 2) - (m - 1) * zsq / lam**2) * (rho * sth)
    f = m * lam**2 * (q**1.5 * np.exp(Mv) * hv - q)
    res = a11 * H11 + 2 * a12 * H12 + a22 * H22 + b1 * z1 + b2 * z2 - f
    return float(np.abs(res[keep]).max())


# ---------------------------------------------------------------------------
# exhaustion and uniqueness instrumentation


@dataclass
class ExhaustionReport:
    radii: list
    reports: list
    compact_deltas: list
    tilt_series: list
    psi_max: list
    s0: float
    failure_index: int | None = None
    fields: list | None = None

    @property
    def converged_all(self):
        return self.failure_index is None and all(r.converged for r in self.reports)

    def as_dict(self):
        return {
            "radii": [float(r) for r in self.radii],
            "reports": [r.as_dict() for r in self.reports],
            "compact_deltas": [float(d) for d in self.compact_deltas],
            "tilt_series": [float(t) for t in self.tilt_series],
            "psi_max": self.psi_max,
            "s0": self.s0,
            "failure_index": self.failure_index,
            "converged_all": self.converged_all,
        }


def _psi_records(fld, lam):
    """Largest psi = w exp(+-lam u) and where it sits. Ties go to the first
    node in (ring, angle) order, the pole only when it is strictly larger, so
    a radial solution, exactly constant on each ring, reports angle 0."""
    g = fld.grid
    M = fld.matrix()
    _, _, w, wp = _Slopes(g, M).tilts()
    out = {}
    if abs(lam) * np.abs(M).max() > 700.0:
        raise DomainError("psi = w exp(+-lam u) overflows a float at lam = %g" % lam)
    for sign, tag in ((lam, "psi_plus"), (-lam, "psi_minus")):
        vals = w * np.exp(sign * M[1 : g.n_s])
        pole_val = wp * math.exp(sign * M[0, 0])
        k = int(np.argmax(vals))
        i, j = divmod(k, g.n_theta)
        best = float(vals.ravel()[k])
        loc = (float(g.s_nodes[i + 1]), float(g.theta_nodes[j]))
        if pole_val > best:
            best, loc = pole_val, (0.0, 0.0)
        out[tag] = {"value": best, "s": loc[0], "theta": loc[1]}
    return out


def exhaustion(
    H,
    radii,
    s0=1.0,
    ds=None,
    n_theta=96,
    tol=1e-10,
    lam=2.0,
    max_iters=50,
):
    """Solve the Dirichlet problem on a growing family of geodesic balls.

    All balls share the radial spacing, so consecutive solutions live on a
    common node set and the compact deltas max |u_{j+1} - u_j| over the ball
    of radius s0 compare nodes exactly. Solutions warm-start from the
    previous radius extended by the boundary value.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise UsageError("radii must be strictly increasing, at least two")
    if not 0 < s0 <= radii[0]:
        raise UsageError("the compact ball cannot exceed the smallest radius")
    if ds is None:
        ds = radii[0] / 24.0
    if not 0 < ds < math.inf:
        raise UsageError("radial spacing must be positive and finite")
    try:
        hyp = check_hypotheses(H)
        if not all(hyp.passes[k] for k in ("H1", "H2", "H3")):
            warnings.warn("curvature data fails a sampled hypothesis check", stacklevel=2)
    except UsageError:
        pass
    n_list = [int(round(r / ds)) for r in radii]
    if any(n < 3 for n in n_list):
        raise UsageError("radial spacing too coarse for the smallest ball")
    grids = [PolarGrid(n, n_theta, n * ds) for n in n_list]  # every range check before any solve
    i0 = min(int(round(s0 / ds)), n_list[0])
    fields = []
    reports = []
    psi = []
    failure = None
    prev = None
    for j, grid in enumerate(grids):
        n_s = grid.n_s
        guess = None
        if prev is not None:
            Mg = np.zeros((n_s + 1, n_theta))
            Mp = prev.matrix()
            rows = min(Mp.shape[0] - 1, n_s)  # drop the old boundary row
            Mg[:rows] = Mp[:rows]
            guess = ScalarField.from_matrix(grid, Mg)
        fld, rep = solve_dirichlet(
            H, grid.s_max, n_s=n_s, n_theta=n_theta, u0=guess, tol=tol,
            max_iters=max_iters, precheck=False,
        )
        reports.append(rep)
        if not rep.converged:
            failure = j
            break
        fields.append(fld)
        psi.append(_psi_records(fld, lam))
        prev = fld
    deltas = []
    for fa, fb in zip(fields, fields[1:]):
        Ma, Mb = fa.matrix(), fb.matrix()
        deltas.append(float(np.abs(Mb[: i0 + 1] - Ma[: i0 + 1]).max()))
    return ExhaustionReport(
        radii=[g.s_max for g in grids[: len(reports)]],
        reports=reports,
        compact_deltas=deltas,
        tilt_series=[r.max_w for r in reports if r.converged],
        psi_max=psi,
        s0=i0 * ds,
        failure_index=failure,
        fields=fields,
    )


@dataclass
class UniquenessReport:
    max_pairwise: float
    converged: list
    reports: list

    def as_dict(self):
        return asdict(self)


def uniqueness_probe(H, s_max, guesses, n_s=48, n_theta=96, tol=1e-10, boundary=0.0):
    """Solve from several initial guesses and report the max pairwise gap.

    Non-convergent runs are excluded from the distance and flagged. Under
    strict monotonicity of e^t Hbar the converged solutions should agree to
    solver tolerance; without it the distance is purely informative.
    """
    if len(guesses) < 2:
        raise UsageError("need at least two initial guesses")
    solutions = []
    converged = []
    reports = []
    for g0 in guesses:
        fld, rep = solve_dirichlet(
            H, s_max, n_s=n_s, n_theta=n_theta, boundary=boundary,
            u0=g0, tol=tol, precheck=False,
        )
        reports.append(rep)
        converged.append(bool(rep.converged))
        if rep.converged:
            solutions.append(fld.matrix())
    dist = 0.0
    for i in range(len(solutions)):
        for k in range(i + 1, len(solutions)):
            dist = max(dist, float(np.abs(solutions[i] - solutions[k]).max()))
    return UniquenessReport(dist, converged, reports)
