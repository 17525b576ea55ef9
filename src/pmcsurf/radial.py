"""Geometry of radial spacelike graphs over the future unit hyperboloid.

A radial graph is the surface {exp(u(q)) * q} for a scalar u on the
hyperbolic plane. Everything here works in the geodesic polar chart
(s, theta) about a fixed vertex, where the hyperbolic metric is
h = ds^2 + sinh(s)^2 dtheta^2. Analytic graphs carry closures for u and
its partial derivatives; sampled fields take theirs from the polar
difference stencils in pmcsurf.fields (polar_gradient, polar_jets) away
from the pole and from a quadratic least-squares fit at the pole.

The finite-difference residual kernels assume three continuous
derivatives; the builtin test graphs are smooth, so the quoted O(step^2)
rates are attainable.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import lorentz
from .errors import DomainError, NotSpacelikeError
from .fields import ScalarField, gradient_norm_sq, polar_gradient, polar_jets, pole_quadratic_fit


@dataclass(frozen=True)
class AnalyticGraph:
    """Closures for u and its chart partial derivatives.

    grad(s, theta) returns (u_s, u_theta); hess(s, theta) returns
    (u_ss, u_stheta, u_thetatheta). All must broadcast over arrays.
    """

    value: callable
    grad: callable
    hess: callable


def constant_graph(c):
    c = float(c)
    return AnalyticGraph(
        value=lambda s, th: np.broadcast_arrays(np.full_like(np.asarray(s, float), c), th)[0],
        grad=lambda s, th: (np.zeros_like(np.asarray(s, float)), np.zeros_like(np.asarray(s, float))),
        hess=lambda s, th: (
            np.zeros_like(np.asarray(s, float)),
            np.zeros_like(np.asarray(s, float)),
            np.zeros_like(np.asarray(s, float)),
        ),
    )


class PolyGauss:
    """Quadratic polynomial times a Gaussian in ambient coordinates.

    P(y) = c0 + c1 . y + y . C . y, times exp(-|y|^2 / (2 sigma^2)).
    """

    def __init__(self, c0, c1, C, sigma=1.0):
        self.c0 = float(c0)
        self.c1 = np.asarray(c1, dtype=float)
        self.C = np.asarray(C, dtype=float)
        self.sigma = float(sigma)

    def __call__(self, y1, y2):
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        c0, c1, C, s2 = self.c0, self.c1, self.C, self.sigma**2
        P = c0 + c1[0] * y1 + c1[1] * y2 + C[0, 0] * y1**2 + 2 * C[0, 1] * y1 * y2 + C[1, 1] * y2**2
        P1 = c1[0] + 2 * (C[0, 0] * y1 + C[0, 1] * y2)
        P2 = c1[1] + 2 * (C[0, 1] * y1 + C[1, 1] * y2)
        E = np.exp(-(y1**2 + y2**2) / (2 * s2))
        E1 = -y1 / s2 * E
        E2 = -y2 / s2 * E
        E11 = (y1 * y1 / s2**2 - 1.0 / s2) * E
        E22 = (y2 * y2 / s2**2 - 1.0 / s2) * E
        E12 = y1 * y2 / s2**2 * E
        val = P * E
        g1 = P1 * E + P * E1
        g2 = P2 * E + P * E2
        h11 = 2 * C[0, 0] * E + 2 * P1 * E1 + P * E11
        h22 = 2 * C[1, 1] * E + 2 * P2 * E2 + P * E22
        h12 = 2 * C[0, 1] * E + P1 * E2 + P2 * E1 + P * E12
        return val, (g1, g2), (h11, h12, h22)


def ambient_graph(G):
    """Build an AnalyticGraph from a closure in ambient coordinates.

    G(y1, y2) must return (value, (d1, d2), (d11, d12, d22)) where
    y = (sinh s cos theta, sinh s sin theta). Composing through smooth
    ambient coordinates keeps the graph smooth across the pole.
    """

    def chart(s, th):
        sh, ch = np.sinh(s), np.cosh(s)
        c, sn = np.cos(th), np.sin(th)
        y1, y2 = sh * c, sh * sn
        J = (ch * c, ch * sn, -sh * sn, sh * c)  # y1_s, y2_s, y1_t, y2_t
        H2 = (sh * c, sh * sn, -ch * sn, ch * c, -sh * c, -sh * sn)
        return (y1, y2), J, H2

    def value(s, th):
        (y1, y2), _, _ = chart(np.asarray(s, float), np.asarray(th, float))
        return G(y1, y2)[0]

    def grad(s, th):
        (y1, y2), (a1, a2, b1, b2), _ = chart(np.asarray(s, float), np.asarray(th, float))
        _, (g1, g2), _ = G(y1, y2)
        return g1 * a1 + g2 * a2, g1 * b1 + g2 * b2

    def hess(s, th):
        (y1, y2), (a1, a2, b1, b2), (ss1, ss2, st1, st2, tt1, tt2) = chart(
            np.asarray(s, float), np.asarray(th, float)
        )
        _, (g1, g2), (h11, h12, h22) = G(y1, y2)
        u_ss = h11 * a1 * a1 + 2 * h12 * a1 * a2 + h22 * a2 * a2 + g1 * ss1 + g2 * ss2
        u_st = h11 * a1 * b1 + h12 * (a1 * b2 + a2 * b1) + h22 * a2 * b2 + g1 * st1 + g2 * st2
        u_tt = h11 * b1 * b1 + 2 * h12 * b1 * b2 + h22 * b2 * b2 + g1 * tt1 + g2 * tt2
        return u_ss, u_st, u_tt

    return AnalyticGraph(value=value, grad=grad, hess=hess)


def builtin_identity_graphs():
    """Three smooth nonconstant graphs used by the identity suites."""
    return {
        "radial_bump": ambient_graph(PolyGauss(0.35, (0.0, 0.0), np.zeros((2, 2)))),
        "tilted_bump": ambient_graph(PolyGauss(0.0, (0.25, 0.0), np.zeros((2, 2)))),
        "mixed_bump": ambient_graph(
            PolyGauss(0.2, (0.0, 0.12), np.array([[0.0, 0.075], [0.075, 0.0]]), sigma=1.3)
        ),
    }


# per-point / array kernels on chart components


def _jets(graph, s, theta):
    """(u, u_s, u_t, u_ss, u_st, u_tt) of an analytic graph at chart points."""
    u = graph.value(s, theta)
    u_s, u_t = graph.grad(s, theta)
    u_ss, u_st, u_tt = graph.hess(s, theta)
    return u, u_s, u_t, u_ss, u_st, u_tt


def tilt_components(u_s, u_t, s):
    gamma = gradient_norm_sq(u_s, u_t, s)
    if np.any(gamma >= 1.0):
        raise NotSpacelikeError("|Du| >= 1: graph is not spacelike there")
    return 1.0 / np.sqrt(1.0 - gamma)


def tilt(graph, s, theta):
    """w = (1 - |Du|_h^2)^(-1/2) for an analytic graph."""
    u_s, u_t = graph.grad(s, theta)
    return tilt_components(u_s, u_t, np.asarray(s, float))


def covariant_hessian_components(u_s, u_t, u_ss, u_st, u_tt, s):
    """Covariant Hessian entries w.r.t. h from chart partials."""
    sh, ch = np.sinh(s), np.cosh(s)
    D_ss = u_ss
    D_st = u_st - (ch / sh) * u_t
    D_tt = u_tt + sh * ch * u_s
    return D_ss, D_st, D_tt


def graph_metric(u, u_s, u_t, s):
    """Induced metric and inverse, as (..., 2, 2) arrays in the chart."""
    u = np.asarray(u, dtype=float)
    sh2 = np.sinh(s) ** 2
    e2u = np.exp(2 * u)
    gamma = gradient_norm_sq(u_s, u_t, s)
    if np.any(gamma >= 1.0):
        raise NotSpacelikeError("|Du| >= 1: induced metric degenerates")
    g = np.empty(np.shape(u) + (2, 2))
    g[..., 0, 0] = e2u * (1.0 - u_s * u_s)
    g[..., 0, 1] = g[..., 1, 0] = e2u * (-u_s * u_t)
    g[..., 1, 1] = e2u * (sh2 - u_t * u_t)
    us_up = u_s
    ut_up = u_t / sh2
    ginv = np.empty_like(g)
    fac = 1.0 / (1.0 - gamma)
    ginv[..., 0, 0] = (1.0 + us_up * us_up * fac) / e2u
    ginv[..., 0, 1] = ginv[..., 1, 0] = us_up * ut_up * fac / e2u
    ginv[..., 1, 1] = (1.0 / sh2 + ut_up * ut_up * fac) / e2u
    return g, ginv


def unit_normal(graph, s, theta):
    """Future timelike unit normal of the graph, as an ambient vector."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u_s, u_t = graph.grad(s, theta)
    w = tilt_components(u_s, u_t, s)
    q = lorentz.polar_chart_point(s, theta)
    ts, tth = lorentz.polar_chart_tangents(s, theta)
    du_sharp = u_s[..., None] * ts + (u_t / np.sinh(s) ** 2)[..., None] * tth
    return w[..., None] * (q + du_sharp)


def second_fundamental_form(graph, s, theta):
    """Second fundamental form in the chart, shape (..., 2, 2)."""
    s = np.asarray(s, dtype=float)
    u, u_s, u_t, u_ss, u_st, u_tt = _jets(graph, s, theta)
    w = tilt_components(u_s, u_t, s)
    D_ss, D_st, D_tt = covariant_hessian_components(u_s, u_t, u_ss, u_st, u_tt, s)
    eu = np.exp(np.asarray(u, float))
    II = np.empty(np.shape(np.asarray(u)) + (2, 2))
    II[..., 0, 0] = w * eu * (D_ss + 1.0 - u_s * u_s)
    II[..., 0, 1] = II[..., 1, 0] = w * eu * (D_st - u_s * u_t)
    II[..., 1, 1] = w * eu * (D_tt + np.sinh(s) ** 2 - u_t * u_t)
    return II


def mean_curvature_div_components(u, u_s, u_t, u_ss, u_st, u_tt, s):
    """H from the divergence route: m(e^u H - w) = div_h(w Du)."""
    sh, ch = np.sinh(s), np.cosh(s)
    w = tilt_components(u_s, u_t, s)
    D_ss, D_st, D_tt = covariant_hessian_components(u_s, u_t, u_ss, u_st, u_tt, s)
    lap_h = u_ss + (ch / sh) * u_s + u_tt / sh**2
    us_up = u_s
    ut_up = u_t / sh**2
    quad = D_ss * us_up * us_up + 2 * D_st * us_up * ut_up + D_tt * ut_up * ut_up
    div = w * lap_h + w**3 * quad
    return np.exp(-np.asarray(u, float)) * (div / 2.0 + w)


def _metric_derivatives(u, u_s, u_t, u_ss, u_st, u_tt, s):
    """Partial derivatives of the induced metric entries in the chart."""
    sh, ch = np.sinh(s), np.cosh(s)
    e2u = np.exp(2 * np.asarray(u, float))
    du = (u_s, u_t)
    ddu = ((u_ss, u_st), (u_st, u_tt))
    h = ((np.ones_like(sh), np.zeros_like(sh)), (np.zeros_like(sh), sh**2))
    dh = (
        ((np.zeros_like(sh), np.zeros_like(sh)), (np.zeros_like(sh), 2 * sh * ch)),
        ((np.zeros_like(sh), np.zeros_like(sh)), (np.zeros_like(sh), np.zeros_like(sh))),
    )
    dg = np.empty(np.shape(np.asarray(u)) + (2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                dg[..., k, i, j] = e2u * (
                    2 * du[k] * (h[i][j] - du[i] * du[j])
                    + dh[k][i][j]
                    - ddu[k][i] * du[j]
                    - du[i] * ddu[k][j]
                )
    return dg


def _christoffel(ginv, dg):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), dg[a,b,c] = d_a g_bc."""
    return 0.5 * (
        np.einsum("...kl,...ijl->...kij", ginv, dg)
        + np.einsum("...kl,...jil->...kij", ginv, dg)
        - np.einsum("...kl,...lij->...kij", ginv, dg)
    )


def mean_curvature_int_components(u, u_s, u_t, u_ss, u_st, u_tt, s):
    """H from the intrinsic route via the graph Laplacian of u.

    Assembles Delta_g u from the inverse metric and the Christoffel
    symbols of g, then uses
    m w e^(-u) H = Delta_g u + 2 |grad u|_g^2 + m e^(-2u).
    """
    u = np.asarray(u, dtype=float)
    w = tilt_components(u_s, u_t, s)
    _, ginv = graph_metric(u, u_s, u_t, s)
    gamma = _christoffel(ginv, _metric_derivatives(u, u_s, u_t, u_ss, u_st, u_tt, s))
    ddu = np.empty(np.shape(u) + (2, 2))
    ddu[..., 0, 0] = u_ss
    ddu[..., 0, 1] = ddu[..., 1, 0] = u_st
    ddu[..., 1, 1] = u_tt
    du = np.stack([np.broadcast_arrays(u_s, u_t)[0], np.broadcast_arrays(u_s, u_t)[1]], axis=-1)
    hess_g = ddu - np.einsum("...kij,...k->...ij", gamma, du)
    lap_g = np.einsum("...ij,...ij->...", ginv, hess_g)
    grad_sq = np.einsum("...ij,...i,...j->...", ginv, du, du)
    return (lap_g + 2 * grad_sq + 2 * np.exp(-2 * u)) * np.exp(u) / (2 * w)


def mean_curvature_divergence_form(graph, s, theta):
    s = np.asarray(s, dtype=float)
    return mean_curvature_div_components(*_jets(graph, s, theta), s)


def mean_curvature_intrinsic(graph, s, theta):
    s = np.asarray(s, dtype=float)
    return mean_curvature_int_components(*_jets(graph, s, theta), s)


@dataclass
class CurvatureSample:
    """Pointwise curvature data of a radial graph."""

    tilt: float
    normal: np.ndarray
    mean: float
    gauss: float
    second_fundamental: np.ndarray
    principal: np.ndarray


def curvature_sample(graph, s, theta):
    s, theta = float(s), float(theta)
    u, u_s, u_t, _, _, _ = (float(v) for v in _jets(graph, s, theta))
    w = tilt_components(u_s, u_t, s)
    g, _ = graph_metric(u, u_s, u_t, s)
    II = second_fundamental_form(graph, s, theta)
    kappa = eigh(II, g, eigvals_only=True)
    N = unit_normal(graph, s, theta)
    return CurvatureSample(
        tilt=float(w),
        normal=N,
        mean=float(np.mean(kappa)),
        gauss=float(np.prod(kappa)),
        second_fundamental=II,
        principal=kappa,
    )


# identity residual kernels


def _central_differences(fn, x, eps):
    """Central-difference gradient and Hessian of fn at the point x, O(eps^2).

    (f+ - f-) / (2 eps) for the gradient, (f+ - 2 f0 + f-) / eps^2 on the
    Hessian diagonal and the four-point mixed difference over 4 eps^2 off it.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    E = eps * np.eye(n)
    f0 = fn(x)
    fp = [fn(x + E[i]) for i in range(n)]
    fm = [fn(x - E[i]) for i in range(n)]
    grad = np.array([(fp[i] - fm[i]) / (2 * eps) for i in range(n)])
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (fp[i] - 2 * f0 + fm[i]) / eps**2
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                fn(x + E[i] + E[j])
                - fn(x + E[i] - E[j])
                - fn(x - E[i] + E[j])
                + fn(x - E[i] - E[j])
            ) / (4 * eps**2)
    return grad, hess


def laplacian_w_residual(graph, s, theta, step=1e-2):
    """Residual of the tilt Laplacian identity at one chart point.

    Derivatives of w and H are taken by central finite differences of the
    exact closures, so the return value is O(step^2) for smooth graphs
    with a nonzero identity constant.
    """
    s, theta, eps = float(s), float(theta), float(step)
    if s - 2 * eps <= 0:
        raise DomainError("step reaches the pole; evaluate farther out")
    u, u_s, u_t, u_ss, u_st, u_tt = (float(v) for v in _jets(graph, s, theta))
    w = float(tilt(graph, s, theta))
    H = float(mean_curvature_divergence_form(graph, s, theta))
    _, ginv = graph_metric(u, u_s, u_t, s)
    gamma = _christoffel(ginv, _metric_derivatives(u, u_s, u_t, u_ss, u_st, u_tt, s))

    x = (s, theta)
    dw, ddw = _central_differences(lambda p: tilt(graph, *p), x, eps)
    dH, _ = _central_differences(lambda p: mean_curvature_divergence_form(graph, *p), x, eps)
    hess_w = ddw - np.einsum("kij,k->ij", gamma, dw)
    lap_w = np.einsum("ij,ij->", ginv, hess_w)

    du = np.array([u_s, u_t])
    grad_u_up = ginv @ du
    grad_sq = float(du @ grad_u_up)
    II = second_fundamental_form(graph, s, theta)
    II_norm_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, II, II))
    II_gradu = float(grad_u_up @ II @ grad_u_up)
    tangent_term = -2.0 * np.exp(u) * float(grad_u_up @ dH)

    lhs = lap_w - w * II_norm_sq + tangent_term
    # The 3 on the gradient term is exact: symbolic expansion of both sides
    # leaves 2*w*|grad u|^2 unaccounted with a bare |grad u|^2, for any m.
    rhs = (
        w * (2.0 * np.exp(-2 * u) + 3.0 * grad_sq)
        - 2.0 * H * np.exp(-u) * (w**2 + 1.0)
        - 2.0 * np.exp(u) * II_gradu
    )
    return abs(lhs - rhs)


def log_distance(p):
    """tau = log of the Lorentzian distance from the origin."""
    return np.log(lorentz.lorentz_distance(p, np.zeros_like(p)))


def hessian_tau_residual(p, step=1e-3):
    """Max-norm gap between the FD Hessian of tau and its closed form.

    The closed form is Hess tau = -eta/ell^2 - 2 dtau (x) dtau with
    dtau_mu = -(eta p)_mu / ell^2.
    """
    p = np.asarray(p, dtype=float)
    eps = float(step)
    n = p.shape[0]
    ell = float(lorentz.lorentz_distance(p, np.zeros_like(p)))
    eta = np.diag([-1.0] + [1.0] * (n - 1))
    dtau = -(eta @ p) / ell**2
    exact = -eta / ell**2 - 2.0 * np.outer(dtau, dtau)
    _, fd = _central_differences(log_distance, p, eps)
    return float(np.max(np.abs(fd - exact)))


# sampled-field paths


def _pole_fit(fld):
    """Gradient, Hessian and tilt at the pole, from the quadratic fit."""
    grad0, hess0 = pole_quadratic_fit(fld)
    gamma0 = float(grad0 @ grad0)
    if gamma0 >= 1.0:
        raise NotSpacelikeError("|Du| >= 1 at the pole")
    return grad0, hess0, 1.0 / np.sqrt(1.0 - gamma0)


def field_tilt(fld):
    """Tilt at every node of a sampled field, as a ScalarField."""
    g = fld.grid
    u_s, u_t = polar_gradient(g, fld.matrix())
    w_rings = tilt_components(u_s[1:], u_t[1:], g.s_nodes[1:, None])
    return ScalarField(g, _pole_fit(fld)[2], w_rings)


def field_mean_curvature(fld, route="divergence"):
    """Mean curvature of a sampled field at every node.

    route is "divergence" or "intrinsic"; both are second-order accurate
    away from curvature of the discretization error.
    """
    g = fld.grid
    M = fld.matrix()
    d = polar_jets(g, M)
    s = g.s_nodes[1:, None]
    fn = mean_curvature_div_components if route == "divergence" else mean_curvature_int_components
    rings = fn(M[1:], d["u_s"][1:], d["u_t"][1:], d["u_ss"][1:], d["u_st"][1:], d["u_tt"][1:], s)
    grad0, hess0, w0 = _pole_fit(fld)
    lap0 = float(np.trace(hess0))
    quad0 = float(grad0 @ hess0 @ grad0)
    H0 = np.exp(-fld.pole) * ((w0 * lap0 + w0**3 * quad0) / 2.0 + w0)
    return ScalarField(g, float(H0), rings)


@dataclass
class SandwichResult:
    """Outcome of the two-hyperboloid sandwich test."""

    ok: bool
    reason: str = ""
    location: tuple = None

    def __bool__(self):
        return self.ok


def alc_sandwich_check(u, inner_l, outer_l):
    """Check ln(l) <= u <= ln(L) and spacelikeness on a sample grid.

    A sampled field is checked at its nodes, an analytic graph on a
    160 x 64 polar grid of radius 8. Radial graphs pinched between the
    hyperboloids of radii l and L (and spacelike) have the asymptotically
    light-cone behavior used by the exterior estimates, so this is the
    practical ALC certificate for radial data.
    """
    if not (0 < inner_l <= outer_l):
        raise DomainError("need 0 < l <= L")
    lo, hi = np.log(inner_l), np.log(outer_l)
    if isinstance(u, ScalarField):
        vals = u.matrix()
        u_s, u_t = polar_gradient(u.grid, vals)
        gamma = gradient_norm_sq(u_s[1:], u_t[1:], u.grid.s_nodes[1:, None])
        grad0, _ = pole_quadratic_fit(u)
        gamma_pole = float(grad0 @ grad0)
        s_nodes, th_nodes = u.grid.s_nodes, u.grid.theta_nodes
    else:
        s_nodes = np.linspace(0.0, 8.0, 161)
        th_nodes = np.arange(64) * (2 * np.pi / 64)
        S, T = np.meshgrid(s_nodes, th_nodes, indexing="ij")
        vals = u.value(S, T)
        us, ut = u.grad(S, T)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma_all = us**2 + np.where(S > 0, (ut / np.sinh(np.where(S > 0, S, 1.0))) ** 2, 0.0)
        gamma = gamma_all[1:]
        gamma_pole = float(np.max(us[0] ** 2))
    if gamma_pole >= 1.0:
        return SandwichResult(False, "not spacelike at the pole", (0.0, 0.0))
    bad = np.argwhere(gamma >= 1.0)
    if bad.size:
        i, j = bad[0]
        return SandwichResult(False, "|Du| >= 1", (float(s_nodes[i + 1]), float(th_nodes[j])))
    low = np.argwhere(vals < lo - 1e-12)
    if low.size:
        i, j = low[0]
        return SandwichResult(
            False, "drops below the inner hyperboloid", (float(s_nodes[i]), float(th_nodes[j]))
        )
    high = np.argwhere(vals > hi + 1e-12)
    if high.size:
        i, j = high[0]
        return SandwichResult(
            False, "exceeds the outer hyperboloid", (float(s_nodes[i]), float(th_nodes[j]))
        )
    return SandwichResult(True)
