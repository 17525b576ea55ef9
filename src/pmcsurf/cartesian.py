"""Entire spacelike graphs over R^m: curvature kernels and asymptotic checks.

A function f: R^m -> R with |grad f| < 1 embeds as the spacelike graph
{(f(x), x)} in Minkowski space with the time axis first. Everything here
works in that flat chart: tilt phi = (1 - |grad f|^2)^{-1/2}, induced
metric delta - df (x) df, second fundamental form phi * hess f, volume
density phi^{-1}. The light-cone diagnostics compare f against |x| on
radial shells, and radial_to_cartesian moves a graph from the hyperbolic
chart into this one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NotSpacelikeError,
    OutOfDomainError,
    UsageError,
)
from .fields import CartesianField, ScalarField
from .radial import AnalyticGraph, CurvatureSample


@dataclass(frozen=True)
class AnalyticSurface:
    """Closures for an entire graph and its flat-chart jets.

    value(x) -> (...), grad(x) -> (..., m), hess(x) -> (..., m, m), with
    x of shape (..., m); all must broadcast over leading axes.
    """

    m: int
    value: callable
    grad: callable
    hess: callable


def hyperboloid(l=1.0, m=2):
    """Upper unit-distance sheet f = sqrt(l^2 + |x|^2), scaled by l.

    Umbilic: every principal curvature is 1/l, so H = 1/l and the
    Gauss-Kronecker curvature is l^{-m} at every point.
    """
    l = float(l)
    if l <= 0:
        raise UsageError("scale must be positive")

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(l * l + np.sum(x * x, axis=-1))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return x / value(x)[..., None]

    def hess(x):
        x = np.asarray(x, dtype=float)
        f = value(x)
        p = x / f[..., None]
        eye = np.eye(x.shape[-1])
        return (eye - p[..., :, None] * p[..., None, :]) / f[..., None, None]

    return AnalyticSurface(m=m, value=value, grad=grad, hess=hess)


def _perturbed(base, dvalue, dgrad, dhess):
    return AnalyticSurface(
        m=base.m,
        value=lambda x: base.value(x) + dvalue(x),
        grad=lambda x: base.grad(x) + dgrad(x),
        hess=lambda x: base.hess(x) + dhess(x),
    )


def bumped_hyperboloid(eps, l=1.0, m=2, decay=2.0):
    """Hyperboloid plus a radial Gaussian bump eps * exp(-decay |x|^2).

    Small eps keeps the graph spacelike and strictly convex is lost near
    the bump shoulder, which is exactly what the strict-inequality
    integral runs need.
    """
    eps, a = float(eps), float(decay)

    def e(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-a * np.sum(x * x, axis=-1))

    def dvalue(x):
        return eps * e(x)

    def dgrad(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * a * eps * e(x)[..., None] * x

    def dhess(x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(x.shape[-1])
        outer = x[..., :, None] * x[..., None, :]
        return eps * e(x)[..., None, None] * (4.0 * a * a * outer - 2.0 * a * eye)

    return _perturbed(hyperboloid(l, m), dvalue, dgrad, dhess)


def affine(offset, slope):
    """Spacelike hyperplane f = offset + slope . x; flat, II = 0."""
    slope = np.asarray(slope, dtype=float)
    if np.sum(slope * slope) >= 1.0:
        raise NotSpacelikeError("slope reaches the light cone")
    offset = float(offset)
    m = slope.size

    def value(x):
        x = np.asarray(x, dtype=float)
        return offset + x @ slope

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(slope, x.shape).copy()

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (m, m))

    return AnalyticSurface(m=m, value=value, grad=grad, hess=hess)


def saddle_hyperboloid(amp=1.2, decay=2.0, l=1.0):
    """Hyperboloid plus amp * x1 x2 exp(-decay |x|^2), plane only.

    With amp > 1/l the Hessian is indefinite near the origin, giving a
    spacelike graph whose convexity set is a proper subset; useful for
    exercising masked integrals and negative Gauss curvature.
    """
    amp, d = float(amp), float(decay)

    def e(x):
        return np.exp(-d * np.sum(x * x, axis=-1))

    def dvalue(x):
        x = np.asarray(x, dtype=float)
        return amp * x[..., 0] * x[..., 1] * e(x)

    def dgrad(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        ee = e(x)
        g1 = ee * (x2 - 2.0 * d * x1 * x1 * x2)
        g2 = ee * (x1 - 2.0 * d * x1 * x2 * x2)
        return amp * np.stack([g1, g2], axis=-1)

    def dhess(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        ee = e(x)
        h11 = ee * (4.0 * d * d * x1**3 * x2 - 6.0 * d * x1 * x2)
        h22 = ee * (4.0 * d * d * x1 * x2**3 - 6.0 * d * x1 * x2)
        h12 = ee * (1.0 - 2.0 * d * x1 * x1 - 2.0 * d * x2 * x2 + 4.0 * d * d * x1 * x1 * x2 * x2)
        row1 = np.stack([h11, h12], axis=-1)
        row2 = np.stack([h12, h22], axis=-1)
        return amp * np.stack([row1, row2], axis=-2)

    return _perturbed(hyperboloid(l, 2), dvalue, dgrad, dhess)


# pointwise kernels


def tilt_cartesian(grad_f):
    """phi = (1 - |grad f|^2)^{-1/2}, the Lorentz factor of the graph."""
    grad_f = np.asarray(grad_f, dtype=float)
    gsq = np.sum(grad_f * grad_f, axis=-1)
    if np.any(gsq >= 1.0):
        raise NotSpacelikeError("gradient reaches the light cone")
    out = 1.0 / np.sqrt(1.0 - gsq)
    return float(out) if out.ndim == 0 else out


def metric_cartesian(grad_f):
    """Induced metric delta - df (x) df and its inverse delta + phi^2 df (x) df."""
    grad_f = np.asarray(grad_f, dtype=float)
    m = grad_f.shape[-1]
    phi = np.asarray(tilt_cartesian(grad_f))
    outer = grad_f[..., :, None] * grad_f[..., None, :]
    g = np.eye(m) - outer
    ginv = np.eye(m) + (phi**2)[..., None, None] * outer
    return g, ginv


def principal_curvatures_cartesian(grad_f, hess_f):
    """Shape-operator eigenvalues, ascending, batched.

    Computed as eigenvalues of g^{-1/2} II g^{-1/2}, which is symmetric
    and similar to g^{-1} II.
    """
    grad_f = np.asarray(grad_f, dtype=float)
    hess_f = np.asarray(hess_f, dtype=float)
    g, _ = metric_cartesian(grad_f)
    phi = np.asarray(tilt_cartesian(grad_f))
    II = phi[..., None, None] * hess_f
    w, v = np.linalg.eigh(g)
    ghalf_inv = (v / np.sqrt(w)[..., None, :]) @ v.swapaxes(-1, -2)
    return np.linalg.eigvalsh(ghalf_inv @ II @ ghalf_inv)


def curvature_cartesian(grad_f, hess_f):
    """Curvature sample of an entire graph from its first two jets.

    Accepts batched jets; the sample fields then carry matching batch
    axes. mean is the normalized metric trace of II = phi hess f, gauss
    is det(g^{-1} II) evaluated in the closed form phi^{m+2} det hess f.
    """
    grad_f = np.asarray(grad_f, dtype=float)
    hess_f = np.asarray(hess_f, dtype=float)
    m = grad_f.shape[-1]
    scalar = grad_f.ndim == 1
    phi = np.asarray(tilt_cartesian(grad_f))
    _, ginv = metric_cartesian(grad_f)
    II = phi[..., None, None] * hess_f
    mean = np.einsum("...ij,...ij->...", ginv, II) / m
    gauss = phi ** (m + 2) * np.linalg.det(hess_f)
    normal = phi[..., None] * np.concatenate(
        [np.ones(phi.shape + (1,)), grad_f], axis=-1
    )
    kappa = principal_curvatures_cartesian(grad_f, hess_f)
    if scalar:
        return CurvatureSample(
            tilt=float(phi),
            normal=normal,
            mean=float(mean),
            gauss=float(gauss),
            second_fundamental=II,
            principal=kappa,
        )
    return CurvatureSample(
        tilt=phi,
        normal=normal,
        mean=mean,
        gauss=gauss,
        second_fundamental=II,
        principal=kappa,
    )


def volume_element(phi):
    """Density of the induced area measure against Lebesgue: dv = phi^{-1} dx."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 1.0 - 1e-12):
        raise DomainError("tilt below 1 is impossible for a spacelike graph")
    out = 1.0 / phi
    return float(out) if out.ndim == 0 else out


# sampled graphs


def field_jets(fld):
    """Discrete jets of a sampled graph: gradient, Hessian, interior mask.

    Second-order centered differences inside, one-sided at the box faces.
    The mask drops the two outermost rings: the Hessian is a second
    difference pass, so one-sided contamination reaches one ring deeper
    than the face itself.
    """
    sp = fld.grid.spacing
    m = fld.grid.m
    grads = np.gradient(fld.values, *sp, edge_order=2)
    if m == 1:
        grads = [grads]
    grad = np.stack(grads, axis=-1)
    hess = np.empty(fld.values.shape + (m, m))
    for i in range(m):
        gi = np.gradient(grads[i], *sp, edge_order=2)
        if m == 1:
            gi = [gi]
        for j in range(m):
            hess[..., i, j] = gi[j]
    hess = 0.5 * (hess + hess.swapaxes(-1, -2))
    mask = np.zeros(fld.values.shape, dtype=bool)
    mask[tuple(slice(2, -2) for _ in range(m))] = True
    return grad, hess, mask


def surface_field(surf, grid):
    """Sample an analytic graph onto a box grid."""
    return CartesianField.from_function(grid, surf.value)


# light-cone asymptotics


@dataclass
class AlcReport:
    """Shell statistics of the cone residual f(x) - |x|."""

    shell_radii: np.ndarray
    shell_sup: np.ndarray
    monotone_decreasing: bool
    limit_estimate: float
    looks_alc: bool


def alc_decay_check(fld):
    """Shell suprema of f(x) - |x| and a tail estimate of their limit.

    Shells are annuli one grid spacing wide, trimmed to the largest ball
    inside the box so every shell sees all directions. The limit estimate
    fits a + c/r to the outer 30% of the shells (at least five): the
    residual of a graph approaching a translate of the cone decays like
    1/r, so the raw sup at the box edge overestimates the limit while the
    fit removes the slow tail. The field looks ALC when |a| <= 1e-2.
    """
    g = fld.grid
    r = g.node_radii()
    resid = fld.values - r
    if np.any(resid <= 0.0):
        raise DomainError("graph must lie inside the future cone of the origin")
    h = max(g.spacing)
    r_ball = min(g.extents)
    n_shell = int(np.floor(r_ball / h))
    if n_shell < 8:
        raise UsageError("grid too coarse for shell statistics")
    idx = np.floor(r / h).astype(int)
    keep = (r <= r_ball) & (idx < n_shell)
    sup = np.full(n_shell, -np.inf)
    np.maximum.at(sup, idx[keep], resid[keep])
    radii = (np.arange(n_shell) + 0.5) * h
    nonempty = np.isfinite(sup)
    sup, radii = sup[nonempty], radii[nonempty]
    monotone = bool(np.all(np.diff(sup) <= 1e-12))
    n_fit = max(5, int(0.3 * sup.size))
    rt, st = radii[-n_fit:], sup[-n_fit:]
    coef, *_ = np.linalg.lstsq(np.stack([np.ones_like(rt), 1.0 / rt], axis=1), st, rcond=None)
    limit = float(coef[0])
    return AlcReport(
        shell_radii=radii,
        shell_sup=sup,
        monotone_decreasing=monotone,
        limit_estimate=limit,
        looks_alc=bool(abs(limit) <= 1e-2),
    )


# chart transfer


def radial_to_cartesian(u, grid):
    """Resample a radial graph as height values on a Cartesian box grid.

    A spacelike graph meets each vertical line exactly once (the cone
    property), so for every node x there is a unique Lorentz distance
    ell with ln(ell) = u at the chart point the line hits. Bisection on
    ln(ell) finds it to 1e-12; the height is then sqrt(ell^2 + |x|^2).
    Accepts an analytic graph or a sampled polar field; the sampled case
    requires the box to sit inside the chart radius actually covered.
    """
    if grid.m != 2:
        raise UsageError("radial charts here are two dimensional")
    if isinstance(u, ScalarField):
        ev = u.evaluator()
        u_lo, u_hi = u.min(), u.max()
        s_cap = u.grid.s_max

        def eval_u(s, th):
            return ev(s, th)

    elif isinstance(u, AnalyticGraph):
        s_cap = None
        ss = np.linspace(0.0, 12.0, 481)
        tt = np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False)
        S, T = np.meshgrid(ss, tt, indexing="ij")
        vals = np.asarray(u.value(S, T), dtype=float)
        u_lo, u_hi = float(vals.min()), float(vals.max())

        def eval_u(s, th):
            return np.asarray(u.value(s, th), dtype=float)

    else:
        raise UsageError("expected an analytic radial graph or a polar field")

    axes = grid.axes
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    r = np.hypot(X, Y)
    th = np.mod(np.arctan2(Y, X), 2.0 * np.pi)

    pad = 0.1 * (u_hi - u_lo) + 1e-6
    z_lo = np.full_like(r, u_lo - pad)
    z_hi = np.full_like(r, u_hi + pad)
    if s_cap is not None:
        s_need = np.arcsinh(float(r.max()) * np.exp(-(u_lo - pad)))
        if s_need > s_cap * (1 + 1e-12):
            raise OutOfDomainError(
                "box radius %.3g needs chart radius %.3g > sampled %.3g"
                % (float(r.max()), s_need, s_cap)
            )

    def psi(z):
        return z - eval_u(np.arcsinh(r * np.exp(-z)), th)

    p_lo, p_hi = psi(z_lo), psi(z_hi)
    if np.any(p_lo > 0.0) or np.any(p_hi < 0.0):
        raise ConvergenceError("bracket does not straddle the surface crossing")
    # bisect in ln(ell); the crossing is unique even though psi need not
    # be monotone, so any sign-change bracket converges to it
    width = float(z_hi[0, 0] - z_lo[0, 0])
    n_iter = int(np.ceil(np.log2(width / 1e-12))) + 1
    for _ in range(n_iter):
        z_mid = 0.5 * (z_lo + z_hi)
        neg = psi(z_mid) < 0.0
        z_lo = np.where(neg, z_mid, z_lo)
        z_hi = np.where(neg, z_hi, z_mid)
    z = 0.5 * (z_lo + z_hi)
    if float(np.abs(psi(z)).max()) > 1e-9:
        raise ConvergenceError("vertical-line solve left a residual")
    ell = np.exp(z)
    out = CartesianField(grid, np.hypot(ell, r))
    out.margin = out.spacelike_margin()
    return out


def matched_chart_points(fld):
    """Polar chart coordinates (s, theta) and ell hit by each box node.

    Inverts the height samples of a Cartesian field back to the radial
    chart, for cross-chart comparisons at identical surface points.
    """
    g = fld.grid
    if g.m != 2:
        raise UsageError("radial charts here are two dimensional")
    r = g.node_radii()
    ll = fld.values**2 - r**2
    if np.any(ll <= 0.0):
        raise DomainError("graph must lie inside the future cone of the origin")
    ell = np.sqrt(ll)
    mesh = np.meshgrid(*g.axes, indexing="ij")
    th = np.mod(np.arctan2(mesh[1], mesh[0]), 2.0 * np.pi)
    return np.arcsinh(r / ell), th, ell
