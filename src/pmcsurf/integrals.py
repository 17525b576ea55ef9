"""Curvature integrals of entire spacelike graphs.

Three verifiers live here. The total-curvature functional integrates
|H|^m phi^{-m-1} over the graph and compares it against the volume of
the unit m-ball, the sharp lower bound attained exactly by hyperboloids.
The local Gauss-map estimate compares the L^m norm of H on a geodesic
ball against the Jacobian measure of the Gauss image of the convexity
set. The growth series tracks L^p norms of H on expanding balls, which
cannot stay bounded for these surfaces when p <= m.

One quadrature rule carries the analytic surfaces. _polar_panels lays
Gauss-Legendre radii on geometrically graded panels of a ball and pairs
each radius with the periodic trapezoid rule in angle (m = 2), or with
Gauss-Legendre polar cosines times trapezoid azimuths (m = 3); the
Willmore pass and the chart-round balls of _ball_masses both integrate
on it. Sampled fields have no analytic jets and keep nodal cell sums:
over the box nodes for the Willmore functional, over shortest-path
balls for _ball_masses.
"""

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .cartesian import (
    AnalyticSurface,
    field_jets,
    metric_cartesian,
    tilt_cartesian,
)
from .errors import DomainError, NotSpacelikeError, UsageError
from .fields import CartesianField
from .util import default_threads, parallel_map


def unit_ball_volume(m):
    """Lebesgue volume of the unit ball in R^m."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def sphere_area(m_minus_1):
    """Surface measure of the unit sphere S^{m-1} in R^m."""
    m = m_minus_1 + 1
    return m * unit_ball_volume(m)


def sigma_plus_mask(hess_f):
    """Nodes where the shape operator is positive definite, strictly.

    The shape operator is g^{-1} II = phi g^{-1} hess f with g positive
    definite, so its eigenvalues are all positive exactly when hess f is
    positive definite; Sylvester's criterion on hess f decides that
    without an eigensolve. Strict positivity means finite-difference
    Hessians of flat graphs land on either side of zero by roundoff;
    exact jets classify them as not convex.
    """
    hess_f = np.asarray(hess_f, dtype=float)
    m = hess_f.shape[-1]
    if m == 1:
        return hess_f[..., 0, 0] > 0.0
    if m == 2:
        det = hess_f[..., 0, 0] * hess_f[..., 1, 1] - hess_f[..., 0, 1] ** 2
        return (hess_f[..., 0, 0] > 0.0) & (det > 0.0)
    if m == 3:
        m1 = hess_f[..., 0, 0]
        m2 = hess_f[..., 0, 0] * hess_f[..., 1, 1] - hess_f[..., 0, 1] ** 2
        m3 = np.linalg.det(hess_f)
        return (m1 > 0.0) & (m2 > 0.0) & (m3 > 0.0)
    raise UsageError("convexity masks are implemented for m <= 3")


def _jet_pointwise(grad, hess):
    """phi, H, K and the convexity mask from flat-chart jets."""
    m = grad.shape[-1]
    phi = np.asarray(tilt_cartesian(grad))
    _, ginv = metric_cartesian(grad)
    II = phi[..., None, None] * hess
    H = np.einsum("...ij,...ij->...", ginv, II) / m
    K = phi ** (m + 2) * np.linalg.det(hess)
    return phi, H, K, sigma_plus_mask(hess)


@dataclass
class WillmoreReport:
    """Truncated total-curvature functional against its sharp bound."""

    integral: float
    lower_bound: float
    tail_estimate: float
    sigma_plus_fraction: float
    quad_tolerance: float
    truncation: float
    m: int

    def as_dict(self):
        return asdict(self)


_N_SHELL = 12  # shells over 0.8 R <= r <= R whose means feed the tail fit
_N_GL = 8  # Gauss-Legendre radii per panel of the analytic rule


def _polar_panels(R, m, n):
    """Quadrature nodes of the ball |x| <= R, one radial panel at a time.

    Yields (points, weights, radii) per panel. Panel edges are 0, 1/4,
    then doubling while below 0.8 R, then 0.8 R and R, so the outermost
    panel spans the tail fit's shells. Each panel carries n
    Gauss-Legendre radii; each radius carries 4n trapezoid angles for
    m = 2, or 2n Gauss-Legendre polar cosines times 4n trapezoid
    azimuths for m = 3. The weights include the r^{m-1} of polar
    coordinates.
    """
    edges, e = [0.0], 0.25
    while e < 0.8 * R:
        edges.append(e)
        e *= 2.0
    edges += [0.8 * R, R]
    dth = 2.0 * np.pi / (4 * n)
    th = dth * np.arange(4 * n)
    dirs, wdir = np.stack([np.cos(th), np.sin(th)], axis=-1), np.full(4 * n, dth)
    if m == 3:
        mu, wmu = np.polynomial.legendre.leggauss(2 * n)
        sin_polar = np.sqrt(1.0 - mu**2)[:, None, None]
        cos_polar = np.broadcast_to(mu[:, None, None], (2 * n, 4 * n, 1))
        dirs = np.concatenate([sin_polar * dirs, cos_polar], axis=-1).reshape(-1, 3)
        wdir = np.outer(wmu, wdir).ravel()
    elif m != 2:
        raise UsageError("polar quadrature is implemented for m in {2, 3}")
    x, wx = np.polynomial.legendre.leggauss(n)
    for a, b in zip(edges[:-1], edges[1:]):
        r = a + 0.5 * (b - a) * (x + 1.0)
        w = 0.5 * (b - a) * wx * r ** (m - 1)
        pts = (r[:, None, None] * dirs).reshape(-1, m)
        yield pts, np.outer(w, wdir).ravel(), np.repeat(r, wdir.size)


def _cell_sums(grad, hess, r, cell, R):
    """Weighted sums of the functional, the volume and its convex part, plus
    per-shell sums of the weighted integrand, radius and weight for
    _tail_power_fit. cell is a node weight: one box cell or an array."""
    m = grad.shape[-1]
    phi, H, K, plus = _jet_pointwise(grad, hess)
    integrand = np.abs(H) ** m * phi ** (-m - 2)
    dv = cell / phi
    idx = np.searchsorted(np.linspace(0.8 * R, R, _N_SHELL + 1), r, side="right") - 1
    ok = (idx >= 0) & (idx < _N_SHELL)
    w = np.broadcast_to(cell, r.shape)[ok]
    per_shell = (integrand[ok] * w, r[ok] * w, w)
    shells = [np.bincount(idx[ok], weights=v, minlength=_N_SHELL) for v in per_shell]
    return [float(np.sum(integrand * cell)), float(np.sum(dv)), float(np.sum(dv[plus]))] + shells


def _tail_power_fit(s_int, s_r, s_w, m, R):
    """Extrapolate the integrand's power-law tail past the truncation.

    Fits the shell means of the integrand ~ C r^{-q} against the shells'
    mean node radii and integrates C sigma_{m-1} r^{m-1-q} from R on
    out. A fit flatter than r^{-m} has no finite tail; the estimate is
    then infinite.
    """
    good = s_w > 0
    if good.sum() < 3:
        return float("nan")
    mean = s_int[good] / s_w[good]
    if np.any(mean <= 0.0):
        return 0.0
    slope, level = np.polyfit(np.log(s_r[good] / s_w[good]), np.log(mean), 1)
    q = -slope
    if q <= m + 1e-9:
        return float("inf")
    c = math.exp(level)
    return c * sphere_area(m - 1) * R ** (m - q) / (q - m)


def willmore_integral(obj, truncation=50.0, threads=None):
    """Quadrature of |H|^m phi^{-m-1} dv over |x| <= truncation.

    An analytic surface is integrated from exact jets on the graded
    polar rule of _polar_panels, one pool item per radial panel; the
    integral is the rule I_n with n = _N_GL radii per panel and
    quad_tolerance = |I_n - I_2n|, the step to twice the nodes per axis.
    A sampled field is integrated from second-order discrete jets by
    cell sums over its nodes (the two outermost rings excluded, so the
    ball must sit well inside the box); quad_tolerance is then the
    Richardson estimate from every second node. tail_estimate
    extrapolates the integrand's decay past the ball.
    """
    threads = default_threads() if threads is None else threads
    R = float(truncation)
    if not 0 < R < math.inf:
        raise UsageError("truncation radius must be positive and finite")
    analytic = isinstance(obj, AnalyticSurface)
    if not analytic and not isinstance(obj, CartesianField):
        raise UsageError("expected an analytic surface or a sampled field")
    m = obj.m if analytic else obj.grid.m
    if m not in (2, 3):
        raise UsageError("integrals are desk scale only for m in {2, 3}")
    if not R < sys.float_info.max ** (1.0 / m):
        # node weights grow like R^m and |x|^2 like R^2
        raise UsageError("truncation radius %g overflows the quadrature (R^%d)" % (R, m))
    if analytic:

        def one_panel(panel):
            pts, w, r = panel
            return _cell_sums(obj.grad(pts), obj.hess(pts), r, w, R)

        def rule(n):
            parts = parallel_map(one_panel, _polar_panels(R, m, n), threads)
            return [np.sum(col, axis=0) for col in zip(*parts)]

        fine = rule(_N_GL)
        quad_tol = abs(fine[0] - rule(2 * _N_GL)[0])
    else:
        # sampled field: discrete jets on its own grid, the coarse pass on
        # every second node
        g = obj.grid
        if R > min(g.extents) - 2 * max(g.spacing):
            raise UsageError("truncation ball must fit inside the sampled interior")
        grad, hess, interior = field_jets(obj)
        r = g.node_radii()
        keep = (r <= R) & interior
        cell = float(np.prod(g.spacing))
        fine = _cell_sums(grad[keep], hess[keep], r[keep], cell, R)
        sub = tuple(slice(None, None, 2) for _ in range(m))
        kc = keep[sub]
        tot_c = _cell_sums(grad[sub][kc], hess[sub][kc], r[sub][kc], cell * 2**m, R)[0]
        quad_tol = abs(fine[0] - tot_c) / 3.0
    total, vol, vol_plus, *shells = fine
    return WillmoreReport(
        integral=float(total),
        lower_bound=unit_ball_volume(m),
        tail_estimate=_tail_power_fit(*shells, m, R),
        sigma_plus_fraction=float(vol_plus / vol) if vol > 0 else 0.0,
        quad_tolerance=float(quad_tol),
        truncation=R,
        m=m,
    )


# geodesic balls


def geodesic_distances(fld):
    """Shortest-path distances in the graph metric from the node nearest 0.

    Eight-neighbor grid graph with edge lengths sqrt(|dx|^2 - (df)^2),
    the induced length of the chart step. A chamfer approximation of the
    true geodesic distance, good enough for nested quadrature domains.
    """
    from scipy.sparse import coo_matrix  # slow to import, so only here
    from scipy.sparse.csgraph import dijkstra

    g = fld.grid
    if g.m != 2:
        raise UsageError("discrete geodesic balls are implemented for m = 2")
    n0, n1 = g.counts
    vals = fld.values
    idx = np.arange(n0 * n1).reshape(n0, n1)
    all_ = slice(None)
    hops = (
        ((slice(None, -1), all_), (slice(1, None), all_), (1, 0)),
        ((all_, slice(None, -1)), (all_, slice(1, None)), (0, 1)),
        ((slice(None, -1), slice(None, -1)), (slice(1, None), slice(1, None)), (1, 1)),
        ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1)), (1, -1)),
    )
    rows, cols, lens = [], [], []
    for sl_a, sl_b, (d0, d1) in hops:
        step_sq = (d0 * g.spacing[0]) ** 2 + (d1 * g.spacing[1]) ** 2
        df = vals[sl_b] - vals[sl_a]
        ds_sq = step_sq - df**2
        if np.any(ds_sq <= 0.0):
            raise NotSpacelikeError("a grid edge is not spacelike")
        rows.append(idx[sl_a].ravel())
        cols.append(idx[sl_b].ravel())
        lens.append(np.sqrt(ds_sq).ravel())
    graph = coo_matrix(
        (np.concatenate(lens), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n0 * n1, n0 * n1),
    ).tocsr()
    dist = dijkstra(graph, directed=False, indices=int(np.argmin(g.node_radii())))
    return dist.reshape(n0, n1)


@dataclass
class GaussEstimate:
    """L^m curvature mass of a ball against its Gauss-image measure."""

    rho: float
    lhs: float
    rhs: float

    @property
    def gap(self):
        return self.lhs - self.rhs

    def as_dict(self):
        return {"rho": self.rho, "lhs": self.lhs, "rhs": self.rhs, "gap": self.gap}


def _ball_masses(obj, p, radii, chart_radius=None):
    """Curvature masses of the geodesic balls B_rho, one column per radius.

    Returns (m, masses) with four rows: the integrals over B_rho of
    |H|^p dv (p = m when p is None) and |H|^m dv, the Gauss-image measure
    (the integral of K dv over the convexity set, floored at 0) and the
    volume. With chart_radius, obj is a model surface whose balls around
    the apex are chart-round with chart radius chart_radius(rho): the
    graded polar rule of _polar_panels on each ball, jets evaluated one
    ball at a time. Without it, obj is a sampled field: cell sums over
    shortest-path balls, with distances and jets computed once.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii) & (radii >= 0.0)):
        raise UsageError("ball radii must be finite and nonnegative")
    if not isinstance(obj, AnalyticSurface if chart_radius is not None else CartesianField):
        raise UsageError("pass an analytic surface with chart_radius, a sampled field without")
    if chart_radius is not None:
        m = obj.m

        def ball(rho):
            panels = _polar_panels(float(chart_radius(rho)), m, _N_GL)
            pts, w, _ = (np.concatenate(col) for col in zip(*panels))
            phi, H, K, plus = _jet_pointwise(obj.grad(pts), obj.hess(pts))
            return H, K, plus, w / phi

    else:
        m = obj.grid.m
        dist = geodesic_distances(obj)
        grad, hess, interior = field_jets(obj)
        phi, H, K, plus = _jet_pointwise(grad[interior], hess[interior])
        dv = float(np.prod(obj.grid.spacing)) / phi
        d_in = dist[interior]
        if not np.any(d_in <= radii.min()):
            raise DomainError("geodesic ball captured no interior nodes")

        def ball(rho):
            k = d_in <= rho
            return H[k], K[k], plus[k], dv[k]

    p = m if p is None else p

    def masses(H, K, plus, dv):
        aH = np.abs(H)
        gauss = max(float(np.sum(K[plus] * dv[plus])), 0.0)
        return [np.sum(aH**p * dv), np.sum(aH**m * dv), gauss, np.sum(dv)]

    return m, np.array([masses(*ball(rho)) for rho in radii]).T


def hyperboloid_chart_radius(l=1.0):
    """Chart radius of the geodesic ball of radius rho on the scaled sheet."""
    l = float(l)

    def radius(rho):
        try:
            return l * math.sinh(rho / l)
        except OverflowError:
            raise DomainError("the chart radius of rho = %g overflows a float" % rho) from None

    return radius


def local_gauss_estimate(obj, rho, chart_radius=None):
    """Compare the L^m norm of H on B_rho with |N(B_rho^+)|^{1/m}.

    The Gauss-image measure is the Jacobian integral of K over the
    convexity part of the ball; with folds this overcounts the image
    set, which only strengthens the reported right-hand side. Balls are
    chart-round via chart_radius on model surfaces, else shortest-path
    balls on a sampled field.
    """
    m, masses = _ball_masses(obj, None, [rho], chart_radius)
    hm, _, kplus, _ = masses[:, 0]
    return GaussEstimate(rho=float(rho), lhs=float(hm ** (1.0 / m)), rhs=float(kplus ** (1.0 / m)))


@dataclass
class GrowthSeries:
    """L^p curvature mass and Gauss-image measure on expanding balls."""

    p: float
    m: int
    radii: np.ndarray
    lp_norms: np.ndarray
    lm_norms: np.ndarray
    gauss_image_measure: np.ndarray
    volumes: np.ndarray
    plateaued: bool

    def rows(self):
        return np.stack(
            [self.radii, self.lp_norms, self.gauss_image_measure, self.volumes],
            axis=1,
        )


def lp_growth(obj, p, radii, chart_radius=None):
    """Track ||H||_{L^p(B_rho)} and |N(B_rho^+)| on expanding balls.

    For the surfaces of interest with bounded curvature the p <= m mass
    must grow without bound; the plateaued flag raises a hand when the
    last step grows by less than 1e-3 in relative terms.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise UsageError("p must be finite and at least 1")
    radii = np.asarray(sorted(float(r) for r in radii), dtype=float)
    if radii.size < 2:
        raise UsageError("need at least two radii")
    m, (lp_mass, lm_mass, gauss, vols) = _ball_masses(obj, p, radii, chart_radius)
    # the absolute floor keeps roundoff-scale masses (flat graphs) from
    # registering as growth
    grew = (lp_mass[-1] - lp_mass[-2]) > 1e-3 * max(lp_mass[-1], 1e-12)
    return GrowthSeries(
        p=p,
        m=m,
        radii=radii,
        lp_norms=lp_mass ** (1.0 / p),
        lm_norms=lm_mass ** (1.0 / m),
        gauss_image_measure=gauss,
        volumes=vols,
        plateaued=not grew,
    )
