"""Curvature integrals of entire spacelike graphs.

Three verifiers live here. The total-curvature functional integrates
|H|^m phi^{-m-1} over the graph and compares it against the volume of
the unit m-ball, the sharp lower bound attained exactly by hyperboloids.
The local Gauss-map estimate compares the L^m norm of H on a geodesic
ball against the Jacobian measure of the Gauss image of the convexity
set. The growth series tracks L^p norms of H on expanding balls, which
cannot stay bounded for these surfaces when p <= m.

Two reductions carry them. _slab_sums sums nodal cell values of the
total-curvature functional over a Cartesian ball, with the resolution
error estimated from a half-resolution pass. _ball_masses integrates
|H|^p, the Gauss-image density and the volume over geodesic balls: by
composite Simpson in r times the periodic trapezoid rule in theta on
chart-round balls of model surfaces, and by nodal cell sums over
shortest-path balls on sampled fields.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

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
    spacing: float
    m: int

    def as_dict(self):
        return {
            "integral": self.integral,
            "lower_bound": self.lower_bound,
            "tail_estimate": self.tail_estimate,
            "sigma_plus_fraction": self.sigma_plus_fraction,
            "quad_tolerance": self.quad_tolerance,
            "truncation": self.truncation,
            "spacing": self.spacing,
            "m": self.m,
        }


_N_SHELL = 12  # shells over 0.8 R <= r <= R whose means feed the tail fit


def _shell_edges(R):
    return np.linspace(0.8 * R, R, _N_SHELL + 1)


def _cell_sums(grad, hess, r, cell, R):
    """Cell sums of the functional, the volume and its convex part, plus the
    per-shell integrand sums and node counts for _tail_power_fit."""
    m = grad.shape[-1]
    phi, H, K, plus = _jet_pointwise(grad, hess)
    integrand = np.abs(H) ** m * phi ** (-m - 2)
    dv = cell / phi
    idx = np.searchsorted(_shell_edges(R), r, side="right") - 1
    ok = (idx >= 0) & (idx < _N_SHELL)
    return (
        float(np.sum(integrand * cell)),
        float(np.sum(dv)),
        float(np.sum(dv[plus])),
        np.bincount(idx[ok], weights=integrand[ok], minlength=_N_SHELL),
        np.bincount(idx[ok], minlength=_N_SHELL).astype(float),
    )


def _slab_sums(surf, axes, R, threads):
    """_cell_sums over the ball |x| <= R of the node grid spanned by axes.

    One pool item per x_0 slab; the slab records are summed in slab
    order, whatever order the pool ran them in.
    """
    cell = (axes[0][1] - axes[0][0]) ** len(axes)
    rest = list(np.meshgrid(*axes[1:], indexing="ij"))

    def one_slab(x0):
        pts = np.stack([np.full(rest[0].shape, x0)] + rest, axis=-1)
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        keep = r <= R
        pts = pts[keep]
        return _cell_sums(surf.grad(pts), surf.hess(pts), r[keep], cell, R)

    parts = parallel_map(one_slab, axes[0], threads)
    total, vol, vol_plus, s_int, s_cnt = (np.sum(col, axis=0) for col in zip(*parts))
    return float(total), float(vol), float(vol_plus), s_int, s_cnt


def _tail_power_fit(s_int, s_cnt, m, R):
    """Extrapolate the integrand's power-law tail past the truncation.

    Fits mean integrand ~ C r^{-q} on the outer shells and integrates
    C sigma_{m-1} r^{m-1-q} from R on out. A fit flatter than r^{-m}
    has no finite tail; the estimate is then infinite.
    """
    good = s_cnt > 0
    if good.sum() < 3:
        return float("nan")
    shell_edges = _shell_edges(R)
    mid = 0.5 * (shell_edges[:-1] + shell_edges[1:])[good]
    mean = s_int[good] / s_cnt[good]
    if np.any(mean <= 0.0):
        return 0.0
    slope, level = np.polyfit(np.log(mid), np.log(mean), 1)
    q = -slope
    if q <= m + 1e-9:
        return float("inf")
    c = math.exp(level)
    return c * sphere_area(m - 1) * R ** (m - q) / (q - m)


def willmore_integral(obj, truncation=50.0, spacing=None, threads=None):
    """Quadrature of |H|^m phi^{-m-1} dv over |x| <= truncation.

    Works from exact jets of an analytic surface or from second-order
    discrete jets of a sampled field (whose two outermost rings are
    excluded, so the ball must sit well inside the box). The reported
    quad_tolerance is a Richardson estimate from a half-resolution pass;
    tail_estimate extrapolates the integrand's decay past the ball.
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
    if analytic:
        if spacing is None:
            spacing = 0.25 if m == 2 else 0.5
        if not 0 < spacing < math.inf:
            raise UsageError("spacing must be positive and finite")
        k = max(8, int(round(R / spacing)))
        if k % 2:
            k += 1
        axes = [np.linspace(-R, R, 2 * k + 1)] * m
        fine = _slab_sums(obj, axes, R, threads)
        tot_c = _slab_sums(obj, [ax[::2] for ax in axes], R, threads)[0]
        h = axes[0][1] - axes[0][0]
    else:
        # sampled field: discrete jets on its own grid, the coarse pass on
        # every second node
        g = obj.grid
        h = max(g.spacing)
        if R > min(g.extents) - 2 * h:
            raise UsageError("truncation ball must fit inside the sampled interior")
        grad, hess, interior = field_jets(obj)
        r = g.node_radii()
        keep = (r <= R) & interior
        cell = float(np.prod(g.spacing))
        fine = _cell_sums(grad[keep], hess[keep], r[keep], cell, R)
        sub = tuple(slice(None, None, 2) for _ in range(m))
        kc = keep[sub]
        tot_c = _cell_sums(grad[sub][kc], hess[sub][kc], r[sub][kc], cell * 2**m, R)[0]
    total, vol, vol_plus, s_int, s_cnt = fine
    return WillmoreReport(
        integral=total,
        lower_bound=unit_ball_volume(m),
        tail_estimate=_tail_power_fit(s_int, s_cnt, m, R),
        sigma_plus_fraction=vol_plus / vol if vol > 0 else 0.0,
        quad_tolerance=abs(total - tot_c) / 3.0,
        truncation=R,
        spacing=h,
        m=m,
    )


# geodesic balls


def geodesic_distances(fld, center=None):
    """Shortest-path distances in the graph metric from a center node.

    Eight-neighbor grid graph with edge lengths sqrt(|dx|^2 - (df)^2),
    the induced length of the chart step. A chamfer approximation of the
    true geodesic distance, good enough for nested quadrature domains.
    """
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
    if center is None:
        center = int(np.argmin(g.node_radii()))
    dist = dijkstra(graph, directed=False, indices=center)
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


_N_R, _N_TH = 1536, 192  # polar nodes of a chart-round ball (n_r even for Simpson)


def _ball_masses(obj, p, radii, chart_radius=None, center=None):
    """Curvature masses of the geodesic balls B_rho, one column per radius.

    Returns (m, masses) with four rows: the integrals over B_rho of
    |H|^p dv (p = m when p is None) and |H|^m dv, the Gauss-image measure
    (the integral of K dv over the convexity set, floored at 0) and the
    volume. With chart_radius, obj is a model surface whose balls around
    the apex are chart-round with chart radius chart_radius(rho):
    composite Simpson in r times the periodic trapezoid rule in theta,
    jets evaluated one ball at a time. Without it, obj is a sampled
    field: cell sums over shortest-path balls, with distances and jets
    computed once.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii) & (radii >= 0.0)):
        raise UsageError("ball radii must be finite and nonnegative")
    if not isinstance(obj, AnalyticSurface if chart_radius is not None else CartesianField):
        raise UsageError("pass an analytic surface with chart_radius, a sampled field without")
    if chart_radius is not None:
        m = obj.m
        if m != 2:
            raise UsageError("polar ball quadrature is planar only")
        th = np.linspace(0.0, 2.0 * np.pi, _N_TH, endpoint=False)
        simpson = np.ones(_N_R + 1)
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0

        def ball(rho):
            r = np.linspace(0.0, float(chart_radius(rho)), _N_R + 1)
            pts = np.stack([np.outer(r, np.cos(th)), np.outer(r, np.sin(th))], axis=-1)
            phi, H, K, plus = _jet_pointwise(obj.grad(pts), obj.hess(pts))
            w = simpson * (r[1] - r[0]) / 3.0 * r * (2.0 * np.pi / _N_TH)
            return H, K, plus, w[:, None] / phi

    else:
        m = obj.grid.m
        dist = geodesic_distances(obj, center=center)
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
        return l * math.sinh(rho / l)

    return radius


def local_gauss_estimate(obj, rho, chart_radius=None, center=None):
    """Compare the L^m norm of H on B_rho with |N(B_rho^+)|^{1/m}.

    The Gauss-image measure is the Jacobian integral of K over the
    convexity part of the ball; with folds this overcounts the image
    set, which only strengthens the reported right-hand side. Balls are
    chart-round via chart_radius on model surfaces, else shortest-path
    balls on a sampled field.
    """
    m, masses = _ball_masses(obj, None, [rho], chart_radius, center)
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


def lp_growth(obj, p, radii, chart_radius=None, center=None, plateau_rtol=1e-3):
    """Track ||H||_{L^p(B_rho)} and |N(B_rho^+)| on expanding balls.

    For the surfaces of interest with bounded curvature the p <= m mass
    must grow without bound; the plateaued flag raises a hand when the
    last step grows by less than plateau_rtol in relative terms.
    """
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise UsageError("p must be finite and at least 1")
    radii = np.asarray(sorted(float(r) for r in radii), dtype=float)
    if radii.size < 2:
        raise UsageError("need at least two radii")
    m, (lp_mass, lm_mass, gauss, vols) = _ball_masses(obj, p, radii, chart_radius, center)
    # the absolute floor keeps roundoff-scale masses (flat graphs) from
    # registering as growth
    grew = (lp_mass[-1] - lp_mass[-2]) > plateau_rtol * max(lp_mass[-1], 1e-12)
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


def holder_chain_gaps(series):
    """Slack in the two-step estimate chaining the Gauss image to L^p.

    Returns (gap1, gap2): gap1 = ||H||_m - |N^+|^{1/m} and
    gap2 = |B|^{1/m-1/p} ||H||_p - ||H||_m, both elementwise over the
    series radii; nonnegative values up to quadrature noise confirm the
    chain |N^+|^{1/m} <= ||H||_m <= |B|^{1/m-1/p} ||H||_p.
    """
    s = series
    if s.p < s.m:
        raise UsageError("the interpolation step needs p >= m")
    gap1 = s.lm_norms - s.gauss_image_measure ** (1.0 / s.m)
    expo = 1.0 / s.m - 1.0 / s.p
    gap2 = s.volumes**expo * s.lp_norms - s.lm_norms
    return gap1, gap2
