import numpy as np
import pytest

from pmcsurf.cartesian import (
    affine,
    bumped_hyperboloid,
    hyperboloid,
    saddle_hyperboloid,
    surface_field,
)
from pmcsurf.errors import UsageError
from pmcsurf.fields import BoxGrid
from pmcsurf.integrals import (
    GrowthSeries,
    geodesic_distances,
    holder_chain_gaps,
    hyperboloid_chart_radius,
    local_gauss_estimate,
    lp_growth,
    sigma_plus_mask,
    sphere_area,
    unit_ball_volume,
    willmore_integral,
)


def test_unit_ball_volumes():
    assert abs(unit_ball_volume(2) - np.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4.0 * np.pi / 3.0) < 1e-15
    assert abs(sphere_area(1) - 2.0 * np.pi) < 1e-15
    assert abs(sphere_area(2) - 4.0 * np.pi) < 1e-15


def test_sigma_plus_mask_families():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(200, 2))
    hyp = hyperboloid(1.0, 2)
    assert sigma_plus_mask(hyp.hess(pts)).all()
    flat = affine(0.1, (0.3, 0.2))
    assert not sigma_plus_mask(flat.hess(pts)).any()
    saddle = saddle_hyperboloid()
    frac = sigma_plus_mask(saddle.hess(pts)).mean()
    assert 0.0 < frac < 1.0
    pts3 = rng.uniform(-3, 3, size=(200, 3))
    hyp3 = hyperboloid(0.8, 3)
    assert sigma_plus_mask(hyp3.hess(pts3)).all()


def test_willmore_hyperboloid_m2():
    for l in (0.7, 1.0):
        rep = willmore_integral(hyperboloid(l, 2), truncation=50.0 * l)
        assert abs(rep.integral - np.pi) / np.pi <= 5e-4
        assert rep.lower_bound == np.pi
        assert rep.sigma_plus_fraction == 1.0
        # the tail extrapolation recovers what the truncation dropped
        assert abs(rep.integral + rep.tail_estimate - np.pi) / np.pi < 5e-5
        assert rep.integral >= rep.lower_bound - rep.quad_tolerance - rep.tail_estimate


def test_willmore_hyperboloid_m3():
    rep = willmore_integral(hyperboloid(1.0, 3), truncation=50.0)
    bound = 4.0 * np.pi / 3.0
    assert abs(rep.integral - bound) / bound <= 5e-3
    assert rep.lower_bound == pytest.approx(bound, abs=1e-15)
    assert rep.integral >= bound - rep.quad_tolerance - rep.tail_estimate


def test_willmore_tolerances_bracket_the_true_errors():
    # closed forms at R = 50: the truncated integral and the dropped tail
    R = 50.0
    cases = (
        (2, np.pi * (1.0 - 1.0 / (1.0 + R**2)), np.pi / (1.0 + R**2)),
        (3, 4.0 * np.pi / 3.0 * R**3 / (1.0 + R**2) ** 1.5,
         4.0 * np.pi / 3.0 * (1.0 - R**3 / (1.0 + R**2) ** 1.5)),
    )
    for m, truncated, gap in cases:
        rep = willmore_integral(hyperboloid(1.0, m), truncation=R)
        err = abs(rep.integral - truncated)
        assert err <= rep.quad_tolerance <= 10.0 * err + 1e-14
        assert rep.tail_estimate >= gap


def test_willmore_strictness_monotone():
    gaps = []
    for eps in (0.02, 0.05, 0.1):
        rep = willmore_integral(bumped_hyperboloid(eps), truncation=200.0)
        gap = rep.integral - rep.lower_bound
        assert gap > 10.0 * rep.quad_tolerance
        assert gap > rep.tail_estimate
        gaps.append(gap)
    assert gaps[0] < gaps[1] < gaps[2]


def test_willmore_field_route_matches_surface_route():
    grid = BoxGrid.cube(2, 22.0, 353)
    fld = surface_field(hyperboloid(1.0), grid)
    rep_f = willmore_integral(fld, truncation=20.0)
    rep_s = willmore_integral(hyperboloid(1.0, 2), truncation=20.0)
    assert abs(rep_f.integral - rep_s.integral) < 5e-4
    with pytest.raises(UsageError):
        willmore_integral(fld, truncation=25.0)


def test_willmore_saddle_mixed_mask():
    rep = willmore_integral(saddle_hyperboloid(), truncation=20.0)
    assert 0.0 < rep.sigma_plus_fraction < 1.0
    assert rep.integral > rep.lower_bound


def test_geodesic_distances_hyperboloid():
    grid = BoxGrid.cube(2, 4.0, 161)
    fld = surface_field(hyperboloid(1.0), grid)
    d = geodesic_distances(fld)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    r = np.sqrt(sum(c * c for c in mesh))
    exact = np.arcsinh(r)
    # shortest grid paths can only overestimate the true distance
    assert np.all(d >= exact - 1e-9)
    # along lattice axes the path is radially exact up to O(h^2) per step
    axis = d[:, grid.counts[1] // 2]
    axis_exact = np.arcsinh(np.abs(grid.axes[0]))
    assert np.abs(axis - axis_exact).max() < 2e-3


def test_gauss_estimate_umbilic_equality():
    radius = hyperboloid_chart_radius(1.0)
    for rho in (0.5, 1.0, 2.0):
        est = local_gauss_estimate(hyperboloid(1.0, 2), rho, chart_radius=radius)
        closed = np.sqrt(2.0 * np.pi * (np.cosh(rho) - 1.0))
        assert abs(est.lhs - est.rhs) <= 1e-3
        assert abs(est.lhs - closed) <= 1e-3 * closed
    est1 = local_gauss_estimate(hyperboloid(1.0, 2), 1.0, chart_radius=radius)
    assert abs(est1.lhs - 1.8472347618223576) < 1e-9


def test_gauss_estimate_scaled_sheet():
    # H = 1/l and the ball of radius rho has area 2 pi l^2 (cosh(rho/l)-1)
    l, rho = 1.6, 2.0
    est = local_gauss_estimate(hyperboloid(l, 2), rho, chart_radius=hyperboloid_chart_radius(l))
    closed = np.sqrt(2.0 * np.pi * (np.cosh(rho / l) - 1.0))
    assert abs(est.lhs - closed) < 1e-6
    assert abs(est.rhs - closed) < 1e-6


def test_gauss_estimate_perturbed_sweep():
    grid = BoxGrid.cube(2, 6.0, 241)
    fld = surface_field(bumped_hyperboloid(0.08), grid)
    for rho in (0.5, 1.0, 1.5, 2.0):
        est = local_gauss_estimate(fld, rho)
        assert est.lhs >= est.rhs - 1e-9


def test_gauss_estimate_usage_errors():
    with pytest.raises(UsageError):
        local_gauss_estimate(hyperboloid(1.0, 2), 1.0)
    grid = BoxGrid.cube(2, 2.0, 33)
    fld = surface_field(hyperboloid(1.0), grid)
    with pytest.raises(UsageError):
        local_gauss_estimate(fld, 1.0, chart_radius=hyperboloid_chart_radius(1.0))


def test_lp_growth_closed_form():
    radii = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    series = lp_growth(
        hyperboloid(1.0, 2), 2.0, radii, chart_radius=hyperboloid_chart_radius(1.0)
    )
    exact = 2.0 * np.pi * (np.cosh(np.array(radii)) - 1.0)
    assert np.abs(series.lp_norms**2 - exact).max() / exact.max() < 1e-6
    assert not series.plateaued
    assert np.all(np.diff(series.lp_norms) > 0)
    assert np.all(np.diff(series.gauss_image_measure) > 0)
    assert np.all(np.diff(series.volumes) > 0)
    # mass between consecutive unit radii more than doubles far out
    assert series.lp_norms[-1] ** 2 > 2.0 * series.lp_norms[-2] ** 2


def test_chart_round_balls_match_the_closed_forms():
    radius = hyperboloid_chart_radius(1.0)
    radii = np.arange(1.0, 9.0)
    series = lp_growth(hyperboloid(1.0, 2), 2.0, radii, chart_radius=radius)
    area = 2.0 * np.pi * (np.cosh(radii) - 1.0)
    assert np.abs(series.volumes / area - 1.0).max() <= 1e-10
    assert np.abs(series.lp_norms**2 / area - 1.0).max() <= 1e-10
    # m = 3: the ball volume of the unit sheet is pi (sinh 2 rho - 2 rho)
    radii = np.array([0.5, 1.0, 2.0, 3.0])
    series = lp_growth(hyperboloid(1.0, 3), 3.0, radii, chart_radius=radius)
    volume = np.pi * (np.sinh(2.0 * radii) - 2.0 * radii)
    assert np.abs(series.volumes / volume - 1.0).max() <= 1e-10


def test_lp_growth_gauss_lower_bound_everywhere():
    radii = [0.5, 1.0, 1.5, 2.0]
    series = lp_growth(
        hyperboloid(1.0, 2), 2.0, radii, chart_radius=hyperboloid_chart_radius(1.0)
    )
    assert np.all(series.lm_norms >= series.gauss_image_measure ** 0.5 - 1e-9)


def test_holder_chain():
    radii = [0.5, 1.0, 2.0, 3.0]
    series = lp_growth(
        bumped_hyperboloid(0.05), 4.0, radii, chart_radius=hyperboloid_chart_radius(1.0)
    )
    g1, g2 = holder_chain_gaps(series)
    assert g1.min() > -1e-9
    assert g2.min() > -1e-9
    with pytest.raises(UsageError):
        holder_chain_gaps(
            GrowthSeries(
                p=1.0,
                m=2,
                radii=np.array([1.0, 2.0]),
                lp_norms=np.ones(2),
                lm_norms=np.ones(2),
                gauss_image_measure=np.ones(2),
                volumes=np.ones(2),
                plateaued=False,
            )
        )


def test_lp_growth_flat_graph_plateaus():
    grid = BoxGrid.cube(2, 10.0, 101)
    fld = surface_field(affine(0.3, (0.2, -0.1)), grid)
    series = lp_growth(fld, 2.0, [1.0, 2.0, 3.0])
    assert series.plateaued
    assert series.lp_norms.max() < 1e-10


def test_lp_growth_discrete_route_monotone():
    grid = BoxGrid.cube(2, 5.0, 161)
    fld = surface_field(bumped_hyperboloid(0.05), grid)
    series = lp_growth(fld, 2.0, [0.5, 1.0, 1.5])
    assert np.all(np.diff(series.lp_norms) > 0)
    assert np.all(np.diff(series.gauss_image_measure) >= 0)
    assert np.all(series.lm_norms >= series.gauss_image_measure ** 0.5 - 1e-9)


def test_ball_radii_must_be_finite_and_nonnegative():
    surf, radius = hyperboloid(1.0, 2), hyperboloid_chart_radius(1.0)
    fld = surface_field(hyperboloid(1.0), BoxGrid.cube(2, 3.0, 41))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(UsageError):
            local_gauss_estimate(surf, bad, chart_radius=radius)
        with pytest.raises(UsageError):
            lp_growth(surf, 2.0, [bad, 2.0], chart_radius=radius)
        with pytest.raises(UsageError):
            local_gauss_estimate(fld, bad)
        with pytest.raises(UsageError):
            lp_growth(fld, 2.0, [bad, 1.0])


def test_gauss_estimate_is_the_growth_series_at_one_radius():
    # one ball reduction: ||H||_m and |N^+|^{1/m} agree between the two
    # public functions on both routes
    fld = surface_field(bumped_hyperboloid(0.08), BoxGrid.cube(2, 4.0, 121))
    routes = (
        (saddle_hyperboloid(), {"chart_radius": hyperboloid_chart_radius(1.0)}),
        (fld, {}),
    )
    for obj, kw in routes:
        rho = 1.0
        est = local_gauss_estimate(obj, rho, **kw)
        series = lp_growth(obj, 2, [rho, 1.5], **kw)
        assert est.lhs == pytest.approx(series.lm_norms[0], rel=1e-15, abs=0)
        assert est.rhs == pytest.approx(series.gauss_image_measure[0] ** 0.5, rel=1e-15, abs=0)


def test_chart_radius_against_distance():
    # geodesic radius rho on the scaled sheet maps to chart radius l sinh(rho/l)
    for l in (0.5, 1.0, 2.0):
        radius = hyperboloid_chart_radius(l)
        rho = 1.3
        r_x = radius(rho)
        # invert: the intrinsic distance to chart radius r_x is l arcsinh(r_x/l)
        assert abs(l * np.arcsinh(r_x / l) - rho) < 1e-12
