import numpy as np
import pytest

from pmcsurf.cartesian import (
    AnalyticSurface,
    affine,
    alc_decay_check,
    bumped_hyperboloid,
    curvature_cartesian,
    field_jets,
    hyperboloid,
    metric_cartesian,
    principal_curvatures_cartesian,
    radial_to_cartesian,
    saddle_hyperboloid,
    surface_field,
    tilt_cartesian,
)
from pmcsurf.errors import (
    DomainError,
    NotSpacelikeError,
    OutOfDomainError,
    UsageError,
)
from pmcsurf.fields import BoxGrid, CartesianField, PolarGrid, ScalarField
from pmcsurf.lorentz import inner
from pmcsurf.radial import (
    builtin_identity_graphs,
    constant_graph,
    mean_curvature_divergence_form,
    unit_normal,
)


def random_spacelike_jets(rng, n, m, gmax=0.9):
    grad = rng.normal(size=(n, m))
    norm = np.linalg.norm(grad, axis=-1, keepdims=True)
    grad *= rng.uniform(0.05, gmax, size=(n, 1)) / norm
    hess = rng.normal(size=(n, m, m))
    hess = 0.5 * (hess + hess.swapaxes(-1, -2))
    return grad, hess


def test_tilt_values():
    assert tilt_cartesian(np.zeros(3)) == 1.0
    assert abs(tilt_cartesian(np.array([0.8, 0.0])) - 5.0 / 3.0) < 1e-15
    batch = tilt_cartesian(np.array([[0.0, 0.0], [0.6, 0.0]]))
    assert np.allclose(batch, [1.0, 1.25])
    with pytest.raises(NotSpacelikeError):
        tilt_cartesian(np.array([1.0, 0.0]))
    with pytest.raises(NotSpacelikeError):
        tilt_cartesian(np.array([0.9, 0.9]))


def test_hyperboloid_tilt_closed_form():
    rng = np.random.default_rng(0)
    for m in (2, 3):
        for l in (0.5, 1.0, 2.0):
            surf = hyperboloid(l, m)
            pts = rng.uniform(-4, 4, size=(200, m))
            phi = tilt_cartesian(surf.grad(pts))
            assert np.abs(phi - surf.value(pts) / l).max() < 1e-12


def test_hyperboloid_curvature_constants():
    # frozen against a 50-digit finite-difference evaluation of the same
    # closed forms: H = 1/l, K = l^{-m}, at every point of the graph
    rng = np.random.default_rng(1)
    for m in (2, 3):
        for l in (0.5, 1.0, 2.0):
            surf = hyperboloid(l, m)
            pts = rng.uniform(-5, 5, size=(300, m))
            sample = curvature_cartesian(surf.grad(pts), surf.hess(pts))
            assert np.abs(sample.mean - 1.0 / l).max() < 1e-10
            assert np.abs(sample.gauss - l ** (-m)).max() < 1e-10
            # umbilic: all principal curvatures coincide
            assert np.abs(sample.principal - 1.0 / l).max() < 1e-9
            # independence of the base point
            assert sample.mean.max() - sample.mean.min() < 1e-9


def test_affine_is_flat():
    surf = affine(0.7, (0.3, -0.4))
    pts = np.random.default_rng(2).uniform(-10, 10, size=(50, 2))
    sample = curvature_cartesian(surf.grad(pts), surf.hess(pts))
    assert np.abs(sample.mean).max() == 0.0
    assert np.abs(sample.gauss).max() == 0.0
    assert np.abs(sample.second_fundamental).max() == 0.0
    with pytest.raises(NotSpacelikeError):
        affine(0.0, (0.8, 0.7))


def test_gauss_closed_form_matches_metric_determinant():
    rng = np.random.default_rng(3)
    for m in (2, 3):
        grad, hess = random_spacelike_jets(rng, 200, m)
        phi = tilt_cartesian(grad)
        _, ginv = metric_cartesian(grad)
        II = phi[:, None, None] * hess
        direct = np.linalg.det(np.einsum("nik,nkj->nij", ginv, II))
        closed = curvature_cartesian(grad, hess).gauss
        assert np.abs(direct - closed).max() < 1e-10


def test_volume_element():
    # the induced area density sqrt(det g) is 1 / phi, l / f on a hyperboloid
    rng = np.random.default_rng(4)
    for m in (2, 3):
        surf = hyperboloid(1.3, m)
        pts = rng.uniform(-3, 3, size=(100, m))
        phi = tilt_cartesian(surf.grad(pts))
        assert np.abs(1.0 / phi - 1.3 / surf.value(pts)).max() < 1e-12
        g, _ = metric_cartesian(surf.grad(pts))
        assert np.abs(np.sqrt(np.linalg.det(g)) - 1.0 / phi).max() < 1e-12


def test_principal_trace_and_determinant():
    rng = np.random.default_rng(5)
    for m in (2, 3):
        grad, hess = random_spacelike_jets(rng, 150, m)
        sample = curvature_cartesian(grad, hess)
        kappa = sample.principal
        assert np.abs(kappa.mean(axis=-1) - sample.mean).max() < 1e-10
        assert np.abs(kappa.prod(axis=-1) - sample.gauss).max() < 1e-9


def test_normal_is_future_unit():
    rng = np.random.default_rng(6)
    grad, hess = random_spacelike_jets(rng, 100, 3)
    N = curvature_cartesian(grad, hess).normal
    assert np.abs(inner(N, N) + 1.0).max() < 1e-12
    assert N[:, 0].min() >= 1.0


def test_arithmetic_geometric_inequality():
    # K <= H^m wherever II is positive semidefinite
    rng = np.random.default_rng(7)
    surf = bumped_hyperboloid(0.1)
    pts = rng.uniform(-4, 4, size=(500, 2))
    sample = curvature_cartesian(surf.grad(pts), surf.hess(pts))
    psd = sample.principal.min(axis=-1) >= 0.0
    assert psd.sum() > 50
    assert np.all(sample.gauss[psd] <= sample.mean[psd] ** 2 + 1e-12)


def test_saddle_mixes_signs_but_stays_spacelike():
    surf = saddle_hyperboloid(amp=1.2, decay=2.0, l=1.0)
    grid = BoxGrid.cube(2, 4.0, 161)
    fld = surface_field(surf, grid)
    # the corner tilt of the underlying hyperboloid alone caps the margin
    # near 1 - r/sqrt(1+r^2) ~ 0.015 at r = 4 sqrt(2)
    assert fld.margin > 0.01
    dense = np.random.default_rng(11).uniform(-4, 4, size=(20000, 2))
    gn = np.linalg.norm(surf.grad(dense), axis=-1)
    assert gn.max() < 1.0 - 1e-3
    origin = np.zeros((1, 2))
    sample = curvature_cartesian(surf.grad(origin), surf.hess(origin))
    kappa = sample.principal[0]
    assert kappa[0] < 0.0 < kappa[1]
    assert sample.gauss[0] < 0.0
    # mixed-sign region is a proper subset: far out the bump is gone
    far = np.array([[3.5, 0.0]])
    assert principal_curvatures_cartesian(surf.grad(far), surf.hess(far)).min() > 0.0


def test_spacelike_lipschitz_property():
    surf = bumped_hyperboloid(0.1)
    grid = BoxGrid.cube(2, 5.0, 101)
    fld = surface_field(surf, grid)
    rng = np.random.default_rng(8)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    pts = np.stack([c.ravel() for c in mesh], axis=-1)
    vals = fld.values.ravel()
    i = rng.integers(0, pts.shape[0], size=2000)
    j = rng.integers(0, pts.shape[0], size=2000)
    keep = i != j
    i, j = i[keep], j[keep]
    df = np.abs(vals[i] - vals[j])
    dx = np.linalg.norm(pts[i] - pts[j], axis=-1)
    assert np.all(df < dx)


def test_field_jets_second_order():
    surf = bumped_hyperboloid(0.08)
    errs = []
    for n in (81, 161):
        grid = BoxGrid.cube(2, 2.0, n)
        fld = surface_field(surf, grid)
        grad, hess, mask = field_jets(fld)
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        eg = np.abs(grad - surf.grad(pts)).max(axis=-1)
        eh = np.abs(hess - surf.hess(pts)).max(axis=(-1, -2))
        errs.append((eg[mask].max(), eh[mask].max()))
    assert errs[0][0] / errs[1][0] > 3.0
    assert errs[0][1] / errs[1][1] > 3.0


def test_alc_hyperboloid_decays():
    grid = BoxGrid.cube(2, 30.0, 121)
    fld = surface_field(hyperboloid(1.0), grid)
    report = alc_decay_check(fld)
    assert report.monotone_decreasing
    assert report.looks_alc
    assert abs(report.limit_estimate) < 1e-3
    # the residual sqrt(1+r^2)-r is decreasing, so each shell sup must sit
    # between the closed form at the shell's two edges
    def closed(r):
        return np.sqrt(1.0 + r * r) - r

    h = report.shell_radii[1] - report.shell_radii[0]
    lo = closed(report.shell_radii + 0.5 * h)
    hi = closed(np.maximum(report.shell_radii - 0.5 * h, 0.0))
    assert np.all(report.shell_sup <= hi + 1e-12)
    assert np.all(report.shell_sup >= lo - 1e-12)


def test_alc_offset_is_flagged():
    grid = BoxGrid.cube(2, 30.0, 121)
    surf = hyperboloid(1.0)
    fld = CartesianField.from_function(grid, lambda x: surf.value(x) + 1.0)
    report = alc_decay_check(fld)
    assert report.monotone_decreasing
    assert not report.looks_alc
    assert abs(report.limit_estimate - 1.0) < 1e-3


def test_alc_anisotropic_bump_decays_outside_support():
    grid = BoxGrid.cube(2, 20.0, 161)
    surf = hyperboloid(1.0)

    def f(x):
        blob = 0.4 * np.exp(-2.0 * ((x[..., 0] - 3.0) ** 2 + x[..., 1] ** 2))
        return surf.value(x) + blob

    report = alc_decay_check(CartesianField.from_function(grid, f))
    assert not report.monotone_decreasing
    outside = report.shell_radii > 7.0
    assert np.all(np.diff(report.shell_sup[outside]) <= 1e-12)
    assert abs(report.limit_estimate) < 1e-3


def test_alc_requires_future_cone():
    grid = BoxGrid.cube(2, 10.0, 41)
    surf = hyperboloid(1.0)
    fld = CartesianField.from_function(grid, lambda x: surf.value(x) - 1.0)
    with pytest.raises(DomainError):
        alc_decay_check(fld)


def test_radial_to_cartesian_hyperboloid():
    grid = BoxGrid.cube(2, 3.0, 61)
    r = np.sqrt(sum(c**2 for c in np.meshgrid(*grid.axes, indexing="ij")))
    for l in (0.7, 1.0, 1.6):
        fld = radial_to_cartesian(constant_graph(np.log(l)), grid)
        assert np.abs(fld.values - np.sqrt(l * l + r * r)).max() < 1e-10
        assert fld.margin > 0.0


def test_radial_to_cartesian_accepts_sampled_field():
    pgrid = PolarGrid(n_s=96, n_theta=64, s_max=3.0)
    fld = ScalarField.from_function(pgrid, lambda s, th: np.full_like(s, np.log(1.2)))
    grid = BoxGrid.cube(2, 2.0, 41)
    out = radial_to_cartesian(fld, grid)
    r = np.sqrt(sum(c**2 for c in np.meshgrid(*grid.axes, indexing="ij")))
    assert np.abs(out.values - np.sqrt(1.44 + r * r)).max() < 1e-9


def test_radial_to_cartesian_out_of_domain():
    pgrid = PolarGrid(n_s=32, n_theta=32, s_max=1.0)
    fld = ScalarField.from_function(pgrid, lambda s, th: np.zeros_like(s))
    with pytest.raises(OutOfDomainError):
        radial_to_cartesian(fld, BoxGrid.cube(2, 10.0, 41))
    with pytest.raises(UsageError):
        radial_to_cartesian(fld, BoxGrid.cube(3, 1.0, 8))


def _chart_points(fld):
    """Polar chart coordinates (s, theta) of the surface point over each box
    node: the point at Lorentz distance ell = sqrt(f^2 - |x|^2) sits at
    sinh s = |x| / ell."""
    X, Y = np.meshgrid(*fld.grid.axes, indexing="ij")
    r = np.hypot(X, Y)
    return np.arcsinh(r / np.sqrt(fld.values**2 - r**2)), np.mod(np.arctan2(Y, X), 2 * np.pi)


def test_cross_chart_mean_curvature_converges():
    graph = builtin_identity_graphs()["mixed_bump"]
    errs = []
    for n in (81, 161):
        grid = BoxGrid.cube(2, 1.5, n)
        fld = radial_to_cartesian(graph, grid)
        grad, hess, mask = field_jets(fld)
        # the polar chart is singular at the origin node
        r = np.sqrt(sum(c**2 for c in np.meshgrid(*grid.axes, indexing="ij")))
        mask = mask & (r > 0.1)
        s, th = _chart_points(fld)
        h_radial = mean_curvature_divergence_form(graph, s[mask], th[mask])
        h_cart = curvature_cartesian(grad[mask], hess[mask]).mean
        errs.append(np.abs(h_cart - h_radial).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 5e-4


def test_cross_chart_tilt_matches_normal_component():
    # the Cartesian tilt and the time component of the radial-chart unit
    # normal are the same scalar -<N, E0> at matched surface points
    graph = builtin_identity_graphs()["tilted_bump"]
    grid = BoxGrid.cube(2, 1.2, 121)
    fld = radial_to_cartesian(graph, grid)
    grad, _, mask = field_jets(fld)
    r = np.sqrt(sum(c**2 for c in np.meshgrid(*grid.axes, indexing="ij")))
    mask = mask & (r > 0.1)
    phi = tilt_cartesian(grad[mask])
    s, th = _chart_points(fld)
    N = unit_normal(graph, s[mask], th[mask])
    assert np.abs(phi - N[..., 0]).max() < 6e-4


def test_analytic_surface_composition():
    base = hyperboloid(1.0, 2)
    surf = AnalyticSurface(m=2, value=base.value, grad=base.grad, hess=base.hess)
    x = np.array([0.3, -0.2])
    assert surf.value(x) == base.value(x)
