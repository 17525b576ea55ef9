import numpy as np
import pytest

from pmcsurf import lorentz, radial
from pmcsurf.errors import DomainError, NotSpacelikeError, UsageError
from pmcsurf.fields import PolarGrid, ScalarField


def random_jets(n, seed, smin=0.3, smax=2.5):
    """Random pointwise (u, u_s, u_t, s) tuples with a spacelike margin."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = rng.uniform(smin, smax)
        u = rng.uniform(-0.7, 0.7)
        while True:
            us = rng.uniform(-0.9, 0.9)
            ut = rng.uniform(-0.9, 0.9) * np.sinh(s)
            if us**2 + (ut / np.sinh(s)) ** 2 < 0.8:
                break
        out.append((u, us, ut, s))
    return out


def immersion(graph, s, th):
    return np.exp(graph.value(s, th)) * lorentz.polar_chart_point(s, th)


def fd_tangents(graph, s, th, eps):
    ts = (immersion(graph, s + eps, th) - immersion(graph, s - eps, th)) / (2 * eps)
    tt = (immersion(graph, s, th + eps) - immersion(graph, s, th - eps)) / (2 * eps)
    return ts, tt


def fd_second_derivatives(graph, s, th, eps):
    F = lambda a, b: immersion(graph, a, b)
    f0 = F(s, th)
    F_ss = (F(s + eps, th) - 2 * f0 + F(s - eps, th)) / eps**2
    F_tt = (F(s, th + eps) - 2 * f0 + F(s, th - eps)) / eps**2
    F_st = (
        F(s + eps, th + eps) - F(s + eps, th - eps) - F(s - eps, th + eps) + F(s - eps, th - eps)
    ) / (4 * eps**2)
    return F_ss, F_st, F_tt


def test_tilt_constant_and_frozen_value():
    g = radial.constant_graph(np.log(2.0))
    assert radial.tilt(g, 1.0, 0.3) == pytest.approx(1.0, abs=0)
    # |Du|_h = 0.99 gives w = (1 - 0.9801)^(-1/2)
    w = radial.tilt_components(0.99, 0.0, 1.0)
    assert w == pytest.approx(7.088812050083358, abs=1e-12)


def test_tilt_rejects_null_gradient():
    with pytest.raises(NotSpacelikeError):
        radial.tilt_components(1.0, 0.0, 1.0)
    with pytest.raises(NotSpacelikeError):
        radial.tilt_components(0.8, np.sinh(1.0), 1.0)


def test_graph_metric_constant_is_scaled_hyperbolic():
    s = 1.2
    g, ginv = radial.graph_metric(np.log(2.0), 0.0, 0.0, s)
    assert g[0, 0] == pytest.approx(4.0, rel=1e-14)
    assert g[1, 1] == pytest.approx(4.0 * np.sinh(s) ** 2, rel=1e-14)
    assert g[0, 1] == 0.0
    assert np.allclose(ginv @ g, np.eye(2), atol=1e-14)


def test_graph_metric_determinant_identity():
    # det g = e^(4u) (1 - |Du|^2) sinh(s)^2 in the polar chart
    for u, us, ut, s in random_jets(200, seed=21):
        g, ginv = radial.graph_metric(u, us, ut, s)
        gamma = us**2 + (ut / np.sinh(s)) ** 2
        det_expected = np.exp(4 * u) * (1 - gamma) * np.sinh(s) ** 2
        assert np.linalg.det(g) == pytest.approx(det_expected, rel=1e-11)
        assert np.allclose(ginv @ g, np.eye(2), atol=1e-11)


def test_gradient_identities():
    # |grad u|_g^2 = e^(-2u) (w^2 - 1) and grad u = e^(-2u) w^2 Du
    for u, us, ut, s in random_jets(200, seed=5):
        _, ginv = radial.graph_metric(u, us, ut, s)
        w = radial.tilt_components(us, ut, s)
        du = np.array([us, ut])
        grad_sq = du @ ginv @ du
        assert grad_sq == pytest.approx(np.exp(-2 * u) * (w**2 - 1), rel=1e-10, abs=1e-13)
        du_sharp_h = np.array([us, ut / np.sinh(s) ** 2])
        assert np.allclose(ginv @ du, np.exp(-2 * u) * w**2 * du_sharp_h, atol=1e-12)


def test_unit_normal_properties():
    graphs = radial.builtin_identity_graphs()
    rng = np.random.default_rng(9)
    for graph in graphs.values():
        for _ in range(20):
            s = rng.uniform(0.3, 2.0)
            th = rng.uniform(0, 2 * np.pi)
            N = radial.unit_normal(graph, s, th)
            assert lorentz.inner(N, N) == pytest.approx(-1.0, abs=1e-12)
            assert N[0] > 0
            ts, tt = fd_tangents(graph, s, th, 1e-6)
            assert abs(lorentz.inner(N, ts)) < 1e-8
            assert abs(lorentz.inner(N, tt)) < 1e-8
            # tilt is the normal component against the radial direction
            q = lorentz.polar_chart_point(s, th)
            w = radial.tilt(graph, s, th)
            assert -lorentz.inner(N, q) == pytest.approx(w, rel=1e-12)


def test_metric_matches_immersion():
    graphs = radial.builtin_identity_graphs()
    rng = np.random.default_rng(23)
    for graph in graphs.values():
        for _ in range(10):
            s = rng.uniform(0.4, 2.0)
            th = rng.uniform(0, 2 * np.pi)
            u = float(graph.value(s, th))
            us, ut = (float(v) for v in graph.grad(s, th))
            g, _ = radial.graph_metric(u, us, ut, s)
            ts, tt = fd_tangents(graph, s, th, 1e-5)
            g_fd = np.array(
                [
                    [lorentz.inner(ts, ts), lorentz.inner(ts, tt)],
                    [lorentz.inner(tt, ts), lorentz.inner(tt, tt)],
                ]
            )
            assert np.max(np.abs(g - g_fd)) < 5e-9


def test_second_fundamental_form_constant():
    l = 0.7
    graph = radial.constant_graph(np.log(l))
    s = 1.1
    II = radial.second_fundamental_form(graph, s, 0.4)
    h = np.diag([1.0, np.sinh(s) ** 2])
    assert np.allclose(II, l * h, rtol=1e-13)


def test_second_fundamental_form_matches_immersion_oracle():
    # decomposition d_i d_j F = Gamma^k d_k F + II_ij N with <N, N> = -1
    # gives II_ij = -<N, d_i d_j F>
    graphs = radial.builtin_identity_graphs()
    rng = np.random.default_rng(31)
    for graph in graphs.values():
        for _ in range(8):
            s = rng.uniform(0.4, 1.8)
            th = rng.uniform(0, 2 * np.pi)
            II = radial.second_fundamental_form(graph, s, th)
            N = radial.unit_normal(graph, s, th)
            F_ss, F_st, F_tt = fd_second_derivatives(graph, s, th, 1e-3)
            II_fd = -np.array(
                [
                    [lorentz.inner(N, F_ss), lorentz.inner(N, F_st)],
                    [lorentz.inner(N, F_st), lorentz.inner(N, F_tt)],
                ]
            )
            assert np.max(np.abs(II - II_fd)) < 2e-5


def test_mean_curvature_routes_agree():
    graphs = radial.builtin_identity_graphs()
    rng = np.random.default_rng(41)
    for graph in graphs.values():
        s = rng.uniform(0.3, 2.2, size=40)
        th = rng.uniform(0, 2 * np.pi, size=40)
        H_div = radial.mean_curvature_divergence_form(graph, s, th)
        H_int = radial.mean_curvature_intrinsic(graph, s, th)
        assert np.max(np.abs(H_div - H_int)) < 1e-8


def test_mean_curvature_constant_hyperboloid():
    for l in (0.5, 1.0, 2.0):
        graph = radial.constant_graph(np.log(l))
        for route in (radial.mean_curvature_divergence_form, radial.mean_curvature_intrinsic):
            H = route(graph, 1.3, 2.1)
            assert float(H) == pytest.approx(1.0 / l, abs=1e-12)


def test_mean_curvature_matches_immersion_oracle():
    graph = radial.builtin_identity_graphs()["mixed_bump"]
    s, th = 0.9, 1.7
    u = float(graph.value(s, th))
    us, ut = (float(v) for v in graph.grad(s, th))
    _, ginv = radial.graph_metric(u, us, ut, s)
    N = radial.unit_normal(graph, s, th)
    F_ss, F_st, F_tt = fd_second_derivatives(graph, s, th, 1e-3)
    II_fd = -np.array(
        [
            [lorentz.inner(N, F_ss), lorentz.inner(N, F_st)],
            [lorentz.inner(N, F_st), lorentz.inner(N, F_tt)],
        ]
    )
    H_fd = np.trace(ginv @ II_fd) / 2.0
    H = radial.mean_curvature_divergence_form(graph, s, th)
    assert float(H) == pytest.approx(H_fd, abs=2e-6)


def test_curvature_sample_umbilic():
    for l in (0.5, 2.0):
        sample = radial.curvature_sample(radial.constant_graph(np.log(l)), 0.8, 0.2)
        assert sample.tilt == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(sample.principal, [1 / l, 1 / l], atol=1e-12)
        assert sample.mean == pytest.approx(1 / l, abs=1e-12)
        assert sample.gauss == pytest.approx(1 / l**2, abs=1e-12)


def test_curvature_sample_trace_consistency():
    graph = radial.builtin_identity_graphs()["mixed_bump"]
    sample = radial.curvature_sample(graph, 1.1, 0.6)
    H_div = float(radial.mean_curvature_divergence_form(graph, 1.1, 0.6))
    assert 2 * sample.mean == pytest.approx(np.sum(sample.principal), abs=1e-12)
    assert sample.mean == pytest.approx(H_div, abs=1e-9)


def test_laplacian_w_residual_constant():
    graph = radial.constant_graph(np.log(1.5))
    assert radial.laplacian_w_residual(graph, 1.0, 0.5, step=1e-2) < 1e-9


def test_laplacian_w_residual_convergence_order():
    for name, graph in radial.builtin_identity_graphs().items():
        r_coarse = radial.laplacian_w_residual(graph, 1.1, 0.8, step=0.08)
        r_fine = radial.laplacian_w_residual(graph, 1.1, 0.8, step=0.04)
        if name == "radial_bump" and r_coarse < 1e-10:
            continue
        order = np.log2(r_coarse / r_fine)
        assert order > 1.9, (name, r_coarse, r_fine, order)


@pytest.mark.parametrize("n", [2, 3])
def test_central_differences_exact_on_quadratics(n):
    # central differences of a quadratic carry no truncation error, only rounding
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    A = A + A.T
    b = rng.normal(size=n)
    x = rng.normal(size=n)
    grad, hess = radial._central_differences(lambda p: 0.5 * p @ A @ p + b @ p + 0.7, x, 1e-2)
    assert np.abs(grad - (A @ x + b)).max() < 1e-9
    assert np.abs(hess - A).max() < 1e-9


def test_hessian_tau_residual_small_step():
    assert radial.hessian_tau_residual(np.array([1.0, 0.0, 0.0]), step=1e-4) < 1e-6
    assert radial.hessian_tau_residual(np.array([2.0, 0.3, -0.4]), step=1e-4) < 1e-6


def test_hessian_tau_residual_convergence_order():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=2)
        p = np.concatenate([[np.linalg.norm(x) + rng.uniform(0.5, 2.0)], x])
        r1 = radial.hessian_tau_residual(p, step=2e-2)
        r2 = radial.hessian_tau_residual(p, step=1e-2)
        assert np.log2(r1 / r2) > 1.9


def test_hessian_tau_residual_domain():
    with pytest.raises(DomainError):
        radial.hessian_tau_residual(np.array([0.1, 1.0, 0.0]))
    with pytest.raises(DomainError):
        radial.hessian_tau_residual(np.array([-1.0, 0.0, 0.0]))


def test_field_tilt_and_mean_curvature_converge():
    graph = radial.builtin_identity_graphs()["mixed_bump"]
    errs_w, errs_h = [], []
    for n_s, n_t in ((48, 96), (96, 192)):
        grid = PolarGrid(n_s, n_t, 2.0)
        fld = ScalarField.from_function(grid, lambda s, th: graph.value(s, th))
        w_num = radial.field_tilt(fld).matrix()
        S = grid.s_nodes[1:, None]
        T = grid.theta_nodes[None, :]
        w_exact = np.vstack([np.full((1, n_t), 1.0), radial.tilt(graph, S, T)])
        w_exact[0] = radial.tilt_components(*graph.grad(1e-12, 0.0), 1e-12)
        errs_w.append(np.max(np.abs(w_num - w_exact)))
        H_num = radial.field_mean_curvature(fld).matrix()
        H_exact = np.vstack(
            [
                np.full((1, n_t), float(radial.mean_curvature_divergence_form(graph, 1e-9, 0.0))),
                radial.mean_curvature_divergence_form(graph, S, T),
            ]
        )
        errs_h.append(np.max(np.abs(H_num - H_exact)))
        H_int = radial.field_mean_curvature(fld, route="intrinsic").matrix()
        assert np.max(np.abs(H_int - H_num)) < 1e-9
    assert errs_w[1] < errs_w[0] / 3.0
    assert errs_h[1] < errs_h[0] / 3.0
    assert errs_h[1] < 5e-3


def test_field_mean_curvature_needs_three_rings():
    # with n_s = 2 the one-sided boundary u_ss would wrap round to the boundary ring
    grid = PolarGrid(2, 8, 1.0)
    fld = ScalarField.from_function(grid, lambda s, th: 0.1 * s**2 + 0.0 * th)
    with pytest.raises(UsageError):
        radial.field_mean_curvature(fld)


def test_alc_sandwich_check_analytic():
    graph = radial.constant_graph(np.log(1.0))
    assert radial.alc_sandwich_check(graph, 0.9, 1.1)
    res = radial.alc_sandwich_check(radial.constant_graph(0.2), 0.9, 1.1)
    assert not res
    assert "outer" in res.reason


def test_alc_sandwich_check_field():
    grid = PolarGrid(32, 64, 2.0)
    fld = ScalarField.from_function(grid, lambda s, th: 0.05 * np.exp(-(np.sinh(s) ** 2)))
    assert radial.alc_sandwich_check(fld, 0.9, 1.2)
    res = radial.alc_sandwich_check(fld, 1.02, 1.2)
    assert not res and "inner" in res.reason
