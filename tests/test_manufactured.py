"""A manufactured non-radial solution: the true error of Dirichlet solves whose
iterates are not radial (Roache, J. Fluids Eng. 124 (2002); Salari & Knupp,
SAND2000-1444 (2000)).

u* = 0.1 sech s + 0.15 tanh(s/2)^3 cos 3 theta solves the equation exactly
for Theta(t, s, theta) = F(s, theta) + kappa (t - u*(s, theta)), where
F = div_h(w* Du*) / m + w*: then e^u* Hbar(u*) = F, and dTheta/dt = kappa > 0.
"""

import numpy as np
import pytest

from pmcsurf import solver as sv

KAPPA = 1.0
S_MAX = 3.0


def _u_star(s, th):
    """u*, u*_s, u*_ss, u*_theta, u*_s theta and u*_theta theta at (s, theta)."""
    sech, tanh = 1.0 / np.cosh(s), np.tanh(s)
    T = np.tanh(s / 2)
    dT = (1 - T**2) / 2
    c3, s3 = np.cos(3 * th), np.sin(3 * th)
    return (
        0.1 * sech + 0.15 * T**3 * c3,
        -0.1 * sech * tanh + 0.45 * T**2 * dT * c3,
        0.1 * sech * (1 - 2 * sech**2) + 0.45 * T * dT * (1 - 2 * T**2) * c3,
        -0.45 * T**3 * s3,
        -1.35 * T**2 * dT * s3,
        -1.35 * T**3 * c3,
    )


def manufactured_source(s, th):
    """F = div_h(w* Du*) / 2 + w*, in closed form; at the pole its limit 0.9,
    where w* = 1 and the Laplacian of 0.1 sech s is -0.2."""
    s, th = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(th, dtype=float))
    pole = s == 0.0
    s = np.where(pole, 1.0, s)  # any s > 0: the pole takes the limit below
    _, us, uss, ut, ust, utt = _u_star(s, th)
    sh, ch = np.sinh(s), np.cosh(s)
    gam = us**2 + ut**2 / sh**2
    w = 1.0 / np.sqrt(1.0 - gam)
    gam_s = 2 * us * uss + 2 * ut * ust / sh**2 - 2 * ut**2 * ch / sh**3
    gam_t = 2 * us * ust + 2 * ut * utt / sh**2
    # div_h(w Du) = (sinh s w u_s)_s / sinh s + (w u_theta)_theta / sinh^2 s
    div = (w * (uss + ch / sh * us) + 0.5 * w**3 * gam_s * us
           + (w * utt + 0.5 * w**3 * gam_t * ut) / sh**2)
    return np.where(pole, 0.9, div / 2 + w)


def manufactured_curvature():
    def theta(t, s, th):
        return manufactured_source(s, th) + KAPPA * (t - _u_star(s, th)[0])

    def hbar(t, s, th=0.0):
        return np.exp(-np.asarray(t, dtype=float)) * theta(t, s, th)

    def dth(t, s, th=0.0):
        return np.broadcast_arrays(KAPPA + 0.0 * np.asarray(t, dtype=float), s, th)[0]

    return sv.PrescribedCurvature("manufactured", hbar, dth, radial=False)


def manufactured_error(n_s, n_theta):
    fld, rep = sv.solve_dirichlet(
        manufactured_curvature(), S_MAX, n_s=n_s, n_theta=n_theta,
        boundary=lambda th: _u_star(S_MAX, th)[0], precheck=False,
    )
    assert rep.converged and rep.message == ""
    g = fld.grid
    exact = _u_star(g.s_nodes[:, None], g.theta_nodes[None, :])[0]
    return float(np.abs(fld.matrix() - exact).max())


def test_source_matches_nested_differences():
    # the closed form against central differences of the flux form, away from the pole
    h = 1e-4
    s, th = np.meshgrid(np.linspace(0.2, 2.9, 7), np.linspace(0.0, 6.0, 5), indexing="ij")

    def flux(s, th):
        u, us, _, ut, _, _ = _u_star(s, th)
        w = 1.0 / np.sqrt(1.0 - us**2 - ut**2 / np.sinh(s) ** 2)
        return w * us * np.sinh(s), w * ut, w

    div = ((flux(s + h, th)[0] - flux(s - h, th)[0]) / (2 * h) / np.sinh(s)
           + (flux(s, th + h)[1] - flux(s, th - h)[1]) / (2 * h) / np.sinh(s) ** 2)
    assert np.abs(manufactured_source(s, th) - (div / 2 + flux(s, th)[2])).max() < 1e-7


def test_source_is_continuous_at_the_pole():
    th = np.linspace(0.0, 2 * np.pi, 9)
    assert np.abs(manufactured_source(1e-4, th) - manufactured_source(0.0, th)).max() < 1e-7


def test_manufactured_data_is_positive_and_monotone_near_the_solution():
    # hbar > 0 on a band of heights around u*, over the whole ball
    H = manufactured_curvature()
    s, th = np.meshgrid(np.linspace(0.0, S_MAX, 31), np.linspace(0.0, 2 * np.pi, 33),
                        indexing="ij")
    u = _u_star(s, th)[0]
    for dt in (-0.2, 0.0, 0.2):
        assert H.hbar(u + dt, s, th).min() > 0
    assert (H.dtheta(u, s, th) == KAPPA).all()


@pytest.fixture(scope="module")
def errors():
    return {n_s: manufactured_error(n_s, 2 * n_s) for n_s in (32, 64)}


def test_manufactured_error_is_pinned(errors):
    # the values of the direct (SuperLU) solve; any linear solve must keep them
    assert errors[32] == pytest.approx(1.0973e-4, rel=1e-3)
    assert errors[64] == pytest.approx(2.7529e-5, rel=1e-3)


def test_manufactured_error_is_second_order(errors):
    assert 1.9 <= np.log2(errors[32] / errors[64]) <= 2.1
