import numpy as np
import pytest

from pmcsurf import lorentz
from pmcsurf.errors import DomainError


def test_inner_vertex_is_minus_one():
    e0 = np.array([1.0, 0.0, 0.0])
    assert lorentz.inner(e0, e0) == -1.0


def test_inner_mixed_signature():
    v = np.array([2.0, 1.0, 1.0])
    w = np.array([1.0, 3.0, -1.0])
    # -2*1 + 1*3 + 1*(-1)
    assert lorentz.inner(v, w) == 0.0


def test_classify_examples():
    C = lorentz.CausalClass
    assert lorentz.classify(np.array([1.0, 1.0, 0.0])) is C.NULL
    assert lorentz.classify(np.array([2.0, 1.0, 0.0])) is C.TIMELIKE
    assert lorentz.classify(np.array([0.0, 1.0, 1.0])) is C.SPACELIKE
    # the zero vector counts as spacelike by convention
    assert lorentz.classify(np.zeros(3)) is C.SPACELIKE
    assert lorentz.classify(np.zeros(4)) is C.SPACELIKE


def test_classify_negation_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        v = rng.standard_normal(3)
        assert lorentz.classify(v) is lorentz.classify(-v)


def test_lorentz_distance_vertical():
    q = np.array([2.0, 0.0, 0.0])
    o = np.array([1.0, 0.0, 0.0])
    assert lorentz.lorentz_distance(q, o) == pytest.approx(1.0, abs=0)


def test_lorentz_distance_requires_chronological_future():
    o = np.zeros(3)
    with pytest.raises(DomainError):
        lorentz.lorentz_distance(np.array([1.0, 2.0, 0.0]), o)  # spacelike gap
    with pytest.raises(DomainError):
        lorentz.lorentz_distance(np.array([-2.0, 0.0, 0.0]), o)  # past
    with pytest.raises(DomainError):
        lorentz.lorentz_distance(np.array([1.0, 1.0, 0.0]), o)  # null gap


def test_reverse_triangle_inequality():
    # For future timelike u, v: |u + v| >= |u| + |v| in the Lorentzian length.
    rng = np.random.default_rng(7)
    o = np.zeros(4)
    for _ in range(10_000):
        xu = rng.standard_normal(3)
        xv = rng.standard_normal(3)
        u = np.concatenate(([np.hypot(np.linalg.norm(xu), rng.uniform(0.1, 2.0))], xu))
        v = np.concatenate(([np.hypot(np.linalg.norm(xv), rng.uniform(0.1, 2.0))], xv))
        lu = lorentz.lorentz_distance(u, o)
        lv = lorentz.lorentz_distance(v, o)
        luv = lorentz.lorentz_distance(u + v, o)
        assert luv >= lu + lv - 1e-12


def test_stereographic_frozen_point():
    # x = (1/2, 0): lambda = 8/3, preimage (5/3, 4/3, 0)
    x = np.array([0.5, 0.0])
    q = lorentz.inverse_stereographic(x)
    assert np.allclose(q, [5.0 / 3.0, 4.0 / 3.0, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(lorentz.stereographic(q), x, rtol=0, atol=1e-15)


def test_inverse_stereographic_lands_on_hyperboloid():
    rng = np.random.default_rng(3)
    for m in (2, 3):
        x = rng.uniform(-0.6, 0.6, size=(500, m))
        q = lorentz.inverse_stereographic(x)
        ip = lorentz.inner(q, q)
        assert np.max(np.abs(ip + 1.0)) < 1e-12
        assert np.all(q[..., 0] > 0)


def test_stereographic_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    for m in (2, 3):
        for _ in range(500):
            x = rng.uniform(-1, 1, size=m)
            if np.linalg.norm(x) > 0.97:
                continue
            x2 = lorentz.stereographic(lorentz.inverse_stereographic(x))
            worst = max(worst, float(np.max(np.abs(x2 - x))))
    assert worst < 1e-12


def test_stereographic_rejects_off_hyperboloid():
    q = lorentz.inverse_stereographic(np.array([0.3, 0.1]))
    with pytest.raises(DomainError):
        lorentz.stereographic(q * 1.001)


def test_conformal_factor_and_pullback():
    # finite-difference pushforward of the flat metric through the inverse
    # stereographic map must look like lambda^2 * identity
    rng = np.random.default_rng(13)
    for m in (2, 3):
        x = rng.uniform(-0.5, 0.5, size=m)
        lam = lorentz.conformal_factor(x)
        assert lam >= 2.0 or np.linalg.norm(x) > 0
        for eps, tol in ((1e-3, 1e-5), (5e-4, 2.5e-6)):
            G = np.empty((m, m))
            cols = []
            for k in range(m):
                e = np.zeros(m)
                e[k] = eps
                cols.append(
                    (lorentz.inverse_stereographic(x + e) - lorentz.inverse_stereographic(x - e))
                    / (2 * eps)
                )
            for i in range(m):
                for j in range(m):
                    G[i, j] = lorentz.inner(cols[i], cols[j])
            assert np.max(np.abs(G - lam**2 * np.eye(m))) < tol * lam**2


def test_geodesic_polar_to_disk_radius():
    for s in (0.3, 1.0, 2.5):
        x = lorentz.geodesic_polar_to_disk(s, 0.7)
        assert np.linalg.norm(x) == pytest.approx(np.tanh(s / 2), abs=1e-15)
        assert np.arctan2(x[1], x[0]) == pytest.approx(0.7, abs=1e-15)


def test_hyperbolic_circumference_by_quadrature():
    # length of the circle s = s0 in the conformal disk metric is 2 pi sinh(s0)
    for s0 in (0.5, 1.0, 3.0):
        n = 4096
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        rho = np.tanh(s0 / 2)
        xs = rho * np.stack([np.cos(th), np.sin(th)], axis=-1)
        lam = np.array([lorentz.conformal_factor(x) for x in xs])
        speed = rho * 2 * np.pi / n
        length = float(np.sum(lam) * speed)
        assert abs(length - 2 * np.pi * np.sinh(s0)) < 1e-10


def test_polar_chart_point_consistency():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = rng.uniform(0.05, 4.0)
        th = rng.uniform(0.0, 2 * np.pi)
        q = lorentz.polar_chart_point(s, th)
        assert abs(lorentz.inner(q, q) + 1.0) < 1e-12
        q2 = lorentz.inverse_stereographic(lorentz.geodesic_polar_to_disk(s, th))
        assert np.max(np.abs(q - q2)) < 1e-12


def test_polar_chart_tangent_frame():
    s, th = 1.3, 0.9
    q = lorentz.polar_chart_point(s, th)
    ts, tth = lorentz.polar_chart_tangents(s, th)
    assert lorentz.inner(ts, ts) == pytest.approx(1.0, abs=1e-14)
    assert lorentz.inner(tth, tth) == pytest.approx(np.sinh(s) ** 2, abs=1e-12)
    assert lorentz.inner(ts, tth) == pytest.approx(0.0, abs=1e-14)
    assert lorentz.inner(q, ts) == pytest.approx(0.0, abs=1e-14)
    assert lorentz.inner(q, tth) == pytest.approx(0.0, abs=1e-14)
