import itertools

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import spsolve

from pmcsurf import radial
from pmcsurf import solver as sv
from pmcsurf.errors import BracketError, NotSpacelikeError, UsageError
from pmcsurf.fields import PolarGrid, ScalarField


@pytest.fixture(scope="module")
def H01():
    return sv.rational_curvature(0.1)


@pytest.fixture(scope="module")
def oracle3(H01):
    return sv.radial_ode_oracle(H01, 3.0)


@pytest.fixture(scope="module")
def solves3(H01):
    out = {}
    for n_s, n_th in [(24, 48), (48, 96)]:
        fld, rep = sv.solve_dirichlet(H01, 3.0, n_s=n_s, n_theta=n_th, precheck=False)
        assert rep.converged
        out[n_s] = fld
    return out


@pytest.fixture(scope="module")
def exh5(H01):
    return sv.exhaustion(H01, [1, 2, 3, 4, 5], s0=1.0, ds=1 / 16, n_theta=48)


# ---------------------------------------------------------------------------
# curvature data


def test_parse_builtins():
    Hc = sv.parse_curvature("const:1")
    assert float(Hc.hbar(0.37, 1.2, 0.4)) == 1.0
    assert float(Hc.dtheta(0.5, 2.0)) == pytest.approx(np.exp(0.5), rel=1e-14)

    Hr = sv.parse_curvature("rational:0.2")
    ell = np.exp(0.3)
    want = 2 * ell / (1 + ell**2) * (1 + 0.2 / np.cosh(1.5))
    assert float(Hr.hbar(0.3, 1.5)) == pytest.approx(want, rel=1e-14)
    assert float(sv.parse_curvature("rational").hbar(0.0, 0.0)) == 1.0

    Hd = sv.parse_curvature("dilation")
    assert float(Hd.hbar(0.7, 0.0)) == pytest.approx(np.exp(-0.7), rel=1e-14)
    assert float(Hd.dtheta(0.7, 3.0)) == 0.0

    for bad in ("gauss:1", "const", "const:zero", "const:-2", "rational:1.5", "table"):
        with pytest.raises(UsageError):
            sv.parse_curvature(bad)


def test_table_curvature(tmp_path):
    t_grid = np.linspace(-1.4, 1.4, 21)
    s_grid = np.linspace(0.0, 8.0, 33)
    exact = sv.rational_curvature(0.1)
    path = tmp_path / "h.csv"
    with open(path, "w") as fh:
        fh.write("t_s," + ",".join("%.17g" % s for s in s_grid) + "\n")
        for t in t_grid:
            vals = exact.hbar(t, s_grid)
            fh.write("%.17g," % t + ",".join("%.17g" % v for v in vals) + "\n")
    Ht = sv.table_curvature(str(path))
    tq = np.linspace(-1.2, 1.2, 17)[:, None]
    sq = np.linspace(0.2, 7.5, 23)[None, :]
    assert np.abs(Ht.hbar(tq, sq) - exact.hbar(tq, sq)).max() < 2e-5
    assert np.abs(Ht.dtheta(tq, sq) - exact.dtheta(tq, sq)).max() < 2e-3
    rep = sv.check_hypotheses(Ht, requested_radii=(0.8, 1.25))
    assert rep.passes["H1"] and rep.passes["H3"] and rep.requested_ok

    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,0,1,2,3\n0.1,1,1,1,1\n")
    with pytest.raises(UsageError):
        sv.table_curvature(str(bad))
    neg = tmp_path / "neg.csv"
    with open(neg, "w") as fh:
        fh.write("t_s," + ",".join(str(s) for s in range(5)) + "\n")
        for k, t in enumerate(np.linspace(-1, 1, 5)):
            row = [1.0] * 5
            if k == 2:
                row[3] = -0.5
            fh.write("%g," % t + ",".join(str(v) for v in row) + "\n")
    with pytest.raises(UsageError):
        sv.table_curvature(str(neg))


def test_hypotheses_constant():
    rep = sv.check_hypotheses(sv.constant_curvature(1.0), requested_radii=(0.5, 2.0))
    assert rep.passes["H1"] and rep.passes["H1p"] and rep.passes["H3"]
    assert rep.passes["positive"] and rep.requested_ok
    assert rep.h1_min > 0
    assert rep.h3_l is not None and rep.h3_l < 1.0
    assert rep.h3_L is not None and rep.h3_L > 1.0
    assert np.isfinite(rep.h2_Lambda)


def test_hypotheses_rational(H01):
    rep = sv.check_hypotheses(H01, requested_radii=(0.8, 1.25))
    assert all(rep.passes[k] for k in ("H1", "H1p", "H2", "H3", "positive"))
    assert rep.requested_ok
    rep0 = sv.check_hypotheses(sv.rational_curvature(0.0), requested_radii=(0.5, 2.0))
    assert rep0.requested_ok and rep0.passes["H1p"]
    # the certified amplitude window: eps above 0.28125 breaks the 0.8 barrier
    rep_big = sv.check_hypotheses(sv.rational_curvature(0.3), requested_radii=(0.8, 1.25))
    assert not rep_big.requested_ok


def test_hypotheses_dilation():
    rep = sv.check_hypotheses(sv.dilation_curvature())
    assert rep.passes["H1"]
    assert not rep.passes["H1p"]
    assert not rep.passes["H3"]
    assert rep.h3_l is None and rep.h3_L is None
    assert abs(rep.h1_min) <= 1e-12
    d = rep.as_dict()
    assert d["passes"]["H1"] and not d["passes"]["H3"]


def test_hypotheses_usage():
    H = sv.PrescribedCurvature("shifted", lambda t, s, th=0.0: np.exp(t) * 0 + 1.0,
                               t_min=0.1, t_max=1.0)
    with pytest.raises(UsageError):
        sv.check_hypotheses(H)
    with pytest.raises(UsageError):
        sv.check_hypotheses(sv.constant_curvature(1.0), requested_radii=(1.5, 2.0))
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(UsageError):
            sv.check_hypotheses(sv.constant_curvature(1.0), s_span=bad)
    with pytest.raises(UsageError):  # fails before the sample grid is allocated
        sv.check_hypotheses(sv.constant_curvature(1.0), n_t=10**6, n_s=10**6)


def test_fd_fallback_matches_analytic():
    ref = sv.constant_curvature(1.0)
    noderiv = sv.PrescribedCurvature("const-fd", ref.hbar)
    t = np.linspace(-1.0, 1.0, 11)
    assert np.abs(noderiv.dtheta(t, 0.0) - np.exp(t)).max() < 1e-8


# ---------------------------------------------------------------------------
# discrete residual


def _residual(u, H):
    """Discrete residual of the field u, with its own boundary ring as the data."""
    M = u.matrix()
    prob = sv.DiscreteProblem(u.grid, H, M[u.grid.n_s])
    return prob.residual(prob.restrict(M))


def test_residual_exact_zero_cases():
    g = PolarGrid(16, 32, 2.0)
    zero = ScalarField.zeros(g)
    assert np.abs(_residual(zero, sv.constant_curvature(1.0))).max() == 0.0
    assert np.abs(_residual(zero, sv.rational_curvature(0.0))).max() == 0.0
    l0 = 0.8
    sheet = ScalarField.from_function(g, lambda s, th: np.log(l0) + 0 * s)
    assert np.abs(_residual(sheet, sv.constant_curvature(1 / l0))).max() < 1e-14


def test_residual_matches_analytic_curvature():
    # the scheme should converge to m e^u (H_graph - Hbar) for a known graph
    graph = radial.builtin_identity_graphs()["mixed_bump"]
    errs = []
    for n_s, n_th in [(24, 48), (48, 96)]:
        g = PolarGrid(n_s, n_th, 2.0)
        u = ScalarField.from_function(g, graph.value)
        R = _residual(u, sv.constant_curvature(1.0))[1:].reshape(n_s - 1, n_th)
        s = g.s_nodes[1:n_s][:, None]
        th = g.theta_nodes[None, :]
        H_true = radial.mean_curvature_divergence_form(graph, s + 0 * th, th + 0 * s)
        exact = 2 * np.exp(graph.value(s, th)) * (H_true - 1.0)
        errs.append(np.abs(R - exact).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 0.02


def test_residual_margin_not_fatal():
    g = PolarGrid(12, 24, 2.0)
    steep = ScalarField.from_function(g, lambda s, th: 0.9985 * s + 0 * th)
    assert np.isfinite(_residual(steep, sv.constant_curvature(1.0))).all()
    cone = ScalarField.from_function(g, lambda s, th: 1.5 * s + 0 * th)
    with pytest.raises(NotSpacelikeError):
        _residual(cone, sv.constant_curvature(1.0))


def test_jacobian_matches_finite_differences(H01):
    g = PolarGrid(8, 16, 2.0)
    rng = np.random.default_rng(7)
    # three draws with zero Dirichlet data, then one with 0.02 cos 3 theta
    for boundary in (0.0, 0.0, 0.0, lambda th: 0.02 * np.cos(3 * th)):
        prob = sv.DiscreteProblem(g, H01, boundary)
        x = rng.uniform(-0.04, 0.04, prob.n_unknowns)
        assert prob.slope_sq(x) < 0.6
        J = prob.jacobian(x)
        # the 9-point stencil: ring 1's three pole couplings merge, the last
        # ring's three boundary couplings drop out, and the pole row adds 1 + n_theta
        assert J.nnz == 9 * (g.n_s - 1) * g.n_theta - 4 * g.n_theta + 1
        J = J.tocsc().toarray()
        Jfd = np.empty_like(J)
        h = 1e-6
        for k in range(prob.n_unknowns):
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            Jfd[:, k] = (prob.residual(xp) - prob.residual(xm)) / (2 * h)
        scale = max(1.0, np.abs(J).max())
        assert np.abs(J - Jfd).max() / scale < 1e-6


# ---------------------------------------------------------------------------
# Newton solver


def test_solve_unit_curvature_is_exact():
    fld, rep = sv.solve_dirichlet(sv.constant_curvature(1.0), 3.0, n_s=24, n_theta=48)
    assert rep.converged and rep.iterations <= 2
    assert rep.residual_norm < 1e-12
    assert np.abs(fld.matrix()).max() < 1e-13
    assert rep.max_w == pytest.approx(1.0, abs=1e-13)


def test_solve_from_offset_guess():
    fld, rep = sv.solve_dirichlet(sv.constant_curvature(1.0), 2.0, n_s=24, n_theta=48, u0=0.3)
    assert rep.converged and rep.iterations <= 10
    assert np.abs(fld.matrix()).max() < 1e-9


def test_solve_constant_sheet_exact():
    for l0 in (0.8, 1.25):
        H = sv.constant_curvature(1 / l0)
        fld, rep = sv.solve_dirichlet(H, 2.5, n_s=20, n_theta=40, boundary=np.log(l0),
                                      precheck=False)
        assert rep.converged and rep.iterations == 0
        assert np.abs(fld.matrix() - np.log(l0)).max() < 1e-14

    # perturbed start still lands on the sheet
    g = PolarGrid(20, 40, 2.5)
    guess = ScalarField.from_function(
        g, lambda s, th: np.log(0.8) + 0.1 * np.exp(-(s**2)) * (1 - (s / 2.5) ** 2)
    )
    fld, rep = sv.solve_dirichlet(sv.constant_curvature(1.25), 2.5, n_s=20, n_theta=40,
                                  boundary=np.log(0.8), u0=guess, precheck=False)
    assert rep.converged
    assert np.abs(fld.matrix() - np.log(0.8)).max() < 1e-9


def test_solve_rational_dips_between_barriers(solves3):
    M = solves3[48].matrix()
    assert M.min() > np.log(0.8)
    assert M.min() < -0.01
    assert M.max() <= 1e-12


def test_solve_nonconvergence_is_reported():
    fld, rep = sv.solve_dirichlet(sv.rational_curvature(0.25), 2.0, n_s=16, n_theta=32,
                                  u0=0.4, max_iters=1, precheck=False)
    assert not rep.converged
    assert rep.message
    assert rep.iterations <= 1


def _sqrt2(x, R):
    """Newton step for x^2 = 2 and the step that rounding in x^2 - 2 causes."""
    return -R / (2 * x), np.finfo(float).eps * (x**2 + 2) / (2 * x)


@pytest.mark.parametrize(
    "x0, residual, linearize, spacelike, max_iters, converged, message",
    [
        ([3.0], lambda x: x - 3, None, None, 5, True, "converged at the initial state"),
        ([1.0], lambda x: x - 3, lambda x, R: (-R, 0 * R), None, 5, True, ""),
        ([1.0], lambda x: x**2 - 2, _sqrt2, None, 50, True, "converged at the round-off floor"),
        ([1.0, 2.0], lambda x: x - 3, lambda x, R: (np.full(2, np.nan), 0 * R), None, 5,
         False, "singular Jacobian"),
        ([1.0], lambda x: x - 3, lambda x, R: (-R, 0 * R), lambda x: False, 5,
         False, "spacelike-margin breach"),
        ([1.0, 2.0], lambda x: np.ones(2), lambda x, R: (-R, 0 * R), None, 5,
         False, "line search stalled"),
        ([1.0], lambda x: x**2 - 2, _sqrt2, None, 2, False, "max iterations reached"),
    ],
)
def test_newton_names_why_it_stopped(x0, residual, linearize, spacelike, max_iters, converged,
                                     message):
    # tol = 0: only an exact zero converges at tol
    x0 = np.array(x0)
    out = sv._newton(x0, residual, linearize, spacelike or (lambda x: True), 0.0, max_iters)
    x, rn, iterations, damped, ok, why = out
    assert (ok, why) == (converged, message)
    assert rn == np.abs(residual(x)).max()
    assert iterations <= max_iters and damped <= iterations
    if message == "converged at the round-off floor":
        assert abs(x[0] - np.sqrt(2)) <= 4 * np.finfo(float).eps
    if not ok and iterations == 0:
        assert x is x0


def test_fourier_data_converges_at_the_round_off_floor():
    # tol 1e-13 lies below what rounding lets the 32x64 residual reach, so
    # Newton must stop on its step size
    t_max = np.tanh(1.5)

    def extension(s, th):
        r = np.tanh(s / 2) / t_max
        return 0.3 * r**3 * np.cos(3 * th) + 0.1 * r * np.sin(th)

    fld, rep = sv.solve_dirichlet(
        sv.rational_curvature(0.1), 3.0, n_s=32, n_theta=64,
        boundary=lambda th: 0.3 * np.cos(3 * th) + 0.1 * np.sin(th), u0=extension, tol=1e-13,
        precheck=False,
    )
    assert rep.converged
    assert rep.message == "converged at the round-off floor"
    assert rep.residual_norm < 1e-12


def _fourier_boundary(th):
    return 0.3 * np.cos(3 * th) + 0.1 * np.sin(th)


def test_default_guess_is_the_harmonic_extension(H01):
    # without u0 the Fourier data starts inside the spacelike margin and converges
    t_max = np.tanh(1.5)
    prob = sv.DiscreteProblem(PolarGrid(32, 64, 3.0), H01, _fourier_boundary)
    x = sv._initial_state(prob, None)
    closed = sv._initial_state(
        prob, lambda s, th: 0.3 * (np.tanh(s / 2) / t_max) ** 3 * np.cos(3 * th)
        + 0.1 * np.tanh(s / 2) / t_max * np.sin(th),
    )
    assert np.abs(x - closed).max() < 1e-15
    assert prob.slope_sq(x) < 0.04
    fld, rep = sv.solve_dirichlet(H01, 3.0, n_s=32, n_theta=64, boundary=_fourier_boundary,
                                  precheck=False)
    assert (rep.converged, rep.iterations, rep.message) == (True, 4, "")


@pytest.mark.parametrize("c", [0.0, 0.1, np.log(0.8)])
def test_default_guess_for_constant_data_is_constant(H01, c):
    prob = sv.DiscreteProblem(PolarGrid(24, 48, 3.0), H01, c)
    x = sv._initial_state(prob, None)
    assert x.tobytes() == np.full(prob.n_unknowns, prob.g.mean()).tobytes()


def test_default_guess_beyond_the_margin_is_rejected(H01):
    with pytest.raises(UsageError, match="spacelike margin"):
        sv.solve_dirichlet(H01, 3.0, n_s=32, n_theta=64, boundary=lambda th: 3 * np.cos(th),
                           precheck=False)


@pytest.mark.parametrize("radial_state", [True, False], ids=["radial", "fourier"])
def test_ordered_solve_matches_the_default_ordering(H01, radial_state):
    # the Newton system at 32x64: minimum degree on A + A^T and scipy's
    # default COLAMD give the same step, and the ordered one is no less accurate
    grid = PolarGrid(32, 64, 3.0)
    if radial_state:
        prob = sv.DiscreteProblem(grid, H01)
        x = prob.restrict(sv.bump_field(grid).matrix())
    else:
        prob = sv.DiscreteProblem(grid, H01, _fourier_boundary)
        x = sv._initial_state(prob, None)
    J, R = prob.jacobian(x).tocsc(), prob.residual(x)
    rhs = np.stack([-R, np.finfo(float).eps * (abs(J) @ np.abs(x))], axis=1)
    ordered = spsolve(J, rhs, permc_spec="MMD_AT_PLUS_A")[:, 0]
    default = spsolve(J, rhs)[:, 0]
    assert np.abs(ordered - default).max() <= 1e-11 * np.abs(default).max()
    assert np.abs(J @ ordered + R).max() <= np.abs(J @ default + R).max()


def _radial_state(name):
    """A DiscreteProblem and a radial state on it: the 32x64 bump, a ball of
    the 1:8 exhaustion's spacing, and a steep profile near the spacelike margin."""
    if name == "bump":
        grid = PolarGrid(32, 64, 3.0)
        prob = sv.DiscreteProblem(grid, sv.rational_curvature(0.1))
        return prob, prob.restrict(sv.bump_field(grid).matrix())
    if name == "exhaustion":
        grid = PolarGrid(24, 96, 1.0)
        prob = sv.DiscreteProblem(grid, sv.rational_curvature(0.0931))
        return prob, prob.restrict(sv.bump_field(grid, amp=-0.05).matrix())
    grid = PolarGrid(32, 64, 3.0)
    steep = ScalarField.from_function(grid, lambda s, th: 0.995 * (np.hypot(0.3, s) - 0.3) + 0 * th)
    M = steep.matrix()
    prob = sv.DiscreteProblem(grid, sv.rational_curvature(0.1), M[grid.n_s])
    return prob, prob.restrict(M)


def _newton_system(prob, x):
    J, R = prob.jacobian(x), prob.residual(x)
    return J, R, np.stack([-R, np.finfo(float).eps * (abs(J.tocsc()) @ np.abs(x))], axis=1)


@pytest.mark.parametrize("name", ["bump", "exhaustion", "steep"])
def test_fft_step_matches_superlu(name):
    prob, x = _radial_state(name)
    if name == "steep":
        assert 0.95 < prob.slope_sq(x) < (1 - 1e-3) ** 2
    J, R, rhs = _newton_system(prob, x)
    A = J.tocsc()
    fft = J.fft_solve(rhs)
    lu = spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A")
    assert (np.abs(fft - lu).max(axis=0) <= 1e-11 * np.abs(lu).max(axis=0)).all()
    assert np.abs(A @ fft[:, 0] + R).max() <= 4 * np.abs(A @ lu[:, 0] + R).max()
    assert np.array_equal(sv.spsolve(J, rhs), fft)


@pytest.mark.parametrize("radial_state", [True, False], ids=["radial", "fourier"])
def test_stencil_action_matches_the_matrix(H01, radial_state):
    if radial_state:
        prob, x = _radial_state("bump")
    else:
        prob = sv.DiscreteProblem(PolarGrid(16, 32, 3.0), H01, _fourier_boundary)
        x = sv._initial_state(prob, None)
    J = prob.jacobian(x)
    A = J.tocsc()
    v = np.random.default_rng(3).uniform(-1.0, 1.0, x.size)
    # each row sums at most ten products, so the two orders agree to 16 eps of |A| |v|
    bound = 16 * np.finfo(float).eps * (abs(A) @ np.abs(v))
    assert (np.abs(J.apply(np.abs(v), absolute=True) - abs(A) @ np.abs(v)) <= bound).all()
    assert (np.abs(J.apply(v) - A @ v) <= bound).all()


def test_stencil_lays_out_as_the_coo_matrix(H01):
    # entry by entry from the stencil's definition: C[1 + di, 1 + dj, i, j]
    # couples the node (ring i + 1, angle j) to (ring i + 1 + di, angle j + dj)
    prob = sv.DiscreteProblem(PolarGrid(12, 24, 2.0), H01, _fourier_boundary)
    J = prob.jacobian(sv._initial_state(prob, None))
    n_rings, nth = J.C.shape[2:]

    def unknown(ring, j):
        return 0 if ring == 0 else 1 + (ring - 1) * nth + j % nth

    want = {(0, 0): [J.pole]}
    for j in range(nth):
        want[0, unknown(1, j)] = [J.ring1[j]]
    for i, j, a, b in np.ndindex(n_rings, nth, 3, 3):
        if i + a <= n_rings:  # ring n_rings + 1 is the boundary: data, not unknowns
            key = unknown(i + 1, j), unknown(i + a, j + b - 1)
            want.setdefault(key, []).append(J.C[a, b, i, j])
    A = J.tocsc()
    assert J.nnz == A.nnz == len(want)
    A = A.tocoo()
    got = dict(zip(zip(A.row.tolist(), A.col.tolist()), A.data.tolist()))
    assert got.keys() == want.keys()
    for key, vals in want.items():
        # ring 1's three couplings to the pole merge, summed in some order
        sums = {float(sum(order)) for order in itertools.permutations(vals)}
        assert got[key] in sums, key


def _count_superlu(monkeypatch):
    # spsolve imports scipy's solver when it runs, so it sees this patch
    calls = []

    def counting(A, b, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return spsolve(A, b, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counting)
    return calls


def _tilted_curvature():
    base = sv.rational_curvature(0.1)
    return sv.PrescribedCurvature(
        "tilted", lambda t, s, th=0.0: base.hbar(t, s) * (1 + 0.05 * np.cos(th)), radial=False
    )


@pytest.mark.parametrize("case", ["fourier boundary", "tilted curvature"])
def test_non_radial_newton_systems_go_to_superlu(monkeypatch, case):
    calls = _count_superlu(monkeypatch)
    if case == "fourier boundary":
        H, boundary = sv.rational_curvature(0.1), _fourier_boundary
    else:
        H, boundary = _tilted_curvature(), 0.0  # radial data, a curvature that is not
    fld, rep = sv.solve_dirichlet(H, 3.0, n_s=16, n_theta=32, boundary=boundary, precheck=False)
    assert rep.converged and rep.iterations > 0
    assert calls == ["MMD_AT_PLUS_A"] * rep.iterations


@pytest.mark.parametrize("share, fft", [(0.99, True), (1.01, False)])
def test_spread_bound_decides_the_path(monkeypatch, share, fft):
    prob, x = _radial_state("bump")
    J, R, rhs = _newton_system(prob, x)
    assert np.ptp(J.C, axis=3).max() == 0.0 and np.ptp(J.ring1) == 0.0
    # an angular coupling of ring 5 moves at one angle by share times the bound
    scale = np.abs(J.C[:, :, 5]).max()
    J.C[1, 0, 5, 7] += share * sv._SPREAD_TOL * scale
    assert J.theta_invariant() == fft
    calls = _count_superlu(monkeypatch)
    step = sv.spsolve(J, rhs)
    assert calls == ([] if fft else ["MMD_AT_PLUS_A"])
    lu = spsolve(J.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
    assert (np.abs(step - lu).max(axis=0) <= 1e-11 * np.abs(lu).max(axis=0)).all()


def test_fft_solve_declines_mode_systems_without_diagonal_dominance(monkeypatch):
    # ten times the radial couplings, the same at every angle: theta-invariant
    # but not diagonally dominant, so elimination without pivoting is not safe
    prob, x = _radial_state("bump")
    J, R, rhs = _newton_system(prob, x)
    J.C[[0, 2], 1] *= 10.0
    assert J.theta_invariant() and J.fft_solve(rhs) is None
    calls = _count_superlu(monkeypatch)
    step = sv.spsolve(J, rhs)
    assert calls == ["MMD_AT_PLUS_A"]
    assert np.abs(J.tocsc() @ step[:, 0] - rhs[:, 0]).max() < 1e-8 * np.abs(rhs[:, 0]).max()


def test_dilation_data_on_the_dominance_margin_takes_the_fft_path(monkeypatch):
    # dTheta/dt = 0 leaves every row exactly on the margin of diagonal dominance,
    # and mode 0 sums ring 1's row to near zero: the check must allow rounding
    calls = _count_superlu(monkeypatch)
    fld, rep = sv.solve_dirichlet(sv.dilation_curvature(), 2.0, n_s=20, n_theta=40,
                                  boundary=0.2, u0=0.1, precheck=False)
    assert rep.converged and rep.iterations > 0
    assert calls == []


def test_radial_solve_never_calls_superlu_and_keeps_rings_constant(H01, monkeypatch):
    calls = _count_superlu(monkeypatch)
    unit = sv.constant_curvature(1.0)
    # 40 and 120 angles take FFT passes of radix 5, which round a constant ring's
    # higher modes unless they are split off
    for H, n_theta, boundary, u0 in ((H01, 64, 0.0, None), (H01, 64, 0.05, None),
                                     (unit, 40, 0.05, None), (unit, 120, 0.0, -0.2)):
        fld, rep = sv.solve_dirichlet(H, 3.0, n_s=32, n_theta=n_theta, boundary=boundary,
                                      u0=u0, precheck=False)
        assert rep.converged and rep.iterations > 0
        M = fld.matrix()
        assert (M.max(axis=1) == M.min(axis=1)).all()
    assert calls == []


def test_solve_rejects_non_spacelike_guess():
    g = PolarGrid(16, 32, 2.0)
    cone = ScalarField.from_function(g, lambda s, th: 1.5 * s + 0 * th)
    with pytest.raises(UsageError):
        sv.solve_dirichlet(sv.constant_curvature(1.0), 2.0, n_s=16, n_theta=32, u0=cone,
                           precheck=False)


def test_solve_boundary_callable():
    fld, rep = sv.solve_dirichlet(
        sv.constant_curvature(1.0), 2.0, n_s=24, n_theta=48,
        boundary=lambda th: 0.05 * np.cos(th), precheck=False,
    )
    assert rep.converged
    M = fld.matrix()
    assert np.abs(M[-1] - 0.05 * np.cos(fld.grid.theta_nodes)).max() < 1e-15
    assert np.abs(M).max() <= 0.05 + 1e-8


@pytest.mark.parametrize(
    "boundary",
    [lambda th: np.where(th > 1.0, np.nan, 0.0), np.inf, 710.0, [0.0] * 15 + [1e300]],
)
def test_boundary_data_must_be_finite_and_exp_safe(boundary):
    # the pole row takes exp(u); past log(float max) that overflows
    with pytest.raises(UsageError):
        sv.solve_dirichlet(sv.constant_curvature(1.0), 2.0, n_s=8, n_theta=16, boundary=boundary,
                           precheck=False)


def test_solve_warns_without_barrier_radii():
    with pytest.warns(UserWarning):
        sv.solve_dirichlet(sv.dilation_curvature(), 1.5, n_s=12, n_theta=24)


def test_spacelike_margin_persists(H01):
    fld, rep = sv.solve_dirichlet(sv.rational_curvature(0.25), 3.0, n_s=32, n_theta=64,
                                  precheck=False)
    assert rep.converged
    prob = sv.DiscreteProblem(fld.grid, H01, 0.0)
    assert prob.slope_sq(prob.restrict(fld.matrix())) <= (1 - 1e-3) ** 2 + 1e-12


# ---------------------------------------------------------------------------
# radial oracle and chart cross-checks


def test_oracle_flat_profiles():
    prof = sv.radial_ode_oracle(sv.constant_curvature(1.0), 3.0)
    assert np.abs(prof.u).max() < 1e-12
    prof = sv.radial_ode_oracle(sv.rational_curvature(0.0), 3.0)
    assert np.abs(prof.u).max() < 1e-10
    l0 = 1.25
    prof = sv.radial_ode_oracle(sv.constant_curvature(1 / l0), 2.0, boundary=np.log(l0))
    assert np.abs(prof.u - np.log(l0)).max() < 1e-12


def test_oracle_bracket_control():
    # an explicit bracket straddling the root is honored
    prof = sv.radial_ode_oracle(sv.rational_curvature(0.0), 2.0, bracket=(-1.0, 1.0))
    assert abs(prof.u0) < 1e-10
    # one that excludes the converged pole value is an error
    with pytest.raises(BracketError):
        sv.radial_ode_oracle(sv.constant_curvature(1.0), 2.0, bracket=(3.0, 3.5))


@pytest.mark.parametrize(
    "s_max, boundary, u0, rk4_estimate",
    [
        # pole values and error estimates of the earlier RK4 shooting oracle
        (3.0, 0.0, -0.057446520989872574, 3.8e-13),
        (6.0, 0.0, -0.05830070966232518, 1.1e-10),
        (3.5, 0.1, -0.052142577637773364, 1.0e-12),
    ],
)
def test_oracle_pole_values(H01, s_max, boundary, u0, rk4_estimate):
    prof = sv.radial_ode_oracle(H01, s_max, boundary=boundary)
    assert abs(prof.u0 - u0) < 10 * rk4_estimate
    assert prof.u0 == prof.u[0] and abs(prof.interp(0.0) - prof.u0) < 1e-16
    assert prof.u[-1] == boundary
    assert prof.step == s_max / 8192 and prof.s.shape == prof.u.shape == prof.du.shape == (8193,)


def test_oracle_error_estimate_stays_small_on_large_balls(H01):
    # RK4 shooting reported 4.3e-8 here
    assert sv.radial_ode_oracle(H01, 10.0).error_estimate < 1e-10


def test_oracle_error_estimate_bounds_the_exact_error():
    l0 = 1.25
    prof = sv.radial_ode_oracle(sv.constant_curvature(1 / l0), 2.0, boundary=np.log(l0))
    s = np.linspace(0.0, 2.0, 77)
    err = max(np.abs(prof.u - np.log(l0)).max(), np.abs(prof.interp(s) - np.log(l0)).max())
    assert err <= prof.error_estimate < 1e-12


def test_oracle_interp_matches_the_samples_and_derivative(H01, oracle3):
    assert np.abs(oracle3.interp(oracle3.s) - oracle3.u).max() < 1e-15
    assert np.isnan(oracle3.interp(np.nan))
    # centered differences of the samples against du, to O(step^2)
    fd = (oracle3.u[2:] - oracle3.u[:-2]) / (2 * oracle3.step)
    assert np.abs(fd - oracle3.du[1:-1]).max() < 1e-8


def test_oracle_requires_radial_data():
    H = sv.PrescribedCurvature("angular", lambda t, s, th=0.0: 1.0 + 0 * np.asarray(t),
                               radial=False)
    with pytest.raises(UsageError):
        sv.radial_ode_oracle(H, 2.0)
    for s_max in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(UsageError):
            sv.radial_ode_oracle(sv.rational_curvature(0.1), s_max)


def test_oracle_reports_a_spacelike_breach(monkeypatch, H01):
    # a margin of 1 leaves no slope inside the guard, so no Newton trial passes
    monkeypatch.setattr(sv, "_THETA_MIN", 1.0)
    with pytest.raises(NotSpacelikeError, match="spacelike-margin breach"):
        sv.radial_ode_oracle(H01, 3.0)


def test_ode_pde_gap_second_order(H01, oracle3, solves3):
    gaps = {}
    for n_s, fld in solves3.items():
        M = fld.matrix()
        gaps[n_s] = np.abs(M - oracle3.interp(fld.grid.s_nodes)[:, None]).max()
        spread = (M.max(axis=1) - M.min(axis=1)).max()
        assert spread < 1e-10  # rotationally symmetric data, symmetric solution
    assert gaps[48] < 1e-3
    assert 3.2 < gaps[24] / gaps[48] < 4.8
    assert oracle3.error_estimate < 1e-10


def test_poincare_exact_cases():
    g = PolarGrid(20, 40, 2.0)
    zero = ScalarField.zeros(g)
    assert sv.poincare_residual(zero, 1.0) < 1e-13
    sheet = ScalarField.from_function(g, lambda s, th: np.log(0.8) + 0 * s)
    assert sv.poincare_residual(sheet, sv.constant_curvature(1 / 0.8)) < 1e-12


def test_poincare_residual_refines(H01, solves3):
    res = {n: sv.poincare_residual(f, H01) for n, f in solves3.items()}
    order = np.log2(res[24] / res[48])
    assert order > 1.8


# ---------------------------------------------------------------------------
# exhaustion and uniqueness


def test_exhaustion_unit_curvature():
    ex = sv.exhaustion(sv.constant_curvature(1.0), [1, 2, 3], s0=1.0, ds=1 / 8, n_theta=24)
    assert ex.converged_all
    assert all(d == 0.0 for d in ex.compact_deltas)
    assert all(abs(t - 1.0) < 1e-12 for t in ex.tilt_series)
    assert len(ex.psi_max) == 3 and "psi_plus" in ex.psi_max[0]


def test_exhaustion_rational(exh5):
    ex = exh5
    assert ex.converged_all
    assert ex.failure_index is None
    assert all(b > a for a, b in zip(ex.radii, ex.radii[1:]))
    d = ex.compact_deltas
    assert len(d) == 4
    assert all(y < x for x, y in zip(d, d[1:]))
    t = ex.tilt_series
    assert max(t) <= t[0] + 0.5
    # the innermost dip sends the dilation-weighted tilt max to the pole
    assert ex.psi_max[-1]["psi_minus"]["s"] == 0.0
    assert ex.psi_max[-1]["psi_plus"]["s"] > ex.radii[-1] / 2
    rd = ex.as_dict()
    assert rd["converged_all"] and len(rd["compact_deltas"]) == 4


def test_radial_exhaustion_reports_psi_maxima_at_angle_zero():
    # radial solutions are exactly constant on every ring, so each ring's
    # maximum ties across angles and the first node, angle 0, reports it
    ex = sv.exhaustion(sv.rational_curvature(0.0931), range(1, 9))
    assert ex.converged_all and len(ex.psi_max) == 8
    for rec in ex.psi_max:
        assert rec["psi_plus"]["theta"] == rec["psi_minus"]["theta"] == 0.0
    for fld in ex.fields:
        M = fld.matrix()
        assert (M.max(axis=1) == M.min(axis=1)).all()


def test_exhaustion_usage_errors(H01):
    with pytest.raises(UsageError):
        sv.exhaustion(H01, [2, 2, 3])
    with pytest.raises(UsageError):
        sv.exhaustion(H01, [1, 2], s0=1.5)
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(UsageError):
            sv.exhaustion(H01, [1, 2], ds=bad)


def test_uniqueness_probe(H01):
    grid = PolarGrid(24, 48, 2.0)
    bump = sv.bump_field(grid, amp=0.2)
    rep = sv.uniqueness_probe(H01, 2.0, [0.0, 0.25, -0.25, bump], n_s=24, n_theta=48)
    assert all(rep.converged)
    assert rep.max_pairwise < 1e-9


def test_uniqueness_probe_needs_two(H01):
    with pytest.raises(UsageError):
        sv.uniqueness_probe(H01, 2.0, [0.0])


def test_dilation_solutions_shift_with_boundary():
    H = sv.dilation_curvature()
    f0, r0 = sv.solve_dirichlet(H, 2.0, n_s=20, n_theta=40, boundary=0.0, precheck=False)
    f1, r1 = sv.solve_dirichlet(H, 2.0, n_s=20, n_theta=40, boundary=0.2, precheck=False)
    assert r0.converged and r1.converged
    assert np.abs(f1.matrix() - f0.matrix() - 0.2).max() < 1e-12
