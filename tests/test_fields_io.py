import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmcsurf import fieldio
from pmcsurf.errors import OutOfDomainError, UsageError
from pmcsurf.fields import (
    BoxGrid,
    CartesianField,
    PolarGrid,
    ScalarField,
    polar_jets,
    pole_quadratic_fit,
)


def test_polar_grid_nodes():
    g = PolarGrid(8, 16, 2.0)
    assert g.ds == pytest.approx(0.25)
    assert len(g.s_nodes) == 9
    assert g.s_nodes[0] == 0.0
    assert g.s_nodes[-1] == pytest.approx(2.0)
    assert len(g.theta_nodes) == 16


def test_polar_grid_validation():
    with pytest.raises(UsageError):
        PolarGrid(1, 16, 2.0)
    with pytest.raises(UsageError):
        PolarGrid(8, 15, 2.0)
    with pytest.raises(UsageError):
        PolarGrid(8, 16, -1.0)
    for s_max in (np.inf, np.nan, 711.0):
        with pytest.raises(UsageError):
            PolarGrid(8, 16, s_max)


def test_scalar_field_round_trips():
    g = PolarGrid(6, 12, 1.5)
    f = ScalarField.from_function(g, lambda s, th: 0.1 * s**2 * np.cos(th) + 0.3)
    assert f.pole == pytest.approx(0.3)
    mat = f.matrix()
    assert np.all(mat[0] == f.pole)
    f2 = ScalarField.from_flat(g, f.flat())
    assert f2.pole == f.pole
    assert np.array_equal(f2.rings, f.rings)
    f3 = ScalarField.from_matrix(g, mat)
    assert np.array_equal(f3.rings, f.rings)


def test_scalar_field_evaluator_accuracy_and_periodicity():
    g = PolarGrid(96, 128, 2.0)
    # theta dependence must vanish at the pole for the sample to be single valued
    fn = lambda s, th: np.exp(-(s**2)) * (1 + 0.4 * np.sinh(s) ** 2 * np.cos(2 * th))
    f = ScalarField.from_function(g, fn)
    ev = f.evaluator()
    rng = np.random.default_rng(2)
    s = rng.uniform(0.05, 1.95, 200)
    th = rng.uniform(0, 2 * np.pi, 200)
    assert np.max(np.abs(ev(s, th) - fn(s, th))) < 5e-6
    assert np.max(np.abs(ev(s, th + 2 * np.pi) - ev(s, th))) < 1e-13
    with pytest.raises(OutOfDomainError):
        ev(2.5, 0.0)


def test_pole_quadratic_fit_exact_on_quadratics():
    g = PolarGrid(20, 16, 2.0)

    def fn(s, th):
        x1 = s * np.cos(th)
        x2 = s * np.sin(th)
        return 0.3 + 0.2 * x1 - 0.1 * x2 + 0.05 * x1**2 + 0.08 * x1 * x2 - 0.02 * x2**2

    f = ScalarField.from_function(g, fn)
    grad, hess = pole_quadratic_fit(f)
    assert np.allclose(grad, [0.2, -0.1], atol=1e-10)
    assert np.allclose(hess, [[0.1, 0.08], [0.08, -0.04]], atol=1e-10)


def test_polar_jets_exact_on_the_boundary_ring():
    # the smallest grid the stencils accept: the one-sided u_ss on the
    # boundary ring reads rings 0 .. 3
    g = PolarGrid(3, 8, 1.0)
    jets = polar_jets(g, ScalarField.from_function(g, lambda s, th: 0.1 * s**2 + 0.0 * th).matrix())
    assert np.allclose(jets["u_s"][1:], 0.2 * g.s_nodes[1:, None], rtol=0, atol=1e-14)
    assert np.allclose(jets["u_ss"][1:], 0.2, rtol=0, atol=1e-13)
    assert np.all(np.isnan(jets["u_ss"][0]))


def test_radial_field_file_round_trip(tmp_path):
    g = PolarGrid(10, 16, 3.0)
    rng = np.random.default_rng(4)
    f = ScalarField(g, 0.125, rng.standard_normal((10, 16)))
    p_text = tmp_path / "field.txt"
    fieldio.write_radial_field(f, p_text)
    f2 = fieldio.read_radial_field(p_text)
    assert f2.grid == g
    assert f2.pole == f.pole
    assert np.array_equal(f2.rings, f.rings)


def test_radial_field_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        fieldio.read_radial_field(tmp_path / "nope.txt")
    p = tmp_path / "bad.txt"
    p.write_text("m 2\nn_s 4\n")
    with pytest.raises(UsageError):
        fieldio.read_radial_field(p)


def test_malformed_field_files_raise_usage_errors(tmp_path):
    bad = {
        fieldio.read_radial_field: ["m 2\nn_s x\nn_th 4\ns_max 1\n",
                                    "m 2\nn_s 1\nn_th 4\ns_max 1\n0\nabc\n0\n0\n0\n"],
        fieldio.read_cartesian_field: ["m 2\nR 1\nn 3\nR 1\nn 3\n1\n2\nabc\n4\n5\n6\n7\n8\n9\n",
                                       "m two\nR 1\nn 3\nR 1\nn 3\n"],
    }
    p = tmp_path / "bad.txt"
    for reader, texts in bad.items():
        for text in texts:
            p.write_text(text)
            with pytest.raises(UsageError, match="malformed"):
                reader(p)


_KEYS = ("m", "n_s", "n_th", "s_max", "R", "n")
_NUMBER = st.one_of(
    st.integers(-2, 63).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0.0"]),
)
_JUNK = st.sampled_from(["abc", "1 2", "1,2", "--1", "0x1f", "#", "# 1", "\t", "e", "\u00e9"])
_LINE = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _NUMBER).map(" ".join),
    _NUMBER,
    _JUNK,
    st.sampled_from(["", "   ", "# comment"]),
)


@st.composite
def _field_file(draw):
    """A well-formed radial or box file, or one with stray lines spliced
    in, or a free mix of header keys, numbers, junk and comment lines."""
    kind = draw(st.sampled_from(["radial", "box", "mix"]))
    if kind == "radial":
        n_s, n_th = draw(st.integers(2, 4)), draw(st.sampled_from([8, 10]))
        lines = ["m 2", "n_s %d" % n_s, "n_th %d" % n_th, "s_max 1.5"]
        lines += ["%r" % v for v in draw(st.lists(st.floats(-1, 1), min_size=n_s * n_th + 1,
                                                  max_size=n_s * n_th + 1))]
    elif kind == "box":
        m, n = draw(st.integers(1, 2)), draw(st.integers(4, 6))
        lines = ["m %d" % m] + ["R 1.5", "n %d" % n] * m
        lines += ["%r" % v for v in draw(st.lists(st.floats(-1, 1), min_size=n**m, max_size=n**m))]
    else:
        return "\n".join(draw(st.lists(_LINE, max_size=50)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_LINE))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_field_file())
@example(text="m 2\nn_s 4\nn_th 8\ns_max 1\n# no values\n")
@example(text="m 1\nR 1\nn 4\n")
def test_field_readers_return_a_field_or_raise_usage_errors(tmp_path, text):
    p = tmp_path / "fuzz.txt"
    p.write_text(text, encoding="utf-8")
    for reader in (fieldio.read_radial_field, fieldio.read_cartesian_field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy's empty-input warning
            try:
                reader(p)
            except UsageError:
                pass


def test_box_grid_and_cartesian_round_trip(tmp_path):
    g = BoxGrid.cube(2, 1.5, 11)
    assert g.spacing == (0.3, 0.3)
    f = CartesianField.from_function(g, lambda p: np.sqrt(1 + np.sum(p * p, axis=-1)))
    assert 0 < f.margin < 1
    path = tmp_path / "c.txt"
    fieldio.write_cartesian_field(f, path)
    f2 = fieldio.read_cartesian_field(path)
    assert f2.grid == g
    assert np.array_equal(f2.values, f.values)
    assert f2.margin == pytest.approx(f.margin)


def test_cartesian_from_function_3d_slabs():
    g = BoxGrid.cube(3, 1.0, 5)
    f = CartesianField.from_function(g, lambda p: p[..., 0] + 2 * p[..., 1] * p[..., 2])
    X, Y, Z = np.meshgrid(*g.axes, indexing="ij")
    assert np.allclose(f.values, X + 2 * Y * Z)


def test_cartesian_gradient_order():
    g = BoxGrid.cube(2, 1.0, 41)
    f = CartesianField.from_function(g, lambda p: p[..., 0] ** 3 + p[..., 1] ** 2)
    gx, gy = f.gradient()
    X, Y = np.meshgrid(*g.axes, indexing="ij")
    # cubic in x: second-order stencils are exact on the quadratic derivative
    assert np.max(np.abs(gy - 2 * Y)) < 1e-12
    # centered truncation for x^3 is exactly h^2 * f'''/6 = h^2
    interior = np.max(np.abs((gx - 3 * X**2)[1:-1, :]))
    assert interior < 1.1 * g.spacing[0] ** 2


def test_series_csv_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    fieldio.write_series_csv(
        path, {"radius": [1.0, 2.0], "norm": [0.5, 0.75], "measure": [0.1, 0.2]}
    )
    cols = fieldio.read_series_csv(path)
    assert list(cols) == ["radius", "norm", "measure"]
    assert np.allclose(cols["norm"], [0.5, 0.75])
