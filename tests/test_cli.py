import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmcsurf import fieldio, solver
from pmcsurf.cartesian import affine, hyperboloid, surface_field
from pmcsurf.cli import main
from pmcsurf.fields import BoxGrid

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_writes_field_and_report(tmp_path):
    d = str(tmp_path)
    rc = main(["solve", "--H", "const:1", "--smax", "3", "--grid", "32x64", "--outdir", d])
    assert rc == 0
    rep = _read_json(tmp_path / "solve_report.json")
    assert rep["converged"] is True
    assert rep["iterations"] == 0
    assert rep["roundtrip_max_gap"] == 0.0
    fld = fieldio.read_radial_field(str(tmp_path / "solution.field"))
    assert fld.grid.n_s == 32 and fld.grid.n_theta == 64
    assert np.abs(fld.matrix()).max() == 0.0


def test_solve_usage_errors(tmp_path):
    assert main(["solve", "--H", "const:1", "--smax", "3", "--grid", "0x0"]) == 64
    assert main(["solve", "--H", "const:1"]) == 64  # no smax anywhere
    assert main(["solve", "--H", "gauss:1", "--smax", "2"]) == 64
    assert main(["solve", "--H", "const:1", "--smax", "2", "--nope"]) == 64
    assert main([]) == 64
    assert main(["frobnicate"]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["exhaustion", "--H", "rational:0.1", "--radii", "1,inf"],
        ["willmore", "--surface", "hyperboloid:l=1", "--spacing", "nan"],
        ["willmore", "--surface", "hyperboloid:l=1", "--R", "nan"],
        ["willmore", "--surface", "hyperboloid:l=1", "--R", "-5"],
        ["check-h", "--H", "const:1", "--nt", "1"],
        ["growth", "--surface", "hyperboloid:l=1", "--p", "nan"],
        ["willmore", "--surface", "hyperboloid:l=nan"],
        ["exhaustion", "--H", "rational:0.1", "--radii", "1:3", "--ds", "nan"],
        ["check-h", "--H", "const:1", "--s-span", "nan"],
        ["solve", "--H", "const:1", "--smax", "inf", "--grid", "8x16"],
        ["exhaustion", "--H", "rational:0.1", "--radii", "1:3", "--lam", "nan"],
        ["identities", "--step", "nan"],
        ["growth", "--surface", "hyperboloid:l=1", "--radii=-1,2"],
        ["check-h", "--H", "rational:nan"],
        ["check-h", "--H", "const:inf"],
        ["check-h", "--H", "table:NAN_TABLE"],
        ["solve", "--H", "rational:0.1", "--smax", "3", "--grid", "16x32", "--tol", "0"],
        ["solve", "--H", "rational:0.1", "--smax", "3", "--grid", "16x32", "--tol", "-1"],
        ["solve", "--H", "rational:0.1", "--smax", "3", "--grid", "16x32", "--max-iters", "0"],
        ["solve", "--H", "rational:0.1", "--smax", "3", "--grid", "16x32", "--max-iters", "-3"],
        ["identities", "--step", "0"],
        ["identities", "--step", "-1"],
        ["identities", "--tau-step", "0"],
        ["check-h", "--H", "const:1", "--lL", "0.8,abc"],
        ["willmore", "--surface", "saddle", "--R", "1e300"],
        ["willmore", "--surface", "hyperboloid:m=3", "--R", "1e120"],
        ["solve", "--H", "rational:0.1", "--smax", "800", "--grid", "16x32"],
        ["solve", "--H", "rational:0.1", "--smax", "1e300", "--grid", "16x32"],
        ["exhaustion", "--H", "rational:0.1", "--radii", "1,1e300"],
        ["identities", "--grid", "4x8"],
        ["identities", "--grid", "8x16"],
        ["identities", "--step", "5e-4"],
        ["identities", "--step", "9e-4"],
        ["identities", "--step", "0.11"],
        ["identities", "--step", "0.2"],
        ["identities", "--step", "0.3"],
        ["identities", "--tau-step", "1e-6"],
        ["identities", "--tau-step", "1e-4"],
        ["identities", "--tau-step", "9e-4"],
        ["identities", "--tau-step", "0.51"],
        ["identities", "--tau-step", "0.75"],
        ["solve", "--H", "rational:0.1", "--smax", "3", "--grid", "8x16", "--boundary", "710"],
        ["solve", "--H", "rational:0.1", "--smax", "3", "--grid", "8x16", "--boundary", "1e300"],
        # sizes over the caps, each rejected before anything of that size is allocated
        ["solve", "--H", "const:1", "--smax", "2", "--grid", "100000x100000"],
        ["solve", "--H", "const:1", "--smax", "2", "--grid", "1024x1024"],
        ["exhaustion", "--H", "rational:0.1", "--radii", "1:2", "--ds", "1e-7"],
        ["exhaustion", "--H", "rational:0.1", "--radii", "1:2", "--ntheta", "100000000"],
        ["identities", "--grid", "300x600"],  # under the cap, but its doubled grid is not
        ["check-h", "--H", "const:1", "--nt", "100000", "--ns", "100000"],
        ["growth", "--surface", "hyperboloid:l=1", "--radii", "0:1000000:0.000001"],
        ["growth", "--surface", "hyperboloid:l=1", "--radii", "1:2:1e-320"],
    ],
)
def test_non_finite_or_degenerate_values_exit_64(tmp_path, argv):
    table = tmp_path / "nan.csv"
    table.write_text("x,0,1,2,3\n-1,1,1,1,1\n0,1,nan,1,1\n1,1,1,1,1\n2,1,1,1,1\n")
    argv = [a.replace("NAN_TABLE", str(table)) for a in argv]
    assert main(argv + ["--outdir", str(tmp_path)]) == 64


@pytest.mark.parametrize("argv", [["--step", "1e-3"], ["--step", "0.1"],
                                  ["--tau-step", "1e-3"], ["--tau-step", "0.5"]])
def test_identities_step_window_edges_pass(tmp_path, argv):
    assert main(["identities", "--grid", "16x32", "--outdir", str(tmp_path)] + argv) == 0


@pytest.mark.parametrize("hspec", ["const:1", "dilation", "rational:0"])
def test_identities_exact_chart_data_report_an_exact_order(tmp_path, capsys, hspec):
    assert main(["identities", "--H", hspec, "--outdir", str(tmp_path)]) == 0
    rep = _read_json(tmp_path / "identities_report.json")
    poincare = [e for e in rep["entries"] if e["suite"] == "poincare"]
    assert poincare == [{"suite": "poincare", "case": hspec, "coarse": 0.0, "fine": 0.0,
                         "order": None}]
    assert rep["passes"] is True
    line = "poincare     %-12s 0.000e+00 -> 0.000e+00 order exact" % hspec
    assert line in capsys.readouterr().out


def test_float_overflow_exits_2(tmp_path, capsys):
    # a chart radius sinh(1000) and psi = w exp(1e300 u) are beyond a float
    d = str(tmp_path)
    assert main(["growth", "--surface", "hyperboloid:l=1", "--radii", "1,1000", "--outdir", d]) == 2
    assert "overflows" in capsys.readouterr().err
    assert main(["exhaustion", "--H", "rational:0.1", "--radii", "1:3", "--lam", "1e300",
                 "--outdir", d]) == 2
    assert "overflows" in capsys.readouterr().err


def test_malformed_field_files_exit_64(tmp_path):
    box = tmp_path / "bad.box"
    box.write_text("m 2\nR 1\nn 3\nR 1\nn 3\n1\n2\nabc\n4\n5\n6\n7\n8\n9\n")
    assert main(["willmore", "--surface", "field:%s" % box, "--outdir", str(tmp_path)]) == 64


@pytest.mark.filterwarnings("error")
def test_solve_at_the_largest_radius_is_warning_free(tmp_path):
    # sinh(s) near float max over ds < 1 overflowed the Jacobian's face coefficients
    argv = ["solve", "--H", "rational:0.1", "--smax", "710.47", "--grid", "2000x8"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "solve_report.json")["iterations"] == 3


def test_missing_inputs_exit_66(tmp_path):
    assert main(["solve", "--H", "table:%s/nope.csv" % tmp_path, "--smax", "2"]) == 66
    assert main(["solve", "--config", str(tmp_path / "nope.conf")]) == 66
    assert main(["willmore", "--surface", "field:%s/nope.box" % tmp_path]) == 66


def test_output_paths_are_created_or_refused_with_64(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["check-h", "--H", "const:1", "--outdir", str(afile)]) == 64
    assert str(afile) in capsys.readouterr().err
    # the directory part of an output name is created as --outdir is
    d = str(tmp_path)
    assert main(["check-h", "--H", "const:1", "--report-file", "nodir/x.json", "--outdir", d]) == 0
    assert _read_json(tmp_path / "nodir" / "x.json")["passes"]["H1"]
    assert main(["check-h", "--H", "const:1", "--report-file", "afile/x.json", "--outdir", d]) == 64
    assert main(["check-h", "--H", "const:1", "--report-file", "nodir", "--outdir", d]) == 64


def test_threads_is_a_willmore_flag_only(tmp_path):
    d = str(tmp_path)
    assert main(["solve", "--H", "const:1", "--smax", "2", "--grid", "8x16", "--threads", "2",
                 "--outdir", d]) == 64
    conf = tmp_path / "run.conf"
    conf.write_text("[check-h]\nH = const:1\nthreads = 2\n")
    assert main(["check-h", "--config", str(conf), "--outdir", d]) == 64


def test_solve_nonconvergence_exit_2(tmp_path):
    d = str(tmp_path)
    rc = main(["solve", "--H", "rational:0.25", "--smax", "2", "--grid", "16x32",
               "--tol", "1e-16", "--max-iters", "3", "--outdir", d])
    assert rc == 2
    rep = _read_json(tmp_path / "solve_report.json")
    assert rep["converged"] is False
    assert rep["message"] == "max iterations reached"


def test_config_file_flags_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "[solve]\n"
        "H = rational:0.1  # builtin family\n"
        "smax = 2\n"
        "grid = 32x64\n"
    )
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(["solve", "--config", str(conf), "--outdir", str(d1)]) == 0
    assert fieldio.read_radial_field(str(d1 / "solution.field")).grid.n_s == 32
    assert main(["solve", "--config", str(conf), "--grid", "16x32", "--outdir", str(d2)]) == 0
    assert fieldio.read_radial_field(str(d2 / "solution.field")).grid.n_s == 16

    conf.write_text("[solve]\nH = const:1\nsmax = 2\nwibble = 3\n")
    assert main(["solve", "--config", str(conf)]) == 64


@pytest.mark.parametrize("line", ["bound = 1", "sm = 2.5", "threads = abc", "help = 1",
                                  "grid = 8x16x4", "boundary = nan"])
def test_config_keys_are_exact_flag_names_with_valid_values(tmp_path, line):
    # every key is parsed as its flag, whether or not the command uses it
    conf = tmp_path / "run.conf"
    conf.write_text("[solve]\nH = const:1\nsmax = 2\ngrid = 8x16\n%s\n" % line)
    assert main(["solve", "--config", str(conf), "--outdir", str(tmp_path)]) == 64


def test_config_supplies_required_and_negative_values(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("[solve]\nH = const:1\nsmax = 2\ngrid = 8x16\nboundary = -0.1\n"
                    "report-file = r.json\n[willmore]\nsurface = saddle\n")
    assert main(["solve", "--config", str(conf), "--outdir", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "r.json")["boundary"] == -0.1
    assert main(["solve", "--config", str(conf), "--boundary", "0.1", "--outdir",
                 str(tmp_path)]) == 0
    assert _read_json(tmp_path / "r.json")["boundary"] == 0.1
    assert main(["willmore", "--config", str(conf), "--R", "2", "--outdir", str(tmp_path)]) == 0


def test_non_finite_config_value_exit_64(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("[exhaustion]\nH = rational:0.1\nradii = 1:3\nlam = nan\n")
    assert main(["exhaustion", "--config", str(conf), "--outdir", str(tmp_path)]) == 64


def test_reports_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    args = ["solve", "--H", "rational:0.1", "--smax", "2", "--grid", "16x32"]
    assert main(args + ["--outdir", str(d1)]) == 0
    assert main(args + ["--outdir", str(d2)]) == 0
    assert (d1 / "solve_report.json").read_bytes() == (d2 / "solve_report.json").read_bytes()
    assert (d1 / "solution.field").read_bytes() == (d2 / "solution.field").read_bytes()


def test_willmore_report_does_not_depend_on_threads(tmp_path):
    args = ["willmore", "--surface", "bumped:eps=0.05,m=3", "--R", "8"]
    runs = [("t1", "1"), ("t2", "2"), ("t2b", "2")]
    for name, threads in runs:
        assert main(args + ["--threads", threads, "--outdir", str(tmp_path / name)]) == 0
    first = (tmp_path / "t1" / "willmore_report.json").read_bytes()
    for name, _ in runs[1:]:
        assert (tmp_path / name / "willmore_report.json").read_bytes() == first


def test_exhaustion_outputs(tmp_path):
    d = str(tmp_path)
    rc = main(["exhaustion", "--H", "rational:0.1", "--radii", "1:3",
               "--ds", "0.0625", "--ntheta", "48", "--outdir", d])
    assert rc == 0
    rep = _read_json(tmp_path / "exhaustion_report.json")
    assert rep["failure_index"] is None
    assert len(rep["radii"]) == 3
    assert len(rep["compact_deltas"]) == 2
    assert rep["compact_deltas"][1] < rep["compact_deltas"][0]
    assert rep["field_files"] == ["ball_01.field", "ball_02.field", "ball_03.field"]
    for name, r in zip(rep["field_files"], rep["radii"]):
        fld = fieldio.read_radial_field(str(tmp_path / name))
        assert fld.grid.s_max == pytest.approx(r)


def test_exhaustion_partial_report_on_failure(tmp_path, monkeypatch, capsys):
    # one Newton step is too few for the first ball
    solve = solver.solve_dirichlet
    monkeypatch.setattr(solver, "solve_dirichlet", lambda *a, **kw: solve(*a, **{**kw, "max_iters": 1}))
    d = str(tmp_path)
    rc = main(["exhaustion", "--H", "rational:0.1", "--radii", "1:3",
               "--ds", "0.125", "--ntheta", "24", "--outdir", d])
    assert rc == 2
    rep = _read_json(tmp_path / "exhaustion_report.json")
    assert rep["failure_index"] == 0
    assert rep["field_files"] == []
    assert rep["reports"][0]["converged"] is False
    assert rep["reports"][0]["message"] == "max iterations reached"
    assert capsys.readouterr().out.rstrip().endswith("(max iterations reached)")


def test_willmore_hyperboloid(tmp_path):
    d = str(tmp_path)
    rc = main(["willmore", "--surface", "hyperboloid:l=1", "--m", "2", "--R", "50",
               "--outdir", d])
    assert rc == 0
    rep = _read_json(tmp_path / "willmore_report.json")
    assert rep["passes"] is True
    assert abs(rep["integral"] - np.pi) / np.pi <= 1e-3
    assert rep["m"] == 2


def test_willmore_field_route(tmp_path):
    grid = BoxGrid.cube(2, 22.0, 353)
    fld = surface_field(hyperboloid(1.0), grid)
    box = tmp_path / "hyp.box"
    fieldio.write_cartesian_field(fld, str(box))
    rc = main(["willmore", "--surface", "field:%s" % box, "--R", "20",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert main(["willmore", "--surface", "field:%s" % box, "--m", "3"]) == 64


def test_growth_csv_roundtrip(tmp_path):
    d = str(tmp_path)
    rc = main(["growth", "--surface", "hyperboloid:l=1", "--p", "2", "--radii", "1:4",
               "--outdir", d])
    assert rc == 0
    cols = fieldio.read_series_csv(str(tmp_path / "growth.csv"))
    assert list(cols) == ["rho", "lp_norm", "lm_norm", "gauss_image", "volume"]
    assert cols["rho"].size == 4
    assert np.all(np.diff(cols["lp_norm"]) > 0)
    assert cols["lp_norm"][0] ** 2 == pytest.approx(2 * np.pi * (np.cosh(1.0) - 1.0), rel=1e-3)


def test_growth_flat_graph_flags_plateau(tmp_path):
    grid = BoxGrid.cube(2, 8.0, 81)
    fld = surface_field(affine(1.0, np.zeros(2)), grid)
    box = tmp_path / "flat.box"
    fieldio.write_cartesian_field(fld, str(box))
    rc = main(["growth", "--surface", "field:%s" % box, "--radii", "1,2,3",
               "--outdir", str(tmp_path)])
    assert rc == 3


def test_check_h_exit_codes(tmp_path):
    d = str(tmp_path)
    assert main(["check-h", "--H", "const:1", "--outdir", d]) == 0
    rep = _read_json(tmp_path / "hypotheses_report.json")
    assert rep["passes"]["H1"] and rep["passes"]["H3"]
    assert main(["check-h", "--H", "rational:0.1", "--lL", "0.8,1.25", "--outdir", d]) == 0
    assert main(["check-h", "--H", "dilation", "--outdir", d]) == 3
    assert main(["check-h", "--H", "const:1", "--lL", "nonsense", "--outdir", d]) == 64


def test_identities_report(tmp_path):
    d = str(tmp_path)
    rc = main(["identities", "--outdir", d])
    assert rc == 0
    rep = _read_json(tmp_path / "identities_report.json")
    assert rep["passes"] is True
    assert rep["min_order"] >= 1.9
    suites = {e["suite"] for e in rep["entries"]}
    assert suites == {"laplacian_w", "hessian_tau", "poincare"}
    # n_s = 10 is the coarsest grid in the asymptotic range
    assert main(["identities", "--grid", "10x16", "--outdir", d]) == 0


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PMC_THREADS", "2")
    d = str(tmp_path)
    rc = main(["willmore", "--surface", "hyperboloid:l=1", "--R", "10", "--outdir", d])
    assert rc == 0


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_interpolate_and_optimize_unloaded(tmp_path):
    # the import loads no scipy module at all; a radial solve takes the FFT
    # path and a Fourier library solve the GMRES path, so neither loads
    # scipy.sparse, where the SuperLU fallback lives
    code = (
        "import sys, numpy as np, pmcsurf.cli\n"
        "from pmcsurf import solver as sv\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        "rc = pmcsurf.cli.main(['solve', '--H', 'rational:0.1', '--smax', '3',"
        " '--grid', '16x32', '--outdir', sys.argv[1]])\n"
        "fld, rep = sv.solve_dirichlet(sv.rational_curvature(0.1), 3.0, n_s=16, n_theta=32,"
        " boundary=lambda th: 0.3 * np.cos(3 * th) + 0.1 * np.sin(th))\n"
        "print(rc, rep.converged and rep.iterations > 0,"
        " sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 True []"


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pmcsurf.cli", "check-h", "--H", "const:1",
         "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0
    assert "check-h: const:1 passes" in proc.stdout


# ---------------------------------------------------------------------------
# property test over argv

_BAD = ["abc", "nan", "inf"]  # junk and non-finite values: always exit 64
_HOSTILE = _BAD + ["-1", "0", "1e300"]
_H = ["const:1", "rational:0.1", "rational:0", "dilation", "gauss:1", "rational:nan"]
_SURFACES = ["hyperboloid", "hyperboloid:l=2,m=3", "bumped:eps=0.05", "saddle", "saddle:m=3",
             "hyperboloid:l=nan", "plane", "field:missing.box"]
_GRIDS = ["%dx%d" % (a, b) for a in (0, 3, 8, 9, 16) for b in (0, 3, 8, 9, 16)]
_RADII = ["1:2", "1,1.5,2", "0.5:1.5:0.5", "2:1", "1:2:0"]

# per subcommand: the values drawn for its flags (flags other than H and
# surface draw from _HOSTILE as often), and flags that keep every run small
# and supply the required ones (drawn flags come later in argv and win)
_FLAGS = {
    "solve": {"H": _H, "smax": ["1", "2"], "grid": _GRIDS, "boundary": ["0.1", "709", "710"],
              "tol": ["1e-8"], "max-iters": ["2"]},
    "exhaustion": {"H": _H, "radii": _RADII, "ds": ["0.05", "0.25"], "ntheta": ["8", "9"],
                   "s0": ["0.5"], "lam": ["1"], "tol": ["1e-8"]},
    "willmore": {"surface": _SURFACES, "m": ["2", "3"], "R": ["3"], "threads": ["2"]},
    "growth": {"surface": _SURFACES, "m": ["2", "3"], "p": ["1", "2.5"], "radii": _RADII},
    "check-h": {"H": _H, "lL": ["0.8,1.25", "1.25,0.8", "nonsense"], "nt": ["2", "64"],
                "ns": ["3", "64"], "s-span": ["1", "8"]},
    "identities": {"H": _H, "step": ["0.05"], "tau-step": ["0.02"], "grid": _GRIDS,
                   "smax": ["2"]},
}
_SMALL = {
    "solve": ["--H", "const:1", "--smax", "2", "--grid", "8x16"],
    "exhaustion": ["--H", "rational:0.1", "--radii", "1:2", "--ds", "0.25", "--ntheta", "8"],
    "willmore": ["--surface", "hyperboloid", "--R", "3"],
    "growth": ["--surface", "hyperboloid", "--radii", "1:2"],
    "check-h": ["--H", "const:1", "--nt", "8", "--ns", "8"],
    "identities": ["--grid", "10x16"],
}


@st.composite
def _run(draw):
    """A subcommand, some of its flags, and a config section with some keys."""
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[cmd]

    def value(key):
        if key in ("H", "surface"):
            return draw(st.sampled_from(flags[key]))
        return draw(st.sampled_from(flags[key]) | st.sampled_from(_HOSTILE))

    def pick(n):
        return {k: value(k) for k in draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                                                   max_size=n))}

    return cmd, pick(3), pick(2)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_run())
@example(run=("identities", {"H": "const:1"}, {}))
@example(run=("identities", {"H": "dilation"}, {}))
@example(run=("identities", {"H": "rational:0"}, {}))
@example(run=("identities", {"step": "0.2"}, {}))
@example(run=("identities", {"step": "0.3"}, {}))
@example(run=("identities", {"step": "5e-4"}, {}))
@example(run=("identities", {"tau-step": "1e-4"}, {}))
@example(run=("identities", {"tau-step": "1e-6"}, {}))
@example(run=("solve", {"H": "rational:0.1", "smax": "3", "boundary": "710"}, {}))
@example(run=("solve", {"H": "rational:0.1", "smax": "3", "boundary": "1e300"}, {}))
@example(run=("solve", {"H": "const:1", "smax": "2"}, {"bound": "1"}))
@example(run=("solve", {"H": "const:1", "smax": "2"}, {"threads": "abc"}))
def test_any_argv_keeps_the_exit_code_contract(tmp_path, run):
    cmd, flags, keys = run
    argv = [cmd] + _SMALL[cmd]
    for k, v in flags.items():
        argv += ["--" + k, v]
    if keys:
        conf = tmp_path / "run.conf"
        conf.write_text("[%s]\n" % cmd + "".join("%s = %s\n" % kv for kv in keys.items()))
        argv += ["--config", str(conf)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv + ["--outdir", str(tmp_path / "out")])
    assert rc in (0, 2, 3, 64, 66)
    if any(v in _BAD for v in list(flags.values()) + list(keys.values())):
        assert rc == 64
    if keys.keys() - _FLAGS[cmd].keys():
        assert rc == 64
