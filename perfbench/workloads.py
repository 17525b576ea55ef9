"""Seeded inputs, operations and accuracy checks for the three workloads.

A workload is built once per run from the seed (that is the set-up the
benchmark times) and then replayed pass after pass. Each operation calls
the program from outside the package, either `pmcsurf.cli.main` with a
generated argv or a public library function with generated arguments,
then checks the result against a closed form or an independent route.
The program receives only generated inputs: argv strings, field files
written by this module, boundary callables and initial guesses.
"""

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from pmcsurf import cli, solver

WORKLOADS = ("radial", "nonradial", "verifiers")

# accuracy figures: name -> unit; each workload fills the ones it measures
FIGURES = {
    "oracle_gap": "abs",
    "chart_residual": "abs",
    "willmore_rel_err": "ratio",
    "growth_rel_err": "ratio",
}


class CheckFailed(Exception):
    """An operation ran but its output missed the expected exit code or accuracy."""


class Pass:
    """What one pass over a workload's operations produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.figures = {}

    def figure(self, name, value):
        self.figures[name] = max(self.figures.get(name, 0.0), float(value))


class Workload:
    """Named operations over inputs generated from one seed.

    ops is a list of (name, fn); fn(res, span, outdir) runs one
    operation, writes into outdir, adds its accuracy figures to res and
    raises CheckFailed when its output is wrong. span is a
    context-manager factory taking a span name; it does nothing on
    untraced passes. Each pass gets a fresh outdir: rewriting files of
    the previous pass makes the filesystem flush them first, which would
    be timed as the program's.
    """

    def __init__(self, ops):
        self.ops = ops

    def run_pass(self, span, outdir):
        res = Pass()
        for op_name, fn in self.ops:
            res.attempted += 1
            try:
                with span("op." + op_name):
                    fn(res, span, outdir)
            except CheckFailed as exc:
                res.failed += 1
                res.errors.append("%s: %s" % (op_name, exc))
            except Exception as exc:  # an op that crashes still counts, the run goes on
                res.failed += 1
                res.errors.append("%s: %s: %s" % (op_name, type(exc).__name__, exc))
        return res


def run_cli(span, argv, expected=0):
    """Run one CLI command with stdout captured; check its exit code."""
    with span("cli." + argv[0]), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != expected:
        raise CheckFailed("%s exited %d, expected %d" % (argv[0], rc, expected))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {k: np.array([float(r[i]) for r in rows[1:]]) for i, k in enumerate(rows[0])}


def _read_radial_field(path):
    """Node matrix of a radial field file, parsed without the program's reader."""
    with open(path) as fh:
        lines = fh.read().split()
    header = dict(zip(lines[0:8:2], lines[1:8:2]))
    n_s, n_th = int(header["n_s"]), int(header["n_th"])
    vals = np.array(lines[8:], dtype=float)
    if vals.shape != (n_s * n_th + 1,):
        raise CheckFailed("field file holds %d values, expected %d" % (vals.size, n_s * n_th + 1))
    M = np.empty((n_s + 1, n_th))
    M[0] = vals[0]
    M[1:] = vals[1:].reshape(n_s, n_th)
    return M, float(header["s_max"])


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# radial: one fine CLI solve, the shooting oracle, one exhaustion sweep

RADIAL_SIZES = {"full": ("256x512", "1:8", None), "tiny": ("24x48", "1:3", 512)}


def make_radial(rng, size, indir):
    grid, radii, oracle_n = RADIAL_SIZES[size]
    # rounded so the CLI and the oracle see the same values
    eps, s_max, bval = (round(float(rng.uniform(lo, hi)), 6)
                        for lo, hi in ((0.05, 0.15), (2.5, 3.5), (-0.1, 0.1)))
    hspec = "rational:%r" % eps
    H = solver.parse_curvature(hspec)
    solve_argv = [
        "solve", "--H", hspec, "--smax", repr(s_max), "--grid", grid, "--boundary", repr(bval),
    ]
    oracle_step = None if oracle_n is None else s_max / oracle_n
    state = {}

    def solve(res, span, outdir):
        state.pop("M", None)
        run_cli(span, wl.solve_argv + ["--outdir", outdir])
        rep = _read_json(os.path.join(outdir, "solve_report.json"))
        _require(rep["converged"], "solve did not converge")
        _require(rep["roundtrip_max_gap"] == 0.0, "field round trip gap %g" % rep["roundtrip_max_gap"])
        state["M"], state["s_max"] = _read_radial_field(os.path.join(outdir, "solution.field"))

    def oracle(res, span, outdir):
        _require("M" in state, "no converged solve to compare")
        M = state["M"]
        prof = solver.radial_ode_oracle(H, state["s_max"], step=oracle_step, boundary=bval)
        s = np.linspace(0.0, state["s_max"], M.shape[0])
        gap = float(np.abs(M - prof.interp(s)[:, None]).max())
        res.figure("oracle_gap", gap)
        # second order scheme: the gap shrinks like ds^2; 0.05 ds^2 is
        # several times the largest gap seen over the parameter box
        tol = 0.05 * (s[1] - s[0]) ** 2
        _require(gap <= tol, "oracle gap %.3e above %.3e" % (gap, tol))

    def exhaustion(res, span, outdir):
        exh_dir = os.path.join(outdir, "exhaustion")
        run_cli(span, ["exhaustion", "--H", hspec, "--radii", radii, "--outdir", exh_dir])
        rep = _read_json(os.path.join(exh_dir, "exhaustion_report.json"))
        _require(rep["converged_all"], "exhaustion did not converge on every ball")
        d = np.asarray(rep["compact_deltas"])
        tail = d[2:] if d.size > 3 else d
        _require(bool(np.all(np.diff(tail) < 0)), "compact deltas do not decrease")
        files = [os.path.join(exh_dir, f) for f in rep["field_files"]]
        _require(all(os.path.exists(f) for f in files), "missing ball field files")

    wl = Workload([("solve", solve), ("oracle", oracle), ("exhaustion", exhaustion)])
    wl.solve_argv = solve_argv  # without --outdir; self-tests append flags to break it
    return wl


# ---------------------------------------------------------------------------
# nonradial: library solves with Fourier boundary data and a caller guess

NONRADIAL_SIZES = {"full": (128, 256, 3), "tiny": (16, 32, 1)}
NONRADIAL_SMAX = 3.0
NONRADIAL_H = "rational:0.1"
# total amplitude: at 0.3 every draw takes 4 Newton steps; below about 0.25
# some take 3, which would make the pass time depend on the seed
NONRADIAL_AMPLITUDE = 0.3


def _fourier_instance(rng):
    """Boundary data sum a_k cos(k theta + phase_k) and its disk harmonic extension."""
    n_modes = int(rng.integers(1, 4))
    ks = rng.choice(np.arange(2, 7), size=n_modes, replace=False).astype(float)
    amps = rng.dirichlet(np.ones(n_modes)) * NONRADIAL_AMPLITUDE
    phases = rng.uniform(0.0, 2.0 * math.pi, n_modes)
    t_max = math.tanh(NONRADIAL_SMAX / 2.0)

    def boundary(th):
        return sum(a * np.cos(k * th + p) for a, k, p in zip(amps, ks, phases))

    def guess(s, th):
        # mode k of a harmonic function on the conformal disk scales like |x|^k
        r = np.tanh(np.asarray(s) / 2.0) / t_max
        return sum(a * r**k * np.cos(k * th + p) for a, k, p in zip(amps, ks, phases))

    return boundary, guess


def make_nonradial(rng, size, indir):
    n_s, n_th, count = NONRADIAL_SIZES[size]
    H = solver.parse_curvature(NONRADIAL_H)
    ops = []
    for i in range(count):
        boundary, guess = _fourier_instance(rng)

        def solve(res, span, outdir, boundary=boundary, guess=guess):
            fld, rep = solver.solve_dirichlet(
                H, NONRADIAL_SMAX, n_s=n_s, n_theta=n_th, boundary=boundary, u0=guess
            )
            _require(rep.converged, "solve did not converge: %s" % rep.message)
            M = fld.matrix()
            edge = float(np.abs(M[-1] - boundary(fld.grid.theta_nodes)).max())
            _require(edge <= 1e-14, "boundary ring misses the data by %.3e" % edge)
            resid = solver.poincare_residual(fld, H)
            res.figure("chart_residual", resid)
            # the chart residual is second order too; 2 ds^2 is about 8x the
            # largest value seen at 128x256
            tol = 2.0 * fld.grid.ds**2
            _require(resid <= tol, "chart residual %.3e above %.3e" % (resid, tol))

        ops.append(("solve_%d" % i, solve))
    return Workload(ops)


# ---------------------------------------------------------------------------
# verifiers: willmore, growth, a sampled field, identities

VERIFIER_SIZES = {
    # hyperboloid m=3 R, bumped R, growth radii, field (half width, nodes, R, radii)
    "full": (50.0, 200.0, "1:8", (22.0, 421, 20.0, "1:3:0.5")),
    "tiny": (8.0, 20.0, "1:3", (6.0, 61, 4.0, "0.5:1.5:0.5")),
}


def write_box_field(path, half_width, n, values):
    """Cartesian field in the program's text format: m, per-axis R and n, values."""
    with open(path, "w") as fh:
        fh.write("m 2\n")
        for _ in range(2):
            fh.write("R %.17g\nn %d\n" % (half_width, n))
        fh.write("\n".join("%.17g" % v for v in values.ravel()))
        fh.write("\n")


def _unit_ball_volume(m):
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def make_verifiers(rng, size, indir, nproc):
    R3, Rb, g_radii, (half, n_box, R_box, box_radii) = VERIFIER_SIZES[size]
    threads = str(min(2, nproc))
    # hyperboloid sheet of a seeded scale, sampled onto a box
    ell = float(rng.uniform(0.8, 1.25))
    ax = np.linspace(-half, half, n_box)
    box = os.path.join(indir, "sheet.box")
    write_box_field(box, half, n_box, np.sqrt(ell * ell + ax[:, None] ** 2 + ax[None, :] ** 2))

    def willmore_rel(rep, m):
        """Error against the closed form, bounded by the report's own tolerance."""
        exact = _unit_ball_volume(m)
        err = abs(rep["integral"] - exact)
        budget = rep["quad_tolerance"] + rep["tail_estimate"]
        _require(err <= budget, "willmore error %.3e above quad+tail %.3e" % (err, budget))
        return err / exact

    def willmore_m3(res, span, outdir):
        run_cli(span, ["willmore", "--surface", "hyperboloid:l=1", "--m", "3", "--R", str(R3),
                       "--threads", threads, "--outdir", outdir, "--report-file", "m3.json"])
        res.figure("willmore_rel_err", willmore_rel(_read_json(os.path.join(outdir, "m3.json")), 3))

    def willmore_bumped(res, span, outdir):
        run_cli(span, ["willmore", "--surface", "bumped:eps=0.05,l=1", "--R", str(Rb),
                       "--threads", threads, "--outdir", outdir, "--report-file", "bumped.json"])
        rep = _read_json(os.path.join(outdir, "bumped.json"))
        slack = rep["integral"] + rep["quad_tolerance"] + rep["tail_estimate"] - math.pi
        _require(slack >= 0.0, "bumped sheet falls below the bound by %.3e" % -slack)

    def growth(res, span, outdir):
        run_cli(span, ["growth", "--surface", "hyperboloid:l=1", "--p", "2", "--radii", g_radii,
                       "--outdir", outdir, "--csv-file", "sheet.csv"])
        cols = _read_csv(os.path.join(outdir, "sheet.csv"))
        # unit sheet: H = 1, so the L^2 mass is the ball area 2 pi (cosh rho - 1)
        exact = np.sqrt(2.0 * math.pi * (np.cosh(cols["rho"]) - 1.0))
        err = float(np.abs(cols["lp_norm"] / exact - 1.0).max())
        res.figure("growth_rel_err", err)
        _require(err <= 1e-4, "growth relative error %.3e" % err)

    def field_growth(res, span, outdir):
        run_cli(span, ["growth", "--surface", "field:" + box, "--radii", box_radii,
                       "--outdir", outdir, "--csv-file", "field.csv"])
        cols = _read_csv(os.path.join(outdir, "field.csv"))
        _require(bool(np.all(np.diff(cols["lp_norm"]) > 0)), "sampled L^2 mass does not grow")
        # grid paths are never shorter than geodesics, so the sampled balls
        # sit inside the true ones: mass at most ell^-2 * 2 pi ell^2 (cosh - 1)
        exact = np.sqrt(2.0 * math.pi * (np.cosh(cols["rho"] / ell) - 1.0))
        over = float((cols["lp_norm"] / exact).max())
        _require(over <= 1.0 + 1e-3, "sampled mass exceeds the closed form by %.3e" % (over - 1))

    def field_willmore(res, span, outdir):
        run_cli(span, ["willmore", "--surface", "field:" + box, "--R", str(R_box),
                       "--outdir", outdir, "--report-file", "field.json"])
        willmore_rel(_read_json(os.path.join(outdir, "field.json")), 2)

    def identities(res, span, outdir):
        run_cli(span, ["identities", "--outdir", outdir])
        rep = _read_json(os.path.join(outdir, "identities_report.json"))
        _require(rep["passes"] and rep["min_order"] >= 1.9, "identity orders %.3f" % rep["min_order"])

    ops = [
        ("willmore_m3", willmore_m3),
        ("willmore_bumped", willmore_bumped),
        ("growth", growth),
        ("field_growth", field_growth),
        ("field_willmore", field_willmore),
        ("identities", identities),
    ]
    return Workload(ops)


def make(name, seed, size, indir, nproc):
    """Build a workload's inputs from the seed into indir.

    Each workload draws from its own stream of the seed.
    """
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    if name == "radial":
        return make_radial(rng, size, indir)
    if name == "nonradial":
        return make_nonradial(rng, size, indir)
    return make_verifiers(rng, size, indir, nproc)
