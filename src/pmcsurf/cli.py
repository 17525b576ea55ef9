"""Command line front end: solves, exhaustion runs, and verification reports.

Every parameter is declared once, as a flag of its subcommand in
`make_parser`, with its cast and its default. `--config FILE` reads a
sectioned `key = value` file; the subcommand's section enters argv as
`--key=value` tokens right after the subcommand, so one parse applies
"flags beat the file, the file beats the default". Flags are never
abbreviated, so a config key must name its flag exactly.

Exit codes follow one contract across subcommands: 0 success, 2 a
computation failed to converge or broke down, 3 a check failed, 64
malformed flags, config or output paths, 66 a missing input file. Exit 3
from `willmore` or `identities` flags a kernel bug, as their bounds hold
for every valid input; from `check-h` (the data fails a hypothesis) or
`growth` (the L^p mass plateaus) it is a property of the input.
"""

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import cartesian, fieldio, integrals, radial, solver
from .errors import BracketError, ConvergenceError, DomainError, UsageError
from .fields import MAX_NODES, PolarGrid
from .util import dump_json

EXIT_OK = 0
EXIT_COMPUTE = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64
EXIT_NOINPUT = 66


# ---------------------------------------------------------------------------
# config files and flag casts


def _load_config(path):
    """Sectioned key = value file; # starts a comment."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",), comment_prefixes=("#",), interpolation=None
    )
    cp.optionxform = str  # keys are case sensitive (H vs h)
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise UsageError("config file %s: %s" % (path, exc)) from exc
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def _with_config(argv):
    """argv with the --config file's section for its subcommand spliced in
    as --key=value tokens right after the subcommand. argparse keeps the
    last value it reads, so a flag in argv wins over the file."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    section = _load_config(path).get(argv[0], {})
    return argv[:1] + ["--%s=%s" % item for item in section.items()] + argv[1:]


def _finite(text):
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("%r is not a finite number" % text)
    return v


def _positive(cast):
    def positive(text):
        v = cast(text)
        if not v > 0:
            raise argparse.ArgumentTypeError("%r is not positive" % text)
        return v

    return positive


def _within(lo, hi):
    def within(text):
        v = _finite(text)
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError("%r lies outside [%g, %g]" % (text, lo, hi))
        return v

    return within


def _grid(text):
    n_s, _, n_th = str(text).lower().partition("x")
    try:
        return int(n_s), int(n_th)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like 128x256") from None


def _barrier_pair(text):
    l, L = (_finite(x) for x in str(text).split(","))
    return l, L


def _radii(text):
    """Either a:b[:step] (inclusive, at most MAX_NODES radii) or a comma list."""
    t = str(text).strip()
    if ":" in t:
        parts = [_finite(x) for x in t.split(":")]
        if len(parts) == 2:
            parts.append(1.0)
        if len(parts) != 3 or not (parts[2] > 0 and parts[1] >= parts[0]):
            raise argparse.ArgumentTypeError("radii must be a:b, a:b:step, or a comma list")
        a, b, step = parts
        count = (b - a) / step + 1e-9  # inf when step is tiny
        if not count < MAX_NODES:
            raise argparse.ArgumentTypeError("more than %d radii" % MAX_NODES)
        vals = [a + k * step for k in range(int(math.floor(count)) + 1)]
    else:
        vals = [_finite(x) for x in t.split(",") if x.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty radii list")
    return vals


# surface name -> its parameters with their defaults; every surface takes m too
_SURFACE_PARAMS = {
    "hyperboloid": {"l": 1.0},
    "bumped": {"eps": 0.05, "l": 1.0, "decay": 2.0},
    "saddle": {"amp": 1.2, "decay": 2.0, "l": 1.0},
}


def _parse_surface(spec, m=None):
    """Builtin analytic surfaces or a sampled field file.

    Returns (surface, chart_radius or None). chart_radius is set only for
    surfaces whose geodesic balls are chart-round.
    """
    name, _, rest = str(spec).partition(":")
    if name == "field":
        if not rest:
            raise UsageError("field surface needs a path: field:<file>")
        fld = fieldio.read_cartesian_field(rest)
        if m is not None and m != fld.grid.m:
            raise UsageError("field file has m = %d" % fld.grid.m)
        return fld, None
    if name not in _SURFACE_PARAMS:
        raise UsageError("unknown surface %r (hyperboloid, bumped, saddle, field:<path>)" % name)
    params = {}
    for item in filter(None, rest.split(",")):
        k, eq, v = item.partition("=")
        if not eq:
            raise UsageError("surface parameters look like l=1,eps=0.05")
        try:
            params[k.strip()] = _finite(v)
        except argparse.ArgumentTypeError as exc:
            raise UsageError("bad surface parameter %r" % item) from exc
    mm = m if m is not None else int(params.pop("m", 2))
    kw = dict(_SURFACE_PARAMS[name])
    unknown = sorted(set(params) - set(kw))
    if unknown:
        raise UsageError("unknown %s parameter(s): %s" % (name, unknown))
    kw.update(params)
    # factories are looked up at call time, so wrappers installed on the
    # cartesian module see every surface built here
    if name == "hyperboloid":
        return cartesian.hyperboloid(kw["l"], mm), integrals.hyperboloid_chart_radius(kw["l"])
    if name == "bumped":
        return cartesian.bumped_hyperboloid(m=mm, **kw), None
    if mm != 2:
        raise UsageError("the saddle surface is two dimensional")
    return cartesian.saddle_hyperboloid(**kw), None


# ---------------------------------------------------------------------------
# subcommands


def _cause(message):
    """Why Newton stopped, for a stdout line; nothing when it converged at tol."""
    return " (%s)" % message if message else ""


def cmd_solve(ns):
    H = solver.parse_curvature(ns.H)
    n_s, n_th = ns.grid
    fld, rep = solver.solve_dirichlet(
        H, ns.smax, n_s=n_s, n_theta=n_th, boundary=ns.boundary, tol=ns.tol,
        max_iters=ns.max_iters,
    )
    field_path = os.path.join(ns.outdir, ns.field_file)
    fieldio.write_radial_field(fld, field_path)
    back = fieldio.read_radial_field(field_path)
    doc = rep.as_dict()
    gap = float(np.abs(back.matrix() - fld.matrix()).max())
    doc.update({"H": ns.H, "boundary": ns.boundary, "field_file": os.path.basename(field_path),
                "roundtrip_max_gap": gap})
    dump_json(doc, os.path.join(ns.outdir, ns.report_file))
    print(
        "solve: converged=%s iterations=%d residual=%.3e u in [%.6f, %.6f]"
        % (rep.converged, rep.iterations, rep.residual_norm, rep.min_u, rep.max_u)
        + _cause(rep.message)
    )
    return EXIT_OK if rep.converged else EXIT_COMPUTE


def cmd_exhaustion(ns):
    H = solver.parse_curvature(ns.H)
    ex = solver.exhaustion(H, ns.radii, s0=ns.s0, ds=ns.ds, n_theta=ns.ntheta, tol=ns.tol,
                           lam=ns.lam)
    report_path = os.path.join(ns.outdir, ns.report_file)
    outdir = os.path.dirname(report_path) or "."
    names = []
    for k, fld in enumerate(ex.fields):
        name = "ball_%02d.field" % (k + 1)
        fieldio.write_radial_field(fld, os.path.join(outdir, name))
        names.append(name)
    doc = ex.as_dict()
    doc.update({"H": ns.H, "field_files": names})
    dump_json(doc, report_path)
    final = ex.compact_deltas[-1] if ex.compact_deltas else float("nan")
    tilt = max(ex.tilt_series) if ex.tilt_series else float("nan")
    print(
        "exhaustion: %d/%d balls converged, final compact delta %.3e, tilt max %.6f"
        % (sum(r.converged for r in ex.reports), len(ns.radii), final, tilt)
        + _cause(ex.reports[-1].message)
    )
    return EXIT_OK if ex.converged_all else EXIT_COMPUTE


def cmd_willmore(ns):
    obj, _ = _parse_surface(ns.surface, ns.m)
    rep = integrals.willmore_integral(obj, truncation=ns.R, threads=ns.threads)
    # the truncated integral may sit below the bound by what the tail holds
    tolerance = rep.quad_tolerance + rep.tail_estimate
    ok = rep.integral + tolerance >= rep.lower_bound
    doc = rep.as_dict()
    doc.update({"surface": ns.surface, "passes": bool(ok)})
    dump_json(doc, os.path.join(ns.outdir, ns.report_file))
    print(
        "willmore: integral %.9f vs bound %.9f (tolerance %.2e) -> %s"
        % (rep.integral, rep.lower_bound, tolerance, "ok" if ok else "VIOLATION")
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_growth(ns):
    obj, chart = _parse_surface(ns.surface, ns.m)
    series = integrals.lp_growth(obj, ns.p, ns.radii, chart_radius=chart)
    fieldio.write_series_csv(
        os.path.join(ns.outdir, ns.csv_file),
        {
            "rho": series.radii,
            "lp_norm": series.lp_norms,
            "lm_norm": series.lm_norms,
            "gauss_image": series.gauss_image_measure,
            "volume": series.volumes,
        },
    )
    stalled = ns.p <= series.m and series.plateaued
    print(
        "growth: p=%g m=%d norm %.6e -> %.6e over rho %g..%g%s"
        % (ns.p, series.m, series.lp_norms[0], series.lp_norms[-1], series.radii[0],
           series.radii[-1], " PLATEAU" if stalled else "")
    )
    return EXIT_VIOLATION if stalled else EXIT_OK


def cmd_check_h(ns):
    H = solver.parse_curvature(ns.H)
    requested = ns.lL
    rep = solver.check_hypotheses(H, n_t=ns.nt, n_s=ns.ns, s_span=ns.s_span,
                                  requested_radii=requested)
    doc = rep.as_dict()
    doc["H"] = ns.H
    dump_json(doc, os.path.join(ns.outdir, ns.report_file))
    ok = rep.passes["H1"] and rep.passes["H3"] and rep.passes["positive"]
    if requested is not None:
        ok = ok and rep.requested_ok
    flags = " ".join(k for k in ("H1", "H1p", "H2", "H3") if rep.passes.get(k))
    print(
        "check-h: %s passes [%s]%s barriers l=%s L=%s"
        % (
            ns.H,
            flags,
            "" if requested is None else " requested %s" % (("(%g, %g)" % requested)),
            "none" if rep.h3_l is None else "%.4f" % rep.h3_l,
            "none" if rep.h3_L is None else "%.4f" % rep.h3_L,
        )
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def _order_entry(suite, case, coarse, fine):
    """A residual at one step and at half of it, with the convergence order
    log2(coarse / fine); a residual an exact symmetry zeroes gives none."""
    order = None if coarse < 1e-10 else float(np.log2(coarse / fine))
    return {"suite": suite, "case": case, "coarse": coarse, "fine": fine, "order": order}


def cmd_identities(ns):
    n_s, n_th = ns.grid
    if n_s < 10:
        # the Poincare order passes 1.9 from n_s = 10 on (1.43 at 4, 1.86 at 8, 1.91 at 10)
        raise UsageError("identities needs n_s >= 10; coarser grids miss the asymptotic range")
    H = solver.parse_curvature(ns.H)
    PolarGrid(2 * n_s, 2 * n_th, ns.smax)  # the fine solve's grid passes its checks up front
    entries = [
        _order_entry("laplacian_w", name, *(
            radial.laplacian_w_residual(graph, 1.1, 0.8, step=h) for h in (ns.step, ns.step / 2)
        ))
        for name, graph in sorted(radial.builtin_identity_graphs().items())
    ]
    entries += [
        _order_entry("hessian_tau", label, *(
            radial.hessian_tau_residual(np.asarray(pt), step=h)
            for h in (ns.tau_step, ns.tau_step / 2)
        ))
        for label, pt in (("axis", [1.5, 0.0, 0.0]), ("generic", [2.0, 0.3, -0.4]))
    ]
    res = []
    for k in (1, 2):
        fld, rep = solver.solve_dirichlet(H, ns.smax, n_s=k * n_s, n_theta=k * n_th, precheck=False)
        if not rep.converged:
            raise ConvergenceError("chart suite solve did not converge")
        res.append(solver.poincare_residual(fld, H))
    entries.append(_order_entry("poincare", ns.H, *res))
    orders = [e["order"] for e in entries if e["order"] is not None]
    ok = all(o >= 1.9 for o in orders)
    report = {"entries": entries, "passes": bool(ok), "min_order": min(orders)}
    dump_json(report, os.path.join(ns.outdir, ns.report_file))
    for e in entries:
        order = "exact" if e["order"] is None else "%.3f" % e["order"]
        print("identities: %-12s %-12s %.3e -> %.3e order %s"
              % (e["suite"], e["case"], e["coarse"], e["fine"], order))
    print("identities: min order %.3f -> %s" % (min(orders), "ok" if ok else "VIOLATION"))
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    """Errors raise UsageError; flags are never abbreviated."""

    def __init__(self, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(**kwargs)

    def error(self, message):
        raise UsageError(message)


def _make_output_dirs(ns):
    """Create the directory of each output file (the --*-file flags) up front;
    an output path that cannot be a file is a usage error, not a missing input."""
    for path in (os.path.join(ns.outdir, v) for k, v in vars(ns).items() if k.endswith("_file")):
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        except OSError as exc:
            raise UsageError("cannot create the directory of output %s: %s" % (path, exc)) from None
        if os.path.isdir(path):
            raise UsageError("output %s is a directory" % path)


def make_parser():
    positive = _positive(_finite)
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="key = value file with one section per command")
    shared.add_argument("--outdir", default=".", help="directory for outputs (default .)")

    p = _Parser(prog="pmcsurf", description="spacelike graph curvature toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", parents=[shared], help="Dirichlet solve on one geodesic ball")
    s.add_argument("--H", required=True,
                   help="curvature data: const:<c>, rational[:eps], dilation, table:<csv>")
    s.add_argument("--smax", type=_finite, required=True, help="geodesic radius of the ball")
    s.add_argument("--grid", type=_grid, default="64x128", help="n_s x n_theta, e.g. 128x256")
    s.add_argument("--boundary", type=_finite, default=0.0, help="constant Dirichlet value")
    s.add_argument("--tol", type=positive, default=1e-10)
    s.add_argument("--max-iters", type=_positive(int), default=50)
    s.add_argument("--field-file", default="solution.field")
    s.add_argument("--report-file", default="solve_report.json")

    e = sub.add_parser("exhaustion", parents=[shared], help="solve on growing balls")
    e.add_argument("--H", required=True)
    e.add_argument("--radii", type=_radii, default="1:6", help="a:b[:step] or comma list")
    e.add_argument("--ds", type=_finite, help="shared radial spacing")
    e.add_argument("--ntheta", type=int, default=96)
    e.add_argument("--s0", type=_finite, default=1.0, help="compact ball for deltas")
    e.add_argument("--lam", type=_finite, default=2.0, help="dilation weight exponent")
    e.add_argument("--tol", type=positive, default=1e-10)
    e.add_argument("--report-file", default="exhaustion_report.json")

    w = sub.add_parser("willmore", parents=[shared], help="total curvature vs sharp bound")
    w.add_argument("--surface", required=True,
                   help="hyperboloid:l=1, bumped:eps=0.05, saddle, field:<file>")
    w.add_argument("--m", type=int)
    w.add_argument("--R", type=_finite, default=50.0, help="truncation radius")
    w.add_argument("--threads", type=int, help="worker threads (else PMC_THREADS, else 1)")
    w.add_argument("--report-file", default="willmore_report.json")

    g = sub.add_parser("growth", parents=[shared], help="L^p curvature mass on growing balls")
    g.add_argument("--surface", required=True)
    g.add_argument("--m", type=int)
    g.add_argument("--p", type=_finite, default=2.0)
    g.add_argument("--radii", type=_radii, default="1:8")
    g.add_argument("--csv-file", default="growth.csv")

    c = sub.add_parser("check-h", parents=[shared], help="sampled hypothesis checks")
    c.add_argument("--H", required=True)
    c.add_argument("--lL", type=_barrier_pair, help="requested barrier pair, e.g. 0.8,1.25")
    c.add_argument("--nt", type=int, default=41)
    c.add_argument("--ns", type=int, default=41)
    c.add_argument("--s-span", type=_finite, default=8.0)
    c.add_argument("--report-file", default="hypotheses_report.json")

    # the step windows sit inside the ranges where every order passes 1.9,
    # --step in [1e-3, 0.15] and --tau-step in [1e-3, 0.7]: below them
    # round-off in the differences takes over, above them higher order terms
    i = sub.add_parser("identities", parents=[shared], help="residual convergence orders")
    i.add_argument("--step", type=_within(1e-3, 0.1), default=0.08)
    i.add_argument("--tau-step", type=_within(1e-3, 0.5), default=2e-2)
    i.add_argument("--grid", type=_grid, default="32x64")
    i.add_argument("--smax", type=_finite, default=3.0)
    i.add_argument("--H", default="rational:0.1")
    i.add_argument("--report-file", default="identities_report.json")

    return p


_COMMANDS = {
    "solve": cmd_solve,
    "exhaustion": cmd_exhaustion,
    "willmore": cmd_willmore,
    "growth": cmd_growth,
    "check-h": cmd_check_h,
    "identities": cmd_identities,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = make_parser().parse_args(_with_config(argv))
        _make_output_dirs(ns)
        return _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print("error: missing input file: %s" % exc, file=sys.stderr)
        return EXIT_NOINPUT
    except (DomainError, BracketError, ConvergenceError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTE


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
