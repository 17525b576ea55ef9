"""Command line front end: solves, exhaustion runs, and verification reports.

Exit codes follow one contract across subcommands: 0 success, 2 a
computation failed to converge or broke down, 3 an output violates a
bound it is guaranteed to satisfy (which flags a kernel bug, not bad
luck), 64 malformed flags or config, 66 a missing input file.
"""

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import cartesian, fieldio, integrals, radial, solver
from .errors import BracketError, ConvergenceError, DomainError, UsageError
from .util import default_threads, dump_json

EXIT_OK = 0
EXIT_COMPUTE = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64
EXIT_NOINPUT = 66


# ---------------------------------------------------------------------------
# config plumbing


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
    except configparser.Error as exc:
        raise UsageError("config file %s: %s" % (path, exc)) from exc
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


class RunConfig:
    """Merged view of one command's parameters: flags beat file beats default."""

    def __init__(self, ns, section):
        self._ns = vars(ns)
        self._sec = dict(section)
        # threads and outdir are legal in any section even when unused
        self._seen = {"threads", "outdir"}

    def get(self, key, default=None, cast=str, positive=False):
        """The flag, else the file's value cast, else default; a non-finite
        float, or with positive a value <= 0, is a usage error."""
        self._seen.add(key)
        val = self._ns.get(key.replace("-", "_"))
        if val is None:
            raw = self._sec.get(key)
            if raw is None:
                return default
            try:
                val = cast(raw)
            except (TypeError, ValueError) as exc:
                raise UsageError("config key %r: %s" % (key, exc)) from exc
        if isinstance(val, float) and not math.isfinite(val):
            raise UsageError("%s must be finite, got %r" % (key, val))
        if positive and not val > 0:
            raise UsageError("%s must be positive, got %r" % (key, val))
        return val

    def require(self, key, cast=str):
        val = self.get(key, None, cast)
        if val is None:
            raise UsageError("missing required parameter %r" % key)
        return val

    def check_consumed(self):
        extra = sorted(set(self._sec) - self._seen)
        if extra:
            raise UsageError("unknown config key(s): %s" % ", ".join(extra))


def _parse_grid(text):
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise UsageError("grid must look like 128x256")
    try:
        n_s, n_th = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError("grid must look like 128x256") from exc
    return n_s, n_th


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("%r is not finite" % text)
    return v


def _barrier_pair(text):
    l, L = (_finite(x) for x in str(text).split(","))
    return l, L


def _parse_radii(text):
    """Either a:b[:step] (inclusive) or a comma list."""
    t = str(text).strip()
    try:
        if ":" in t:
            parts = [_finite(x) for x in t.split(":")]
            if len(parts) == 2:
                a, b, step = parts[0], parts[1], 1.0
            elif len(parts) == 3:
                a, b, step = parts
            else:
                raise ValueError(t)
            if step <= 0 or b < a:
                raise ValueError(t)
            n = int(math.floor((b - a) / step + 1e-9))
            vals = [a + k * step for k in range(n + 1)]
        else:
            vals = [_finite(x) for x in t.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError("radii must be a:b, a:b:step, or a comma list of finite numbers") from exc
    if not vals:
        raise UsageError("empty radii list")
    return vals


def _parse_surface(spec, m=None):
    """Builtin analytic surfaces or a sampled field file.

    Returns (object, chart_radius or None, meta dict). chart_radius is set
    only for surfaces whose geodesic balls are chart-round.
    """
    name, _, rest = str(spec).partition(":")
    if name == "field":
        if not rest:
            raise UsageError("field surface needs a path: field:<file>")
        fld = fieldio.read_cartesian_field(rest)
        if m is not None and int(m) != fld.grid.m:
            raise UsageError("field file has m = %d" % fld.grid.m)
        return fld, None, {"surface": spec, "m": fld.grid.m}
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        k, eq, v = item.partition("=")
        if not eq:
            raise UsageError("surface parameters look like l=1,eps=0.05")
        try:
            params[k.strip()] = _finite(v)
        except ValueError as exc:
            raise UsageError("bad surface parameter %r" % item) from exc
    mm = int(m) if m is not None else int(params.pop("m", 2))
    if name == "hyperboloid":
        l = params.pop("l", 1.0)
        if params:
            raise UsageError("unknown hyperboloid parameter(s): %s" % sorted(params))
        surf = cartesian.hyperboloid(l, mm)
        return surf, integrals.hyperboloid_chart_radius(l), {"surface": spec, "m": mm}
    if name == "bumped":
        eps = params.pop("eps", 0.05)
        l = params.pop("l", 1.0)
        decay = params.pop("decay", 2.0)
        if params:
            raise UsageError("unknown bumped parameter(s): %s" % sorted(params))
        surf = cartesian.bumped_hyperboloid(eps, l=l, m=mm, decay=decay)
        return surf, None, {"surface": spec, "m": mm}
    if name == "saddle":
        amp = params.pop("amp", 1.2)
        decay = params.pop("decay", 2.0)
        l = params.pop("l", 1.0)
        if params:
            raise UsageError("unknown saddle parameter(s): %s" % sorted(params))
        if mm != 2:
            raise UsageError("the saddle surface is two dimensional")
        surf = cartesian.saddle_hyperboloid(amp=amp, decay=decay, l=l)
        return surf, None, {"surface": spec, "m": 2}
    raise UsageError("unknown surface %r (hyperboloid, bumped, saddle, field:<path>)" % name)


def _outpath(conf, key, default):
    outdir = conf.get("outdir", ".")
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, conf.get(key, default))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(conf):
    hspec = conf.require("H")
    H = solver.parse_curvature(hspec)
    s_max = conf.require("smax", float)
    n_s, n_th = _parse_grid(conf.get("grid", "64x128"))
    boundary = conf.get("boundary", 0.0, float)
    tol = conf.get("tol", 1e-10, float, positive=True)
    max_iters = conf.get("max-iters", 50, int, positive=True)
    field_path = _outpath(conf, "field-file", "solution.field")
    report_path = _outpath(conf, "report-file", "solve_report.json")
    conf.check_consumed()

    fld, rep = solver.solve_dirichlet(
        H, s_max, n_s=n_s, n_theta=n_th, boundary=boundary, tol=tol, max_iters=max_iters
    )
    fieldio.write_radial_field(fld, field_path)
    back = fieldio.read_radial_field(field_path)
    doc = rep.as_dict()
    doc.update(
        {
            "H": hspec,
            "boundary": boundary,
            "field_file": os.path.basename(field_path),
            "roundtrip_max_gap": float(np.abs(back.matrix() - fld.matrix()).max()),
        }
    )
    dump_json(doc, report_path)
    print(
        "solve: converged=%s iterations=%d residual=%.3e u in [%.6f, %.6f]"
        % (rep.converged, rep.iterations, rep.residual_norm, rep.min_u, rep.max_u)
    )
    return EXIT_OK if rep.converged else EXIT_COMPUTE


def cmd_exhaustion(conf):
    hspec = conf.require("H")
    H = solver.parse_curvature(hspec)
    radii = _parse_radii(conf.get("radii", "1:6"))
    ds = conf.get("ds", None, float)
    n_theta = conf.get("ntheta", 96, int)
    s0 = conf.get("s0", 1.0, float)
    lam = conf.get("lam", 2.0, float)
    tol = conf.get("tol", 1e-10, float, positive=True)
    report_path = _outpath(conf, "report-file", "exhaustion_report.json")
    conf.check_consumed()

    ex = solver.exhaustion(H, radii, s0=s0, ds=ds, n_theta=n_theta, tol=tol, lam=lam)
    names = []
    outdir = os.path.dirname(report_path) or "."
    for k, fld in enumerate(ex.fields):
        name = "ball_%02d.field" % (k + 1)
        fieldio.write_radial_field(fld, os.path.join(outdir, name))
        names.append(name)
    doc = ex.as_dict()
    doc.update({"H": hspec, "field_files": names})
    dump_json(doc, report_path)
    final = ex.compact_deltas[-1] if ex.compact_deltas else float("nan")
    print(
        "exhaustion: %d/%d balls converged, final compact delta %.3e, tilt max %.6f"
        % (
            sum(r.converged for r in ex.reports),
            len(radii),
            final,
            max(ex.tilt_series) if ex.tilt_series else float("nan"),
        )
    )
    return EXIT_OK if ex.converged_all else EXIT_COMPUTE


def cmd_willmore(conf):
    spec = conf.require("surface")
    m = conf.get("m", None, int)
    R = conf.get("R", 50.0, float)
    threads = conf.get("threads", default_threads(), int)
    report_path = _outpath(conf, "report-file", "willmore_report.json")
    conf.check_consumed()

    obj, _, _ = _parse_surface(spec, m)
    rep = integrals.willmore_integral(obj, truncation=R, threads=threads)
    # the truncated integral may sit below the bound by what the tail holds
    tolerance = rep.quad_tolerance + rep.tail_estimate
    ok = rep.integral + tolerance >= rep.lower_bound
    doc = rep.as_dict()
    doc.update({"surface": spec, "passes": bool(ok)})
    dump_json(doc, report_path)
    print(
        "willmore: integral %.9f vs bound %.9f (tolerance %.2e) -> %s"
        % (rep.integral, rep.lower_bound, tolerance, "ok" if ok else "VIOLATION")
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_growth(conf):
    spec = conf.require("surface")
    m = conf.get("m", None, int)
    p = conf.get("p", 2.0, float)
    radii = _parse_radii(conf.get("radii", "1:8"))
    csv_path = _outpath(conf, "csv-file", "growth.csv")
    conf.check_consumed()

    obj, chart, _ = _parse_surface(spec, m)
    series = integrals.lp_growth(obj, p, radii, chart_radius=chart)
    fieldio.write_series_csv(
        csv_path,
        {
            "rho": series.radii,
            "lp_norm": series.lp_norms,
            "lm_norm": series.lm_norms,
            "gauss_image": series.gauss_image_measure,
            "volume": series.volumes,
        },
    )
    stalled = p <= series.m and series.plateaued
    print(
        "growth: p=%g m=%d norm %.6e -> %.6e over rho %g..%g%s"
        % (
            p,
            series.m,
            series.lp_norms[0],
            series.lp_norms[-1],
            series.radii[0],
            series.radii[-1],
            " PLATEAU" if stalled else "",
        )
    )
    return EXIT_VIOLATION if stalled else EXIT_OK


def cmd_check_h(conf):
    hspec = conf.require("H")
    H = solver.parse_curvature(hspec)
    requested = conf.get("lL", None, _barrier_pair)
    n_t = conf.get("nt", 41, int)
    n_s = conf.get("ns", 41, int)
    s_span = conf.get("s-span", 8.0, float)
    report_path = _outpath(conf, "report-file", "hypotheses_report.json")
    conf.check_consumed()

    rep = solver.check_hypotheses(
        H, n_t=n_t, n_s=n_s, s_span=s_span, requested_radii=requested
    )
    doc = rep.as_dict()
    doc["H"] = hspec
    dump_json(doc, report_path)
    ok = rep.passes["H1"] and rep.passes["H3"] and rep.passes["positive"]
    if requested is not None:
        ok = ok and rep.requested_ok
    flags = " ".join(k for k in ("H1", "H1p", "H2", "H3") if rep.passes.get(k))
    print(
        "check-h: %s passes [%s]%s barriers l=%s L=%s"
        % (
            hspec,
            flags,
            "" if requested is None else " requested %s" % (("(%g, %g)" % requested)),
            "none" if rep.h3_l is None else "%.4f" % rep.h3_l,
            "none" if rep.h3_L is None else "%.4f" % rep.h3_L,
        )
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_identities(conf):
    step = conf.get("step", 0.08, float, positive=True)
    tau_step = conf.get("tau-step", 2e-2, float, positive=True)
    n_s, n_th = _parse_grid(conf.get("grid", "32x64"))
    if n_s < 10:
        # the Poincare order passes 1.9 from n_s = 10 on (1.43 at 4, 1.86 at 8, 1.91 at 10)
        raise UsageError("identities needs n_s >= 10; coarser grids miss the asymptotic range")
    s_max = conf.get("smax", 3.0, float)
    hspec = conf.get("H", "rational:0.1")
    report_path = _outpath(conf, "report-file", "identities_report.json")
    conf.check_consumed()

    floor = 1e-10  # identities an exact symmetry satisfies give no order
    entries = []
    for name, graph in sorted(radial.builtin_identity_graphs().items()):
        r1 = radial.laplacian_w_residual(graph, 1.1, 0.8, step=step)
        r2 = radial.laplacian_w_residual(graph, 1.1, 0.8, step=step / 2)
        order = None if r1 < floor else float(np.log2(r1 / r2))
        entries.append(
            {"suite": "laplacian_w", "case": name, "coarse": r1, "fine": r2, "order": order}
        )
    for label, pt in (("axis", [1.5, 0.0, 0.0]), ("generic", [2.0, 0.3, -0.4])):
        r1 = radial.hessian_tau_residual(np.asarray(pt), step=tau_step)
        r2 = radial.hessian_tau_residual(np.asarray(pt), step=tau_step / 2)
        order = None if r1 < floor else float(np.log2(r1 / r2))
        entries.append(
            {"suite": "hessian_tau", "case": label, "coarse": r1, "fine": r2, "order": order}
        )
    H = solver.parse_curvature(hspec)
    res = {}
    for k, (ns_k, nth_k) in enumerate(((n_s, n_th), (2 * n_s, 2 * n_th))):
        fld, rep = solver.solve_dirichlet(H, s_max, n_s=ns_k, n_theta=nth_k, precheck=False)
        if not rep.converged:
            raise ConvergenceError("chart suite solve did not converge")
        res[k] = solver.poincare_residual(fld, H)
    entries.append(
        {
            "suite": "poincare",
            "case": hspec,
            "coarse": res[0],
            "fine": res[1],
            "order": float(np.log2(res[0] / res[1])),
        }
    )
    orders = [e["order"] for e in entries if e["order"] is not None]
    ok = all(o >= 1.9 for o in orders)
    dump_json({"entries": entries, "passes": bool(ok), "min_order": min(orders)}, report_path)
    for e in entries:
        print(
            "identities: %-12s %-12s %.3e -> %.3e order %s"
            % (
                e["suite"],
                e["case"],
                e["coarse"],
                e["fine"],
                "exact" if e["order"] is None else "%.3f" % e["order"],
            )
        )
    print("identities: min order %.3f -> %s" % (min(orders), "ok" if ok else "VIOLATION"))
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def make_parser():
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="key = value file with one section per command")
    shared.add_argument("--threads", type=int, help="worker threads (else PMC_THREADS, else 1)")
    shared.add_argument("--outdir", help="directory for outputs (default .)")

    p = _Parser(prog="pmcsurf", description="spacelike graph curvature toolkit")
    sub = p.add_subparsers(dest="command")

    s = sub.add_parser("solve", parents=[shared], help="Dirichlet solve on one geodesic ball")
    s.add_argument("--H", help="curvature data: const:<c>, rational[:eps], dilation, table:<csv>")
    s.add_argument("--smax", type=float, help="geodesic radius of the ball")
    s.add_argument("--grid", help="n_s x n_theta, e.g. 128x256")
    s.add_argument("--boundary", type=float, help="constant Dirichlet value (default 0)")
    s.add_argument("--tol", type=float)
    s.add_argument("--max-iters", type=int)
    s.add_argument("--field-file")
    s.add_argument("--report-file")

    e = sub.add_parser("exhaustion", parents=[shared], help="solve on growing balls")
    e.add_argument("--H")
    e.add_argument("--radii", help="a:b[:step] or comma list")
    e.add_argument("--ds", type=float, help="shared radial spacing")
    e.add_argument("--ntheta", type=int)
    e.add_argument("--s0", type=float, help="compact ball for deltas")
    e.add_argument("--lam", type=float, help="dilation weight exponent")
    e.add_argument("--tol", type=float)
    e.add_argument("--report-file")

    w = sub.add_parser("willmore", parents=[shared], help="total curvature vs sharp bound")
    w.add_argument("--surface", help="hyperboloid:l=1, bumped:eps=0.05, saddle, field:<file>")
    w.add_argument("--m", type=int)
    w.add_argument("--R", type=float, help="truncation radius")
    w.add_argument("--report-file")

    g = sub.add_parser("growth", parents=[shared], help="L^p curvature mass on growing balls")
    g.add_argument("--surface")
    g.add_argument("--m", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--radii")
    g.add_argument("--csv-file")

    c = sub.add_parser("check-h", parents=[shared], help="sampled hypothesis checks")
    c.add_argument("--H")
    c.add_argument("--lL", type=_barrier_pair, help="requested barrier pair, e.g. 0.8,1.25")
    c.add_argument("--nt", type=int)
    c.add_argument("--ns", type=int)
    c.add_argument("--s-span", type=float)
    c.add_argument("--report-file")

    i = sub.add_parser("identities", parents=[shared], help="residual convergence orders")
    i.add_argument("--step", type=float)
    i.add_argument("--tau-step", type=float)
    i.add_argument("--grid")
    i.add_argument("--smax", type=float)
    i.add_argument("--H")
    i.add_argument("--report-file")

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
    parser = make_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise UsageError("a subcommand is required (see --help)")
        sections = _load_config(ns.config) if ns.config else {}
        conf = RunConfig(ns, sections.get(ns.command, {}))
        return _COMMANDS[ns.command](conf)
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
